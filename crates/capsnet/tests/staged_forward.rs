//! `CapsModel::forward_from` resumes a pass exactly: started at stage `s`
//! from the input a full pass fed that stage, it returns the full pass's
//! output bit for bit, as long as every noisy site lies in stage `s` or
//! later. The resilience sweep's prefix cache rests on this.

use redcane::noise::{GaussianNoiseInjector, NoiseModel, NoiseTarget};
use redcane_capsnet::{
    CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, Injector, NoInjection, OpKind,
    OpSite,
};
use redcane_tensor::{Tensor, TensorRng};

/// Records every stage input and the layers first seen in each stage.
#[derive(Default)]
struct StageTap {
    inputs: Vec<Tensor>,
    /// `layers[s]`: names of the layers whose MAC outputs appear in stage `s`.
    layers: Vec<Vec<String>>,
}

impl Injector for StageTap {
    fn inject(&mut self, site: &OpSite, _tensor: &mut Tensor) {
        let seen = self.layers.iter().flatten().any(|l| *l == site.layer_name);
        if site.kind == OpKind::MacOutput && !seen {
            let stage = self.layers.last_mut().expect("a stage was entered");
            stage.push(site.layer_name.clone());
        }
    }

    fn enter_stage(&mut self, stage: usize, input: &Tensor) {
        assert_eq!(stage, self.inputs.len(), "stages are entered in order");
        self.inputs.push(input.clone());
        self.layers.push(Vec::new());
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn noisy(layer: &str, seed: u64) -> GaussianNoiseInjector {
    GaussianNoiseInjector::new(
        NoiseModel::new(0.3, 0.0),
        NoiseTarget::layer(OpKind::MacOutput, layer),
        seed,
    )
}

fn check_staged_forward<M: CapsModel>(model: &mut M, stages: usize, x: &Tensor) {
    let mut tap = StageTap::default();
    let clean = model.forward(x, &mut tap);
    assert_eq!(
        tap.inputs.len(),
        stages,
        "{}: one input per stage",
        model.name()
    );
    assert_eq!(bits(&tap.inputs[0]), bits(x), "stage 0 consumes the image");
    assert_eq!(
        bits(&model.forward_from(0, x, &mut NoInjection)),
        bits(&clean),
        "forward == forward_from(0)"
    );
    for s in 0..stages {
        assert_eq!(
            bits(&model.forward_from(s, &tap.inputs[s], &mut NoInjection)),
            bits(&clean),
            "{}: clean resume at stage {s}",
            model.name()
        );
        for (t, layers) in tap.layers.iter().enumerate().skip(s) {
            for (i, layer) in layers.iter().enumerate() {
                let seed = (100 * s + 10 * t + i) as u64;
                let mut full_inj = noisy(layer, seed);
                let full = model.forward(x, &mut full_inj);
                let mut from_inj = noisy(layer, seed);
                let resumed = model.forward_from(s, &tap.inputs[s], &mut from_inj);
                assert!(full_inj.injections > 0, "{layer} was never hit");
                assert_eq!(full_inj.injections, from_inj.injections);
                assert_eq!(
                    bits(&resumed),
                    bits(&full),
                    "{}: noise at {layer} (stage {t}), resumed at stage {s}",
                    model.name()
                );
                let mut zero_inj = noisy(layer, seed);
                assert_eq!(
                    bits(&model.forward_from(0, x, &mut zero_inj)),
                    bits(&full),
                    "forward == forward_from(0) under noise"
                );
            }
        }
    }
}

#[test]
fn capsnet_forward_from_every_stage_matches_forward() {
    let mut rng = TensorRng::from_seed(1601);
    let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
    let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
    check_staged_forward(&mut model, CapsNet::STAGES, &x);
}

#[test]
fn deepcaps_forward_from_every_stage_matches_forward() {
    let mut rng = TensorRng::from_seed(1602);
    let mut model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
    let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
    check_staged_forward(&mut model, DeepCaps::STAGES, &x);
}

#[test]
fn stage_layers_follow_the_documented_split() {
    let mut rng = TensorRng::from_seed(1603);
    let mut capsnet = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
    let mut tap = StageTap::default();
    let _ = capsnet.forward(&rng.uniform(&[1, 16, 16], 0.0, 1.0), &mut tap);
    assert_eq!(
        tap.layers,
        [vec!["Conv1"], vec!["PrimaryCaps"], vec!["ClassCaps"]]
    );
    let mut deepcaps = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
    let mut tap = StageTap::default();
    let _ = deepcaps.forward(&rng.uniform(&[1, 16, 16], 0.0, 1.0), &mut tap);
    let caps2d = |r: std::ops::RangeInclusive<usize>| -> Vec<String> {
        r.map(|i| format!("Caps2D{i}")).collect()
    };
    assert_eq!(tap.layers[0], ["Conv2D"]);
    assert_eq!(tap.layers[1], caps2d(1..=4));
    assert_eq!(tap.layers[2], caps2d(5..=8));
    assert_eq!(tap.layers[3], caps2d(9..=12));
    assert_eq!(
        tap.layers[4],
        ["Caps2D13", "Caps2D14", "Caps3D", "Caps2D15"]
    );
    assert_eq!(tap.layers[5], ["ClassCaps"]);
}

#[test]
#[should_panic(expected = "no stage")]
fn forward_from_past_the_last_stage_panics() {
    let mut rng = TensorRng::from_seed(1604);
    let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
    let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
    let _ = model.forward_from(CapsNet::STAGES, &x, &mut NoInjection);
}
