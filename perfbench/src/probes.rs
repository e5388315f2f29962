//! Single-call probes of the traced run: one public call timed many
//! times, median reported, each inside a span named after its crate.
//! Also the per-inference latency loops of the `sweep` and `library`
//! workloads' untraced runs.

use std::time::Instant;

use redcane::{DatapathAssignment, GaussianNoiseInjector, NoiseModel, NoiseTarget};
use redcane_axmul::{InputDistribution, MulLut};
use redcane_capsnet::routing::dynamic_routing;
use redcane_capsnet::{CapsModel, NoInjection, OpKind};
use redcane_datasets::Dataset;
use redcane_nn::layers::Conv2d;
use redcane_qdp::kernels::qgemm_nn;
use redcane_qdp::PreparedModel;
use redcane_tensor::ops::gemm::gemm_nn;
use redcane_tensor::{Tensor, TensorRng};

use crate::fixture::{with_net, Arch, Fixture, CHARACTERIZATION_SAMPLES, EXACT};
use crate::spans::Tracer;
use crate::stats::median;

/// Repetitions per probe.
const REPS: usize = 31;

/// Median seconds per call of `f` over [`REPS`] calls, after one warm-up
/// call.
fn per_call(mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// DeepCaps' last-cell 3x3 convolution lowered to GEMM, and the small
/// stem convolution.
pub const CELL4: (usize, usize, usize) = (256, 2304, 16);
pub const STEM: (usize, usize, usize) = (24, 49, 100);

fn macs((m, k, n): (usize, usize, usize)) -> f64 {
    (m * k * n) as f64
}

/// Float GEMM seconds per call at `shape`.
pub fn gemm_s((m, k, n): (usize, usize, usize), tr: &mut Tracer) -> f64 {
    let mut rng = TensorRng::from_seed(77);
    let a: Vec<f32> = (0..m * k).map(|_| rng.next_uniform(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.next_uniform(-1.0, 1.0)).collect();
    let mut c = vec![0.0f32; m * n];
    tr.span("tensor.gemm_nn", None, |_| {
        per_call(|| {
            c.fill(0.0);
            gemm_nn(std::hint::black_box(&a), &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        })
    })
}

/// Quantized GEMM seconds per call at `shape` through `lut`.
pub fn qgemm_s((m, k, n): (usize, usize, usize), lut: &MulLut, tr: &mut Tracer) -> f64 {
    let mut rng = TensorRng::from_seed(81);
    let a: Vec<u8> = (0..m * k)
        .map(|_| rng.next_uniform(0.0, 256.0) as u8)
        .collect();
    let b: Vec<u8> = (0..k * n)
        .map(|_| rng.next_uniform(0.0, 256.0) as u8)
        .collect();
    let mut c = vec![0u32; m * n];
    tr.span("qdp.qgemm_nn", None, |_| {
        per_call(|| {
            c.fill(0);
            qgemm_nn(std::hint::black_box(&a), &b, &mut c, m, k, n, lut);
            std::hint::black_box(&c);
        })
    })
}

/// Multiply-accumulates per second of a GEMM taking `s` seconds.
pub fn macs_per_s(shape: (usize, usize, usize), s: f64) -> f64 {
    macs(shape) / s
}

/// Microseconds of one noise-injected float forward of one sample.
pub fn noisy_forward_us(
    fx: &Fixture,
    arch: Arch,
    data: &Dataset,
    seed: u64,
    tr: &mut Tracer,
) -> f64 {
    let mut net = fx.arch(arch).net.clone();
    let mut inj = injector(seed);
    let mut i = 0;
    tr.span("capsnet.forward", Some(arch.label()), |_| {
        per_call(|| {
            let x = &data.samples[i % data.len()].image;
            i += 1;
            with_net!(&mut net, m => std::hint::black_box(m.forward(x, &mut inj)));
        })
    }) * 1e6
}

fn injector(seed: u64) -> GaussianNoiseInjector {
    GaussianNoiseInjector::new(
        NoiseModel::new(0.05, 0.0),
        NoiseTarget::group(OpKind::MacOutput),
        seed,
    )
}

/// Microseconds of one `dynamic_routing` over the small CapsNet's
/// ClassCaps votes.
pub fn routing_us(tr: &mut Tracer) -> f64 {
    let votes = TensorRng::from_seed(79).uniform(&[72, 10, 8, 1], -1.0, 1.0);
    tr.span("capsnet.dynamic_routing", None, |_| {
        per_call(|| {
            std::hint::black_box(dynamic_routing(votes.clone(), 3, 0, "P", &mut NoInjection));
        })
    }) * 1e6
}

/// Microseconds of one stem convolution (1x16x16 input, 24 7x7 filters).
pub fn conv2d_us(tr: &mut Tracer) -> f64 {
    let mut rng = TensorRng::from_seed(78);
    let mut conv = Conv2d::new(1, 24, 7, 1, 0, &mut rng);
    let input = rng.uniform(&[1, 16, 16], 0.0, 1.0);
    tr.span("nn.conv2d_forward", None, |_| {
        per_call(|| {
            std::hint::black_box(conv.forward_chw(input.data(), 16, 16));
        })
    }) * 1e6
}

/// Seconds to characterize the whole library once (Step 6's first step).
pub fn characterize_s(fx: &Fixture, seed: u64, tr: &mut Tracer) -> f64 {
    let t = Instant::now();
    tr.span("axmul.characterize_all", None, |_| {
        std::hint::black_box(fx.library.characterize_all(
            &InputDistribution::Uniform,
            CHARACTERIZATION_SAMPLES,
            seed,
        ));
    });
    t.elapsed().as_secs_f64()
}

/// Microseconds per sample of quantized forward under the exact
/// multiplier, one sample at a time and fused at batch 16.
pub fn qforward_us(fx: &Fixture, arch: Arch, data: &Dataset, tr: &mut Tracer) -> (f64, f64) {
    const BATCH: usize = 16;
    let q = fx.arch(arch).qmodel();
    let exact = DatapathAssignment::uniform(EXACT);
    let label = Some(arch.label());
    let mut i = 0;
    let single = tr.span("qdp.forward", label, |_| {
        per_call(|| {
            let x = &data.samples[i % data.len()].image;
            i += 1;
            std::hint::black_box(
                q.forward(x, &exact, &fx.luts)
                    .expect("exact covers every site"),
            );
        })
    });
    let xs: Vec<&Tensor> = data
        .samples
        .iter()
        .cycle()
        .take(BATCH)
        .map(|s| &s.image)
        .collect();
    let batch = tr.span("qdp.forward_batch", label, |_| {
        per_call(|| {
            std::hint::black_box(
                q.forward_batch(&xs, &exact, &fx.luts)
                    .expect("exact covers every site"),
            );
        })
    });
    (single * 1e6, batch / BATCH as f64 * 1e6)
}

/// Milliseconds of one `PreparedModel::predict_batch` call at `batch`.
pub fn predict_batch_ms(fx: &Fixture, arch: Arch, batch: usize, tr: &mut Tracer) -> f64 {
    let a = fx.arch(arch);
    let prepared = PreparedModel::new(
        a.qmodel().clone(),
        &DatapathAssignment::uniform(EXACT),
        &fx.luts,
    )
    .expect("exact covers every site");
    let xs: Vec<&Tensor> = fx
        .pair
        .test
        .samples
        .iter()
        .cycle()
        .take(batch)
        .map(|s| &s.image)
        .collect();
    tr.span("qdp.predict_batch", Some(arch.label()), |_| {
        per_call(|| {
            std::hint::black_box(prepared.predict_batch(&xs));
        })
    }) * 1e3
}

/// Latencies in milliseconds of inferences `from..from + n` of one sample
/// on both architectures in turn: noise-injected float forwards
/// (`quantized == false`) or quantized predictions cycling through every
/// library component. The sample of inference `i` is a seeded pick.
pub fn inference_latencies_ms(
    fx: &Fixture,
    from: usize,
    n: usize,
    seed: u64,
    quantized: bool,
) -> Vec<f64> {
    let data = &fx.pair.test;
    let names: Vec<&str> = fx.library.iter().map(|e| e.name()).collect();
    let mut nets: Vec<_> = fx.archs.iter().map(|a| a.net.clone()).collect();
    let mut inj = injector(seed);
    (from..from + n)
        .map(|i| {
            let x = &data.samples
                [(redcane::faults::mix64(seed, 0x1a7, i as u64) % data.len() as u64) as usize]
                .image;
            let assignment = DatapathAssignment::uniform(names[i % names.len()]);
            let t = Instant::now();
            for (a, net) in fx.archs.iter().zip(&mut nets) {
                if quantized {
                    std::hint::black_box(
                        a.qmodel()
                            .predict(x, &assignment, &fx.luts)
                            .expect("uniform covers every site"),
                    );
                } else {
                    with_net!(net, m => std::hint::black_box(m.predict_with(x, &mut inj)));
                }
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The approximate LUT the qgemm probes use next to the exact one.
pub fn approx_lut(fx: &Fixture) -> MulLut {
    let name = crate::fixture::cheapest(&fx.library);
    fx.luts.get(&name).expect("library LUT tabulated").clone()
}
