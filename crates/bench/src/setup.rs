//! The model set-up the `qdp`, `faults` and `serve` benches share.
//!
//! All three train (or restore) the same small CapsNet and DeepCaps
//! under one artifact key, lower each onto the quantized datapath once,
//! and then do their own work on it. [`ModelKnobs`] holds every knob
//! that set-up depends on; `run_archs` performs it once per
//! configured architecture and hands the result to the bench's
//! `PerArch` body. `step6_design` builds the paper's Step-6
//! per-layer design the `qdp` bench reports and the `serve` bench
//! serves.

use std::path::PathBuf;

use redcane::{ApproxDesign, MethodologyConfig, RedCaNe, SelectionConfig, SweepConfig};
use redcane_artifacts::{
    fingerprint, load_or_train, ArtifactKey, ArtifactPayload, ArtifactStore, ComponentNoise,
    Provenance,
};
use redcane_axmul::{InputDistribution, LutCache, MultiplierLibrary};
use redcane_capsnet::{
    train, CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, TrainConfig,
};
use redcane_datasets::{generate, Benchmark, Dataset, DatasetPair, GenerateConfig};
use redcane_qdp::{CalibrationObserver, QModel, QuantMeasured, QuantRanges};
use redcane_tensor::{par, TensorRng};
use redcane_trace as trace;

use crate::qdp::QdpArch;

/// Values retained per MAC-input site for the empirical operand pools.
const CALIB_SAMPLES_PER_SITE: usize = 512;
/// Cap on the quantized-weight operand pool.
pub(crate) const WEIGHT_POOL_CODES: usize = 4096;

/// The dataset, training, calibration and evaluation knobs the `qdp`,
/// `faults` and `serve` benches share. All three derive the same
/// artifact key from them ([`ModelKnobs::key`]), so one trained
/// artifact — weights, calibrated ranges, the calibration operand pool,
/// the `(NA, NM)` noise table and the fault-characterization table —
/// serves any of them, whichever trains first.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelKnobs {
    /// Which benchmark family to synthesize.
    pub benchmark: Benchmark,
    /// Master seed (dataset, init, training, characterization and every
    /// bench-specific draw).
    pub seed: u64,
    /// Architectures to run, in output order.
    pub archs: Vec<QdpArch>,
    /// Training samples to generate.
    pub train: usize,
    /// Test samples to generate.
    pub test: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Clean training inputs swept through the float network to
    /// calibrate the quantization ranges.
    pub calib_samples: usize,
    /// Samples per component `(NA, NM)` and fault-model
    /// characterization.
    pub characterization_samples: usize,
    /// Size of the test subset every evaluation (or served request)
    /// draws from.
    pub eval_samples: usize,
    /// Trained-artifact store directory: restore when a valid entry
    /// exists, train and persist otherwise. `None` disables the store.
    pub artifacts: Option<PathBuf>,
}

impl ModelKnobs {
    /// Full size: both architectures, models trained well above chance.
    pub fn smoke() -> Self {
        ModelKnobs {
            benchmark: Benchmark::MnistLike,
            seed: 1,
            archs: vec![QdpArch::CapsNet, QdpArch::DeepCaps],
            train: 600,
            test: 150,
            epochs: 6,
            batch_size: 16,
            lr: 2e-3,
            calib_samples: 64,
            characterization_samples: 4000,
            eval_samples: 40,
            artifacts: None,
        }
    }

    /// CI-sized: scaled-down training and evaluation.
    pub fn quick() -> Self {
        ModelKnobs {
            train: 200,
            test: 60,
            epochs: 3,
            calib_samples: 32,
            characterization_samples: 2000,
            eval_samples: 30,
            ..ModelKnobs::smoke()
        }
    }

    /// The shared artifact key. The fingerprint pins every knob the
    /// trained content depends on; the architecture list, evaluation
    /// size, component subsets and fault grids deliberately don't
    /// invalidate it.
    pub fn key(&self, arch: QdpArch) -> ArtifactKey {
        ArtifactKey::new(
            arch.label(),
            self.benchmark.name(),
            self.seed,
            self.epochs,
            fingerprint(&format!(
                "qdp-v1;train={};test={};batch={};lr={:08x};calib={}",
                self.train,
                self.test,
                self.batch_size,
                self.lr.to_bits(),
                self.calib_samples
            )),
        )
    }

    /// The producer `load_or_train` falls back to on a store miss:
    /// train, calibrate, then characterize the WHOLE multiplier library
    /// (so later runs with any component subset restore their
    /// `(NA, NM)` rows from the same table) and the canonical
    /// fault-model set over this run's empirical operand pools.
    fn produce<M: CapsModel + Clone + Send + Sync>(
        &self,
        m: &mut M,
        pair: &DatasetPair,
        library: &MultiplierLibrary,
    ) -> ArtifactPayload {
        let report = train(
            m,
            &pair.train,
            &TrainConfig {
                epochs: self.epochs,
                batch_size: self.batch_size,
                lr: self.lr,
                seed: self.seed ^ 0x71a1,
                verbose: false,
            },
        );
        // Calibrate through the generic pipeline, retaining MAC-input
        // samples for the empirical operand pools.
        let mut obs = CalibrationObserver::with_samples(CALIB_SAMPLES_PER_SITE);
        for sample in pair.train.samples.iter().take(self.calib_samples) {
            let _ = m.forward(&sample.image, &mut obs);
        }
        let ranges = obs
            .ranges(8)
            .expect("calibration succeeds on trained activations");
        let activations = obs.sampled_input_codes(&ranges);
        let qmodel = QModel::lower(m, &ranges).expect("every site calibrated");
        let dist = operand_distribution(activations.clone(), &qmodel);
        let noise_table = library
            .iter()
            .map(|entry| {
                let np =
                    entry.characterize(&dist, self.characterization_samples, self.seed ^ 0xc0de);
                ComponentNoise {
                    component: entry.name().to_string(),
                    samples: self.characterization_samples as u64,
                    na: np.na,
                    nm: np.nm,
                }
            })
            .collect();
        let weights = qmodel.weight_code_sample(WEIGHT_POOL_CODES);
        let fault_table = crate::faults::characterize_canonical(
            &activations,
            &weights,
            self.characterization_samples,
            self.seed ^ 0xfa17,
        );
        ArtifactPayload {
            epoch_losses: report.epoch_losses,
            train_accuracy: report.train_accuracy,
            ranges: ranges.to_entries(),
            noise_table,
            activation_codes: activations,
            fault_table,
        }
    }
}

/// What every architecture of one run shares.
pub(crate) struct Shared {
    /// The generated train/test pair.
    pub pair: DatasetPair,
    /// The component library.
    pub library: MultiplierLibrary,
    /// One 64 KiB table per library component, tabulated once and
    /// shared by every architecture (cloning copies `Arc` handles).
    pub luts: LutCache,
}

/// One architecture's trained (or restored) model, lowered once.
pub(crate) struct Prepared<M> {
    /// The architecture.
    pub arch: QdpArch,
    /// The trained float model.
    pub model: M,
    /// The model lowered onto the quantized datapath with the stored
    /// (or freshly calibrated) ranges, over the shared component tables.
    pub measured: QuantMeasured,
    /// The artifact-store payload: ranges, operand pool, noise and
    /// fault-characterization tables.
    pub payload: ArtifactPayload,
    /// Trained this run or restored from the store. Never part of any
    /// JSON row: cold and warm runs must emit byte-identical artifacts.
    pub provenance: Provenance,
    /// The first `eval_samples` test samples.
    pub eval: Dataset,
}

/// A bench's per-architecture body, generic over the concrete model so
/// training, evaluation and the methodology reuse the shared capsnet
/// machinery.
pub(crate) trait PerArch {
    /// What the body produces for one architecture.
    type Out;

    /// Runs the bench on one prepared architecture.
    fn run<M: CapsModel + Clone + Send + Sync + 'static>(
        &self,
        shared: &Shared,
        prepared: Prepared<M>,
    ) -> Self::Out;
}

/// Generates the dataset, tabulates the library, then per configured
/// architecture (in order): seeds and builds the model, trains or
/// restores it through the store, lowers it once and runs `body` on it.
///
/// The init seed keys on the architecture's identity, not its position
/// in `knobs.archs`, so a single-arch run reproduces that
/// architecture's rows of a both-arch run.
///
/// # Panics
///
/// Panics on empty train/test/eval/calibration/arch settings, or if
/// calibration fails (it cannot on finite trained weights).
pub(crate) fn run_archs<R: PerArch>(knobs: &ModelKnobs, body: &R) -> Vec<R::Out> {
    assert!(knobs.train > 0, "needs training samples");
    assert!(
        knobs.test > 0 && knobs.eval_samples > 0,
        "needs test samples"
    );
    assert!(knobs.calib_samples > 0, "needs calibration samples");
    assert!(!knobs.archs.is_empty(), "needs at least one architecture");
    let pair = generate(
        knobs.benchmark,
        &GenerateConfig {
            train: knobs.train,
            test: knobs.test,
            seed: knobs.seed,
        },
    );
    let library = MultiplierLibrary::evo_approx_like();
    let luts = LutCache::tabulate_all(&library);
    let shared = Shared {
        pair,
        library,
        luts,
    };
    let store = knobs.artifacts.as_ref().map(ArtifactStore::new);
    let (channels, height, _) = knobs.benchmark.geometry();
    knobs
        .archs
        .iter()
        .map(|&arch| {
            let _arch_span = trace::span(arch.label());
            let mut rng = TensorRng::from_seed(
                knobs
                    .seed
                    .wrapping_mul(0x9e37_79b9)
                    .wrapping_add(7 + arch.seed_tag()),
            );
            match arch {
                QdpArch::CapsNet => {
                    let model = CapsNet::new(&CapsNetConfig::small(channels, height), &mut rng);
                    prepare(knobs, &shared, store.as_ref(), arch, model, body)
                }
                QdpArch::DeepCaps => {
                    let model = DeepCaps::new(&DeepCapsConfig::small(channels, height), &mut rng);
                    prepare(knobs, &shared, store.as_ref(), arch, model, body)
                }
            }
        })
        .collect()
}

/// Trains or restores `model`, lowers it, and runs `body` on it.
fn prepare<M: CapsModel + Clone + Send + Sync + 'static, R: PerArch>(
    knobs: &ModelKnobs,
    shared: &Shared,
    store: Option<&ArtifactStore>,
    arch: QdpArch,
    mut model: M,
    body: &R,
) -> R::Out {
    let (payload, provenance) = {
        let _s = trace::span("train");
        load_or_train(store, &knobs.key(arch), &mut model, |m| {
            knobs.produce(m, &shared.pair, &shared.library)
        })
    };
    let qmodel = {
        let _s = trace::span("lower");
        let ranges = QuantRanges::from_entries(&payload.ranges);
        QModel::lower(&model, &ranges).expect("every site calibrated")
    };
    let measured = QuantMeasured::new(qmodel, shared.luts.clone());
    let eval = shared.pair.test.take(knobs.eval_samples);
    body.run(
        shared,
        Prepared {
            arch,
            model,
            measured,
            payload,
            provenance,
            eval,
        },
    )
}

/// The empirical operand distribution for component characterization:
/// quantized activation codes retained during calibration against the
/// lowered program's quantized weight codes; uniform when either pool
/// is empty.
pub(crate) fn operand_distribution(activations: Vec<u8>, qmodel: &QModel) -> InputDistribution {
    let weights = qmodel.weight_code_sample(WEIGHT_POOL_CODES);
    if activations.is_empty() || weights.is_empty() {
        InputDistribution::Uniform
    } else {
        InputDistribution::Empirical {
            activations,
            weights,
        }
    }
}

/// Runs the six-step methodology on one prepared architecture and
/// returns its winning per-layer design, selected over the empirical
/// operand distribution `dist` and re-scored on its measured backend. The seeds
/// derive from the knobs and the architecture identity only, so the
/// `qdp` bench's reported design and the `serve` bench's served one
/// are the same.
pub(crate) fn step6_design<M: CapsModel + Clone + Send + Sync>(
    knobs: &ModelKnobs,
    shared: &Shared,
    prepared: &Prepared<M>,
    dist: InputDistribution,
) -> ApproxDesign {
    let _s = trace::span("methodology");
    let methodology = RedCaNe::with_library(
        MethodologyConfig {
            sweep: SweepConfig {
                nm_values: vec![0.5, 0.05, 0.005],
                na: 0.0,
                seed: knobs.seed ^ 0x6e01 ^ (prepared.arch.seed_tag() << 16),
                max_test_samples: None,
                threads: par::num_threads(),
            },
            selection: SelectionConfig {
                characterization_samples: knobs.characterization_samples,
                seed: knobs.seed ^ 0xc0de,
                ..Default::default()
            },
            input_distribution: Some(dist),
        },
        shared.library.clone(),
    );
    methodology
        .run_with_measured(&prepared.model, &prepared.eval, &prepared.measured)
        .design
}
