//! What every workload sets up: the seeded dataset, both trained
//! architectures restored from a fresh per-invocation artifact store,
//! their lowered quantized programs, the multiplier LUTs and (for
//! serving) the engine.
//!
//! Training happens once per invocation, untimed, in a child process
//! (`--warmup`) that fills the store; the timed set-ups then restore from
//! it. The store key carries no code version, so a store that outlived
//! the commit under test would restore another commit's weights: the
//! store directory is created fresh by each invocation and removed when
//! it ends.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use redcane::datapath::{AccuracyBackend, DatapathAssignment};
use redcane::{MethodologyConfig, RedCaNe, SelectionConfig, SweepConfig};
use redcane_artifacts::{
    fingerprint, load_or_train, ArtifactKey, ArtifactPayload, ArtifactStore, Provenance,
};
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::{
    train, CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, OpKind, TrainConfig,
};
use redcane_datasets::{generate, Benchmark, DatasetPair, GenerateConfig};
use redcane_qdp::{CalibrationObserver, QModel, QuantMeasured, QuantRanges};
use redcane_serve::Engine;
use redcane_tensor::{par, TensorRng};

use crate::spans::Tracer;
use crate::stats::{secs, Tally};

/// The synthetic benchmark family every workload draws from.
pub const BENCHMARK: Benchmark = Benchmark::MnistLike;
/// Training samples, test samples and epochs of the warm-up training.
pub const TRAIN_SAMPLES: usize = 200;
pub const TEST_SAMPLES: usize = 64;
pub const EPOCHS: usize = 3;
/// Clean training samples swept through the float network to calibrate
/// the quantization ranges.
pub const CALIB_SAMPLES: usize = 32;
/// Samples per component characterization in Step 6.
pub const CHARACTERIZATION_SAMPLES: usize = 2000;
/// Set-ups per invocation; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// The exact multiplier of the component library.
pub const EXACT: &str = "mul8u_1JFF";

/// The two small architectures of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    CapsNet,
    DeepCaps,
}

impl Arch {
    pub const ALL: [Arch; 2] = [Arch::CapsNet, Arch::DeepCaps];

    pub fn label(self) -> &'static str {
        match self {
            Arch::CapsNet => "capsnet",
            Arch::DeepCaps => "deepcaps",
        }
    }

    fn tag(self) -> u64 {
        match self {
            Arch::CapsNet => 0,
            Arch::DeepCaps => 1,
        }
    }

    /// A freshly initialized (untrained) model, seeded from `seed`.
    fn init(self, seed: u64) -> Net {
        let (channels, height, _) = BENCHMARK.geometry();
        let mut rng =
            TensorRng::from_seed(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7 + self.tag()));
        match self {
            Arch::CapsNet => Net::CapsNet(CapsNet::new(
                &CapsNetConfig::small(channels, height),
                &mut rng,
            )),
            Arch::DeepCaps => Net::DeepCaps(DeepCaps::new(
                &DeepCapsConfig::small(channels, height),
                &mut rng,
            )),
        }
    }

    /// The artifact key of this architecture's trained model.
    fn key(self, seed: u64) -> ArtifactKey {
        ArtifactKey::new(
            self.label(),
            BENCHMARK.name(),
            seed,
            EPOCHS,
            fingerprint(&format!(
                "perfbench-v1;train={TRAIN_SAMPLES};test={TEST_SAMPLES};calib={CALIB_SAMPLES}"
            )),
        )
    }

    /// Per-architecture seed salt for the workloads' own streams.
    pub fn salt(self) -> u64 {
        self.tag() << 32
    }
}

/// A trained float model of either architecture.
// Two long-lived values per fixture, never moved in bulk: boxing would
// only add a dereference to every generic call site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum Net {
    CapsNet(CapsNet),
    DeepCaps(DeepCaps),
}

/// Runs `$body` with `$m` bound to the concrete model inside a [`Net`].
macro_rules! with_net {
    ($net:expr, $m:ident => $body:expr) => {
        match $net {
            $crate::fixture::Net::CapsNet($m) => $body,
            $crate::fixture::Net::DeepCaps($m) => $body,
        }
    };
}
pub(crate) use with_net;

/// One architecture, restored and lowered.
pub struct ArchFixture {
    pub arch: Arch,
    pub net: Net,
    pub measured: QuantMeasured,
    pub provenance: Provenance,
}

impl ArchFixture {
    pub fn qmodel(&self) -> &QModel {
        self.measured.qmodel()
    }
}

/// Wall-clock seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub load: f64,
    pub lower: f64,
    pub tabulate: f64,
    pub engine_new: f64,
    pub total: f64,
}

/// Everything a workload runs on.
pub struct Fixture {
    pub pair: DatasetPair,
    pub library: MultiplierLibrary,
    pub luts: LutCache,
    pub archs: Vec<ArchFixture>,
    /// `(arch, assignment label, assignment)` per served model, in engine
    /// order.
    pub served: Vec<(Arch, &'static str, DatapathAssignment)>,
    pub engine: Option<Engine>,
}

impl Fixture {
    pub fn arch(&self, arch: Arch) -> &ArchFixture {
        self.archs
            .iter()
            .find(|a| a.arch == arch)
            .expect("both architectures set up")
    }
}

/// What the warm-up child reports: training seconds and the Step-6
/// design per architecture.
pub struct Warmup {
    pub train_s: Vec<(Arch, f64)>,
    pub step6: Vec<(Arch, DatapathAssignment)>,
}

/// The per-invocation artifact store: a directory that did not exist
/// before this process made it, removed when the value drops.
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Creates a fresh store directory under `.perfbench-stores/` in the
    /// working directory. Fails if the directory already exists.
    pub fn fresh() -> Result<Store, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir =
            PathBuf::from(".perfbench-stores").join(format!("{}-{nanos}", std::process::id()));
        if dir.exists() {
            return Err(format!("store directory {} already exists", dir.display()));
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Store { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only succeeds once no other invocation's store is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Trains one architecture, calibrates its quantization ranges and
/// packs both into an artifact payload.
fn produce<M: CapsModel + Clone + Send + Sync>(
    m: &mut M,
    pair: &DatasetPair,
    seed: u64,
) -> ArtifactPayload {
    let report = train(
        m,
        &pair.train,
        &TrainConfig {
            epochs: EPOCHS,
            batch_size: 16,
            lr: 2e-3,
            seed: seed ^ 0x71a1,
            verbose: false,
        },
    );
    let mut obs = CalibrationObserver::new();
    for sample in pair.train.samples.iter().take(CALIB_SAMPLES) {
        let _ = m.forward(&sample.image, &mut obs);
    }
    let ranges = obs
        .ranges(8)
        .expect("calibration succeeds on trained activations");
    ArtifactPayload {
        epoch_losses: report.epoch_losses,
        train_accuracy: report.train_accuracy,
        ranges: ranges.to_entries(),
        noise_table: Vec::new(),
        activation_codes: Vec::new(),
        fault_table: Vec::new(),
    }
}

/// Restores (or, on a store miss, trains) one architecture.
fn load(
    arch: Arch,
    store: &ArtifactStore,
    pair: &DatasetPair,
    seed: u64,
) -> (Net, ArtifactPayload, Provenance) {
    let mut net = arch.init(seed);
    let key = arch.key(seed);
    let (payload, provenance) =
        with_net!(&mut net, m => load_or_train(Some(store), &key, m, |m| produce(m, pair, seed)));
    (net, payload, provenance)
}

/// The cheapest approximate component of the library by power.
pub fn cheapest(library: &MultiplierLibrary) -> String {
    library
        .iter()
        .filter(|e| e.name() != EXACT)
        .min_by(|a, b| a.cost().power_uw.total_cmp(&b.cost().power_uw))
        .expect("library has approximate components")
        .name()
        .to_string()
}

/// The Step-6 configuration the serving workload's design comes from.
fn step6_config(seed: u64, arch: Arch) -> MethodologyConfig {
    MethodologyConfig {
        sweep: SweepConfig {
            nm_values: vec![0.5, 0.05, 0.005],
            na: 0.0,
            seed: seed ^ 0x6e01 ^ arch.salt(),
            max_test_samples: Some(16),
            threads: par::num_threads(),
        },
        selection: SelectionConfig {
            characterization_samples: CHARACTERIZATION_SAMPLES,
            seed: seed ^ 0xc0de,
            ..Default::default()
        },
        input_distribution: None,
    }
}

/// Body of the `--warmup` child: trains both architectures into the
/// store and runs the methodology once per architecture for the Step-6
/// design the serving workload serves. Prints `train` and `design`
/// lines on stdout.
pub fn warmup_child(store_dir: &Path, seed: u64) -> ExitCode {
    let store = ArtifactStore::new(store_dir);
    let pair = generate(
        BENCHMARK,
        &GenerateConfig {
            train: TRAIN_SAMPLES,
            test: TEST_SAMPLES,
            seed,
        },
    );
    let library = MultiplierLibrary::evo_approx_like();
    let luts = LutCache::tabulate_all(&library);
    for arch in Arch::ALL {
        let t = std::time::Instant::now();
        let (net, payload, provenance) = load(arch, &store, &pair, seed);
        let train_s = secs(t);
        if provenance != Provenance::Trained {
            eprintln!(
                "perfbench warm-up: {} was not trained into a fresh store",
                arch.label()
            );
            return ExitCode::FAILURE;
        }
        println!("train\t{}\t{train_s:?}", arch.label());
        let ranges = QuantRanges::from_entries(&payload.ranges);
        let qmodel =
            with_net!(&net, m => QModel::lower(m, &ranges)).expect("every site calibrated");
        let measured = QuantMeasured::new(qmodel, luts.clone());
        let design = with_net!(&net, m => RedCaNe::with_library(step6_config(seed, arch), library.clone())
            .run_with_measured(m, &pair.test, &measured)
            .design);
        for (layer, kind, in_routing, component) in DatapathAssignment::from_design(&design).sites()
        {
            println!(
                "design\t{}\t{layer}\t{kind:?}\t{in_routing}\t{component}",
                arch.label()
            );
        }
    }
    ExitCode::SUCCESS
}

const KINDS: [OpKind; 5] = [
    OpKind::MacOutput,
    OpKind::Activation,
    OpKind::Softmax,
    OpKind::LogitsUpdate,
    OpKind::MacInput,
];

/// Runs the warm-up child against `store` and parses what it reports.
pub fn warmup(store: &Store, seed: u64) -> Result<Warmup, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--warmup")
        .arg(store.dir())
        .arg("--seed")
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("warm-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("warm-up child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut warm = Warmup {
        train_s: Vec::new(),
        step6: Arch::ALL
            .iter()
            .map(|&a| (a, DatapathAssignment::per_site()))
            .collect(),
    };
    let arch_of = |s: &str| Arch::ALL.into_iter().find(|a| a.label() == s);
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["train", arch, s] => {
                let arch = arch_of(arch).ok_or_else(|| format!("bad warm-up line {line:?}"))?;
                let s: f64 = s
                    .parse()
                    .map_err(|_| format!("bad warm-up line {line:?}"))?;
                warm.train_s.push((arch, s));
            }
            ["design", arch, layer, kind, in_routing, component] => {
                let arch = arch_of(arch).ok_or_else(|| format!("bad warm-up line {line:?}"))?;
                let kind = KINDS
                    .into_iter()
                    .find(|k| format!("{k:?}") == *kind)
                    .ok_or_else(|| format!("bad warm-up line {line:?}"))?;
                let slot = &mut warm
                    .step6
                    .iter_mut()
                    .find(|(a, _)| *a == arch)
                    .expect("arch slot")
                    .1;
                slot.assign(*layer, kind, *in_routing == "true", *component);
            }
            _ => return Err(format!("unexpected warm-up line {line:?}")),
        }
    }
    if warm.train_s.len() != Arch::ALL.len() {
        return Err("warm-up child did not train both architectures".into());
    }
    Ok(warm)
}

/// One timed set-up: generate the dataset, restore both architectures,
/// lower them, tabulate every LUT and (with `engine`) build the serving
/// engine. Each step runs inside a span named after the crate it calls.
pub fn setup(
    store: &Store,
    seed: u64,
    warm: &Warmup,
    engine: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Fixture, SetupTimes) {
    let t0 = std::time::Instant::now();
    let mut times = SetupTimes::default();
    let store = ArtifactStore::new(store.dir());
    let (pair, s) = timed_span(tracer, "datasets.generate", None, |_| {
        generate(
            BENCHMARK,
            &GenerateConfig {
                train: TRAIN_SAMPLES,
                test: TEST_SAMPLES,
                seed,
            },
        )
    });
    times.generate = s;
    let library = MultiplierLibrary::evo_approx_like();
    let mut loaded = Vec::new();
    for arch in Arch::ALL {
        let ((net, payload, provenance), s) = timed_span(
            tracer,
            "artifacts.load_or_train",
            Some(arch.label()),
            |_| load(arch, &store, &pair, seed),
        );
        times.load += s;
        tally.check(provenance == Provenance::Restored, || {
            format!(
                "{} set-up did not restore from the warm-up store",
                arch.label()
            )
        });
        loaded.push((arch, net, payload, provenance));
    }
    let mut lowered = Vec::new();
    for (arch, net, payload, provenance) in loaded {
        let (qmodel, s) = timed_span(tracer, "qdp.lower", Some(arch.label()), |_| {
            let ranges = QuantRanges::from_entries(&payload.ranges);
            with_net!(&net, m => QModel::lower(m, &ranges)).expect("every site calibrated")
        });
        times.lower += s;
        lowered.push((arch, net, qmodel, provenance));
    }
    let (luts, s) = timed_span(tracer, "axmul.tabulate_all", None, |_| {
        LutCache::tabulate_all(&library)
    });
    times.tabulate = s;
    let archs: Vec<ArchFixture> = lowered
        .into_iter()
        .map(|(arch, net, qmodel, provenance)| ArchFixture {
            arch,
            net,
            measured: QuantMeasured::new(qmodel, luts.clone()),
            provenance,
        })
        .collect();
    let cheapest = cheapest(&library);
    let mut served = Vec::new();
    for (arch, step6) in &warm.step6 {
        served.push((*arch, "exact", DatapathAssignment::uniform(EXACT)));
        served.push((*arch, "cheapest", DatapathAssignment::uniform(&cheapest)));
        served.push((*arch, "step6", step6.clone()));
    }
    let mut fixture = Fixture {
        pair,
        library,
        luts,
        archs,
        served,
        engine: None,
    };
    if engine {
        let (built, s) = timed_span(tracer, "serve.engine_new", None, |_| {
            let specs = fixture
                .served
                .iter()
                .map(|(arch, label, a)| {
                    (
                        format!("{}/{label}", arch.label()),
                        fixture.arch(*arch).qmodel().clone(),
                        a.clone(),
                    )
                })
                .collect();
            Engine::new(specs, &fixture.luts)
        });
        times.engine_new = s;
        match built {
            Ok(e) => fixture.engine = Some(e),
            Err(e) => tally.check(false, || format!("engine construction: {e}")),
        }
    }
    times.total = secs(t0);
    (fixture, times)
}

/// Runs `f` in a span and returns its result with its wall-clock seconds.
pub fn timed_span<R>(
    tracer: &mut Tracer,
    name: &str,
    arch: Option<&'static str>,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = tracer.span(name, arch, f);
    (r, secs(t))
}

/// Accuracy of `assignment` on the measured backend, or a failure note.
pub fn measured_accuracy(
    a: &ArchFixture,
    data: &redcane_datasets::Dataset,
    assignment: &DatapathAssignment,
) -> Result<f64, String> {
    with_net!(&a.net, m => a.measured.evaluate(m, data, assignment)).map_err(|e| e.to_string())
}
