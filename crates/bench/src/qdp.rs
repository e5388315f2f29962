//! The `qdp` bench mode: measured vs noise-predicted accuracy drop,
//! per approximate multiplier **and for the heterogeneous Step-6
//! design**, for both of the paper's architectures.
//!
//! For every component of the axmul library and every selected
//! architecture (CapsNet and DeepCaps) this scores the same uniform
//! [`DatapathAssignment`] on the two [`AccuracyBackend`]s:
//!
//! 1. **Measured** ([`QuantMeasured`]) — end-to-end inference through
//!    `redcane-qdp`'s 8-bit datapath with the component's behavioral
//!    model serving every MAC multiply (ground truth);
//! 2. **Predicted** ([`NoisePredicted`]) — the float network with the
//!    paper's Gaussian noise model (Eq. 3) at the MAC-output group,
//!    parameterized by the component's `(NA, NM)` characterized over
//!    the **empirical** operand distribution observed during
//!    calibration (the paper's "Real ΔX" column).
//!
//! With `heterogeneous` enabled (the default), each architecture
//! additionally runs the full ReD-CaNe methodology and re-scores the
//! winning per-layer design on the measured backend
//! ([`RedCaNe::run_with_measured`](redcane::RedCaNe::run_with_measured)),
//! emitting one extra JSON line whose `predicted_drop_pp` /
//! `measured_drop_pp` close the paper's validation loop for the
//! *heterogeneous* output — not just single-component sweeps.
//!
//! One JSON line per `(architecture, component-or-design)`; schema v3.
//! The per-component evaluations fan out over `redcane_tensor::par`
//! workers sharing one lowered [`QModel`](redcane_qdp::QModel) and one
//! [`LutCache`](redcane_axmul::LutCache) (64 KiB per distinct
//! multiplier); every quantity derives only from the seed, the
//! architecture tag and the component index, so the JSON output is
//! byte-identical at every `REDCANE_THREADS` setting.

use std::time::Instant;

use redcane::datapath::{AccuracyBackend, DatapathAssignment, NoisePredicted};
use redcane::report::group_slug;
use redcane::report::json::Value;
use redcane::ApproxDesign;
use redcane_artifacts::Provenance;
use redcane_axmul::library::{ComponentEntry, MultiplierLibrary};
use redcane_axmul::NoiseParams;
use redcane_capsnet::{evaluate_clean, CapsModel};
use redcane_datasets::Dataset;
use redcane_qdp::QuantMeasured;
use redcane_tensor::par;
use redcane_trace as trace;

use crate::setup::{
    operand_distribution, run_archs, step6_design, ModelKnobs, PerArch, Prepared, Shared,
};

/// Which architecture a `qdp` sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QdpArch {
    /// The original CapsNet (Sabour et al.), small config.
    CapsNet,
    /// The 17-layer DeepCaps (Rajasegaran et al.), small config.
    DeepCaps,
}

impl QdpArch {
    /// Stable lower-case label used in the JSON schema and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            QdpArch::CapsNet => "capsnet",
            QdpArch::DeepCaps => "deepcaps",
        }
    }

    /// Stable seed offset tied to the architecture's *identity* (not
    /// its position in `ModelKnobs::archs`), so `--arch deepcaps`
    /// reproduces exactly the deepcaps rows of an `--arch both` run at
    /// the same seed.
    pub(crate) fn seed_tag(&self) -> u64 {
        match self {
            QdpArch::CapsNet => 0,
            QdpArch::DeepCaps => 1,
        }
    }
}

/// Configuration of a `qdp` comparison run; fully determined by its
/// fields, so equal configs give equal outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct QdpConfig {
    /// The model set-up knobs shared with the `faults` and `serve`
    /// benches (`eval_samples` is the test subset both the measured and
    /// predicted evaluations run on).
    pub knobs: ModelKnobs,
    /// Restrict the sweep to these component names (`None` = the whole
    /// 35-entry library).
    pub components: Option<Vec<String>>,
    /// Also run the six-step methodology per architecture and re-score
    /// its heterogeneous Step-6 design on the measured backend (one
    /// extra JSON line per architecture).
    pub heterogeneous: bool,
}

impl QdpConfig {
    /// The full seeded sweep: every library component on both
    /// architectures, models trained well above chance.
    pub fn smoke() -> Self {
        QdpConfig {
            knobs: ModelKnobs::smoke(),
            components: None,
            heterogeneous: true,
        }
    }

    /// CI-sized: the exact component plus one approximate component on
    /// both architectures, scaled-down training.
    pub fn quick() -> Self {
        QdpConfig {
            knobs: ModelKnobs::quick(),
            components: Some(vec!["mul8u_1JFF".to_string(), "mul8u_NGR".to_string()]),
            ..QdpConfig::smoke()
        }
    }

    /// The library entries the sweep scores, in `components` order (the
    /// whole library, in library order, when `components` is `None`).
    ///
    /// # Errors
    ///
    /// Names the first empty or unknown component.
    pub fn entries<'l>(
        &self,
        library: &'l MultiplierLibrary,
    ) -> Result<Vec<&'l ComponentEntry>, String> {
        match &self.components {
            Some(names) => names
                .iter()
                .map(|n| {
                    library
                        .find(n)
                        .ok_or_else(|| format!("unknown component '{n}'"))
                })
                .collect(),
            None => Ok(library.iter().collect()),
        }
    }
}

impl Default for QdpConfig {
    fn default() -> Self {
        QdpConfig::smoke()
    }
}

/// One component's measured-vs-predicted comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct QdpRow {
    /// Library component name (`mul8u_…`).
    pub component: String,
    /// Component power in µW (library metadata).
    pub power_uw: f64,
    /// Characterized noise magnitude (empirical operands).
    pub nm: f64,
    /// Characterized noise average (empirical operands).
    pub na: f64,
    /// Accuracy of the quantized datapath running this component.
    pub measured_accuracy: f64,
    /// Accuracy of the float network under the component's noise model.
    pub predicted_accuracy: f64,
}

/// One architecture's full sweep: float baseline + per-component rows
/// + (optionally) the heterogeneous Step-6 design's re-score.
#[derive(Debug, Clone)]
pub struct QdpArchOutcome {
    /// The architecture swept.
    pub arch: QdpArch,
    /// Model display name.
    pub model_name: String,
    /// Float (accurate, full-precision) accuracy on the eval subset —
    /// the baseline both drops are measured against.
    pub float_accuracy: f64,
    /// Per-component rows, in library order.
    pub rows: Vec<QdpRow>,
    /// The methodology's winning heterogeneous design, scored on both
    /// backends (`None` unless `heterogeneous` was configured).
    pub design: Option<ApproxDesign>,
    /// Whether this architecture's model was trained this run or
    /// restored from the artifact store. Deliberately **not** part of
    /// the JSON schema: cold and warm runs must emit byte-identical
    /// artifacts.
    pub provenance: Provenance,
}

impl QdpArchOutcome {
    /// Measured accuracy drop for `row`, in percentage points.
    pub fn measured_drop_pp(&self, row: &QdpRow) -> f64 {
        (self.float_accuracy - row.measured_accuracy) * 100.0
    }

    /// Noise-predicted accuracy drop for `row`, in percentage points.
    pub fn predicted_drop_pp(&self, row: &QdpRow) -> f64 {
        (self.float_accuracy - row.predicted_accuracy) * 100.0
    }
}

/// The result of one full `qdp` comparison run.
#[derive(Debug, Clone)]
pub struct QdpOutcome {
    /// The configuration that produced it.
    pub config: QdpConfig,
    /// One sweep per configured architecture, in `config.knobs.archs`
    /// order.
    pub archs: Vec<QdpArchOutcome>,
    /// Total wall-clock seconds.
    pub total_s: f64,
}

/// Runs dataset generation → training → calibration → the
/// per-component measured/predicted sweep (and the heterogeneous
/// design re-score) for every configured architecture,
/// deterministically from the seed (and independent of the
/// worker-thread count).
///
/// # Panics
///
/// Panics on empty train/test/eval/arch settings, on a component name
/// not in the library (see [`QdpConfig::entries`]), or if calibration
/// fails (it cannot on finite trained weights).
pub fn run_qdp(cfg: &QdpConfig) -> QdpOutcome {
    let t0 = Instant::now();
    let archs = run_archs(&cfg.knobs, cfg);
    QdpOutcome {
        config: cfg.clone(),
        archs,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// Sweeps one trained (or restored) and lowered architecture.
impl PerArch for QdpConfig {
    type Out = QdpArchOutcome;

    fn run<M: CapsModel + Clone + Send + Sync + 'static>(
        &self,
        shared: &Shared,
        prepared: Prepared<M>,
    ) -> QdpArchOutcome {
        let (knobs, arch, model, eval) =
            (&self.knobs, prepared.arch, &prepared.model, &prepared.eval);
        let float_accuracy = evaluate_clean(model, eval);
        eprintln!(
            "[qdp] {} {} — float baseline {:.3} on {} samples",
            prepared.provenance.label(),
            model.name(),
            float_accuracy,
            eval.len()
        );
        let entries = self
            .entries(&shared.library)
            .unwrap_or_else(|e| panic!("{e}"));

        // The paper's "Real ΔX" operand distribution: the stored
        // activation pool plus the (deterministic) quantized weight
        // codes.
        let dist = operand_distribution(
            prepared.payload.activation_codes.clone(),
            prepared.measured.qmodel(),
        );

        // Per-component noise parameters come from the stored table; a
        // row missing there (e.g. the table was characterized with a
        // different sample count) is characterized live — same numbers,
        // just not cached.
        let nanm: Vec<NoiseParams> = entries
            .iter()
            .map(|entry| {
                prepared
                    .payload
                    .noise_table
                    .iter()
                    .find(|c| {
                        c.component == entry.name()
                            && c.samples == knobs.characterization_samples as u64
                    })
                    .map(|c| NoiseParams { na: c.na, nm: c.nm })
                    .unwrap_or_else(|| {
                        entry.characterize(
                            &dist,
                            knobs.characterization_samples,
                            knobs.seed ^ 0xc0de,
                        )
                    })
            })
            .collect();

        // One lowered program + the shared component tables: every
        // uniform row, the design re-score, and every worker thread use
        // the same cache.
        let rows = {
            let _s = trace::span("score");
            sweep_components(
                knobs,
                arch.seed_tag(),
                model,
                &prepared.measured,
                eval,
                &entries,
                &nanm,
            )
        };
        for row in &rows {
            eprintln!(
                "[qdp] {} {:<14} nm {:.5}  measured {:.3}  predicted {:.3}",
                arch.label(),
                row.component,
                row.nm,
                row.measured_accuracy,
                row.predicted_accuracy
            );
        }

        // The heterogeneous loop: run the six-step methodology on the
        // eval subset and score its winning per-layer design on BOTH
        // backends through the same trait.
        let design = self.heterogeneous.then(|| {
            let design = step6_design(knobs, shared, &prepared, dist);
            eprintln!(
                "[qdp] {} heterogeneous   predicted drop {:+.2} pp  measured drop {:+.2} pp  \
                 (mean power saving {:.1}%)",
                arch.label(),
                design.predicted_drop_pp(),
                design.measured_drop_pp().expect("measured backend ran"),
                design.mean_power_saving * 100.0,
            );
            design
        });

        QdpArchOutcome {
            arch,
            model_name: model.name(),
            float_accuracy,
            rows,
            design,
            provenance: prepared.provenance,
        }
    }
}

/// The per-component measured/predicted evaluations, fanned out over
/// [`par::map_with`] workers. Every per-component quantity derives
/// only from the seed, the architecture tag and the component
/// index — never from the worker that computed it — so the rows are
/// byte-identical at every thread count.
fn sweep_components<M: CapsModel + Clone + Send + Sync>(
    knobs: &ModelKnobs,
    arch_tag: u64,
    model: &M,
    measured: &QuantMeasured,
    eval: &Dataset,
    entries: &[&ComponentEntry],
    nanm: &[NoiseParams],
) -> Vec<QdpRow> {
    par::map_with(
        entries.len(),
        || (),
        |(), idx| {
            let entry = entries[idx];
            let assignment = DatapathAssignment::uniform(entry.name());
            // Measured: the component inside every MAC of the shared
            // lowered datapath (ground truth).
            let measured_accuracy = measured
                .evaluate(model, eval, &assignment)
                .expect("uniform assignment covers every site");
            // Predicted: the same assignment on the noise backend, with
            // this component's characterized (NA, NM) from the shared
            // (possibly artifact-restored) table.
            let np = nanm[idx];
            let predictor =
                NoisePredicted::new(knobs.seed ^ 0x5eed ^ idx as u64 ^ (arch_tag << 32))
                    .with_component(entry.name(), np.nm, np.na);
            let predicted_accuracy = predictor
                .evaluate(model, eval, &assignment)
                .expect("component characterized");
            QdpRow {
                component: entry.name().to_string(),
                power_uw: entry.cost().power_uw,
                nm: np.nm,
                na: np.na,
                measured_accuracy,
                predicted_accuracy,
            }
        },
    )
}

/// Serializes one component's comparison as a self-contained JSON line.
pub fn qdp_row_to_json(cfg: &QdpConfig, arch: &QdpArchOutcome, row: &QdpRow) -> Value {
    Value::Obj(vec![
        ("bench".into(), Value::from("qdp")),
        // v3: heterogeneous design rows (component = "heterogeneous")
        // alongside the per-component rows; both drops go through the
        // AccuracyBackend trait.
        ("schema_version".into(), Value::from(3usize)),
        ("benchmark".into(), Value::from(cfg.knobs.benchmark.name())),
        // String: u64 seeds above 2^53 would round through a JSON number.
        ("seed".into(), Value::from(cfg.knobs.seed.to_string())),
        ("arch".into(), Value::from(arch.arch.label())),
        ("model".into(), Value::from(arch.model_name.clone())),
        ("eval_samples".into(), Value::from(cfg.knobs.eval_samples)),
        ("component".into(), Value::from(row.component.clone())),
        ("power_uw".into(), Value::from(row.power_uw)),
        ("nm".into(), Value::from(row.nm)),
        ("na".into(), Value::from(row.na)),
        ("float_accuracy".into(), Value::from(arch.float_accuracy)),
        (
            "measured_accuracy".into(),
            Value::from(row.measured_accuracy),
        ),
        (
            "measured_drop_pp".into(),
            Value::from(arch.measured_drop_pp(row)),
        ),
        (
            "predicted_accuracy".into(),
            Value::from(row.predicted_accuracy),
        ),
        (
            "predicted_drop_pp".into(),
            Value::from(arch.predicted_drop_pp(row)),
        ),
    ])
}

/// Serializes one architecture's heterogeneous-design re-score as a
/// self-contained JSON line (`component` = `"heterogeneous"`).
pub fn qdp_design_to_json(cfg: &QdpConfig, arch: &QdpArchOutcome, design: &ApproxDesign) -> Value {
    let components: Vec<Value> = design
        .assignments
        .iter()
        .map(|a| {
            Value::Obj(vec![
                ("layer".into(), Value::from(a.layer.clone())),
                ("group".into(), Value::from(group_slug(a.group))),
                ("component".into(), Value::from(a.component.clone())),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("bench".into(), Value::from("qdp")),
        ("schema_version".into(), Value::from(3usize)),
        ("benchmark".into(), Value::from(cfg.knobs.benchmark.name())),
        ("seed".into(), Value::from(cfg.knobs.seed.to_string())),
        ("arch".into(), Value::from(arch.arch.label())),
        ("model".into(), Value::from(arch.model_name.clone())),
        ("eval_samples".into(), Value::from(cfg.knobs.eval_samples)),
        ("component".into(), Value::from("heterogeneous")),
        ("design_components".into(), Value::Arr(components)),
        (
            "mean_power_saving".into(),
            Value::from(design.mean_power_saving),
        ),
        ("float_accuracy".into(), Value::from(arch.float_accuracy)),
        (
            "measured_accuracy".into(),
            Value::from(design.measured_accuracy.expect("design was re-scored")),
        ),
        (
            "measured_drop_pp".into(),
            Value::from(design.measured_drop_pp().expect("design was re-scored")),
        ),
        (
            "predicted_accuracy".into(),
            Value::from(design.predicted_accuracy),
        ),
        (
            "predicted_drop_pp".into(),
            Value::from(design.predicted_drop_pp()),
        ),
    ])
}

/// All rows of an outcome as JSON lines: architectures in config
/// order, components in library order within each, the heterogeneous
/// design row (when run) last per architecture.
pub fn qdp_to_json_lines(outcome: &QdpOutcome) -> Vec<Value> {
    outcome
        .archs
        .iter()
        .flat_map(|arch| {
            arch.rows
                .iter()
                .map(|row| qdp_row_to_json(&outcome.config, arch, row))
                .chain(
                    arch.design
                        .iter()
                        .map(|design| qdp_design_to_json(&outcome.config, arch, design)),
                )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane::report::json;

    /// Serializes tests that mutate the process-wide thread override.
    static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny(archs: Vec<QdpArch>) -> QdpConfig {
        QdpConfig {
            knobs: ModelKnobs {
                archs,
                train: 60,
                test: 24,
                epochs: 1,
                calib_samples: 8,
                eval_samples: 12,
                characterization_samples: 500,
                ..ModelKnobs::smoke()
            },
            components: Some(vec!["mul8u_1JFF".to_string(), "mul8u_QKX".to_string()]),
            heterogeneous: false,
        }
    }

    #[test]
    fn qdp_emits_one_self_contained_line_per_arch_and_component() {
        let outcome = run_qdp(&tiny(vec![QdpArch::CapsNet, QdpArch::DeepCaps]));
        assert_eq!(outcome.archs.len(), 2);
        let lines = qdp_to_json_lines(&outcome);
        assert_eq!(lines.len(), 4, "2 archs × 2 components");
        for line in &lines {
            let dumped = line.dump();
            assert!(!dumped.contains('\n'), "one line per component");
            let parsed = json::parse(&dumped).unwrap();
            for key in [
                "bench",
                "arch",
                "component",
                "float_accuracy",
                "measured_accuracy",
                "measured_drop_pp",
                "predicted_accuracy",
                "predicted_drop_pp",
                "nm",
                "power_uw",
            ] {
                assert!(parsed.get(key).is_some(), "missing key {key}");
            }
            assert_eq!(parsed.get("bench").unwrap().as_str().unwrap(), "qdp");
            assert_eq!(parsed.get("schema_version").unwrap().as_f64().unwrap(), 3.0);
        }
        // Both architectures present, in config order.
        let arch_of = |i: usize| {
            json::parse(&lines[i].dump())
                .unwrap()
                .get("arch")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(arch_of(0), "capsnet");
        assert_eq!(arch_of(3), "deepcaps");
    }

    #[test]
    fn exact_component_predicts_zero_drop_and_small_measured_drop() {
        let outcome = run_qdp(&tiny(vec![QdpArch::CapsNet]));
        let arch = &outcome.archs[0];
        let exact = &arch.rows[0];
        assert_eq!(exact.component, "mul8u_1JFF");
        // NM = NA = 0 for the exact multiplier — over any operand
        // distribution, empirical included — so the noise model
        // predicts exactly the baseline.
        assert_eq!(exact.nm, 0.0);
        assert_eq!(exact.predicted_accuracy, arch.float_accuracy);
        // The measured drop of the exact component is pure quantization
        // error — bounded, though the 1-epoch model is noisy.
        assert!(arch.measured_drop_pp(exact).abs() <= 25.0);
    }

    /// With `heterogeneous` on, every architecture gains one design row
    /// carrying both drops for the Step-6 per-layer assignment.
    #[test]
    fn heterogeneous_design_row_reports_both_drops() {
        let cfg = QdpConfig {
            heterogeneous: true,
            ..tiny(vec![QdpArch::CapsNet])
        };
        let outcome = run_qdp(&cfg);
        let arch = &outcome.archs[0];
        let design = arch.design.as_ref().expect("design re-score ran");
        assert!(!design.assignments.is_empty());
        assert!(design.measured_accuracy.is_some());
        // The methodology's baseline is the same clean evaluation the
        // sweep uses, so the design drops share the float baseline.
        assert_eq!(design.baseline_accuracy, arch.float_accuracy);

        let lines = qdp_to_json_lines(&outcome);
        assert_eq!(lines.len(), 3, "2 component rows + 1 design row");
        let parsed = json::parse(&lines[2].dump()).unwrap();
        assert_eq!(
            parsed.get("component").unwrap().as_str().unwrap(),
            "heterogeneous"
        );
        for key in [
            "design_components",
            "mean_power_saving",
            "measured_drop_pp",
            "predicted_drop_pp",
        ] {
            assert!(parsed.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(
            parsed
                .get("design_components")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            design.assignments.len()
        );
    }

    /// Per-arch seeds key on the architecture's identity, so a
    /// deepcaps-only run reproduces exactly the deepcaps rows of a
    /// both-arch run at the same seed (debuggability of CI artifacts).
    #[test]
    fn single_arch_run_reproduces_the_both_arch_rows() {
        let both = run_qdp(&tiny(vec![QdpArch::CapsNet, QdpArch::DeepCaps]));
        let solo = run_qdp(&tiny(vec![QdpArch::DeepCaps]));
        assert_eq!(solo.archs[0].float_accuracy, both.archs[1].float_accuracy);
        assert_eq!(solo.archs[0].rows, both.archs[1].rows);
    }

    /// The artifact-store acceptance bar: a cold (train) run and a warm
    /// (restore) run emit byte-identical JSON lines, and both match a
    /// storeless run — heterogeneous design row included.
    #[test]
    fn cold_and_warm_runs_give_identical_json() {
        let dir =
            std::env::temp_dir().join(format!("redcane-bench-qdp-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = QdpConfig {
            heterogeneous: true,
            ..tiny(vec![QdpArch::CapsNet])
        };
        cfg.knobs.artifacts = Some(dir.clone());
        let dump = |cfg: &QdpConfig| {
            let outcome = run_qdp(cfg);
            let lines: Vec<String> = qdp_to_json_lines(&outcome)
                .iter()
                .map(|v| v.dump())
                .collect();
            (outcome.archs[0].provenance, lines.join("\n"))
        };
        let (cold_prov, cold) = dump(&cfg);
        assert_eq!(cold_prov, Provenance::Trained);
        let (warm_prov, warm) = dump(&cfg);
        assert_eq!(warm_prov, Provenance::Restored);
        cfg.knobs.artifacts = None;
        let (uncached_prov, uncached) = dump(&cfg);
        assert_eq!(uncached_prov, Provenance::Trained);
        assert_eq!(cold, warm, "restore changed the output");
        assert_eq!(cold, uncached, "the store changed the output");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The parallel component sweep must not change a single byte of
    /// the output: equal seeds give equal JSON at every thread count —
    /// heterogeneous design row included.
    #[test]
    fn json_is_byte_identical_across_thread_counts() {
        let _guard = THREADS_LOCK.lock().unwrap();
        let cfg = QdpConfig {
            heterogeneous: true,
            ..tiny(vec![QdpArch::CapsNet])
        };
        let dump = |threads: usize| {
            par::set_threads(threads);
            let lines: Vec<String> = qdp_to_json_lines(&run_qdp(&cfg))
                .iter()
                .map(|v| v.dump())
                .collect();
            par::set_threads(0);
            lines.join("\n")
        };
        let serial = dump(1);
        let parallel = dump(3);
        assert_eq!(serial, parallel, "thread count leaked into the rows");
    }
}
