//! The `sweep` workload: the paper's method, Steps 1–6, on both small
//! architectures over five NM values and a fixed test subset. Noisy
//! float inference (tensor, nn, capsnet, core) does almost all the work;
//! the quantized datapath runs only the single Step-6 re-score.

use redcane::analysis::{group_sweep, layer_sweep};
use redcane::groups::extract_groups;
use redcane::selection::{
    inventory_layers, mark_groups, mark_layers, select_components, ToleranceTable,
};
use redcane::{
    DatapathAssignment, MethodologyConfig, RedCaNe, RedCaNeReport, SelectionConfig, SweepConfig,
};
use redcane_axmul::InputDistribution;
use redcane_axmul::MultiplierLibrary;
use redcane_capsnet::{evaluate_clean, CapsModel};
use redcane_datasets::Dataset;
use redcane_qdp::QuantMeasured;
use redcane_tensor::par;

use crate::fixture::{
    measured_accuracy, with_net, Arch, ArchFixture, Fixture, CHARACTERIZATION_SAMPLES,
};
use crate::spans::Tracer;
use crate::stats::{secs, Tally};

/// The five noise magnitudes of Steps 2 and 4.
pub const NM_VALUES: [f64; 5] = [0.5, 0.1, 0.05, 0.01, 0.001];
/// Test samples every sweep cell evaluates.
pub const SAMPLES: usize = 12;

/// The methodology configuration. Every group and layer is marked
/// non-resilient (an infinite threshold), so Steps 4–5 sweep every layer
/// of every group and the amount of work does not depend on the seed.
pub fn config(seed: u64, arch: Arch) -> MethodologyConfig {
    MethodologyConfig {
        sweep: SweepConfig {
            nm_values: NM_VALUES.to_vec(),
            na: 0.0,
            seed: seed ^ 0x5eed ^ arch.salt(),
            max_test_samples: None,
            threads: par::num_threads(),
        },
        selection: SelectionConfig {
            resilient_nm_threshold: f64::INFINITY,
            characterization_samples: CHARACTERIZATION_SAMPLES,
            seed: seed ^ 0xc0de,
            ..SelectionConfig::default()
        },
        input_distribution: None,
    }
}

/// One pass: both architectures' reports and what they cost.
pub struct Pass {
    pub reports: Vec<(Arch, RedCaNeReport)>,
    pub seconds: f64,
    /// Sweep cells (one noisy evaluation of the subset each).
    pub cells: u64,
    /// Noise-injected float inferences: every cell plus the Step-6
    /// noise-predicted validation, each over the whole subset.
    pub noisy_inferences: u64,
}

/// Runs Steps 1–6 on both architectures. Untraced, this is one
/// `RedCaNe::run_with_measured` call per architecture; traced, it calls
/// the public step functions in the same order, each inside a span.
pub fn pass(fx: &Fixture, data: &Dataset, seed: u64, tracer: &mut Tracer) -> Pass {
    let t = std::time::Instant::now();
    let mut reports = Vec::new();
    for a in &fx.archs {
        let cfg = config(seed, a.arch);
        let report = if tracer.enabled() {
            with_net!(&a.net, m => steps(m, data, &cfg, &fx.library, &a.measured, a.arch.label(), tracer))
        } else {
            let method = RedCaNe::with_library(cfg, fx.library.clone());
            with_net!(&a.net, m => method.run_with_measured(m, data, &a.measured))
        };
        reports.push((a.arch, report));
    }
    let cells: u64 = reports
        .iter()
        .map(|(_, r)| {
            let group: usize = r.group_sweep.curves.iter().map(|c| c.points.len()).sum();
            let layer: usize = r
                .layer_sweeps
                .iter()
                .flat_map(|s| &s.curves)
                .map(|c| c.points.len())
                .sum();
            (group + layer) as u64
        })
        .sum();
    let noisy_inferences = (cells + reports.len() as u64) * data.len() as u64;
    Pass {
        reports,
        seconds: secs(t),
        cells,
        noisy_inferences,
    }
}

/// `RedCaNe::run_inner`, step by step, each public call in a span.
fn steps<M: CapsModel + Clone + Send + Sync>(
    model: &M,
    data: &Dataset,
    cfg: &MethodologyConfig,
    library: &MultiplierLibrary,
    measured: &QuantMeasured,
    arch: &'static str,
    tr: &mut Tracer,
) -> RedCaNeReport {
    let arch = Some(arch);
    let mut probe = model.clone();
    let inventory = tr.span("core.extract_groups", arch, |_| {
        extract_groups(&mut probe, &data.samples[0].image)
    });
    let sweep = tr.span("core.group_sweep", arch, |_| {
        group_sweep(model, data, &cfg.sweep)
    });
    let marking = tr.span("core.mark_groups", arch, |_| {
        mark_groups(&sweep, &cfg.selection)
    });
    let mut layer_sweeps = Vec::new();
    let mut layer_markings = Vec::new();
    for group in marking.non_resilient() {
        let layers = inventory.group_layers(group);
        let ls = tr.span("core.layer_sweep", arch, |_| {
            layer_sweep(model, data, group, &layers, &cfg.sweep)
        });
        layer_markings.push(tr.span("core.mark_layers", arch, |_| {
            mark_layers(&ls, &cfg.selection)
        }));
        layer_sweeps.push(ls);
    }
    let table = tr.span("core.tolerance_table", arch, |_| {
        ToleranceTable::build(&inventory_layers(&inventory), &marking, &layer_markings)
    });
    let design = tr.span("core.select_components", arch, |_| {
        select_components(
            model,
            data,
            &table,
            library,
            &InputDistribution::Uniform,
            &cfg.selection,
            Some(measured),
        )
    });
    RedCaNeReport {
        inventory,
        group_sweep: sweep,
        group_marking: marking,
        layer_sweeps,
        layer_markings,
        design,
    }
}

/// Checks one architecture's report: the Step-2 baseline equals
/// `evaluate_clean` on the subset, and the Step-6 measured accuracy
/// equals a direct `QuantMeasured::evaluate` of the design.
pub fn check(
    a: &ArchFixture,
    data: &Dataset,
    report: &RedCaNeReport,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let label = Some(a.arch.label());
    let clean = tracer.span(
        "capsnet.evaluate_clean",
        label,
        |_| with_net!(&a.net, m => evaluate_clean(m, data)),
    );
    tally.check(clean == report.group_sweep.baseline_accuracy, || {
        format!(
            "sweep {}: Step-2 baseline {} != evaluate_clean {clean}",
            a.arch.label(),
            report.group_sweep.baseline_accuracy
        )
    });
    let design = DatapathAssignment::from_design(&report.design);
    let direct = tracer.span("qdp.evaluate", label, |_| {
        measured_accuracy(a, data, &design)
    });
    tally.check(
        direct.as_ref().ok() == report.design.measured_accuracy.as_ref(),
        || {
            format!(
                "sweep {}: Step-6 measured accuracy {:?} != QuantMeasured::evaluate {direct:?}",
                a.arch.label(),
                report.design.measured_accuracy
            )
        },
    );
}

/// Whether two passes over the same inputs agree (the method is
/// deterministic in its seed).
pub fn same_outcome(a: &RedCaNeReport, b: &RedCaNeReport) -> bool {
    a.group_sweep == b.group_sweep
        && a.layer_sweeps == b.layer_sweeps
        && a.design.measured_accuracy == b.design.measured_accuracy
        && a.design.predicted_accuracy == b.design.predicted_accuracy
}
