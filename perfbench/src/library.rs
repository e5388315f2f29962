//! The `library` workload: measured library scoring. Each of the 35
//! components runs as a uniform assignment through
//! `QuantMeasured::evaluate` on both architectures, then a seeded set of
//! fault plans runs through `FaultMeasured`. The integer kernels do
//! almost all the work and no float inference runs; the work cycles
//! through all 35 LUTs. Each fault plan rewrites weight codes and LUT
//! views, so anything precomputed at lowering time is paid again per
//! plan.

use std::time::Instant;

use redcane::faults::mix64;
use redcane::{AccuracyBackend, DatapathAssignment, FaultModel, FaultPlan, FaultTarget, SiteFault};
use redcane_datasets::Dataset;
use redcane_qdp::{FaultMeasured, PreparedModel};
use redcane_tensor::{par, Tensor};

use crate::fixture::{measured_accuracy, with_net, Arch, Fixture, EXACT};
use crate::spans::Tracer;
use crate::stats::{secs, Tally};

/// Test samples every evaluation scores.
pub const SAMPLES: usize = 16;
/// Fault plans per architecture and pass.
pub const FAULT_PLANS: usize = 6;
/// Samples and components of the batched-vs-single prediction check.
const CHECK_SAMPLES: usize = 8;
const CHECK_COMPONENTS: usize = 3;

/// One evaluation's result and its start and end.
struct Timed {
    arch: Arch,
    accuracy: Result<f64, String>,
    start: Instant,
    end: Instant,
    /// Fault plans only: when preparation ended and evaluation began.
    prepared: Option<Instant>,
}

/// One pass over the library and the fault plans.
pub struct Pass {
    pub seconds: f64,
    /// `(arch, component, accuracy)` per library evaluation.
    pub library: Vec<(Arch, String, Result<f64, String>)>,
    /// Accuracy per fault plan, in plan order.
    pub faults: Vec<(Arch, Result<f64, String>)>,
    /// Quantized inferences run.
    pub scored_inferences: u64,
    /// Summed evaluation seconds per architecture.
    pub evaluate_s: Vec<(Arch, f64)>,
    pub fault_prepare_s: f64,
    pub fault_evaluate_s: f64,
}

/// The seeded fault plans: per architecture and plan, a stuck weight-code
/// bit at one multiply site and multiplier bit flips at another.
pub fn plans(fx: &Fixture, seed: u64) -> Vec<(Arch, FaultPlan)> {
    let mut out = Vec::new();
    for p in 0..FAULT_PLANS as u64 {
        for a in &fx.archs {
            let word = mix64(seed ^ a.arch.salt(), 0xfa17, p);
            let sites = a.qmodel().multiply_sites();
            let pick = |salt: u64| &sites[(mix64(word, salt, 0) % sites.len() as u64) as usize];
            let (wl, wk, wr) = pick(1);
            let (ml, mk, mr) = pick(2);
            let plan = FaultPlan::identity(word)
                .with(
                    wl.clone(),
                    *wk,
                    *wr,
                    SiteFault::new(
                        FaultTarget::WeightCodes,
                        FaultModel::StuckAt {
                            lanes: 1 << (word % 8),
                            value: word & 0x100 != 0,
                        },
                    ),
                )
                .with(
                    ml.clone(),
                    *mk,
                    *mr,
                    SiteFault::new(FaultTarget::Multiplier, FaultModel::BitFlip { ber: 1e-3 }),
                );
            out.push((a.arch, plan));
        }
    }
    out
}

/// Scores every component on both architectures, then every fault plan,
/// fanning the evaluations out over the `par` workers. Traced, each
/// evaluation is recorded as a span.
pub fn pass(
    fx: &Fixture,
    data: &Dataset,
    plans: &[(Arch, FaultPlan)],
    tracer: &mut Tracer,
) -> Pass {
    let t0 = Instant::now();
    let names: Vec<String> = fx.library.iter().map(|e| e.name().to_string()).collect();
    // Architectures interleaved, so each worker's contiguous share holds
    // both.
    let tasks: Vec<(Arch, &str)> = names
        .iter()
        .flat_map(|n| Arch::ALL.map(|a| (a, n.as_str())))
        .collect();
    let scored: Vec<Timed> = par::map_with(
        tasks.len(),
        || (),
        |(), i| {
            let (arch, name) = tasks[i];
            let start = Instant::now();
            let accuracy =
                measured_accuracy(fx.arch(arch), data, &DatapathAssignment::uniform(name));
            Timed {
                arch,
                accuracy,
                start,
                end: Instant::now(),
                prepared: None,
            }
        },
    );
    let exact = DatapathAssignment::uniform(EXACT);
    let faulted: Vec<Timed> = par::map_with(
        plans.len(),
        || (),
        |(), i| {
            let (arch, plan) = &plans[i];
            let a = fx.arch(*arch);
            let start = Instant::now();
            let backend = FaultMeasured::over(&a.measured, plan.clone(), true);
            let prepared = Instant::now();
            let accuracy = with_net!(&a.net, m => backend.evaluate(m, data, &exact))
                .map_err(|e| e.to_string());
            Timed {
                arch: *arch,
                accuracy,
                start,
                end: Instant::now(),
                prepared: Some(prepared),
            }
        },
    );
    let seconds = secs(t0);

    let mut evaluate_s: Vec<(Arch, f64)> = Arch::ALL.iter().map(|&a| (a, 0.0)).collect();
    for t in &scored {
        let d = t.end.duration_since(t.start).as_secs_f64();
        evaluate_s
            .iter_mut()
            .find(|(a, _)| *a == t.arch)
            .expect("arch slot")
            .1 += d;
        let (s, e) = (tracer.at(t.start), tracer.at(t.end));
        tracer.record("qdp.evaluate", Some(t.arch.label()), s, e, None, None);
    }
    let (mut fault_prepare_s, mut fault_evaluate_s) = (0.0, 0.0);
    for t in &faulted {
        let p = t.prepared.expect("fault tasks record preparation");
        fault_prepare_s += p.duration_since(t.start).as_secs_f64();
        fault_evaluate_s += t.end.duration_since(p).as_secs_f64();
        let (s, m, e) = (tracer.at(t.start), tracer.at(p), tracer.at(t.end));
        tracer.record("qdp.fault_prepare", Some(t.arch.label()), s, m, None, None);
        tracer.record("qdp.fault_evaluate", Some(t.arch.label()), m, e, None, None);
    }
    Pass {
        seconds,
        scored_inferences: ((scored.len() + faulted.len()) * data.len()) as u64,
        library: tasks
            .iter()
            .zip(scored)
            .map(|(&(a, n), t)| (a, n.to_string(), t.accuracy))
            .collect(),
        faults: faulted.into_iter().map(|t| (t.arch, t.accuracy)).collect(),
        evaluate_s,
        fault_prepare_s,
        fault_evaluate_s,
    }
}

/// Counts every evaluation of a pass as an operation, failed when it
/// returned an error, and checks that it agrees with the first pass.
pub fn tally_pass(pass: &Pass, first: Option<&Pass>, tally: &mut Tally) {
    for (i, (arch, name, acc)) in pass.library.iter().enumerate() {
        let same = first.is_none_or(|f| f.library[i].2 == *acc);
        tally.check(acc.is_ok() && same, || {
            format!(
                "library {} {name}: {acc:?} (first pass {:?})",
                arch.label(),
                first.map(|f| &f.library[i].2)
            )
        });
    }
    for (i, (arch, acc)) in pass.faults.iter().enumerate() {
        let same = first.is_none_or(|f| f.faults[i].1 == *acc);
        tally.check(acc.is_ok() && same, || {
            format!("fault plan {i} on {}: {acc:?}", arch.label())
        });
    }
}

/// On a seeded subset, batched prediction equals single-sample
/// `QModel::predict`; and an identity fault plan scores exactly what
/// `QuantMeasured` scores.
pub fn check(
    fx: &Fixture,
    data: &Dataset,
    pass: &Pass,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let names: Vec<&str> = fx.library.iter().map(|e| e.name()).collect();
    for a in &fx.archs {
        let label = Some(a.arch.label());
        for c in 0..CHECK_COMPONENTS as u64 {
            let word = mix64(seed ^ a.arch.salt(), 0xc4ec, c);
            let name = names[(word % names.len() as u64) as usize];
            let assignment = DatapathAssignment::uniform(name);
            let offset = (word >> 32) as usize % data.len().saturating_sub(CHECK_SAMPLES).max(1);
            let xs: Vec<&Tensor> = data
                .samples
                .iter()
                .skip(offset)
                .take(CHECK_SAMPLES)
                .map(|s| &s.image)
                .collect();
            let batched = tracer.span("qdp.predict_batch", label, |_| {
                PreparedModel::new(a.qmodel().clone(), &assignment, &fx.luts)
                    .map(|p| p.predict_batch(&xs))
            });
            let single: Vec<_> = tracer.span("qdp.predict", label, |_| {
                xs.iter()
                    .map(|x| a.qmodel().predict(x, &assignment, &fx.luts))
                    .collect()
            });
            match batched {
                Ok(batched) => {
                    for (i, (b, s)) in batched.iter().zip(&single).enumerate() {
                        tally.check(s.as_ref() == Ok(b), || {
                            format!(
                                "library {} {name}: batched {b} != single {s:?} on sample {}",
                                a.arch.label(),
                                offset + i
                            )
                        });
                    }
                }
                Err(e) => tally.check(false, || {
                    format!("library {} {name}: prepare failed: {e}", a.arch.label())
                }),
            }
        }
        let identity = tracer.span("qdp.fault_evaluate", label, |_| {
            let backend = FaultMeasured::over(&a.measured, FaultPlan::identity(seed), false);
            with_net!(&a.net, m => backend.evaluate(m, data, &DatapathAssignment::uniform(EXACT)))
                .map_err(|e| e.to_string())
        });
        let plain = pass
            .library
            .iter()
            .find(|(ar, n, _)| *ar == a.arch && n == EXACT)
            .map(|(_, _, acc)| acc.clone());
        tally.check(plain.as_ref() == Some(&identity), || {
            format!(
                "library {}: identity fault plan {identity:?} != QuantMeasured {plain:?}",
                a.arch.label()
            )
        });
    }
}
