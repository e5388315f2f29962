//! `redcane-bench`: the workspace's benchmark and tooling binary.
//!
//! ```text
//! redcane-bench <pipeline|qdp|faults|serve|perf|lint> [flags]
//! ```
//!
//! Each subcommand prints its JSON lines to stdout (progress goes to
//! stderr); `--help` lists every subcommand's flags. Trained weights,
//! calibrated ranges and characterization tables go through the
//! trained-artifact store (`--artifacts DIR`, else `REDCANE_ARTIFACTS`,
//! else `.redcane-artifacts`); `--no-cache` runs without it. The
//! `--profile*` flags record the run through `redcane-trace`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use redcane::report::json::Value;
use redcane_artifacts::{ArtifactStore, Provenance};
use redcane_bench::cli::{self, Command, Run};
use redcane_bench::faults::{faults_to_json_lines, run_faults};
use redcane_bench::perf::{perf_to_json, run_perf};
use redcane_bench::qdp::{qdp_to_json_lines, run_qdp, QdpArch};
use redcane_bench::serve::{run_serve, serve_to_json_lines, serve_to_json_lines_stable};
use redcane_bench::{outcome_to_json, outcome_to_json_stable, run_pipeline};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("redcane-bench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let name = cmd.name();
    match run(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{name}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// What a bench subcommand leaves for the shared epilogue.
struct Report {
    /// JSON lines for stdout and `--out`.
    lines: Vec<String>,
    /// Bench-specific profile metadata.
    meta: Vec<(String, Value)>,
    /// Keep the profile's wall-clock `timings` section.
    timings: bool,
    /// What the `--budget-s` tripwire measures: seconds, and of what.
    tripwire: Option<(f64, &'static str)>,
}

fn run(cmd: Command) -> Result<(), String> {
    let name = cmd.name();
    let store = ArtifactStore::resolve_dir(cmd.artifacts.as_deref(), cmd.no_cache);
    if let Some(threads) = cmd.threads {
        redcane_tensor::par::set_threads(threads);
    }
    cmd.profile.enable_if_requested();
    let mut out = cmd.out;
    let report = match cmd.run {
        Run::Help => {
            eprint!("{}", cli::USAGE);
            return Ok(());
        }
        Run::Lint => return lint(),
        Run::Pipeline {
            mut cfg,
            no_timings,
        } => {
            cfg.artifacts = store;
            eprintln!(
                "[pipeline] benchmark={} seed={} train={} test={} epochs={}",
                cfg.benchmark, cfg.seed, cfg.train, cfg.test, cfg.epochs
            );
            let outcome = run_pipeline(&cfg);
            eprintln!(
                "[pipeline] baseline {:.3}, design predicted {:.3} (drop {:.2} pp), \
                 measured {:.3} (drop {:.2} pp) in {:.2}s (train {:.2}s, methodology {:.2}s)",
                outcome.report.group_sweep.baseline_accuracy,
                outcome.report.design.predicted_accuracy,
                outcome.report.design.predicted_drop_pp(),
                outcome.report.design.measured_accuracy.unwrap_or(f64::NAN),
                outcome.report.design.measured_drop_pp().unwrap_or(f64::NAN),
                outcome.timings.total_s(),
                outcome.timings.train_s,
                outcome.timings.methodology_s,
            );
            let json = if no_timings {
                outcome_to_json_stable(&outcome)
            } else {
                outcome_to_json(&outcome)
            };
            Report {
                lines: vec![json.dump()],
                meta: vec![(
                    "provenance".to_string(),
                    Value::from(outcome.provenance.label()),
                )],
                timings: !no_timings,
                tripwire: None,
            }
        }
        Run::Qdp(mut cfg) => {
            cfg.knobs.artifacts = store;
            let outcome = run_qdp(&cfg);
            for arch in &outcome.archs {
                eprintln!(
                    "[qdp] {}: {} ({} component(s), float baseline {:.3})",
                    arch.arch.label(),
                    arch.provenance.label(),
                    arch.rows.len(),
                    arch.float_accuracy
                );
            }
            eprintln!("[qdp] total {:.2}s", outcome.total_s);
            Report {
                lines: dump(qdp_to_json_lines(&outcome)),
                meta: arch_provenance(outcome.archs.iter().map(|a| (a.arch, a.provenance))),
                timings: true,
                tripwire: None,
            }
        }
        Run::Faults(mut cfg) => {
            cfg.knobs.artifacts = store;
            let outcome = run_faults(&cfg);
            for arch in &outcome.archs {
                eprintln!(
                    "[faults] {}: {} ({} trial(s) over {} site(s), baseline {:.3})",
                    arch.arch.label(),
                    arch.provenance.label(),
                    arch.trials.len(),
                    arch.sites.len(),
                    arch.baseline_accuracy
                );
            }
            eprintln!("[faults] total {:.2}s", outcome.total_s);
            Report {
                lines: dump(faults_to_json_lines(&outcome)),
                meta: arch_provenance(outcome.archs.iter().map(|a| (a.arch, a.provenance))),
                timings: true,
                tripwire: None,
            }
        }
        Run::Serve {
            mut cfg,
            stable_out,
        } => {
            cfg.knobs.artifacts = store;
            let outcome = run_serve(&cfg);
            for arch in &outcome.archs {
                eprintln!(
                    "[serve] {}: {} ({} assignment(s), {} request(s), {:.2}s serving)",
                    arch.arch.label(),
                    arch.provenance.label(),
                    arch.assignments.len(),
                    arch.assignments.iter().map(|a| a.requests).sum::<usize>(),
                    arch.serve_s
                );
            }
            eprintln!(
                "[serve] total {:.2}s ({:.2}s serving)",
                outcome.total_s, outcome.serve_s
            );
            if let Some(path) = stable_out {
                write_lines(&path, &dump(serve_to_json_lines_stable(&outcome)))?;
            }
            Report {
                lines: dump(serve_to_json_lines(&outcome)),
                meta: arch_provenance(outcome.archs.iter().map(|a| (a.arch, a.provenance))),
                timings: true,
                // Serving time only, so cold (train) and warm (restore)
                // runs trip identically.
                tripwire: Some((outcome.serve_s, "serving sessions")),
            }
        }
        Run::Perf { quick } => {
            let report = run_perf(quick, store);
            for probe in &report.probes {
                match probe.speedup_vs_naive() {
                    Some(speedup) => eprintln!(
                        "[perf] {:<32} {:>12.0} ns/op  ({speedup:.2}x vs naive)",
                        probe.name, probe.ns_per_op
                    ),
                    None => eprintln!("[perf] {:<32} {:>12.0} ns/op", probe.name, probe.ns_per_op),
                }
            }
            eprintln!(
                "[perf] pipeline total {:.2}s (train {:.2}s) on {} thread(s)",
                report.pipeline_total_s, report.pipeline_train_s, report.threads
            );
            out.get_or_insert_with(|| PathBuf::from("BENCH_perf.json"));
            Report {
                lines: vec![perf_to_json(&report).dump()],
                meta: Vec::new(),
                timings: true,
                tripwire: Some((report.pipeline_total_s, "pipeline")),
            }
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(path) = out {
        write_lines(&path, &report.lines)?;
    }
    cmd.profile.write(name, report.meta, report.timings)?;
    match (cmd.budget_s, report.tripwire) {
        (Some(budget), Some((took, what))) if took > budget => Err(format!(
            "{what} took {took:.2}s, over the --budget-s {budget:.2}s tripwire"
        )),
        _ => Ok(()),
    }
}

/// Dumps JSON values one per line.
fn dump(values: Vec<Value>) -> Vec<String> {
    values.iter().map(Value::dump).collect()
}

/// Writes `lines`, each newline-terminated, to `path`.
fn write_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    let body = lines.join("\n") + "\n";
    std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The per-architecture `provenance` profile metadata of the qdp,
/// faults and serve benches.
fn arch_provenance(archs: impl Iterator<Item = (QdpArch, Provenance)>) -> Vec<(String, Value)> {
    let per_arch = archs
        .map(|(arch, provenance)| (arch.label().to_string(), Value::from(provenance.label())))
        .collect();
    vec![("provenance".to_string(), Value::Obj(per_arch))]
}

/// Lints every `crates/**/src/**.rs` file against the workspace-root
/// `lint-allow.toml`, printing findings as `file:line: rule — message`.
fn lint() -> Result<(), String> {
    let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = redcane_lint::find_root(&start).ok_or_else(|| {
        format!(
            "no lint-allow.toml found walking up from {} — run from the workspace",
            start.display()
        )
    })?;
    match redcane_lint::run(&root) {
        Ok(0) => {
            println!("redcane-lint: workspace clean (rules R1–R5)");
            Ok(())
        }
        Ok(n) => Err(format!("{n} finding(s)")),
        Err(e) => Err(e.to_string()),
    }
}
