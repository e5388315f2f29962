//! The `redcane-bench` command line: one parser for every subcommand.
//!
//! [`parse`] is a pure function of the argument list (the subcommand
//! first, then its flags): it touches no file and sets no global, so
//! the binary's whole flag surface is unit tested here. Every flag is matched in exactly one place, which also
//! decides the subcommands that take it; `--quick` applies its
//! CI-sized preset before every other flag, wherever it appears.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use redcane_axmul::MultiplierLibrary;
use redcane_datasets::Benchmark;

use crate::faults::FaultsConfig;
use crate::profile::ProfileArgs;
use crate::qdp::{QdpArch, QdpConfig};
use crate::serve::ServeBenchConfig;
use crate::setup::ModelKnobs;
use crate::PipelineConfig;

/// The `--help` text.
pub const USAGE: &str = "\
usage: redcane-bench <subcommand> [flags]

  pipeline  seeded end-to-end ReD-CaNe smoke run; one JSON line to stdout
            --benchmark mnist|fashion|svhn|cifar, --seed N, --train N,
            --test N, --epochs N, --no-timings
  qdp       measured vs noise-predicted accuracy drop per multiplier and
            for the heterogeneous Step-6 design
            --quick, --benchmark B, --seed N, --arch capsnet|deepcaps|both,
            --components a,b,..., --heterogeneous, --no-heterogeneous,
            --out PATH
  faults    per-site bit-flip / stuck-at / dead-output resilience sweep
            --quick, --benchmark B, --seed N, --arch A, --fail-soft,
            --max-sites N, --out PATH
  serve     open-loop dynamic-batching serving benchmark
            --quick, --benchmark B, --seed N, --arch A, --requests N,
            --clients N, --workers N, --max-batch N, --max-wait-us N,
            --rate RPS, --step6, --no-step6, --out PATH,
            --stable-out PATH, --budget-s S
  perf      hot-path kernel benchmark and regression tripwire
            --quick, --out PATH (default BENCH_perf.json), --budget-s S
  lint      workspace invariant checker (rules R1-R5, lint-allow.toml)

Every subcommand but lint also takes --threads N, --artifacts DIR,
--no-cache, --profile PATH, --profile-counters PATH,
--profile-folded PATH and --help. --quick applies its CI-sized preset
before the other flags, wherever it appears.
";

/// What to run, with its configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Run {
    /// Print [`USAGE`].
    Help,
    /// The end-to-end methodology run; `no_timings` drops the
    /// wall-clock `timings_s` field (and the profile's `timings`).
    Pipeline {
        /// The run's configuration.
        cfg: PipelineConfig,
        /// `--no-timings`.
        no_timings: bool,
    },
    /// Measured vs predicted drop per component and design.
    Qdp(QdpConfig),
    /// The fault-injection resilience sweep.
    Faults(FaultsConfig),
    /// The serving benchmark.
    Serve {
        /// The run's configuration.
        cfg: ServeBenchConfig,
        /// `--stable-out`: where the timing-free rows go.
        stable_out: Option<PathBuf>,
    },
    /// The kernel benchmark; `quick` scales it down.
    Perf {
        /// `--quick`.
        quick: bool,
    },
    /// The workspace linter.
    Lint,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// The subcommand.
    pub run: Run,
    /// `--out`: where the JSON lines go besides stdout.
    pub out: Option<PathBuf>,
    /// `--budget-s`: fail the run when its tripwire time exceeds this.
    pub budget_s: Option<f64>,
    /// `--threads`: worker-thread override for the whole run.
    pub threads: Option<usize>,
    /// `--artifacts`: the trained-artifact store directory.
    pub artifacts: Option<String>,
    /// `--no-cache`: run without the store.
    pub no_cache: bool,
    /// The `--profile*` outputs.
    pub profile: ProfileArgs,
}

impl Run {
    /// The shared model knobs of `qdp`, `faults` and `serve`.
    fn knobs(&mut self) -> Option<&mut ModelKnobs> {
        match self {
            Run::Qdp(cfg) => Some(&mut cfg.knobs),
            Run::Faults(cfg) => Some(&mut cfg.knobs),
            Run::Serve { cfg, .. } => Some(&mut cfg.knobs),
            _ => None,
        }
    }
}

impl Command {
    fn new(run: Run) -> Self {
        Command {
            run,
            out: None,
            budget_s: None,
            threads: None,
            artifacts: None,
            no_cache: false,
            profile: ProfileArgs::default(),
        }
    }

    /// The subcommand's name, for messages.
    pub fn name(&self) -> &'static str {
        match self.run {
            Run::Help => "redcane-bench",
            Run::Pipeline { .. } => "pipeline",
            Run::Qdp(_) => "qdp",
            Run::Faults(_) => "faults",
            Run::Serve { .. } => "serve",
            Run::Perf { .. } => "perf",
            Run::Lint => "lint",
        }
    }
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// A user-facing message naming the unknown subcommand, the unknown
/// flag, the flag missing its value, or the rejected value.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((name, flags)) = args.split_first() else {
        return Err("missing subcommand (try --help)".to_string());
    };
    // The preset must come first and the flags that refine it after,
    // wherever `--quick` sits: parse onto the full-size preset, and if
    // that pass met `--quick`, parse again onto the quick one.
    let (cmd, quick) = parse_flags(name, flags, false)?;
    if quick {
        Ok(parse_flags(name, flags, true)?.0)
    } else {
        Ok(cmd)
    }
}

/// One pass over `flags` onto `name`'s preset; also reports whether
/// `--quick` was among them.
fn parse_flags(name: &str, flags: &[String], quick: bool) -> Result<(Command, bool), String> {
    let run = match name {
        "help" | "--help" | "-h" => Run::Help,
        "pipeline" => Run::Pipeline {
            cfg: PipelineConfig::smoke(),
            no_timings: false,
        },
        "qdp" if quick => Run::Qdp(QdpConfig::quick()),
        "qdp" => Run::Qdp(QdpConfig::smoke()),
        "faults" if quick => Run::Faults(FaultsConfig::quick()),
        "faults" => Run::Faults(FaultsConfig::smoke()),
        "serve" => Run::Serve {
            cfg: if quick {
                ServeBenchConfig::quick()
            } else {
                ServeBenchConfig::smoke()
            },
            stable_out: None,
        },
        "perf" => Run::Perf { quick },
        "lint" => Run::Lint,
        other => return Err(format!("unknown subcommand '{other}' (try --help)")),
    };
    let mut cmd = Command::new(run);
    let mut saw_quick = false;
    let mut args = flags.iter().cloned();
    while let Some(flag) = args.next() {
        let f = flag.as_str();
        let it = &mut args;
        match (&mut cmd.run, f) {
            (Run::Help | Run::Lint, _) => return Err(unknown(f)),
            (_, "--help" | "-h") => return Ok((Command::new(Run::Help), false)),
            (_, "--threads") => cmd.threads = Some(next_parsed(it, f)?),
            (_, "--artifacts") => cmd.artifacts = Some(next_value(it, f)?),
            (_, "--no-cache") => cmd.no_cache = true,
            (Run::Qdp(_) | Run::Faults(_) | Run::Serve { .. } | Run::Perf { .. }, "--quick") => {
                saw_quick = true;
            }
            (Run::Qdp(_) | Run::Faults(_) | Run::Serve { .. } | Run::Perf { .. }, "--out") => {
                cmd.out = Some(next_value(it, f)?.into());
            }
            (Run::Serve { .. } | Run::Perf { .. }, "--budget-s") => {
                cmd.budget_s = Some(next_parsed(it, f)?);
            }
            (run, "--benchmark") => {
                let (benchmark, _) = dataset(run, f)?;
                *benchmark = benchmark_named(&next_value(it, f)?)?;
            }
            (run, "--seed") => {
                let (_, seed) = dataset(run, f)?;
                *seed = next_parsed(it, f)?;
            }
            (run, "--arch") => {
                let knobs = run.knobs().ok_or_else(|| unknown(f))?;
                knobs.archs = archs_named(&next_value(it, f)?)?;
            }
            (Run::Pipeline { cfg, .. }, "--train") => cfg.train = nonzero(it, f)?,
            (Run::Pipeline { cfg, .. }, "--test") => cfg.test = nonzero(it, f)?,
            (Run::Pipeline { cfg, .. }, "--epochs") => cfg.epochs = next_parsed(it, f)?,
            (Run::Pipeline { no_timings, .. }, "--no-timings") => *no_timings = true,
            (Run::Qdp(cfg), "--components") => {
                cfg.components = Some(
                    next_value(it, f)?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                );
                cfg.entries(&MultiplierLibrary::evo_approx_like())
                    .map_err(|e| format!("{f}: {e}"))?;
            }
            (Run::Qdp(cfg), "--heterogeneous") => cfg.heterogeneous = true,
            (Run::Qdp(cfg), "--no-heterogeneous") => cfg.heterogeneous = false,
            (Run::Faults(cfg), "--fail-soft") => cfg.fail_soft = true,
            (Run::Faults(cfg), "--max-sites") => cfg.max_sites = Some(next_parsed(it, f)?),
            (Run::Serve { cfg, .. }, "--requests") => cfg.requests = nonzero(it, f)?,
            (Run::Serve { cfg, .. }, "--clients") => cfg.clients = nonzero(it, f)?,
            (Run::Serve { cfg, .. }, "--workers") => cfg.workers = Some(nonzero(it, f)?),
            (Run::Serve { cfg, .. }, "--max-batch") => cfg.max_batch = nonzero(it, f)?,
            (Run::Serve { cfg, .. }, "--max-wait-us") => {
                cfg.max_wait_us = Some(next_parsed(it, f)?);
            }
            (Run::Serve { cfg, .. }, "--rate") => {
                // The arrival stream divides by the rate: zero, negative,
                // infinite or NaN rates give no usable gap.
                let rate: f64 = next_parsed(it, f)?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!(
                        "{f} must be a positive number of requests per second, got {rate}"
                    ));
                }
                cfg.arrival_rate_rps = rate;
            }
            (Run::Serve { cfg, .. }, "--step6") => cfg.step6 = true,
            (Run::Serve { cfg, .. }, "--no-step6") => cfg.step6 = false,
            (Run::Serve { stable_out, .. }, "--stable-out") => {
                *stable_out = Some(next_value(it, f)?.into());
            }
            (_, other) => cmd
                .profile
                .match_flag(other, it)
                .ok_or_else(|| unknown(other))??,
        }
    }
    // `--threads` also sizes the pipeline's sweep workers.
    if let (Run::Pipeline { cfg, .. }, Some(threads)) = (&mut cmd.run, cmd.threads) {
        cfg.threads = threads;
    }
    Ok((cmd, saw_quick))
}

/// The unknown-flag message.
fn unknown(flag: &str) -> String {
    format!("unknown flag '{flag}'")
}

/// Where `--benchmark` and `--seed` go, for the subcommands that take
/// them.
fn dataset<'a>(run: &'a mut Run, flag: &str) -> Result<(&'a mut Benchmark, &'a mut u64), String> {
    match run {
        Run::Pipeline { cfg, .. } => Ok((&mut cfg.benchmark, &mut cfg.seed)),
        run => run
            .knobs()
            .map(|k| (&mut k.benchmark, &mut k.seed))
            .ok_or_else(|| unknown(flag)),
    }
}

/// The benchmark a `--benchmark` value names.
fn benchmark_named(name: &str) -> Result<Benchmark, String> {
    match name {
        "mnist" => Ok(Benchmark::MnistLike),
        "fashion" => Ok(Benchmark::FashionLike),
        "svhn" => Ok(Benchmark::SvhnLike),
        "cifar" => Ok(Benchmark::Cifar10Like),
        other => Err(format!("unknown benchmark '{other}'")),
    }
}

/// The architectures an `--arch` value names.
fn archs_named(name: &str) -> Result<Vec<QdpArch>, String> {
    match name {
        "capsnet" => Ok(vec![QdpArch::CapsNet]),
        "deepcaps" => Ok(vec![QdpArch::DeepCaps]),
        "both" => Ok(vec![QdpArch::CapsNet, QdpArch::DeepCaps]),
        other => Err(format!("unknown arch '{other}'")),
    }
}

/// Pulls the value following `flag` from the argument stream.
///
/// # Errors
///
/// Returns a user-facing message when the stream is exhausted.
pub fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Pulls and parses the value following `flag`.
///
/// # Errors
///
/// Returns a user-facing message when the stream is exhausted or the
/// value does not parse as `T`.
pub fn next_parsed<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    next_value(args, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Pulls a count that must be at least 1.
fn nonzero(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    require_nonzero(next_parsed(args, flag)?, flag)
}

/// Rejects a zero count with a consistent message.
///
/// # Errors
///
/// Returns a user-facing message when `value` is zero.
pub fn require_nonzero(value: usize, flag: &str) -> Result<usize, String> {
    if value == 0 {
        Err(format!("{flag} must be at least 1"))
    } else {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane_artifacts::{fingerprint, ArtifactKey};

    fn args(items: &[&str]) -> impl Iterator<Item = String> {
        items
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn run(line: &str) -> Result<Run, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv).map(|cmd| cmd.run)
    }

    #[test]
    fn next_parsed_reads_and_reports() {
        let mut it = args(&["42", "nope"]);
        assert_eq!(next_parsed::<usize>(&mut it, "--n"), Ok(42));
        assert!(next_parsed::<usize>(&mut it, "--n")
            .unwrap_err()
            .starts_with("--n:"));
        assert_eq!(
            next_parsed::<usize>(&mut it, "--n"),
            Err("--n requires a value".to_string())
        );
    }

    #[test]
    fn require_nonzero_gates_zero() {
        assert_eq!(require_nonzero(3, "--train"), Ok(3));
        assert_eq!(
            require_nonzero(0, "--train"),
            Err("--train must be at least 1".to_string())
        );
    }

    #[test]
    fn bare_subcommands_give_the_full_size_presets() {
        assert_eq!(
            run("pipeline"),
            Ok(Run::Pipeline {
                cfg: PipelineConfig::smoke(),
                no_timings: false
            })
        );
        assert_eq!(run("qdp"), Ok(Run::Qdp(QdpConfig::smoke())));
        assert_eq!(run("faults"), Ok(Run::Faults(FaultsConfig::smoke())));
        assert_eq!(
            run("serve"),
            Ok(Run::Serve {
                cfg: ServeBenchConfig::smoke(),
                stable_out: None
            })
        );
        assert_eq!(run("perf"), Ok(Run::Perf { quick: false }));
        assert_eq!(run("lint"), Ok(Run::Lint));
        let cmd = parse(&["qdp".to_string()]).unwrap();
        assert_eq!(cmd, Command::new(Run::Qdp(QdpConfig::smoke())));
    }

    #[test]
    fn quick_gives_the_quick_presets() {
        assert_eq!(run("qdp --quick"), Ok(Run::Qdp(QdpConfig::quick())));
        assert_eq!(
            run("faults --quick"),
            Ok(Run::Faults(FaultsConfig::quick()))
        );
        assert_eq!(
            run("serve --quick"),
            Ok(Run::Serve {
                cfg: ServeBenchConfig::quick(),
                stable_out: None
            })
        );
        assert_eq!(run("perf --quick"), Ok(Run::Perf { quick: true }));
    }

    #[test]
    fn flag_order_does_not_matter() {
        for (a, b) in [
            ("qdp --seed 5 --quick", "qdp --quick --seed 5"),
            (
                "faults --arch deepcaps --max-sites 9 --quick",
                "faults --quick --max-sites 9 --arch deepcaps",
            ),
            (
                "serve --requests 7 --benchmark cifar --quick",
                "serve --quick --benchmark cifar --requests 7",
            ),
        ] {
            assert_eq!(run(a), run(b), "{a} vs {b}");
        }
        let Ok(Run::Qdp(cfg)) = run("qdp --seed 5 --no-heterogeneous --quick") else {
            panic!("qdp parses");
        };
        let mut want = QdpConfig::quick();
        want.knobs.seed = 5;
        want.heterogeneous = false;
        assert_eq!(cfg, want);
        let Ok(Run::Serve { cfg, .. }) = run("serve --requests 7 --quick") else {
            panic!("serve parses");
        };
        assert_eq!((cfg.requests, cfg.knobs.train), (7, 200));
    }

    #[test]
    fn shared_flags_land_in_one_place() {
        let argv: Vec<String> = "faults --threads 3 --artifacts /s --no-cache --out o.json \
                                 --profile-counters c.json --fail-soft"
            .split_whitespace()
            .map(String::from)
            .collect();
        let cmd = parse(&argv).unwrap();
        assert_eq!(cmd.threads, Some(3));
        assert_eq!(cmd.artifacts.as_deref(), Some("/s"));
        assert!(cmd.no_cache);
        assert_eq!(cmd.out, Some(PathBuf::from("o.json")));
        assert_eq!(cmd.profile.counters, Some(PathBuf::from("c.json")));
        let Run::Faults(cfg) = cmd.run else {
            panic!("faults parses");
        };
        assert!(cfg.fail_soft);
        let Ok(Run::Pipeline { cfg, no_timings }) =
            run("pipeline --threads 2 --seed 9 --benchmark svhn --no-timings")
        else {
            panic!("pipeline parses");
        };
        assert_eq!(
            (cfg.threads, cfg.seed, cfg.benchmark),
            (2, 9, Benchmark::SvhnLike)
        );
        assert!(no_timings);
    }

    #[test]
    fn errors_name_what_is_wrong() {
        assert_eq!(
            run("bogus"),
            Err("unknown subcommand 'bogus' (try --help)".to_string())
        );
        assert!(parse(&[]).unwrap_err().contains("missing subcommand"));
        assert_eq!(run("qdp --nope"), Err("unknown flag '--nope'".to_string()));
        assert_eq!(
            run("qdp --seed"),
            Err("--seed requires a value".to_string())
        );
        assert!(run("faults --seed x").unwrap_err().starts_with("--seed:"));
        assert_eq!(
            run("serve --arch vgg"),
            Err("unknown arch 'vgg'".to_string())
        );
        assert_eq!(
            run("pipeline --benchmark bogus"),
            Err("unknown benchmark 'bogus'".to_string())
        );
        assert_eq!(
            run("pipeline --train 0"),
            Err("--train must be at least 1".to_string())
        );
        assert_eq!(
            run("serve --workers 0"),
            Err("--workers must be at least 1".to_string())
        );
        // Each subcommand keeps its own flag set.
        assert_eq!(
            run("pipeline --quick"),
            Err("unknown flag '--quick'".to_string())
        );
        assert_eq!(
            run("perf --seed 3"),
            Err("unknown flag '--seed'".to_string())
        );
        assert_eq!(
            run("qdp --fail-soft"),
            Err("unknown flag '--fail-soft'".to_string())
        );
        assert_eq!(
            run("lint --threads 2"),
            Err("unknown flag '--threads'".to_string())
        );
        assert_eq!(run("pipeline --help"), Ok(Run::Help));
        assert_eq!(run("--help"), Ok(Run::Help));
    }

    #[test]
    fn unknown_or_empty_components_are_rejected() {
        assert_eq!(
            run("qdp --components mul8u_1JFF,mul8u_BOGUS"),
            Err("--components: unknown component 'mul8u_BOGUS'".to_string())
        );
        let empty = parse(&["qdp".into(), "--components".into(), String::new()]);
        assert_eq!(
            empty.map(|c| c.run),
            Err("--components: unknown component ''".to_string())
        );
        let Ok(Run::Qdp(cfg)) = run("qdp --components mul8u_NGR,mul8u_1JFF") else {
            panic!("known components parse");
        };
        assert_eq!(
            cfg.components,
            Some(vec!["mul8u_NGR".to_string(), "mul8u_1JFF".to_string()])
        );
    }

    #[test]
    fn serve_rate_must_be_positive() {
        for bad in ["0", "-5", "NaN", "inf"] {
            assert_eq!(
                run(&format!("serve --rate {bad}")).unwrap_err(),
                format!(
                    "--rate must be a positive number of requests per second, got {}",
                    bad.parse::<f64>().unwrap()
                )
            );
        }
        let Ok(Run::Serve { cfg, .. }) = run("serve --rate 250.5") else {
            panic!("a positive rate parses");
        };
        assert_eq!(cfg.arrival_rate_rps, 250.5);
    }

    /// The qdp, faults and serve benches must keep restoring each
    /// other's — and earlier versions' — stored models: their presets
    /// derive one artifact key, spelled exactly as before the three
    /// configs shared their knobs.
    #[test]
    fn presets_share_the_pinned_artifact_key() {
        let pinned = |arch: &str, epochs, fp: &str| {
            ArtifactKey::new(arch, "mnist-like", 1, epochs, fingerprint(fp))
        };
        let presets = [
            (
                vec![
                    QdpConfig::smoke().knobs,
                    FaultsConfig::smoke().knobs,
                    ServeBenchConfig::smoke().knobs,
                ],
                6,
                "qdp-v1;train=600;test=150;batch=16;lr=3b03126f;calib=64",
            ),
            (
                vec![
                    QdpConfig::quick().knobs,
                    FaultsConfig::quick().knobs,
                    ServeBenchConfig::quick().knobs,
                ],
                3,
                "qdp-v1;train=200;test=60;batch=16;lr=3b03126f;calib=32",
            ),
        ];
        for (knobs, epochs, fp) in presets {
            for k in &knobs {
                assert_eq!(k.key(QdpArch::CapsNet), pinned("capsnet", epochs, fp));
                assert_eq!(k.key(QdpArch::DeepCaps), pinned("deepcaps", epochs, fp));
            }
        }
        // The knobs outside the key keep their values too.
        let (smoke, quick) = (ModelKnobs::smoke(), ModelKnobs::quick());
        assert_eq!(
            (smoke.eval_samples, smoke.characterization_samples),
            (40, 4000)
        );
        assert_eq!(
            (quick.eval_samples, quick.characterization_samples),
            (30, 2000)
        );
        assert_eq!(smoke.archs, vec![QdpArch::CapsNet, QdpArch::DeepCaps]);
        assert_eq!(quick.archs, smoke.archs);
    }
}
