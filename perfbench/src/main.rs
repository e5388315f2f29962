//! The ReD-CaNe repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|library|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Three seeded workloads drive the workspace crates through their
//! public APIs (see README.md). With `--trace 0` the run prints every
//! end-to-end metric; with `--trace 1` it runs one traced pass of every
//! workload, timing spans around each public call, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod fixture;
mod library;
mod probes;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use redcane_trace::{self as trace, Counter};

use crate::fixture::{Arch, Fixture, SetupTimes, Store, Warmup, SETUPS};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, print_result, quantile, Metric, Tally};

/// Per-inference latency samples of the `sweep` and `library` runs, at
/// least.
const LATENCY_SAMPLES: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sweep,
    Library,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Sweep, Workload::Library, Workload::Serve];

    fn label(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Library => "library",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Warmup { store: PathBuf, seed: u64 },
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut warmup) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.label() == v)
                        .ok_or_else(|| format!("unknown workload {v:?} (sweep, library, serve)"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                });
            }
            "--warmup" => warmup = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if let Some(store) = warmup {
        return Ok(Command::Warmup { store, seed });
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
        Ok(Command::Warmup { store, seed }) => fixture::warmup_child(&store, seed),
        Ok(Command::Run(args)) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    // Store hygiene: `fresh` refuses a directory that already exists, so
    // reaching the next line is the self-test that it did not.
    let store = Store::fresh()?;
    tally.check(true, String::new);
    eprintln!("perfbench: warm-up training into {}", store.dir().display());
    let warm = fixture::warmup(&store, args.seed)?;

    let mut tracer = Tracer::new(args.trace);
    let setup_from = tracer.mark();
    let setup_start = tracer.at(Instant::now());
    let engine = args.trace || args.workload == Workload::Serve;
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut fx: Option<Fixture> = None;
    for _ in 0..SETUPS {
        // Release the previous set-up's fixture before building the next.
        drop(fx.take());
        let (f, times) = fixture::setup(&store, args.seed, &warm, engine, &mut tracer, &mut tally);
        setups.push(times);
        fx = Some(f);
    }
    let fx = fx.ok_or("no set-up ran")?;
    for a in &fx.archs {
        eprintln!("perfbench: {} {}", a.arch.label(), a.provenance.label());
    }
    let setup_end = tracer.at(Instant::now());
    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let metrics = if args.trace {
        let mut m = setup_layers(&pick, &warm);
        let phase = Phase {
            name: "setup",
            from: setup_from,
            start: setup_start,
            end: setup_end,
        };
        report_self_times(&tracer, &phase);
        m.extend(traced(&fx, args.seed, &mut tracer, &mut tally));
        m
    } else {
        let seed = args.seed;
        let mut m = vec![metric(
            "setup_s",
            pick(|t| t.total),
            "s",
            format!("median of {SETUPS} set-ups"),
        )];
        m.extend(match args.workload {
            Workload::Sweep => run_sweep(&fx, seed, args.seconds, &mut tally),
            Workload::Library => run_library(&fx, seed, args.seconds, &mut tally),
            Workload::Serve => run_serve(&fx, seed, args.seconds, &mut tally)?,
        });
        m.push(metric(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            "peak resident set size (VmHWM)",
        ));
        m
    };
    drop(fx);
    drop(store);
    print_result(&tally, &metrics);
    Ok(())
}

/// Per-inference latencies are sampled in chunks between passes, so they
/// spread over the whole run rather than one stretch of it.
const LATENCY_CHUNK: usize = 100;

/// Alternates passes with latency chunks until `seconds` have gone by
/// since `t0`, at least two passes ran and [`LATENCY_SAMPLES`] latencies
/// are in.
fn passes_and_latencies<P>(
    t0: Instant,
    seconds: f64,
    mut pass: impl FnMut() -> P,
    mut chunk: impl FnMut(usize) -> Vec<f64>,
) -> (Vec<P>, Vec<f64>) {
    let (mut passes, mut lat) = (Vec::new(), Vec::new());
    while passes.len() < 2 || lat.len() < LATENCY_SAMPLES || t0.elapsed().as_secs_f64() < seconds {
        passes.push(pass());
        lat.extend(chunk(lat.len()));
    }
    (passes, lat)
}

/// Only the median is gated. On a shared 2-vCPU host the tail is set by
/// host stalls and by how busy the other tenants keep each vCPU, and the
/// serve p90 and p99 swing by more than any bound from run to run; the
/// tail is printed with its sample count but not gated.
fn latency_metric(lat: &[f64], what: &str) -> Metric {
    println!(
        "# latency p90 {:.4} ms, p99 {:.4} ms over {} samples ({what}; not gated)",
        quantile(lat, 0.9),
        quantile(lat, 0.99),
        lat.len()
    );
    metric(
        "latency_p50_ms",
        quantile(lat, 0.5),
        "ms",
        format!("{what}, median of {}", lat.len()),
    )
}

fn run_sweep(fx: &Fixture, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let t0 = Instant::now();
    let data = fx.pair.test.take(sweep::SAMPLES);
    let mut off = Tracer::new(false);
    let (passes, lat) = passes_and_latencies(
        t0,
        seconds,
        || sweep::pass(fx, &data, seed, &mut Tracer::new(false)),
        |from| probes::inference_latencies_ms(fx, from, LATENCY_CHUNK, seed, false),
    );
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        for ((arch, a), (_, b)) in first.reports.iter().zip(&p.reports) {
            tally.check(sweep::same_outcome(a, b), || {
                format!("sweep {} pass {i} differs from pass 0", arch.label())
            });
        }
    }
    for (arch, report) in &first.reports {
        // The first pass's analyses are operations too; later passes
        // count through the comparison above.
        tally.check(true, String::new);
        sweep::check(fx.arch(*arch), &data, report, &mut off, tally);
    }
    let mut m = vec![
        metric(
            "pass_s",
            median(&passes.iter().map(|p| p.seconds).collect::<Vec<_>>()),
            "s",
            format!(
                "Steps 1-6 on both architectures ({} cells, median of {} passes)",
                first.cells,
                passes.len()
            ),
        ),
        metric(
            "throughput_per_s",
            median(
                &passes
                    .iter()
                    .map(|p| p.noisy_inferences as f64 / p.seconds)
                    .collect::<Vec<_>>(),
            ),
            "1/s",
            "noise-injected float inferences per second",
        ),
    ];
    m.push(latency_metric(
        &lat,
        "one sample, noisy float forward on both architectures",
    ));
    m
}

fn run_library(fx: &Fixture, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let t0 = Instant::now();
    let data = fx.pair.test.take(library::SAMPLES);
    let plans = library::plans(fx, seed);
    let mut off = Tracer::new(false);
    let (passes, lat) = passes_and_latencies(
        t0,
        seconds,
        || library::pass(fx, &data, &plans, &mut Tracer::new(false)),
        |from| probes::inference_latencies_ms(fx, from, LATENCY_CHUNK, seed, true),
    );
    for (i, p) in passes.iter().enumerate() {
        library::tally_pass(p, (i > 0).then(|| &passes[0]), tally);
    }
    library::check(fx, &data, &passes[0], seed, &mut off, tally);
    let mut m = vec![
        metric(
            "pass_s",
            median(&passes.iter().map(|p| p.seconds).collect::<Vec<_>>()),
            "s",
            format!(
                "{} components x 2 architectures + {} fault plans (median of {} passes)",
                fx.library.len(),
                plans.len(),
                passes.len()
            ),
        ),
        metric(
            "throughput_per_s",
            median(
                &passes
                    .iter()
                    .map(|p| p.scored_inferences as f64 / p.seconds)
                    .collect::<Vec<_>>(),
            ),
            "1/s",
            "quantized inferences per second",
        ),
    ];
    m.push(latency_metric(
        &lat,
        "one sample, quantized predict on both architectures",
    ));
    m
}

/// One session per ladder rate, lowest first. Returns every rate's
/// outcomes, with the nominal rate's rung left empty, and the nominal
/// rate's session, which the caller keeps or discards.
fn ladder(fx: &Fixture, seed: u64, expected: &[Vec<usize>]) -> (Vec<serve::Rung>, serve::Session) {
    let engine = fx.engine.as_ref().expect("serve set-up builds the engine");
    let mut rungs = Vec::new();
    let mut nominal = None;
    for rate in serve::LADDER_RPS {
        let sched = serve::schedule(fx, seed, rate, serve::REQUESTS_PER_RATE, 0);
        let s = serve::session(engine, fx, &sched, expected, &mut Tracer::new(false));
        if rate == serve::NOMINAL_RPS {
            rungs.push(serve::Rung::default());
            nominal = Some(s);
        } else {
            rungs.push(serve::Rung::of(&s));
        }
    }
    (rungs, nominal.expect("nominal rate on the ladder"))
}

fn nominal_index() -> usize {
    serve::LADDER_RPS
        .iter()
        .position(|&r| r == serve::NOMINAL_RPS)
        .expect("nominal rate on the ladder")
}

fn nominal(rungs: &[serve::Rung]) -> &serve::Rung {
    &rungs[nominal_index()]
}

fn nominal_mut(rungs: &mut [serve::Rung]) -> &mut serve::Rung {
    &mut rungs[nominal_index()]
}

/// Highest ladder rate whose p99 meets the limit with no growing backlog.
fn max_rate(rungs: &[serve::Rung]) -> f64 {
    rungs
        .iter()
        .zip(serve::LADDER_RPS)
        .filter(|(r, _)| r.meets_limit())
        .map(|(_, rate)| rate)
        .fold(0.0, f64::max)
}

fn tally_rungs(rungs: &[serve::Rung], discarded: &serve::Rung, tally: &mut Tally) {
    for (r, rate) in rungs.iter().zip(serve::LADDER_RPS) {
        tally.bulk(
            r.outcomes.len() as u64,
            (r.failed + r.duplicated) as u64,
            || {
                format!(
                    "serve at {rate} rps: {} failed, {} duplicated responses",
                    r.failed, r.duplicated
                )
            },
        );
        println!(
            "# serve {rate:>6} rps: {} requests, p50 {:.3} ms, p99 {:.3} ms, goodput {:.1} rps, backlog {}, {}",
            r.outcomes.len(),
            r.latency_ms(0.5),
            r.latency_ms(0.99),
            r.goodput_rps(),
            r.backlog_end,
            if r.meets_limit() { "meets the limit" } else { "misses the limit" }
        );
        for arch in Arch::ALL {
            println!(
                "#   {:<9} p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
                arch.label(),
                r.arch_latency_ms(arch, 0.5),
                r.arch_latency_ms(arch, 0.9),
                r.arch_latency_ms(arch, 0.99)
            );
        }
    }
    // Discarded sessions are out of every metric, but their responses
    // were checked all the same.
    tally.bulk(
        discarded.outcomes.len() as u64,
        (discarded.failed + discarded.duplicated) as u64,
        || {
            format!(
                "discarded serve sessions: {} failed, {} duplicated responses",
                discarded.failed, discarded.duplicated
            )
        },
    );
    println!(
        "# serve discarded {} requests from nominal sessions whose generator lag p99 exceeded {} ms",
        discarded.outcomes.len(),
        serve::LAG_BOUND_MS
    );
}

/// Valid nominal sessions the medians need.
const MIN_SESSIONS: usize = 3;
/// How long past `--seconds` a serve run may go on looking for them.
const GRACE_S: f64 = 60.0;

fn run_serve(
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let engine = fx.engine.as_ref().expect("serve set-up builds the engine");
    let expected = serve::expected(engine, fx);
    let t0 = Instant::now();
    // The ladder once, then more sessions at the nominal rate until the
    // time is up; the nominal metrics are medians over those sessions.
    // A session whose generator fell behind did not offer the load it
    // claims: it is discarded and another one runs in its place.
    let (mut rungs, first) = ladder(fx, seed, &expected);
    let mut discarded = serve::Rung::default();
    let mut sessions = Vec::new();
    let mut next = Some(first);
    // Session 0 is the ladder's; each later one gets its own schedule.
    for salt in 0u64.. {
        let s = next.take().unwrap_or_else(|| {
            let sched =
                serve::schedule(fx, seed, serve::NOMINAL_RPS, serve::REQUESTS_PER_RATE, salt);
            serve::session(engine, fx, &sched, &expected, &mut Tracer::new(false))
        });
        let rung = serve::Rung::of(&s);
        if rung.offered() {
            nominal_mut(&mut rungs).add(&s);
            sessions.push(rung);
        } else {
            discarded.add(&s);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if sessions.len() >= MIN_SESSIONS && elapsed >= seconds {
            break;
        }
        if elapsed >= seconds + GRACE_S {
            return Err(format!(
                "serve: {} of {} nominal sessions kept the generator lag p99 within {} ms \
                 after {elapsed:.0} s; the host is too busy to offer the load",
                sessions.len(),
                salt + 1,
                serve::LAG_BOUND_MS
            ));
        }
    }
    tally_rungs(&rungs, &discarded, tally);
    println!(
        "# serve max_rate_rps {} (p99 limit {} ms)",
        max_rate(&rungs),
        serve::LATENCY_LIMIT_MS
    );
    let per = |f: &dyn Fn(&serve::Rung) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let n = sessions.len();
    println!(
        "# serve latency p90 {:.4} ms, p99 {:.4} ms at {} rps, medians of {n} sessions (not gated)",
        per(&|r| r.balanced_latency_ms(0.9)),
        per(&|r| r.latency_ms(0.99)),
        serve::NOMINAL_RPS
    );
    let at = format!(
        "at {} rps, median of {n} sessions of {} requests",
        serve::NOMINAL_RPS,
        serve::REQUESTS_PER_RATE
    );
    Ok(vec![
        metric(
            "pass_s",
            per(&|r| r.wall_s),
            "s",
            format!("session makespan, session start to last response, {at}"),
        ),
        metric(
            "throughput_per_s",
            per(&|r| r.goodput_rps()),
            "1/s",
            format!(
                "goodput: correct responses within {} ms per second, {at}",
                serve::LATENCY_LIMIT_MS
            ),
        ),
        metric(
            "latency_p50_ms",
            per(&|r| r.balanced_latency_ms(0.5)),
            "ms",
            format!("request from due time, per-architecture medians averaged, {at}"),
        ),
    ])
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// A traced phase: the spans from index `from` on, within `[start, end]`.
struct Phase {
    name: &'static str,
    from: usize,
    start: f64,
    end: f64,
}

fn layer(name: &str, value: f64, unit: &'static str, moves: &str) -> Metric {
    metric(name, value, unit, format!("-> {moves}"))
}

fn setup_layers(pick: &dyn Fn(fn(&SetupTimes) -> f64) -> f64, warm: &Warmup) -> Vec<Metric> {
    const MOVES: &str = "setup_s (all workloads)";
    let mut m = vec![
        layer("datasets.generate_s", pick(|t| t.generate), "s", MOVES),
        layer("artifacts.load_s", pick(|t| t.load), "s", MOVES),
        layer("qdp.lower_s", pick(|t| t.lower), "s", MOVES),
        layer("axmul.tabulate_s", pick(|t| t.tabulate), "s", MOVES),
        layer(
            "serve.engine_new_s",
            pick(|t| t.engine_new),
            "s",
            "setup_s (serve)",
        ),
    ];
    for (arch, s) in &warm.train_s {
        m.push(layer(
            format!("capsnet.train_s.{}", arch.label()).as_str(),
            *s,
            "s",
            "nothing gated: untimed warm-up",
        ));
    }
    m
}

/// Prints each layer's self time in `phase`, overall and per
/// architecture, largest first.
fn report_self_times(tr: &Tracer, phase: &Phase) {
    let self_times = tr.self_times(phase.from);
    let mut by_layer: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for (s, t) in tr.spans()[phase.from..].iter().zip(&self_times) {
        *by_layer.entry((s.layer(), "all")).or_default() += t;
        if let Some(arch) = s.arch {
            *by_layer.entry((s.layer(), arch)).or_default() += t;
        }
    }
    let wall = (phase.end - phase.start).max(1e-9);
    let covered = tr.coverage(phase.from, phase.start, phase.end);
    let requests: std::collections::BTreeSet<u64> = tr.spans()[phase.from..]
        .iter()
        .filter_map(|s| s.request)
        .collect();
    // Spans on parallel workers overlap, so self-time shares of the phase
    // wall clock can sum above 100%.
    println!(
        "# trace {}: wall {:.3} s, {} spans ({} requests), spans cover {:.1}%; self time as % of wall",
        phase.name,
        wall,
        self_times.len(),
        requests.len(),
        100.0 * covered / wall
    );
    for scope in ["all", "capsnet", "deepcaps"] {
        let mut rows: Vec<(&str, f64)> = by_layer
            .iter()
            .filter(|((_, a), _)| *a == scope)
            .map(|((l, _), t)| (*l, *t))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (rank, (l, t)) in rows.iter().enumerate() {
            println!(
                "# self {:<8} {:<9} #{} {:<9} {:>9.4} s {:>6.1}%",
                phase.name,
                scope,
                rank + 1,
                l,
                t,
                100.0 * t / wall
            );
        }
    }
    let mut calls: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for (s, t) in tr.spans()[phase.from..].iter().zip(&self_times) {
        *calls
            .entry((s.name.as_str(), s.arch.unwrap_or("-")))
            .or_default() += t;
    }
    let mut rows: Vec<_> = calls.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for ((name, arch), t) in rows.iter().take(8) {
        println!(
            "# call {:<8} {:<28} {:<9} {:>9.4} s {:>6.1}%",
            phase.name,
            name,
            arch,
            t,
            100.0 * t / wall
        );
    }
}

/// Runs `body` as a traced phase: program counters on and spans
/// recorded. Returns its result, the counter snapshot and the phase.
fn phase<R>(
    name: &'static str,
    tr: &mut Tracer,
    body: impl FnOnce(&mut Tracer) -> R,
) -> (R, trace::Snapshot, Phase) {
    trace::reset();
    trace::set_enabled(true);
    tr.set_enabled(true);
    let from = tr.mark();
    let start = tr.at(Instant::now());
    let r = body(tr);
    let end = tr.at(Instant::now());
    trace::set_enabled(false);
    tr.set_enabled(false);
    let snapshot = trace::snapshot();
    (
        r,
        snapshot,
        Phase {
            name,
            from,
            start,
            end,
        },
    )
}

fn coverage_and_overhead(
    tr: &Tracer,
    ph: &Phase,
    traced_s: f64,
    untraced_s: f64,
    what: &str,
) -> Vec<Metric> {
    let wall = (ph.end - ph.start).max(1e-9);
    let coverage = 100.0 * tr.coverage(ph.from, ph.start, ph.end) / wall;
    let overhead = 100.0 * (traced_s - untraced_s) / untraced_s;
    println!(
        "# trace {}: tracing overhead {overhead:+.2}% ({what}: traced {traced_s:.4} vs untraced {untraced_s:.4})",
        ph.name
    );
    report_self_times(tr, ph);
    vec![
        layer(
            &format!("bench.span_coverage.{}", ph.name),
            coverage,
            "%",
            "nothing gated: share of the traced phase the spans cover",
        ),
        layer(
            &format!("bench.trace_overhead.{}", ph.name),
            overhead,
            "%",
            &format!("nothing gated: {what}, traced vs untraced"),
        ),
    ]
}

/// The traced run: one traced pass of every workload, each preceded by
/// an untraced twin for the tracing overhead, plus the single-call probes.
fn traced(fx: &Fixture, seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Vec<Metric> {
    let mut m = Vec::new();
    m.extend(traced_sweep(fx, seed, tr, tally));
    m.extend(traced_library(fx, seed, tr, tally));
    m.extend(traced_serve(fx, seed, tr, tally));
    m
}

fn traced_sweep(fx: &Fixture, seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Vec<Metric> {
    const A: &str = "pass_s (sweep)";
    const T: &str = "throughput_per_s and latency_p50_ms (sweep)";
    let data = fx.pair.test.take(sweep::SAMPLES);
    // The first pass after set-up runs cold; the second is the untraced twin.
    sweep::pass(fx, &data, seed, &mut Tracer::new(false));
    let untraced = sweep::pass(fx, &data, seed, &mut Tracer::new(false));
    let ((pass, probes), counters, ph) = phase("sweep", tr, |tr| {
        let pass = sweep::pass(fx, &data, seed, tr);
        for (arch, report) in &pass.reports {
            sweep::check(fx.arch(*arch), &data, report, tr, tally);
        }
        let cell4 = probes::gemm_s(probes::CELL4, tr);
        let stem = probes::gemm_s(probes::STEM, tr);
        let probes = vec![
            layer(
                "axmul.characterize_s",
                probes::characterize_s(fx, seed, tr),
                "s",
                A,
            ),
            layer(
                "capsnet.forward_us.capsnet",
                probes::noisy_forward_us(fx, Arch::CapsNet, &data, seed, tr),
                "us",
                T,
            ),
            layer(
                "capsnet.forward_us.deepcaps",
                probes::noisy_forward_us(fx, Arch::DeepCaps, &data, seed, tr),
                "us",
                T,
            ),
            layer("capsnet.routing_fwd_us", probes::routing_us(tr), "us", T),
            layer("nn.conv2d_fwd_us", probes::conv2d_us(tr), "us", T),
            layer(
                "tensor.gemm_cell4_macs_per_s",
                probes::macs_per_s(probes::CELL4, cell4),
                "MAC/s",
                T,
            ),
            layer(
                "tensor.gemm_stem_macs_per_s",
                probes::macs_per_s(probes::STEM, stem),
                "MAC/s",
                T,
            ),
        ];
        (pass, probes)
    });
    for ((arch, a), (_, b)) in untraced.reports.iter().zip(&pass.reports) {
        tally.check(sweep::same_outcome(a, b), || {
            format!("traced sweep on {} differs from untraced", arch.label())
        });
    }
    let f = ph.from;
    let mut m = vec![
        layer(
            "core.extract_groups_s",
            tr.total(f, "core.extract_groups"),
            "s",
            A,
        ),
        layer(
            "core.group_sweep_s",
            tr.total(f, "core.group_sweep"),
            "s",
            A,
        ),
        layer(
            "core.layer_sweep_s",
            tr.total(f, "core.layer_sweep"),
            "s",
            A,
        ),
        layer(
            "core.select_components_s",
            tr.total(f, "core.select_components"),
            "s",
            A,
        ),
        layer("core.sweep_cells", pass.cells as f64, "count", A),
        layer(
            "capsnet.evaluate_clean_s",
            tr.total(f, "capsnet.evaluate_clean"),
            "s",
            A,
        ),
        layer(
            "tensor.gemm_macs",
            counters.run(Counter::GemmMacs) as f64,
            "count",
            T,
        ),
        layer(
            "tensor.im2col_bytes",
            counters.run(Counter::Im2colBytes) as f64,
            "bytes",
            T,
        ),
        layer(
            "tensor.par_calls",
            counters.run(Counter::ParCalls) as f64,
            "count",
            T,
        ),
        layer(
            "tensor.par_items",
            counters.run(Counter::ParItems) as f64,
            "count",
            T,
        ),
    ];
    m.extend(probes);
    m.extend(coverage_and_overhead(
        tr,
        &ph,
        pass.seconds,
        untraced.seconds,
        "pass wall clock",
    ));
    m
}

fn traced_library(fx: &Fixture, seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Vec<Metric> {
    const L: &str = "pass_s (library)";
    const T: &str = "throughput_per_s and latency_p50_ms (library)";
    const K: &str = "throughput_per_s (library) and latency_p50_ms (serve)";
    let data = fx.pair.test.take(library::SAMPLES);
    let plans = library::plans(fx, seed);
    library::pass(fx, &data, &plans, &mut Tracer::new(false));
    let untraced = library::pass(fx, &data, &plans, &mut Tracer::new(false));
    let ((pass, probes), counters, ph) = phase("library", tr, |tr| {
        let pass = library::pass(fx, &data, &plans, tr);
        library::check(fx, &data, &pass, seed, tr, tally);
        let mut probes = Vec::new();
        for arch in Arch::ALL {
            let (single, batch) = probes::qforward_us(fx, arch, &data, tr);
            let a = arch.label();
            probes.push(layer(&format!("qdp.forward_us.{a}"), single, "us", T));
            probes.push(layer(&format!("qdp.forward_batch_us.{a}"), batch, "us", T));
            probes.push(layer(
                &format!("qdp.batch_gain.{a}"),
                single / batch,
                "ratio",
                T,
            ));
        }
        let exact = redcane_axmul::MulLut::exact();
        let approx = probes::approx_lut(fx);
        let gemm_cell4 = probes::gemm_s(probes::CELL4, tr);
        for (shape, sname) in [(probes::CELL4, "cell4"), (probes::STEM, "stem")] {
            for (lut, lname) in [(&exact, "exact"), (&approx, "approx")] {
                let s = probes::qgemm_s(shape, lut, tr);
                probes.push(layer(
                    &format!("qdp.qgemm_{sname}_macs_per_s.{lname}"),
                    probes::macs_per_s(shape, s),
                    "MAC/s",
                    K,
                ));
                if sname == "cell4" && lname == "exact" {
                    probes.push(layer("qdp.qgemm_over_gemm", s / gemm_cell4, "ratio", K));
                }
            }
        }
        (pass, probes)
    });
    library::tally_pass(&pass, Some(&untraced), tally);
    let mut m: Vec<Metric> = pass
        .evaluate_s
        .iter()
        .map(|(arch, s)| layer(&format!("qdp.evaluate_s.{}", arch.label()), *s, "s", T))
        .collect();
    m.extend([
        layer("qdp.fault_prepare_s", pass.fault_prepare_s, "s", L),
        layer("qdp.fault_evaluate_s", pass.fault_evaluate_s, "s", L),
        layer(
            "qdp.fault_sites_applied",
            counters.run(Counter::FaultSitesApplied) as f64,
            "count",
            L,
        ),
        layer(
            "qdp.qgemm_macs",
            counters.run(Counter::QgemmMacs) as f64,
            "count",
            K,
        ),
        layer(
            "qdp.lut_row_fetches",
            counters.run(Counter::LutRowFetches) as f64,
            "count",
            K,
        ),
        layer(
            "axmul.lut_cache_hits",
            counters.run(Counter::LutCacheHits) as f64,
            "count",
            K,
        ),
        layer(
            "axmul.lut_cache_misses",
            counters.run(Counter::LutCacheMisses) as f64,
            "count",
            K,
        ),
    ]);
    m.extend(probes);
    m.extend(coverage_and_overhead(
        tr,
        &ph,
        pass.seconds,
        untraced.seconds,
        "pass wall clock",
    ));
    m
}

fn traced_serve(fx: &Fixture, seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Vec<Metric> {
    const S: &str = "latency_p90_ms (serve)";
    let engine = fx.engine.as_ref().expect("traced set-up builds the engine");
    let expected = serve::expected(engine, fx);
    let (mut rungs, first) = ladder(fx, seed, &expected);
    nominal_mut(&mut rungs).add(&first);
    tally_rungs(&rungs, &serve::Rung::default(), tally);
    let untraced = nominal(&rungs);
    // The untraced twin is the ladder's nominal session: same schedule.
    let sched = serve::schedule(fx, seed, serve::NOMINAL_RPS, serve::REQUESTS_PER_RATE, 0);
    let ((session, probes), _, ph) = phase("serve", tr, |tr| {
        let session = serve::session(engine, fx, &sched, &expected, tr);
        let mut probes = Vec::new();
        for arch in Arch::ALL {
            for b in [1, 8] {
                let ms = probes::predict_batch_ms(fx, arch, b, tr);
                probes.push((arch, b, ms));
            }
        }
        (session, probes)
    });
    let mut rung = serve::Rung::default();
    rung.add(&session);
    tally.bulk(
        rung.outcomes.len() as u64,
        (rung.failed + rung.duplicated) as u64,
        || {
            format!(
                "traced serve session: {} failed, {} duplicated",
                rung.failed, rung.duplicated
            )
        },
    );
    let batch_mean = rung.items as f64 / rung.batches.max(1) as f64;
    // Service time of a batch of `batch_mean` requests, interpolated
    // between the isolated batch-1 and batch-8 calls and averaged over
    // the (evenly mixed) architectures.
    let service: f64 = Arch::ALL
        .iter()
        .map(|&arch| {
            let at = |b: usize| {
                probes
                    .iter()
                    .find(|p| p.0 == arch && p.1 == b)
                    .map_or(0.0, |p| p.2)
            };
            at(1) + (at(8) - at(1)) * (batch_mean - 1.0) / 7.0
        })
        .sum::<f64>()
        / Arch::ALL.len() as f64;
    let engine_p50 = rung.engine_ms(0.5);
    let mut m: Vec<Metric> = probes
        .iter()
        .map(|(arch, b, ms)| {
            layer(
                &format!("qdp.predict_batch_ms.{}.b{b}", arch.label()),
                *ms,
                "ms",
                S,
            )
        })
        .collect();
    m.extend([
        layer(
            "serve.max_rate_rps",
            max_rate(&rungs),
            "1/s",
            "nothing gated: highest ladder rate meeting the p99 limit (serve)",
        ),
        layer(
            "serve.latency_p99_ms",
            rung.latency_ms(0.99),
            "ms",
            "nothing gated: request p99 from due time at the nominal rate (serve)",
        ),
        layer("serve.engine_latency_p50_ms", engine_p50, "ms", S),
        layer("serve.engine_latency_p99_ms", rung.engine_ms(0.99), "ms", S),
        layer(
            "serve.queue_wait_ms",
            (engine_p50 - service).max(0.0),
            "ms",
            "latency_p50_ms (serve); derived: engine p50 minus isolated service time",
        ),
        layer(
            "serve.submit_lag_p99_ms",
            rung.lag_ms(0.99),
            "ms",
            "run validity (serve)",
        ),
        layer(
            "serve.submit_lag_max_ms",
            rung.lag_max_ms(),
            "ms",
            "run validity (serve)",
        ),
        layer("serve.batch_mean", batch_mean, "requests", S),
        layer("serve.batches", rung.batches as f64, "count", S),
        layer("serve.queue_depth_max", rung.depth_max as f64, "count", S),
        layer("serve.backlog_end", rung.backlog_end as f64, "count", S),
    ]);
    m.extend(coverage_and_overhead(
        tr,
        &ph,
        rung.latency_ms(0.5),
        untraced.latency_ms(0.5),
        &format!("p50 latency at {} rps", serve::NOMINAL_RPS),
    ));
    m
}
