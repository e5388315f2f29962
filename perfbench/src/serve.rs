//! The `serve` workload: open-loop serving from one generator thread
//! with `nproc` engine workers and adaptive batching. Traffic is a
//! seeded 50/50 mix of CapsNet and DeepCaps over the exact, cheapest
//! and Step-6 assignments, offered at a ladder of fixed absolute rates.
//! Batches hold at most 8 requests, so queue wait and per-batch overhead
//! decide latency, and at most six LUTs are hot.

use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use redcane::faults::{mix64, unit_f64};
use redcane_serve::{Engine, ServeConfig, ServeStats};
use redcane_tensor::Tensor;

use crate::fixture::{Arch, Fixture};
use crate::spans::Tracer;
use crate::stats::{max, quantile};

/// Offered rates in requests per second, lowest first. Fixed absolute
/// rates, never derived from a capacity the code under test measures,
/// so every commit sees the same offered load.
pub const LADDER_RPS: [f64; 5] = [500.0, 1000.0, 1500.0, 2000.0, 3000.0];
/// The rate the latency and goodput metrics are read at: about a third
/// of capacity on an idle 2-core host, so it stays below capacity when
/// the host is busy.
pub const NOMINAL_RPS: f64 = 500.0;
/// Requests per session: every p99 rests on ten samples beyond it.
pub const REQUESTS_PER_RATE: usize = 1000;
/// Latency limit on the p99, measured from each request's due time.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Queue depth at a rate's last submission above which its backlog
/// counts as growing.
pub const BACKLOG_LIMIT: usize = 64;
/// A nominal session whose generator submitted later than this (p99) did
/// not offer the load it claims; its latencies are not used.
pub const LAG_BOUND_MS: f64 = 20.0;
/// Batch ceiling and adaptive batching deadline.
pub const MAX_BATCH: usize = 8;
pub const MAX_WAIT: Duration = Duration::from_micros(2000);

/// Engine workers: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Due {
    /// Offset of its due time from the session start.
    pub at: Duration,
    pub model: usize,
    pub sample: usize,
}

/// `n` seeded requests at `rate`. Gaps between due times are drawn
/// uniformly from half to one and a half times the mean gap, so bursts
/// are bounded; each consecutive pair of requests holds one request per
/// architecture in seeded order; the served assignment and the sample
/// are uniform seeded picks.
pub fn schedule(fx: &Fixture, seed: u64, rate: f64, n: usize, salt: u64) -> Vec<Due> {
    let per_arch = fx.served.len() / Arch::ALL.len();
    let mut t = 0.0f64;
    (0..n as u64)
        .map(|i| {
            let w = mix64(seed, salt ^ rate.to_bits(), i);
            t += (0.5 + unit_f64(w)) / rate;
            let first = mix64(seed, salt ^ rate.to_bits(), i & !1) & 1;
            let arch = ((first ^ (i & 1)) & 1) as usize;
            let k = (mix64(w, 2, 0) % per_arch as u64) as usize;
            Due {
                at: Duration::from_secs_f64(t),
                model: arch * per_arch + k,
                sample: (mix64(w, 3, 0) % fx.pair.test.len() as u64) as usize,
            }
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub arch: Arch,
    /// Milliseconds from its due time to its submission.
    pub lag_ms: f64,
    /// Due time to response, or infinity without a correct response.
    pub latency_ms: f64,
    /// The engine's own enqueue-to-response latency.
    pub engine_ms: f64,
    pub correct: bool,
}

/// One serving session at one rate.
pub struct Session {
    pub outcomes: Vec<Outcome>,
    pub stats: ServeStats,
    /// First due time to last response.
    pub wall_s: f64,
    pub depth_max: usize,
    /// Queue depth at the last submission.
    pub backlog_end: usize,
    /// Responses beyond one per request.
    pub extra_responses: usize,
}

/// Expected prediction per `(served model, sample)`, from
/// `Engine::predict_one`.
pub fn expected(engine: &Engine, fx: &Fixture) -> Vec<Vec<usize>> {
    (0..engine.models())
        .map(|m| {
            fx.pair
                .test
                .samples
                .iter()
                .map(|s| engine.predict_one(m, &s.image))
                .collect()
        })
        .collect()
}

/// Serves `sched` open-loop: the calling thread submits each request at
/// its due time whatever the queue is doing. Traced, every request gets
/// a `serve.request` span from due time to response, with
/// `serve.submit` and `serve.engine` children sharing its request id.
pub fn session(
    engine: &Engine,
    fx: &Fixture,
    sched: &[Due],
    expected: &[Vec<usize>],
    tracer: &mut Tracer,
) -> Session {
    let inputs: Vec<Tensor> = sched
        .iter()
        .map(|d| fx.pair.test.samples[d.sample].image.clone())
        .collect();
    let config = ServeConfig {
        workers: workers(),
        max_batch: MAX_BATCH,
        max_wait: Some(MAX_WAIT),
    };
    let (tx, rx) = channel();
    let ((start, submitted), stats) = engine.serve(&config, |sub| {
        let mut submitted = Vec::with_capacity(sched.len());
        let start = Instant::now();
        for (d, input) in sched.iter().zip(inputs) {
            let due = start + d.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            let (seq, depth) = sub.submit_with(d.model, input, tx.clone());
            submitted.push((seq, at, depth));
        }
        (start, submitted)
    });
    drop(tx);
    let all: Vec<_> = rx.try_iter().collect();
    let received = all.len();
    let responses: BTreeMap<u64, _> = all.into_iter().map(|r| (r.seq, r)).collect();
    let mut outcomes = Vec::with_capacity(sched.len());
    let mut last = start;
    for (i, (d, &(seq, at, _))) in sched.iter().zip(&submitted).enumerate() {
        let due = start + d.at;
        let lag_ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
        let arch = fx.served[d.model].0;
        let outcome = match responses.get(&seq) {
            Some(r) => {
                let done = at + r.latency;
                last = last.max(done);
                let correct = r.model == d.model && r.prediction == expected[d.model][d.sample];
                if tracer.enabled() {
                    let (t_due, t_at, t_done) = (tracer.at(due), tracer.at(at), tracer.at(done));
                    let label = Some(arch.label());
                    let id =
                        tracer.record("serve.request", label, t_due, t_done, None, Some(i as u64));
                    tracer.record("serve.submit", label, t_due, t_at, Some(id), Some(i as u64));
                    tracer.record(
                        "serve.engine",
                        label,
                        t_at,
                        t_done,
                        Some(id),
                        Some(i as u64),
                    );
                }
                Outcome {
                    arch,
                    lag_ms,
                    latency_ms: if correct {
                        done.saturating_duration_since(due).as_secs_f64() * 1e3
                    } else {
                        f64::INFINITY
                    },
                    engine_ms: r.latency.as_secs_f64() * 1e3,
                    correct,
                }
            }
            None => Outcome {
                arch,
                lag_ms,
                latency_ms: f64::INFINITY,
                engine_ms: f64::INFINITY,
                correct: false,
            },
        };
        outcomes.push(outcome);
    }
    Session {
        outcomes,
        stats,
        wall_s: last.saturating_duration_since(start).as_secs_f64(),
        depth_max: submitted.iter().map(|s| s.2).max().unwrap_or(0),
        backlog_end: submitted.last().map_or(0, |s| s.2),
        extra_responses: received.saturating_sub(sched.len()),
    }
}

/// Every session at one rate, pooled.
#[derive(Default)]
pub struct Rung {
    pub outcomes: Vec<Outcome>,
    pub wall_s: f64,
    pub batches: u64,
    pub items: u64,
    pub depth_max: usize,
    pub backlog_end: usize,
    /// Requests that got no response or a wrong one.
    pub failed: usize,
    /// Requests that got more than one response (a lost request shows in
    /// `failed`).
    pub duplicated: usize,
}

impl Rung {
    pub fn of(s: &Session) -> Rung {
        let mut r = Rung::default();
        r.add(s);
        r
    }

    pub fn add(&mut self, s: &Session) {
        self.outcomes.extend_from_slice(&s.outcomes);
        self.wall_s += s.wall_s;
        self.batches += s.stats.batches();
        self.items += s.stats.items();
        self.depth_max = self.depth_max.max(s.depth_max);
        self.backlog_end = self.backlog_end.max(s.backlog_end);
        self.failed += s.outcomes.iter().filter(|o| !o.correct).count();
        self.duplicated += s.extra_responses;
    }

    fn latencies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency_ms).collect()
    }

    pub fn latency_ms(&self, q: f64) -> f64 {
        quantile(&self.latencies(), q)
    }

    /// Quantile `q` of one architecture's requests.
    pub fn arch_latency_ms(&self, arch: Arch, q: f64) -> f64 {
        let v: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.arch == arch)
            .map(|o| o.latency_ms)
            .collect();
        quantile(&v, q)
    }

    /// Quantile `q` of each architecture's requests, averaged over the
    /// architectures. The two architectures' latencies form two modes;
    /// a quantile of the pooled requests can sit between them and jump
    /// from one to the other with the traffic mix.
    pub fn balanced_latency_ms(&self, q: f64) -> f64 {
        Arch::ALL
            .iter()
            .map(|&a| self.arch_latency_ms(a, q))
            .sum::<f64>()
            / Arch::ALL.len() as f64
    }

    pub fn engine_ms(&self, q: f64) -> f64 {
        let v: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.engine_ms)
            .filter(|v| v.is_finite())
            .collect();
        quantile(&v, q)
    }

    pub fn lag_ms(&self, q: f64) -> f64 {
        quantile(
            &self.outcomes.iter().map(|o| o.lag_ms).collect::<Vec<_>>(),
            q,
        )
    }

    pub fn lag_max_ms(&self) -> f64 {
        max(&self.outcomes.iter().map(|o| o.lag_ms).collect::<Vec<_>>())
    }

    /// Correct responses within the latency limit per second.
    pub fn goodput_rps(&self) -> f64 {
        let good = self
            .outcomes
            .iter()
            .filter(|o| o.latency_ms <= LATENCY_LIMIT_MS)
            .count();
        good as f64 / self.wall_s.max(1e-9)
    }

    /// Whether the generator offered the load it claims: submission lag
    /// p99 within [`LAG_BOUND_MS`].
    pub fn offered(&self) -> bool {
        self.lag_ms(0.99) <= LAG_BOUND_MS
    }

    /// Whether this rate is sustained: p99 within the limit (failed
    /// requests count as missing it), and no growing backlog.
    pub fn meets_limit(&self) -> bool {
        self.latency_ms(0.99) <= LATENCY_LIMIT_MS && self.backlog_end <= BACKLOG_LIMIT
    }
}
