//! `serve` workload: a wall-clock open loop into `xsc_serve::Server`.
//!
//! The arrival timeline is `LoadProfile::many_tiny` — 90 % tiny solves,
//! 6 % sparse solves and 4 % dense factors from three tenants — offered
//! at a fixed [`RATE_RPS`], about half the server's capacity on a 2-core
//! machine, into a server with its default 2 workers. The loop submits each
//! request when it is due and calls `run_pending` whenever the queue is
//! non-empty; it sits idle while the executor runs. Latency is timed from
//! the due time, so queueing behind a long drain counts.
//!
//! Why: it uses the same layers as `hpl` and `hpcg` differently. Thousands
//! of tiny launches go through `serve`'s queue and coalescer, the
//! `runtime` executor and the `batched` kernels, and `sparse` and `dense`
//! run at sizes where set-up, not the solve, dominates.

use crate::cli::Config;
use crate::probes;
use crate::report::Report;
use crate::stats::{median, nanos_since, percentile_ms, repeat_setup, tail_percentile};
use std::collections::BTreeMap;
use std::time::Instant;
use xsc_serve::{
    execute_launch, generate, plan, AdmissionQueue, Arrival, JobSpec, Launch, LoadProfile,
    QueuedJob, Request, Server, ServerConfig,
};

/// Offered request rate.
pub const RATE_RPS: u64 = 2000;
/// A tiny solve's answer is the all-ones vector; its checksum (the sum of
/// the entries) must be `dim` to this relative tolerance.
pub const TINY_REL_TOL: f64 = 1e-9;

/// What a request's checksum must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// A tiny solve of `dim` unknowns: the all-ones solution.
    AllOnes(usize),
    /// Bit-equal to a reference computed at set-up through the same
    /// public `execute_launch`, launched alone.
    Exactly(u64),
}

/// The answer check for one request.
pub fn accept(expected: Expected, checksum: f64) -> bool {
    match expected {
        Expected::AllOnes(dim) => {
            let dim = dim as f64;
            (checksum - dim).abs() <= TINY_REL_TOL * dim
        }
        Expected::Exactly(bits) => checksum.to_bits() == bits,
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Open-loop arrivals, due times in nanoseconds from the loop's start.
    pub arrivals: Vec<Arrival>,
    /// The answer each arrival must get.
    pub expected: Vec<Expected>,
}

/// The arrival timeline for `seed`, covering `seconds`.
pub fn timeline(seed: u64, seconds: f64) -> Vec<Arrival> {
    let horizon_ns = (seconds * 1e9) as u64;
    // Gaps are uniform on [0, 2·mean]; 20 % spare arrivals cover the
    // horizon with overwhelming probability, and the rest are cut.
    let count = (seconds * RATE_RPS as f64 * 1.2) as usize + 64;
    let mut arrivals = generate(&LoadProfile::many_tiny(
        seed,
        count,
        1_000_000_000 / RATE_RPS,
    ));
    arrivals.retain(|a| a.at_ns < horizon_ns);
    arrivals
}

/// The checksum of `request` launched alone.
fn reference(request: &Request) -> u64 {
    let launch = Launch::Single(QueuedJob {
        id: 0,
        request: request.clone(),
    });
    execute_launch(&launch)[0].checksum.to_bits()
}

/// Generates the timeline and the expected answers. Sparse solves repeat
/// a few specs, so each spec's reference is computed once.
pub fn setup(seed: u64, seconds: f64) -> Inputs {
    let arrivals = timeline(seed, seconds);
    let mut sparse: Vec<(JobSpec, u64)> = Vec::new();
    let expected = arrivals
        .iter()
        .map(|a| match a.request.spec() {
            JobSpec::TinySolve { dim, .. } => Expected::AllOnes(*dim),
            JobSpec::DenseFactor { .. } => Expected::Exactly(reference(&a.request)),
            spec @ JobSpec::SparseSolve { .. } => {
                let bits = match sparse.iter().find(|(s, _)| s == spec) {
                    Some((_, bits)) => *bits,
                    None => {
                        let bits = reference(&a.request);
                        sparse.push((spec.clone(), bits));
                        bits
                    }
                };
                Expected::Exactly(bits)
            }
        })
        .collect();
    Inputs { arrivals, expected }
}

/// What the server returned for one request.
#[derive(Debug, Clone, Copy)]
struct Answer {
    checksum: f64,
    launch_width: usize,
    flops: u64,
    /// Due time to drain start (queueing, including a late generator).
    wait_ns: u64,
    /// Drain start to drain end (every job of a drain ends with it).
    drain_ns: u64,
}

/// Everything the open loop recorded.
struct Served {
    answers: Vec<Option<Answer>>,
    /// Arrival indices of each drain, in job-id order.
    drains: Vec<Vec<usize>>,
    /// Start and end of each drain, in nanoseconds from the loop's start.
    drain_at: Vec<(u64, u64)>,
    submit_ns: Vec<u64>,
    late_ns: Vec<u64>,
    rejected: u64,
}

/// Runs the open loop over `arrivals` on a fresh default server.
fn open_loop(arrivals: &[Arrival]) -> Served {
    let mut server = Server::new(ServerConfig::default());
    let n = arrivals.len();
    let mut served = Served {
        answers: vec![None; n],
        drains: Vec::new(),
        drain_at: Vec::new(),
        submit_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        rejected: 0,
    };
    let mut arrival_of_job = BTreeMap::new();
    let mut next = 0;
    let start = Instant::now();
    loop {
        while next < n && arrivals[next].at_ns <= nanos_since(start) {
            let request = arrivals[next].request.clone();
            served
                .late_ns
                .push(nanos_since(start).saturating_sub(arrivals[next].at_ns));
            let t = Instant::now();
            let admitted = server.submit(request);
            served.submit_ns.push(nanos_since(t));
            match admitted {
                Ok(id) => {
                    arrival_of_job.insert(id, next);
                }
                Err(_) => served.rejected += 1,
            }
            next += 1;
        }
        if server.queued() > 0 {
            let drain_start = nanos_since(start);
            let outcomes = server.run_pending();
            let drain_end = nanos_since(start);
            served.drain_at.push((drain_start, drain_end));
            let mut members = Vec::with_capacity(outcomes.len());
            for o in outcomes {
                let Some(&k) = arrival_of_job.get(&o.id) else {
                    continue;
                };
                members.push(k);
                served.answers[k] = Some(Answer {
                    checksum: o.checksum,
                    launch_width: o.launch_width,
                    flops: o.flops,
                    wait_ns: drain_start.saturating_sub(arrivals[k].at_ns),
                    drain_ns: drain_end - drain_start,
                });
            }
            served.drains.push(members);
        } else if next == n {
            break;
        } else {
            // Idle until the next request is due.
            while nanos_since(start) < arrivals[next].at_ns {
                std::hint::spin_loop();
            }
        }
    }
    served
}

/// Per-kind costs from replaying each drain's launches, alone and serially,
/// through the public `plan` and `execute_launch`.
struct Replay {
    launches: usize,
    sparse_s: Vec<f64>,
    dense_s: Vec<f64>,
    /// A replayed launch differed from the live one in width or checksum.
    diverged: bool,
}

/// Rebuilds each drain's queue (same requests, same order, same limits),
/// plans it into launches, and times every launch.
fn replay(arrivals: &[Arrival], served: &Served) -> Replay {
    let cfg = ServerConfig::default();
    let mut out = Replay {
        launches: 0,
        sparse_s: Vec::new(),
        dense_s: Vec::new(),
        diverged: false,
    };
    for members in &served.drains {
        let mut queue = AdmissionQueue::new(cfg.queue);
        let mut arrival_of_job = BTreeMap::new();
        for &k in members {
            match queue.submit(arrivals[k].request.clone()) {
                Ok(id) => {
                    arrival_of_job.insert(id, k);
                }
                Err(_) => out.diverged = true,
            }
        }
        for launch in plan(&mut queue, &cfg.coalesce) {
            out.launches += 1;
            let t = Instant::now();
            let outcomes = execute_launch(&launch);
            let seconds = crate::stats::seconds_since(t);
            for o in &outcomes {
                let live = arrival_of_job.get(&o.id).and_then(|&k| served.answers[k]);
                out.diverged |= !live.is_some_and(|a| {
                    a.checksum.to_bits() == o.checksum.to_bits() && a.launch_width == o.launch_width
                });
            }
            if let Launch::Single(job) = &launch {
                match job.request.spec() {
                    JobSpec::SparseSolve { .. } => out.sparse_s.push(seconds),
                    JobSpec::DenseFactor { .. } => out.dense_s.push(seconds),
                    JobSpec::TinySolve { .. } => {}
                }
            }
        }
    }
    out
}

/// The open loop is cut into this many equal spans of time, and the
/// end-to-end metrics are medians over the spans, so a burst of contention
/// from outside the process moves one span rather than the result.
pub const SPANS: usize = 10;

/// The answered requests of one span.
#[derive(Debug, Clone, Default)]
struct Span {
    latency_ns: Vec<u64>,
    busy_ns: u64,
    flops: u64,
}

/// Groups each drain, with its correct answers, into a span by start time.
fn spans(served: &Served, ok: &[bool], horizon_ns: u64) -> Vec<Span> {
    let mut spans = vec![Span::default(); SPANS];
    for (members, &(start, end)) in served.drains.iter().zip(&served.drain_at) {
        let i = ((u128::from(start) * SPANS as u128) / u128::from(horizon_ns.max(1))) as usize;
        let span = &mut spans[i.min(SPANS - 1)];
        span.busy_ns += end - start;
        for &k in members {
            let Some(a) = served.answers[k] else { continue };
            if ok[k] {
                span.latency_ns.push(a.wait_ns + a.drain_ns);
                span.flops += a.flops;
            }
        }
    }
    spans
}

/// Runs the workload: set-up, the open loop for `cfg.seconds`, the answer
/// checks, and on traced runs the replay and the probes.
pub fn run(cfg: &Config) -> Report {
    let (inputs, setup_s) = repeat_setup(|| setup(cfg.seed, cfg.seconds));
    let arrivals = &inputs.arrivals;
    let served = open_loop(arrivals);

    let mut report = Report::default();
    let ok: Vec<bool> = served
        .answers
        .iter()
        .zip(&inputs.expected)
        .map(|(answer, &expected)| answer.is_some_and(|a| accept(expected, a.checksum)))
        .collect();
    for &ok in &ok {
        report.count(ok);
    }
    if !ok.contains(&true) {
        report.check_failed = true;
        return report;
    }
    if cfg.trace {
        let rep = replay(arrivals, &served);
        report.check_failed |= rep.diverged || rep.sparse_s.is_empty() || rep.dense_s.is_empty();
        if report.check_failed {
            return report;
        }
        let answered: Vec<Answer> = served.answers.iter().flatten().copied().collect();
        let wait_ns: Vec<u64> = answered.iter().map(|a| a.wait_ns).collect();
        let drain_ns: Vec<u64> = answered.iter().map(|a| a.drain_ns).collect();
        report.set("serve.queue_wait_p50_ms", percentile_ms(&wait_ns, 50.0));
        report.set("serve.queue_wait_p99_ms", percentile_ms(&wait_ns, 99.0));
        report.set("serve.drain_p50_ms", percentile_ms(&drain_ns, 50.0));
        report.set("serve.drain_p99_ms", percentile_ms(&drain_ns, 99.0));
        report.set(
            "serve.submit_us",
            1e3 * percentile_ms(&served.submit_ns, 50.0),
        );
        report.set("serve.drains", served.drains.len() as f64);
        report.set(
            "serve.generator_late_p99_ms",
            percentile_ms(&served.late_ns, 99.0),
        );
        report.set("serve.rejected", served.rejected as f64);
        report.set(
            "serve.launch_width",
            answered.len() as f64 / rep.launches as f64,
        );
        report.set("serve.sparse_job_ms", 1e3 * median(&rep.sparse_s));
        report.set("serve.dense_job_us", 1e6 * median(&rep.dense_s));
        // The open loop records the same timestamps traced or not, and the
        // replay runs after it, so tracing adds nothing to the loop.
        report.set("trace.overhead_frac", 0.0);
        let parts: u64 = wait_ns.iter().chain(&drain_ns).sum();
        let total: u64 = answered.iter().map(|a| a.wait_ns + a.drain_ns).sum();
        report.set("trace.layer_sum_frac", parts as f64 / total as f64);
        probes::run(&mut report);
    } else {
        let horizon_ns = (cfg.seconds * 1e9) as u64;
        let spans: Vec<Span> = spans(&served, &ok, horizon_ns)
            .into_iter()
            .filter(|s| !s.latency_ns.is_empty())
            .collect();
        let per_span = |f: &dyn Fn(&Span) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
        report.set("setup_s", setup_s);
        report.set(
            "solve_s",
            per_span(&|s| percentile_ms(&s.latency_ns, 50.0) / 1e3),
        );
        report.set(
            "tail_ms",
            per_span(&|s| percentile_ms(&s.latency_ns, tail_percentile(s.latency_ns.len()))),
        );
        report.set("gflops", per_span(&|s| s.flops as f64 / s.busy_ns as f64));
        report.set(
            "capacity_rps",
            per_span(&|s| 1e9 * s.latency_ns.len() as f64 / s.busy_ns as f64),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_a_function_of_the_seed() {
        let a = timeline(21, 0.5);
        assert_eq!(a, timeline(21, 0.5));
        assert_ne!(a, timeline(22, 0.5));
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.last().unwrap().at_ns < 500_000_000);
        // About RATE_RPS · seconds arrivals.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn expected_answers_are_a_function_of_the_seed() {
        let x = setup(5, 0.2);
        let y = setup(5, 0.2);
        assert_eq!(x.expected, y.expected);
        assert!(x.expected.iter().any(|e| matches!(e, Expected::Exactly(_))));
    }

    #[test]
    fn check_rejects_a_perturbed_answer() {
        assert!(accept(Expected::AllOnes(8), 8.0));
        assert!(!accept(Expected::AllOnes(8), 8.0 + 1e-6));
        assert!(!accept(Expected::AllOnes(8), f64::NAN));
        let r = 3.25f64;
        assert!(accept(Expected::Exactly(r.to_bits()), r));
        assert!(!accept(
            Expected::Exactly(r.to_bits()),
            f64::from_bits(r.to_bits() + 1)
        ));
    }

    #[test]
    fn a_short_open_loop_answers_everything_and_replays_identically() {
        let inputs = setup(3, 0.3);
        let served = open_loop(&inputs.arrivals);
        for (a, &e) in served.answers.iter().zip(&inputs.expected) {
            assert!(a.is_some_and(|a| accept(e, a.checksum)));
        }
        let rep = replay(&inputs.arrivals, &served);
        assert!(!rep.diverged);
        assert!(rep.launches >= served.drains.len());
    }
}
