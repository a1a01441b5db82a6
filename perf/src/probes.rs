//! Roofs and bases measured in every traced run: the gemm rates the LU is
//! compared against, the fixed cost of a `rayon` parallel loop and of an
//! executor run, and the cost of a tiny solve alone and coalesced. Ratios
//! against them are reported as measured, never clamped, and no constant
//! peak is used anywhere.

use crate::report::Report;
use crate::stats::{median, seconds_since};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use xsc_core::gemm::{gemm, par_gemm, Transpose};
use xsc_core::{flops, gen, Matrix};
use xsc_runtime::{Access, Executor, SchedPolicy, TaskGraph};
use xsc_serve::{execute_launch, JobSpec, Launch, Priority, QueuedJob, Request, ServerConfig};

/// Edge of the gemm probe's square operands.
pub const GEMM_SIZE: usize = 1024;
/// Timed repetitions of each gemm probe.
pub const GEMM_REPS: usize = 3;
/// Timed repetitions of each fixed-cost probe.
pub const OVERHEAD_REPS: usize = 500;
/// Tiny-solve dimension of the batched probes (the middle of the serve mix).
pub const TINY_DIM: usize = 8;
/// Width of the coalesced probe launch (the server's default batch limit).
pub const COALESCED_WIDTH: usize = 64;

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            seconds_since(t)
        })
        .collect();
    median(&samples)
}

/// The signature `gemm` and `par_gemm` share.
type Multiply = fn(Transpose, Transpose, f64, &Matrix<f64>, &Matrix<f64>, f64, &mut Matrix<f64>);

/// Median Gflop/s of `multiply` on random `GEMM_SIZE`³ operands.
fn gemm_rate(multiply: Multiply) -> f64 {
    let a = gen::random_matrix::<f64>(GEMM_SIZE, GEMM_SIZE, 1);
    let b = gen::random_matrix::<f64>(GEMM_SIZE, GEMM_SIZE, 2);
    let mut c = Matrix::<f64>::zeros(GEMM_SIZE, GEMM_SIZE);
    let s = time_median(GEMM_REPS, || {
        multiply(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        black_box(&c);
    });
    flops::gflops(flops::gemm(GEMM_SIZE, GEMM_SIZE, GEMM_SIZE), s)
}

/// A coalesced launch of `width` tiny solves of [`TINY_DIM`].
pub fn tiny_launch(width: usize) -> Launch {
    let jobs = (0..width as u64)
        .map(|seed| QueuedJob {
            id: seed,
            request: Request::new(
                "probe",
                Priority::Normal,
                JobSpec::TinySolve {
                    dim: TINY_DIM,
                    seed,
                },
            )
            .expect("a valid tiny solve"),
        })
        .collect();
    Launch::Coalesced {
        dim: TINY_DIM,
        jobs,
    }
}

/// Runs every probe and records it in `report`.
pub fn run(report: &mut Report) {
    report.set("core.par_gemm_gflops", gemm_rate(par_gemm));
    report.set("core.gemm_gflops", gemm_rate(gemm));

    let threads = rayon::current_num_threads();
    let par_for = time_median(OVERHEAD_REPS, || {
        (0..threads).into_par_iter().for_each(|i| {
            black_box(i);
        });
    });
    report.set("rayon.par_for_overhead_us", 1e6 * par_for);

    // The executor the server drains into: same worker count and policy.
    let exec = Executor::new(ServerConfig::default().threads, SchedPolicy::Explicit);
    let execute = time_median(OVERHEAD_REPS, || {
        let mut graph = TaskGraph::new();
        graph.add_task("noop", [Access::Write(0)], || {});
        black_box(exec.execute(graph));
    });
    report.set("runtime.execute_overhead_us", 1e6 * execute);

    let alone = tiny_launch(1);
    let tiny = time_median(OVERHEAD_REPS, || {
        black_box(execute_launch(&alone));
    });
    report.set("batched.tiny_solve_us", 1e6 * tiny);

    let wide = tiny_launch(COALESCED_WIDTH);
    let coalesced = time_median(OVERHEAD_REPS / 10, || {
        black_box(execute_launch(&wide));
    });
    report.set(
        "batched.coalesced_us_per_job",
        1e6 * coalesced / COALESCED_WIDTH as f64,
    );
}
