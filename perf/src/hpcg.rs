//! `hpcg` workload: the 27-point stencil on a 64³ grid (262,144 rows,
//! about 6.9 M nonzeros, about 110 MiB of CSR), solved by `try_pcg` with a
//! 3-level SymGS multigrid preconditioner to a relative residual of 1e-9,
//! repeated for the whole run.
//!
//! Why: it is bandwidth-bound, and `sparse` does almost all the work; it
//! never reaches `gemm` or the executor. The right-hand side is `A x*` for
//! a seeded random `x*`.

use crate::cli::Config;
use crate::probes;
use crate::report::Report;
use crate::stats::{another, median, repeat_setup, seconds_since, tail_ms};
use std::cell::Cell;
use std::time::Instant;
use xsc_core::{blas1, flops, gen};
use xsc_metrics::Traffic;
use xsc_sparse::mg::MgPreconditioner;
use xsc_sparse::mg::Smoother;
use xsc_sparse::stencil::build_matrix;
use xsc_sparse::{
    try_pcg, CgResult, FormatMatrix, Geometry, Preconditioner, SparseFormat, SparseOps,
};

/// Grid edge.
pub const GRID: usize = 64;
/// Multigrid levels.
pub const LEVELS: usize = 3;
/// Relative residual the solve must reach.
pub const TOL: f64 = 1e-9;
/// Iteration budget (the solve needs about 35).
pub const MAX_ITERS: usize = 500;
/// Solves per run, however short the run.
pub const MIN_SOLVES: u64 = 4;

/// One generated system and its preconditioner.
pub struct Problem {
    /// The operator.
    pub a: FormatMatrix,
    /// The multigrid hierarchy (it builds its own copy of the operator).
    pub mg: MgPreconditioner,
    /// `A x*` for the seeded `x*`.
    pub b: Vec<f64>,
}

/// Set-up time of one [`build`], by part.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Operator assembly plus the right-hand side.
    pub matrix_s: f64,
    /// Multigrid hierarchy.
    pub mg_s: f64,
}

/// Builds the operator and right-hand side for `seed` on a `grid³` mesh.
pub fn build_system(grid: usize, seed: u64) -> (FormatMatrix, Vec<f64>) {
    let a = build_matrix(Geometry::new(grid, grid, grid));
    let x_star = gen::random_vector::<f64>(a.nrows(), seed);
    let mut b = vec![0.0; a.nrows()];
    SparseOps::spmv(&a, &x_star, &mut b);
    let a = FormatMatrix::convert(a, SparseFormat::CsrUsize).expect("usize CSR cannot overflow");
    (a, b)
}

/// Builds the whole problem, timing its parts.
pub fn build(grid: usize, seed: u64) -> (Problem, SetupTimes) {
    let t = Instant::now();
    let (a, b) = build_system(grid, seed);
    let matrix_s = seconds_since(t);
    let t = Instant::now();
    let mg = MgPreconditioner::try_with_format(
        Geometry::new(grid, grid, grid),
        LEVELS,
        Smoother::SymGs,
        SparseFormat::CsrUsize,
    )
    .expect("the grid coarsens LEVELS - 1 times");
    let mg_s = seconds_since(t);
    (Problem { a, mg, b }, SetupTimes { matrix_s, mg_s })
}

/// The answer check: the solve converged and the true relative residual
/// `‖b − Ax‖ / ‖b‖`, recomputed here, is at most [`TOL`].
pub fn accept(a: &FormatMatrix, b: &[f64], x: &[f64], converged: bool) -> bool {
    let mut r = vec![0.0; b.len()];
    a.fused_residual(x, b, &mut r);
    converged && blas1::nrm2(&r) <= TOL * blas1::nrm2(b)
}

/// Delegates to a matrix and times its SpMV calls.
struct TimedOps<'a, A> {
    inner: &'a mut A,
    nanos: Cell<u64>,
    calls: Cell<u64>,
}

impl<A: SparseOps> TimedOps<'_, A> {
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.nanos
            .set(self.nanos.get() + crate::stats::nanos_since(t));
        self.calls.set(self.calls.get() + 1);
        r
    }
}

impl<A: SparseOps> SparseOps for TimedOps<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn format_name(&self) -> &'static str {
        self.inner.format_name()
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.timed(|| self.inner.spmv(x, y));
    }
    fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        self.timed(|| self.inner.spmv_par(x, y));
    }
    fn fused_residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        self.inner.fused_residual(x, b, r);
    }
    fn diagonal(&self) -> Vec<f64> {
        self.inner.diagonal()
    }
    fn symgs(&self, b: &[f64], x: &mut [f64]) {
        self.inner.symgs(b, x);
    }
    fn colored_symgs(&self, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]) {
        self.inner.colored_symgs(classes, b, x);
    }
    fn spmv_traffic(&self) -> Traffic {
        self.inner.spmv_traffic()
    }
    fn symgs_traffic(&self) -> Traffic {
        self.inner.symgs_traffic()
    }
    fn values(&self) -> &[f64] {
        self.inner.values()
    }
    fn values_mut(&mut self) -> &mut [f64] {
        self.inner.values_mut()
    }
    fn column_sums(&self) -> Vec<f64> {
        self.inner.column_sums()
    }
}

/// Delegates to a preconditioner and times its applications.
struct TimedPrecond<'a, P> {
    inner: &'a P,
    nanos: Cell<u64>,
    calls: Cell<u64>,
}

impl<P: Preconditioner> Preconditioner for TimedPrecond<'_, P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(r, z);
        self.nanos
            .set(self.nanos.get() + crate::stats::nanos_since(t));
        self.calls.set(self.calls.get() + 1);
    }
    fn flops_per_apply(&self) -> u64 {
        self.inner.flops_per_apply()
    }
}

/// Per-layer times of one traced solve.
struct LayerTimes {
    spmv_s: f64,
    spmv_calls: u64,
    mg_s: f64,
    mg_calls: u64,
}

/// One solve from `x = 0`: the answer, its result, its wall time, and the
/// layer times when traced.
fn solve(p: &mut Problem, traced: bool) -> (Vec<f64>, Option<CgResult>, f64, Option<LayerTimes>) {
    let n = p.b.len();
    let start = Instant::now();
    let mut x = vec![0.0; n];
    if !traced {
        let res = try_pcg(&p.a, &p.b, &mut x, MAX_ITERS, TOL, &p.mg).ok();
        return (x, res, seconds_since(start), None);
    }
    let ops = TimedOps {
        inner: &mut p.a,
        nanos: Cell::new(0),
        calls: Cell::new(0),
    };
    let mg = TimedPrecond {
        inner: &p.mg,
        nanos: Cell::new(0),
        calls: Cell::new(0),
    };
    let res = try_pcg(&ops, &p.b, &mut x, MAX_ITERS, TOL, &mg).ok();
    let total_s = seconds_since(start);
    let layers = LayerTimes {
        spmv_s: ops.nanos.get() as f64 / 1e9,
        spmv_calls: ops.calls.get(),
        mg_s: mg.nanos.get() as f64 / 1e9,
        mg_calls: mg.calls.get(),
    };
    (x, res, total_s, Some(layers))
}

/// Runs the workload. Every solve must converge, pass [`accept`], and
/// repeat the first solve's iteration count and answer bit for bit.
/// Traced runs alternate untraced and traced solves, then run the probes.
pub fn run(cfg: &Config) -> Report {
    let mut parts = Vec::new();
    let (mut problem, setup_s) = repeat_setup(|| {
        let (p, t) = build(GRID, cfg.seed);
        parts.push(t);
        p
    });
    let mut report = Report::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut flop_count = 0;
    let mut first: Option<(usize, Vec<u64>)> = None;
    let mut last_s = 0.0;
    let start = Instant::now();
    while another(report.attempted, MIN_SOLVES, start, last_s, cfg.seconds) {
        let trace_this = cfg.trace && report.attempted % 2 == 1;
        let (x, res, seconds, layers) = solve(&mut problem, trace_this);
        last_s = seconds;
        let Some(res) = res else {
            report.count(false);
            continue;
        };
        let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        let same =
            first.get_or_insert_with(|| (res.iterations, bits.clone())) == &(res.iterations, bits);
        report.count(same && accept(&problem.a, &problem.b, &x, res.converged));
        flop_count = res.flops;
        match layers {
            Some(l) => traced.push((seconds, res.iterations, l)),
            None => untraced.push(seconds),
        }
    }
    if untraced.is_empty() || (cfg.trace && traced.is_empty()) {
        report.check_failed = true;
        return report;
    }
    let solve_s = median(&untraced);
    if cfg.trace {
        let spmv_s: Vec<f64> = traced.iter().map(|t| t.2.spmv_s).collect();
        let mg_s: Vec<f64> = traced.iter().map(|t| t.2.mg_s).collect();
        let other_s: Vec<f64> = traced.iter().map(|t| t.0 - t.2.spmv_s - t.2.mg_s).collect();
        let total_s: Vec<f64> = traced.iter().map(|t| t.0).collect();
        let (_, iterations, l) = &traced[0];
        let spmv_bytes = problem.a.spmv_traffic().bytes() as f64;
        let spmv_gbs: Vec<f64> = traced
            .iter()
            .map(|t| spmv_bytes * t.2.spmv_calls as f64 / t.2.spmv_s / 1e9)
            .collect();
        let (spmv, mg, other) = (median(&spmv_s), median(&mg_s), median(&other_s));
        report.set("sparse.spmv_s", spmv);
        report.set("sparse.spmv_calls", l.spmv_calls as f64);
        report.set("sparse.spmv_gbs_computed", median(&spmv_gbs));
        report.set("sparse.mg_apply_s", mg);
        report.set("sparse.mg_apply_calls", l.mg_calls as f64);
        report.set("sparse.pcg_other_s", other);
        report.set("sparse.iterations", *iterations as f64);
        report.set(
            "sparse.setup_matrix_s",
            median(&parts.iter().map(|t| t.matrix_s).collect::<Vec<_>>()),
        );
        report.set(
            "sparse.setup_mg_s",
            median(&parts.iter().map(|t| t.mg_s).collect::<Vec<_>>()),
        );
        report.set("trace.overhead_frac", median(&total_s) / solve_s - 1.0);
        report.set("trace.layer_sum_frac", (spmv + mg + other) / solve_s);
        probes::run(&mut report);
    } else {
        // Every solve repeats the same iterations, so any solve's flop
        // count is every solve's.
        report.set("setup_s", setup_s);
        report.set("solve_s", solve_s);
        report.set("gflops", flops::gflops(flop_count, solve_s));
        report.set("tail_ms", tail_ms(&untraced));
        // Each solve is its own busy interval: answers per busy second is
        // the median of the per-solve rates.
        report.set("capacity_rps", 1.0 / solve_s);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let (a1, b1) = build_system(8, 3);
        let (a2, b2) = build_system(8, 3);
        let (_, b3) = build_system(8, 4);
        assert_eq!(a1.values(), a2.values());
        assert_eq!(b1, b2);
        assert_ne!(b1, b3);
    }

    #[test]
    fn traced_and_untraced_solves_agree_and_the_check_rejects_a_perturbed_answer() {
        let (mut p, _) = build(16, 9);
        let (x, res, _, _) = solve(&mut p, false);
        let (xt, rest, _, layers) = solve(&mut p, true);
        let (res, rest) = (res.unwrap(), rest.unwrap());
        assert_eq!(x, xt, "tracing changed the answer");
        assert_eq!(res.iterations, rest.iterations);
        let l = layers.unwrap();
        assert_eq!(l.spmv_calls, res.iterations as u64);
        assert_eq!(l.mg_calls, res.iterations as u64);
        assert!(accept(&p.a, &p.b, &x, res.converged));
        let mut bad = x.clone();
        bad[5] += 1e-3;
        assert!(!accept(&p.a, &p.b, &bad, true), "a perturbed answer passed");
        assert!(
            !accept(&p.a, &p.b, &x, false),
            "an unconverged solve passed"
        );
    }
}
