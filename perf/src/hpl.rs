//! `hpl` workload: a seeded random dense `Ax = b`, factored by
//! `xsc_dense::hpl::par_getrf` and solved by `xsc_core::factor::getrf_solve`,
//! repeated for the whole run.
//!
//! Why: it is compute-bound, and the `dense`/`core` trailing-update path
//! does almost all the work. It never reaches `sparse`, `runtime` or
//! `serve`.

use crate::cli::Config;
use crate::probes;
use crate::report::Report;
use crate::stats::{another, median, repeat_setup, seconds_since, tail_ms};
use std::time::Instant;
use xsc_core::{factor, flops, gen, norms, Matrix};
use xsc_dense::hpl::par_getrf;
use xsc_metrics::traffic;

/// Problem size.
pub const N: usize = 2048;
/// LU panel width.
pub const NB: usize = 128;
/// Solves per run, however short the run.
pub const MIN_SOLVES: u64 = 4;
/// HPL's acceptance limit on the scaled residual.
pub const MAX_SCALED_RESIDUAL: f64 = 16.0;

/// One generated system.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// The matrix, uniform in `[-1, 1)` as HPL generates it.
    pub a: Matrix<f64>,
    /// The right-hand side.
    pub b: Vec<f64>,
}

/// Generates the `n × n` system for `seed`.
pub fn generate(n: usize, seed: u64) -> Problem {
    Problem {
        a: gen::random_matrix(n, n, seed),
        b: gen::random_vector(n, seed.wrapping_add(1)),
    }
}

/// HPL's answer check: every entry is finite and the scaled residual
/// `‖b−Ax‖∞ / (ε (‖A‖∞‖x‖∞ + ‖b‖∞) n)` is below 16. The finiteness test
/// is needed because the residual's max-norm folds skip NaN entries.
pub fn accept(p: &Problem, x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
        && norms::hpl_scaled_residual(&p.a, x, &p.b) < MAX_SCALED_RESIDUAL
}

/// Wall time of one factor + solve.
struct Timing {
    total_s: f64,
    /// The `par_getrf` part, timed only on traced solves.
    factor_s: Option<f64>,
}

/// Factors a copy of `A` and solves for `b`; `None` if the factorization
/// failed. Copies are made before the clock starts.
fn factor_and_solve(p: &Problem, traced: bool) -> (Option<Vec<f64>>, Timing) {
    let mut lu = p.a.clone();
    let mut x = p.b.clone();
    let start = Instant::now();
    let piv = par_getrf(&mut lu, NB);
    let factor_s = traced.then(|| seconds_since(start));
    let solved = piv.ok().map(|piv| {
        factor::getrf_solve(&lu, &piv, &mut x);
        x
    });
    let total_s = seconds_since(start);
    (solved, Timing { total_s, factor_s })
}

/// Runs the workload. Untraced: every solve is timed end to end. Traced:
/// solves alternate between untraced and traced (factor and triangular
/// solve timed apart), so the tracing overhead is measured in the same
/// run; then the probes run.
pub fn run(cfg: &Config) -> Report {
    let (problem, setup_s) = repeat_setup(|| generate(N, cfg.seed));
    let mut report = Report::default();
    let mut untraced = Vec::new();
    let mut factor_s = Vec::new();
    let mut trisolve_s = Vec::new();
    let mut last_s = 0.0;
    let start = Instant::now();
    while another(report.attempted, MIN_SOLVES, start, last_s, cfg.seconds) {
        let traced = cfg.trace && report.attempted % 2 == 1;
        let (x, t) = factor_and_solve(&problem, traced);
        last_s = t.total_s;
        let ok = x.is_some_and(|x| accept(&problem, &x));
        report.count(ok);
        if !ok {
            continue;
        }
        match t.factor_s {
            Some(f) => {
                factor_s.push(f);
                trisolve_s.push(t.total_s - f);
            }
            None => untraced.push(t.total_s),
        }
    }
    if untraced.is_empty() || (cfg.trace && factor_s.is_empty()) {
        report.check_failed = true;
        return report;
    }
    let solve_s = median(&untraced);
    let gflops = flops::gflops(flops::hpl(N), solve_s);
    if cfg.trace {
        let lu = traffic::lu_blocked(N, NB, std::mem::size_of::<f64>() as u64);
        let (f, s) = (median(&factor_s), median(&trisolve_s));
        let traced_total: Vec<f64> = factor_s
            .iter()
            .zip(&trisolve_s)
            .map(|(f, s)| f + s)
            .collect();
        report.set("dense.par_getrf_s", f);
        report.set("core.getrf_solve_s", s);
        report.set("dense.lu_flops", lu.flops as f64);
        report.set("dense.lu_bytes_computed", lu.bytes() as f64);
        report.set("trace.overhead_frac", median(&traced_total) / solve_s - 1.0);
        report.set("trace.layer_sum_frac", (f + s) / solve_s);
        probes::run(&mut report);
        let gemm = report
            .get("core.par_gemm_gflops")
            .expect("probes set the gemm rate");
        report.set("dense.lu_frac_of_gemm", gflops / gemm);
    } else {
        report.set("setup_s", setup_s);
        report.set("solve_s", solve_s);
        report.set("gflops", gflops);
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
        assert_eq!(generate(64, 5), generate(64, 5));
        assert_ne!(generate(64, 5), generate(64, 6));
    }

    #[test]
    fn check_accepts_the_solve_and_rejects_a_perturbed_answer() {
        let p = generate(96, 11);
        let (x, _) = factor_and_solve(&p, true);
        let mut x = x.expect("random matrices factor");
        assert!(accept(&p, &x));
        x[17] += 1e-6;
        assert!(!accept(&p, &x), "a perturbed answer passed");
        x[17] = f64::NAN;
        assert!(!accept(&p, &x), "a NaN answer passed");
    }
}
