//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its mode, on every workload, so runs
//! compare key for key. A per-layer metric of a layer the workload never
//! calls reads 0 (zero calls, zero seconds); `README.md` says which
//! workload each metric belongs to.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("tail_ms", "ms"),
    ("gflops", "Gflop/s"),
    ("capacity_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 33] = [
    // hpl
    ("dense.par_getrf_s", "s"),
    ("core.getrf_solve_s", "s"),
    ("dense.lu_frac_of_gemm", "ratio"),
    ("dense.lu_flops", "count"),
    ("dense.lu_bytes_computed", "B"),
    // probes, measured in every traced run
    ("core.par_gemm_gflops", "Gflop/s"),
    ("core.gemm_gflops", "Gflop/s"),
    ("rayon.par_for_overhead_us", "us"),
    ("runtime.execute_overhead_us", "us"),
    ("batched.tiny_solve_us", "us"),
    ("batched.coalesced_us_per_job", "us"),
    // hpcg
    ("sparse.spmv_s", "s"),
    ("sparse.spmv_calls", "count"),
    ("sparse.spmv_gbs_computed", "GB/s"),
    ("sparse.mg_apply_s", "s"),
    ("sparse.mg_apply_calls", "count"),
    ("sparse.pcg_other_s", "s"),
    ("sparse.iterations", "count"),
    ("sparse.setup_matrix_s", "s"),
    ("sparse.setup_mg_s", "s"),
    // serve
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.drain_p50_ms", "ms"),
    ("serve.drain_p99_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.drains", "count"),
    ("serve.generator_late_p99_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.launch_width", "jobs"),
    ("serve.sparse_job_ms", "ms"),
    ("serve.dense_job_us", "us"),
    // the trace itself
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_sum_frac", "ratio"),
];

/// What one run measured and whether its answers were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (solves, or requests offered).
    pub attempted: u64,
    /// Operations refused or answered wrongly.
    pub failed: u64,
    /// A check outside the per-operation answers failed (for example a
    /// solve that took a different iteration count than the others).
    pub check_failed: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric value. Names must come from [`END_TO_END`] or
    /// [`PER_LAYER`]; [`Report::render`] refuses anything else.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Every metric of the mode as `(name, value, unit)`. End-to-end
    /// metrics must all have been set; a per-layer metric not set reads 0.
    /// Returns `Err` naming a metric that is missing, undeclared, or not a
    /// finite number.
    pub fn rows(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        if let Some(name) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {name} is not in the catalogue"));
        }
        catalogue
            .iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                Some(v) => Err(format!("metric {name} is {v}")),
                None if trace => Ok((name, 0.0, unit)),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }

    /// Whether every answer and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.check_failed && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let rows = self.rows(trace)?;
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that reads back as the same
            // f64, and always with a decimal point or exponent.
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_end_to_end() -> Report {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.count(true);
        r
    }

    #[test]
    fn renders_every_end_to_end_metric() {
        let line = full_end_to_end().render(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn refuses_missing_undeclared_and_non_finite_metrics() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        assert!(r.render(false).is_err(), "missing end-to-end metrics");
        let mut r = full_end_to_end();
        r.set("sparse.spmv_s", 1.0);
        assert!(
            r.render(false).is_err(),
            "per-layer name in an untraced run"
        );
        let mut r = full_end_to_end();
        r.set("gflops", f64::NAN);
        assert!(r.render(false).is_err(), "NaN");
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = full_end_to_end();
        r.count(false);
        assert!(!r.correct());
        assert!(r
            .render(false)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    /// The catalogue here and the metric lists in `BENCHMARK.json` are one
    /// list: same names, same units, same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_units = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units("end_to_end"), declared(&END_TO_END));
        assert_eq!(names_units("per_layer"), declared(&PER_LAYER));
    }
}
