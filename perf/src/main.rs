//! `xsc-perf --workload <hpl|hpcg|serve> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one line per metric, then the result line: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits with 0 only when
//! every answer passed its check.

use std::process::ExitCode;
use xsc_perf::cli::{Config, Workload};
use xsc_perf::report::Report;
use xsc_perf::{hpcg, hpl, serve, stats};

fn main() -> ExitCode {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match cfg.workload {
        Workload::Hpl => hpl::run(&cfg),
        Workload::Hpcg => hpcg::run(&cfg),
        Workload::Serve => serve::run(&cfg),
    };
    if !cfg.trace {
        report.set("peak_rss_mb", stats::peak_rss_mb());
    }
    print_result(&cfg, &report)
}

fn print_result(cfg: &Config, report: &Report) -> ExitCode {
    let line = match report.render(cfg.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("no result: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {:?} seed={} seconds={} trace={} threads={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "# attempted={} failed={} failed_frac={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, value, unit) in report.rows(cfg.trace).expect("rendered above") {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("answer check failed");
        ExitCode::FAILURE
    }
}
