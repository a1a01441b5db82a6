//! Command-line arguments:
//! `--workload <hpl|hpcg|serve> --seed <n> --seconds <n> --trace <0|1>`.

use std::fmt;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense LU solve (see [`crate::hpl`]).
    Hpl,
    /// MG-preconditioned CG (see [`crate::hpcg`]).
    Hpcg,
    /// Open-loop serving (see [`crate::serve`]).
    Serve,
}

/// A parsed and checked command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}

/// Longest run the benchmark accepts, in seconds.
pub const MAX_SECONDS: u64 = 600;

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nusage: xsc-perf --workload <hpl|hpcg|serve> --seed <n> --seconds <1..={MAX_SECONDS}> --trace <0|1>",
            self.0
        )
    }
}

impl std::error::Error for UsageError {}

fn bad(msg: impl Into<String>) -> UsageError {
    UsageError(msg.into())
}

impl Config {
    /// Parses the arguments after the program name. Every flag is required
    /// exactly once.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Config, UsageError> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| bad(format!("{flag} needs a value")))?;
            let slot_taken = match flag.as_str() {
                "--workload" => workload
                    .replace(match value.as_str() {
                        "hpl" => Workload::Hpl,
                        "hpcg" => Workload::Hpcg,
                        "serve" => Workload::Serve,
                        other => return Err(bad(format!("unknown workload {other:?}"))),
                    })
                    .is_some(),
                "--seed" => seed
                    .replace(
                        value
                            .parse::<u64>()
                            .map_err(|_| bad(format!("bad --seed {value:?}")))?,
                    )
                    .is_some(),
                "--seconds" => seconds
                    .replace(match value.parse::<u64>() {
                        Ok(s) if (1..=MAX_SECONDS).contains(&s) => s,
                        _ => return Err(bad(format!("bad --seconds {value:?}"))),
                    })
                    .is_some(),
                "--trace" => trace
                    .replace(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(format!("bad --trace {value:?}"))),
                    })
                    .is_some(),
                other => return Err(bad(format!("unknown flag {other:?}"))),
            };
            if slot_taken {
                return Err(bad(format!("{flag} given twice")));
            }
        }
        Ok(Config {
            workload: workload.ok_or_else(|| bad("--workload is required"))?,
            seed: seed.ok_or_else(|| bad("--seed is required"))?,
            // Bounded above by MAX_SECONDS, so the conversion is exact.
            seconds: seconds.ok_or_else(|| bad("--seconds is required"))? as f64,
            trace: trace.ok_or_else(|| bad("--trace is required"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Config, UsageError> {
        Config::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let c = parse("--workload serve --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(c.workload, Workload::Serve);
        assert_eq!(c.seed, 7);
        assert_eq!(c.seconds, 20.0);
        assert!(c.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload hpl --seed 1 --seconds 20",
            "--workload gemm --seed 1 --seconds 20 --trace 0",
            "--workload hpl --seed -1 --seconds 20 --trace 0",
            "--workload hpl --seed 1 --seconds 0 --trace 0",
            "--workload hpl --seed 1 --seconds 20 --trace 2",
            "--workload hpl --seed 1 --seed 2 --seconds 20 --trace 0",
            "--workload hpl --seed 1 --seconds 20 --trace 0 --extra 1",
            "--workload hpl --seed 1 --seconds 20 --trace",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
