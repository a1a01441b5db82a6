//! # xsc-perf — the repository benchmark
//!
//! One command runs one of three seeded workloads, checks every answer,
//! and prints its metrics by name with their units. The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! * [`hpl`] — dense `Ax = b` through the blocked parallel LU
//!   (compute-bound: `dense` and `core`).
//! * [`hpcg`] — MG-preconditioned CG on the 27-point stencil
//!   (bandwidth-bound: `sparse`).
//! * [`serve`] — a wall-clock open loop of mostly tiny requests into the
//!   `xsc-serve` server (`serve`, `runtime`, `batched`).
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics of
//! [`report::END_TO_END`]; traced runs (`--trace 1`) time the calls into
//! each layer's public functions from outside the library and report
//! [`report::PER_LAYER`]. The benchmark changes no library code, and the
//! library receives only the inputs generated here from `--seed`.
//! `README.md` lists every metric with its unit, its layer, and the
//! end-to-end metric it should move.

#![forbid(unsafe_code)]

pub mod cli;
pub mod hpcg;
pub mod hpl;
pub mod probes;
pub mod report;
pub mod serve;
pub mod stats;
