//! # smacs-bench — the paper's evaluation, reproduced
//!
//! One module per table/figure of the paper's §VII (Tables II–IV,
//! Figs. 8–9, the runtime-tool timings, the §II motivation anchors and
//! the design ablations), each exposing a `measure()` returning
//! structured results and a `report()` rendering the same rows the paper
//! prints, side by side with the paper's published numbers. Binaries
//! under `src/bin/` wrap these for the command line. `tests/shapes.rs`
//! asserts the qualitative shapes (orderings, linearity, crossovers) and
//! pins the six deterministic gas reports byte-for-byte against
//! `tests/paper_reports.golden.txt`.
//!
//! Performance is not measured here: that is `benchmark/` +
//! `BENCHMARK.json` at the repo root.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod setup;

pub use experiments::{ablation, fig8, fig9, motivation, runtime_tools, table2, table3, table4};
