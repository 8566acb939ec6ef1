//! The repository's benchmark: file → decode → kernel → state tables / wire
//! → emitted placement, end to end and layer by layer. `BENCHMARK.json` at
//! the repository root declares the command, workloads, metrics and bounds;
//! `benchmark/README.md` explains them.
//!
//! A library only so that the smoke test can read what the binary writes
//! with the same parser; the binary is the interface.

pub mod compare;
pub mod inputs;
pub mod json;
pub mod measure;
pub mod pipeline;
pub mod probe;
pub mod report;
pub mod spec;
