//! Figure/table reproduction harness for `micdnn`.
//!
//! Every table and figure of the paper's evaluation section has a
//! corresponding function in [`experiments`] that regenerates its rows or
//! series, and the `repro` binary prints them. Host wall-clock is measured
//! by the stand-alone `benchmark/` package, not here.

pub mod experiments;

pub use experiments::*;
