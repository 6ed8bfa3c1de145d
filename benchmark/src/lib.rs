//! The repository benchmark: five workloads, six end-to-end metrics and
//! a per-layer pass, every timing host-normalised against a frozen
//! reference lap. See `README.md` beside this crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapter;
pub mod alloc;
pub mod cli;
pub mod compare;
pub mod contract;
pub mod host;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod reflap;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
