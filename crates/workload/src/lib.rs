//! VNF catalog, user requests, and workload generation for MEC simulations.
//!
//! A user request `ρ_i = (f_i, R_i, a_i, d_i, pay_i)` asks for one VNF
//! service of type `f_i` with reliability requirement `R_i`, arriving at
//! slot `a_i`, running for `d_i` slots, paying `pay_i` on admission. This
//! crate models:
//!
//! * [`VnfType`] / [`VnfCatalog`] — the set `F` of virtualized network
//!   functions with per-type compute demand `c(f_i)` and reliability
//!   `r(f_i)`; [`VnfCatalog::standard`] reproduces the paper's evaluation
//!   catalog (10 types, reliabilities in `[0.9, 0.9999]`, demands 1–3
//!   computing units),
//! * [`Request`] — the request tuple with its activity window `V_i`,
//! * [`Horizon`] — the slotted monitoring period `T = {1..T}` (0-indexed
//!   internally),
//! * [`RequestGenerator`] — seeded random workloads with explicit control
//!   of the payment-rate ratio `H = pr_max / pr_min` (Figure 2(a) sweep),
//! * [`trace`] — a Google-cluster-*like* synthetic trace (heavy-tailed
//!   durations, bursty arrivals), substituting for the proprietary dataset
//!   the paper samples from.
//!
//! # Example
//!
//! ```
//! # use mec_workload::{VnfCatalog, RequestGenerator, Horizon};
//! # use rand::SeedableRng;
//! let catalog = VnfCatalog::standard();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let gen = RequestGenerator::new(Horizon::new(50));
//! let requests = gen.generate(100, &catalog, &mut rng).unwrap();
//! assert_eq!(requests.len(), 100);
//! assert!(requests.iter().all(|r| r.end_slot() < 50));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chain;
pub mod distributions;
mod error;
mod generator;
mod placement;
mod request;
pub mod stats;
mod time;
pub mod trace;
mod vnf;

pub use chain::{ChainGenerator, ChainRequest, ChainRequestId};
pub use error::WorkloadError;
pub use generator::{ArrivalProcess, DurationModel, RequestGenerator, VnfSelection};
pub use mec_topology::Reliability;
pub use request::{Request, RequestId};
pub use time::{Horizon, TimeSlot};
pub use vnf::{VnfCatalog, VnfType, VnfTypeId};
