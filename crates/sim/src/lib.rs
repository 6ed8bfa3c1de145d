//! Slot-stepped MEC simulator for reliability-aware VNF scheduling.
//!
//! Drives any [`vnfrel::OnlineScheduler`] through a discrete-time replay
//! of a request stream, validates the outcome independently, measures
//! revenue/utilization, and — beyond the paper's analytical evaluation —
//! injects component failures Monte-Carlo style to verify that admitted
//! requests actually receive their promised availability.
//!
//! * [`Simulation`] — the engine: one slot loop behind three entry
//!   points. [`Simulation::run`] and [`Simulation::run_ordered`] (the
//!   intra-slot order and engine metrics spelled out) replay the stream
//!   over an outage trace with no events and validate the schedule;
//!   [`Simulation::run_faulted`] replays it under a seeded outage trace
//!   ([`FailureProcess`], [`fault`]), releasing dead capacity,
//!   re-placing affected requests under a [`RecoveryPolicy`]
//!   ([`recovery`]) and keeping an SLA ledger ([`SlaReport`]). An
//!   admitted request costs the loop nothing until a fault touches a
//!   cloudlet it sits on; the steps walk only the touched ones,
//! * [`failure::inject_failures`] — sampled cloudlet/VNF failures versus
//!   each admitted request's requirement `R_i`,
//! * [`MixedSimulation`] + [`chain_failure::inject_chain_failures`] —
//!   mixed single-VNF/chain workloads, one [`Demand`] order, through the
//!   chain primal-dual scheduler, and the Monte-Carlo referee that
//!   verifies delivered *chain* reliability (standby rescues included)
//!   against `R_i`,
//! * [`experiment`] — sweep tables used by the figure-regeneration
//!   binaries in `vnfrel-bench`,
//! * [`obs`] — engine-side observability: decide-latency/utilization
//!   metrics for [`Simulation::run_ordered`] and fault-lifecycle
//!   trace events from [`Simulation::run_faulted`]
//!   (schedulers emit their own decision events via `mec_obs`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod chain_failure;
mod chain_run;
mod compare;
mod engine;
mod error;
pub mod experiment;
pub mod export;
pub mod failure;
pub mod fault;
mod metrics;
pub mod obs;
pub mod parallel;
pub mod recovery;

pub use audit::{AuditInvariant, AuditReport, AuditViolation};
pub use chain_failure::{inject_chain_failures, ChainFailureReport};
pub use chain_run::{Demand, MixedReport, MixedSimulation};
pub use compare::{compare, Comparison};
pub use engine::{
    DegradationConfig, DegradationStats, FaultRunReport, IntraSlotOrder, RunReport, Simulation,
};
pub use error::SimError;
pub use fault::{CascadeConfig, DomainEvent, FailureConfig, FailureEvent, FailureProcess};
pub use metrics::{RunMetrics, SlaRecord, SlaReport, SlotStats};
pub use obs::{EngineMetricIds, EngineMetrics, InjectionMetricIds};
pub use recovery::RecoveryPolicy;
