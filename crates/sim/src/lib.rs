//! Slot-stepped MEC simulator for reliability-aware VNF scheduling.
//!
//! Drives any [`vnfrel::OnlineScheduler`] through a discrete-time replay
//! of a request stream, validates the outcome independently, measures
//! revenue/utilization, and — beyond the paper's analytical evaluation —
//! injects component failures Monte-Carlo style to verify that admitted
//! requests actually receive their promised availability.
//!
//! * [`Simulation`] — the engine, with three run entry points over its
//!   two slot loops: [`Simulation::run`] produces a [`RunReport`] with
//!   metrics, a feasibility report, and a per-slot timeline;
//!   [`Simulation::run_ordered`] is the same plain loop with the
//!   intra-slot order and optional engine metrics spelled out; and
//!   [`Simulation::run_faulted`] is the fault loop (see below),
//! * [`failure::inject_failures`] — sampled cloudlet/VNF failures versus
//!   each admitted request's requirement `R_i`,
//! * [`MixedSimulation`] + [`chain_failure::inject_chain_failures`] —
//!   mixed single-VNF/chain workloads through the chain primal-dual
//!   scheduler, and the Monte-Carlo referee that verifies delivered
//!   *chain* reliability (standby rescues included) against `R_i`,
//! * [`fault`] + [`recovery`] — *dynamic* fault injection: a seeded
//!   per-slot outage trace ([`FailureProcess`]) replayed through
//!   [`Simulation::run_faulted`], which releases dead capacity,
//!   re-places affected requests under a [`RecoveryPolicy`], and keeps
//!   an SLA ledger ([`SlaReport`]) of downtime and refunds. The loop
//!   walks one id-ordered set of the admitted requests still inside
//!   their window, so a slot costs what is alive in it; its steps are
//!   the private `lift_cascades`, `apply_events`, `cascade_check`,
//!   `track_degraded`, `offer_arrivals`, `detect_breaches`, `recover`,
//!   `account` and `audit` of `engine.rs`, in that order,
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
pub use chain_failure::{inject_chain_failures, ChainAvailability, ChainFailureReport};
pub use chain_run::{MixedReport, MixedSimulation};
pub use compare::{compare, Comparison};
pub use engine::{
    DegradationConfig, DegradationStats, FaultRunReport, IntraSlotOrder, RunReport, Simulation,
};
pub use error::SimError;
pub use fault::{CascadeConfig, DomainEvent, FailureConfig, FailureEvent, FailureProcess};
pub use metrics::{FaultSlotStats, RunMetrics, SlaRecord, SlaReport, SlotStats};
pub use obs::{EngineMetricIds, EngineMetrics, InjectionMetricIds};
pub use recovery::RecoveryPolicy;
