//! Typed trace events emitted by the scheduling pipeline.
//!
//! One [`TraceEvent::Decision`] is emitted per scheduler `decide()` call;
//! the fault-injection engine additionally emits outage, kill, SLA-breach
//! and recovery events. The JSONL wire format lives in [`crate::json`].

/// Why a request was rejected.
///
/// Each variant corresponds to a concrete exit path in one of the four
/// schedulers; the golden tests in `tests/trace_obs.rs` assert every
/// variant is reachable by a crafted scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The final payment test `pay_i − cost > 0` failed: the dual
    /// (resource) cost of the best candidate placement exceeds what the
    /// request pays.
    PaymentTest,
    /// No placement can meet the reliability requirement `R_i` — on-site:
    /// no cloudlet with `r(c_j) > R_i` survives the instance ladder;
    /// off-site: the accumulated `ln(1 − r_f · r(c_j))` mass of all usable
    /// cloudlets cannot reach `ln(1 − R_i)`.
    ReliabilityInfeasible,
    /// A capacity gate (Enforce / Scaled policy) refused every otherwise
    /// eligible cloudlet: the dual price says the cloudlet is too full.
    CapacityGate,
    /// The doomed-payment short-circuit: even the cheapest possible
    /// placement already costs more than the payment, so the scheduler
    /// bailed out before scanning candidates. A sub-case of the payment
    /// test, kept distinct so the fast path is visible in traces.
    DoomedShortCircuit,
    /// The request names a VNF type absent from the catalog.
    UnknownVnf,
}

impl RejectReason {
    /// Stable wire name used in the JSONL schema and Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::PaymentTest => "payment-test",
            RejectReason::ReliabilityInfeasible => "reliability-infeasible",
            RejectReason::CapacityGate => "capacity-gate",
            RejectReason::DoomedShortCircuit => "doomed-short-circuit",
            RejectReason::UnknownVnf => "unknown-vnf",
        }
    }

    /// Inverse of [`RejectReason::as_str`].
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "payment-test" => RejectReason::PaymentTest,
            "reliability-infeasible" => RejectReason::ReliabilityInfeasible,
            "capacity-gate" => RejectReason::CapacityGate,
            "doomed-short-circuit" => RejectReason::DoomedShortCircuit,
            "unknown-vnf" => RejectReason::UnknownVnf,
            _ => return None,
        })
    }

    /// All variants, in wire order. Used by exporters to pre-register one
    /// counter per reason and by the golden tests for coverage.
    pub const ALL: [RejectReason; 5] = [
        RejectReason::PaymentTest,
        RejectReason::ReliabilityInfeasible,
        RejectReason::CapacityGate,
        RejectReason::DoomedShortCircuit,
        RejectReason::UnknownVnf,
    ];

    /// This reason's position in [`RejectReason::ALL`], for per-reason
    /// tables.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Why a chain request was rejected.
///
/// Chain decisions have their own reason set: the latency budget and the
/// per-stage path machinery introduce exit paths single-VNF requests do
/// not have. Kept separate from [`RejectReason`] so its wire names and
/// [`RejectReason::ALL`] stay frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainRejectReason {
    /// The chain names a VNF type absent from the catalog.
    UnknownVnf,
    /// The chain's ingress node does not exist in the network.
    BadIngress,
    /// Even the latency-optimal placement exceeds the chain's end-to-end
    /// latency budget.
    LatencyInfeasible,
    /// No within-budget route has every hosting cloudlet above `R_i`, or
    /// no replica allocation can reach the end-to-end target.
    ReliabilityInfeasible,
    /// Every surviving candidate route was refused by the capacity gate
    /// (primary replicas or backup standbys do not fit).
    CapacityGate,
    /// The payment test `pay_i − Σ_stages cost > 0` failed on the best
    /// candidate route.
    PaymentTest,
}

impl ChainRejectReason {
    /// Stable wire name used in the JSONL schema and Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            ChainRejectReason::UnknownVnf => "unknown-vnf",
            ChainRejectReason::BadIngress => "bad-ingress",
            ChainRejectReason::LatencyInfeasible => "latency-infeasible",
            ChainRejectReason::ReliabilityInfeasible => "reliability-infeasible",
            ChainRejectReason::CapacityGate => "capacity-gate",
            ChainRejectReason::PaymentTest => "payment-test",
        }
    }

    /// Inverse of [`ChainRejectReason::as_str`].
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "unknown-vnf" => ChainRejectReason::UnknownVnf,
            "bad-ingress" => ChainRejectReason::BadIngress,
            "latency-infeasible" => ChainRejectReason::LatencyInfeasible,
            "reliability-infeasible" => ChainRejectReason::ReliabilityInfeasible,
            "capacity-gate" => ChainRejectReason::CapacityGate,
            "payment-test" => ChainRejectReason::PaymentTest,
            _ => return None,
        })
    }

    /// All variants, in wire order.
    pub const ALL: [ChainRejectReason; 6] = [
        ChainRejectReason::UnknownVnf,
        ChainRejectReason::BadIngress,
        ChainRejectReason::LatencyInfeasible,
        ChainRejectReason::ReliabilityInfeasible,
        ChainRejectReason::CapacityGate,
        ChainRejectReason::PaymentTest,
    ];
}

/// One placed chain stage within a chain admission.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStageTrace {
    /// Dense VNF type id of the stage.
    pub vnf: usize,
    /// Dense cloudlet id hosting the stage's primary replicas.
    pub cloudlet: usize,
    /// Primary replica count `n_k`.
    pub replicas: u32,
    /// Dual cost charged for this stage — primary replicas at the host
    /// plus, when the stage created a *new* backup standby, the standby's
    /// dual cost at the backup cloudlet. Stage costs sum to the
    /// admission's total (the path-sum identity `explain` re-verifies).
    pub dual_cost: f64,
    /// Backup standby id in the shared pool, if the stage is protected.
    pub standby: Option<usize>,
    /// Cloudlet hosting that standby.
    pub backup_cloudlet: Option<usize>,
    /// Whether the standby was joined (shared with other chains) rather
    /// than newly created for this stage.
    pub backup_shared: Option<bool>,
}

/// Whether a chain was admitted and at what cost, or rejected and why.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainOutcome {
    /// The chain was admitted.
    Admit {
        /// Total dual cost across all stages (and created standbys).
        dual_cost: f64,
        /// `pay_i − dual_cost`, the quantity the payment test compared
        /// against zero.
        margin: f64,
        /// Achieved end-to-end latency of the chosen route.
        latency: f64,
        /// The chain's latency budget (possibly `+inf`).
        budget: f64,
        /// Analytic availability certificate of the placement.
        availability: f64,
        /// Per-stage placements, in stage order.
        stages: Vec<ChainStageTrace>,
    },
    /// The chain was rejected.
    Reject {
        /// The classified exit path.
        reason: ChainRejectReason,
        /// Dual cost of the best candidate route, when one was evaluated.
        dual_cost: Option<f64>,
        /// Margin of the failed payment test, when one was computed.
        margin: Option<f64>,
    },
}

impl ChainOutcome {
    /// True for [`ChainOutcome::Admit`].
    pub fn is_admit(&self) -> bool {
        matches!(self, ChainOutcome::Admit { .. })
    }
}

/// One chain scheduling decision, fully explained.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainDecisionEvent {
    /// Dense chain request id (its own namespace, not a request id).
    pub chain: usize,
    /// Scheduler name, e.g. `chain-primal-dual`.
    pub algorithm: String,
    /// Arrival slot of the chain.
    pub slot: usize,
    /// The chain's payment `pay_i`.
    pub payment: f64,
    /// Admission or classified rejection.
    pub outcome: ChainOutcome,
}

/// One selected cloudlet within an admission.
///
/// On-site placements have exactly one site; off-site placements list
/// every cloudlet the primary/backup instances were spread across.
#[derive(Debug, Clone, PartialEq)]
pub struct SitePlacement {
    /// Dense cloudlet id (index into the network's cloudlet list).
    pub cloudlet: usize,
    /// Number of VNF instances placed there (`N_ij` on-site, 1 off-site).
    pub instances: u32,
    /// Dual cost charged for this site: `weight · Σ_t λ_tj` over the
    /// request's window, normalised by capacity.
    pub dual_cost: f64,
}

/// Whether a request was admitted and at what cost, or rejected and why.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The request was admitted.
    Admit {
        /// Total dual cost across all selected sites.
        dual_cost: f64,
        /// The admission margin the payment test compared against zero —
        /// `pay_i − cost` for Algorithm 1, `δ_i` for Algorithm 2, and the
        /// raw payment for the payment-oblivious greedy baselines.
        margin: f64,
        /// The chosen cloudlet(s) with per-site instance counts and costs.
        sites: Vec<SitePlacement>,
    },
    /// The request was rejected.
    Reject {
        /// The classified exit path.
        reason: RejectReason,
        /// Dual cost of the best candidate considered, when one was
        /// evaluated before rejecting (absent for e.g. unknown-VNF).
        dual_cost: Option<f64>,
        /// Margin of the failed test, when one was computed.
        margin: Option<f64>,
    },
}

impl Outcome {
    /// True for [`Outcome::Admit`].
    pub fn is_admit(&self) -> bool {
        matches!(self, Outcome::Admit { .. })
    }

    /// The outcome without its explanation.
    pub fn code(&self) -> DecisionCode {
        match *self {
            Outcome::Admit { dual_cost, .. } => DecisionCode::Admit { dual_cost },
            Outcome::Reject { reason, .. } => DecisionCode::Reject(reason),
        }
    }
}

/// What a reader that only counts decisions needs of an [`Outcome`]:
/// the admit bit, the reject reason and the admitted dual cost. Nothing
/// in it is allocated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionCode {
    /// Admitted at this total dual cost.
    Admit {
        /// [`Outcome::Admit`]'s `dual_cost`.
        dual_cost: f64,
    },
    /// Rejected for this reason.
    Reject(RejectReason),
}

impl DecisionCode {
    /// True for [`DecisionCode::Admit`].
    pub fn is_admit(self) -> bool {
        matches!(self, DecisionCode::Admit { .. })
    }
}

/// One scheduling decision, fully explained.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Dense request id.
    pub request: usize,
    /// Scheduler name, e.g. `alg1-onsite` (matches `OnlineScheduler::name`).
    pub algorithm: String,
    /// `onsite` or `offsite`.
    pub scheme: String,
    /// Arrival slot of the request.
    pub slot: usize,
    /// The request's payment `pay_i`.
    pub payment: f64,
    /// Admission or classified rejection.
    pub outcome: Outcome,
}

/// A structured event on the trace stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One scheduler `decide()` call.
    Decision(DecisionEvent),
    /// A cloudlet outage began at `slot` (fault injection).
    OutageStart {
        /// Slot at which the outage takes effect.
        slot: usize,
        /// Dense cloudlet id.
        cloudlet: usize,
    },
    /// A cloudlet outage ended at `slot`.
    OutageEnd {
        /// Slot at which the cloudlet comes back up.
        slot: usize,
        /// Dense cloudlet id.
        cloudlet: usize,
    },
    /// A single request's instances on one cloudlet were killed.
    InstanceKill {
        /// Slot of the kill.
        slot: usize,
        /// Dense cloudlet id the instances were running on.
        cloudlet: usize,
        /// Dense request id whose instances were killed.
        request: usize,
    },
    /// An admitted request dropped below its reliability target and the
    /// SLA clock started (or a final breach was recorded).
    SlaBreach {
        /// Slot of the breach.
        slot: usize,
        /// Dense request id.
        request: usize,
    },
    /// A recovery (re-placement) attempt for a failed request.
    Recovery {
        /// Slot of the attempt.
        slot: usize,
        /// Dense request id.
        request: usize,
        /// Whether a replacement placement was found and charged.
        success: bool,
        /// Cloudlets of the replacement placement (empty on failure).
        cloudlets: Vec<usize>,
    },
    /// A whole failure domain (shared-risk group) crashed: every member
    /// cloudlet went down atomically.
    DomainOutageStart {
        /// Slot at which the domain outage takes effect.
        slot: usize,
        /// Dense failure-domain id.
        domain: usize,
        /// Member cloudlets taken down with the domain.
        cloudlets: Vec<usize>,
    },
    /// A failure domain finished repair.
    DomainOutageEnd {
        /// Slot at which the domain comes back.
        slot: usize,
        /// Dense failure-domain id.
        domain: usize,
    },
    /// A surviving cloudlet cascaded: its post-outage utilization crossed
    /// the cascade threshold and the pre-drawn hazard fired.
    Cascade {
        /// Slot of the secondary outage.
        slot: usize,
        /// Dense cloudlet id that cascaded.
        cloudlet: usize,
        /// Utilization fraction that put the cloudlet at risk.
        utilization: f64,
    },
    /// The load-shedder evicted a retained request to free capacity for
    /// a higher-density re-placement.
    Eviction {
        /// Slot of the eviction.
        slot: usize,
        /// Dense request id evicted.
        request: usize,
        /// Payment density (`pay / (duration · demand)`) at eviction —
        /// evictions happen in ascending density order.
        density: f64,
    },
    /// The engine entered degraded mode: admissions now reserve capacity
    /// headroom until every domain repairs.
    DegradedEnter {
        /// Slot degraded mode began.
        slot: usize,
    },
    /// The engine left degraded mode.
    DegradedExit {
        /// Slot normal admission resumed.
        slot: usize,
    },
    /// The runtime invariant auditor observed a violation (the run
    /// continues; violations are reported, not panicked on).
    AuditViolation {
        /// Slot the violation was detected in.
        slot: usize,
        /// Stable name of the violated invariant.
        invariant: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A standby admission daemon was promoted to primary: it drained
    /// the replication channel and opened a new fencing epoch.
    Promotion {
        /// The new (post-promotion) epoch.
        epoch: u64,
        /// Replication log entries applied before promotion.
        seq: u64,
    },
    /// A replication peer with a stale epoch was refused (fencing): its
    /// frames were not applied and it must stop acking admissions.
    Fenced {
        /// The refusing node's current epoch.
        epoch: u64,
        /// The stale epoch the refused peer presented.
        stale_epoch: u64,
    },
    /// A follower imported a full state snapshot to catch up with the
    /// primary's replication stream.
    ReplCatchup {
        /// Epoch of the snapshot.
        epoch: u64,
        /// Replication log position the snapshot covers.
        seq: u64,
    },
    /// A chaos fault was injected into the serving tier by a seeded
    /// chaos plan (network proxy, snapshot-I/O seam, or process kill).
    ChaosFault {
        /// Fault family: `"network"`, `"disk"`, or `"process"`.
        family: String,
        /// Human-readable description of the injected fault.
        detail: String,
    },
    /// A sharded-daemon supervisor restarted a decide thread after a
    /// panic, restoring the shard from its last in-memory snapshot and
    /// replaying the decided suffix.
    ShardRestart {
        /// The shard whose decide thread was restarted.
        shard: usize,
        /// Number of decided requests replayed to rebuild the state.
        replayed: usize,
    },
    /// One timed pipeline stage in the serving tier (see
    /// [`crate::PipelineStage`]). No heap fields: constructing and
    /// ring-buffering a sample never allocates, which is what keeps the
    /// instrumented-but-noop serving path zero-alloc.
    StageSample {
        /// Shard the stage ran on (0 for the single-shard daemon).
        shard: usize,
        /// The stage that was timed.
        stage: crate::PipelineStage,
        /// Wall time the stage took, in nanoseconds (monotonic clock).
        nanos: u64,
    },
    /// One chain scheduling decision (admit with per-stage placements, or
    /// a classified rejection). Chain ids live in their own namespace —
    /// [`TraceEvent::request`] returns `None` for chain events; use
    /// [`TraceEvent::chain`] instead.
    ChainDecision(ChainDecisionEvent),
    /// The route allocated for one consecutive stage pair of an admitted
    /// chain: segment 0 is ingress → first host, segment `k` (k ≥ 1) is
    /// host `k−1` → host `k`. Per-segment latencies sum to the admitted
    /// chain's end-to-end latency (an identity `explain` re-verifies).
    ChainPath {
        /// Dense chain request id.
        chain: usize,
        /// Segment index (0 = ingress → first stage host).
        segment: usize,
        /// Node ids along the shortest path, endpoints included.
        nodes: Vec<usize>,
        /// Latency of this segment.
        latency: f64,
    },
}

impl TraceEvent {
    /// Stable `"type"` discriminator used in the JSONL schema.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Decision(_) => "decision",
            TraceEvent::OutageStart { .. } => "outage-start",
            TraceEvent::OutageEnd { .. } => "outage-end",
            TraceEvent::InstanceKill { .. } => "instance-kill",
            TraceEvent::SlaBreach { .. } => "sla-breach",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::DomainOutageStart { .. } => "domain-outage-start",
            TraceEvent::DomainOutageEnd { .. } => "domain-outage-end",
            TraceEvent::Cascade { .. } => "cascade",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::DegradedEnter { .. } => "degraded-enter",
            TraceEvent::DegradedExit { .. } => "degraded-exit",
            TraceEvent::AuditViolation { .. } => "audit-violation",
            TraceEvent::Promotion { .. } => "promotion",
            TraceEvent::Fenced { .. } => "fenced",
            TraceEvent::ReplCatchup { .. } => "repl-catchup",
            TraceEvent::ChaosFault { .. } => "chaos-fault",
            TraceEvent::ShardRestart { .. } => "shard-restart",
            TraceEvent::StageSample { .. } => "stage",
            TraceEvent::ChainDecision(_) => "chain-decision",
            TraceEvent::ChainPath { .. } => "chain-path",
        }
    }

    /// The request id the event concerns, if any.
    pub fn request(&self) -> Option<usize> {
        match self {
            TraceEvent::Decision(d) => Some(d.request),
            TraceEvent::InstanceKill { request, .. }
            | TraceEvent::SlaBreach { request, .. }
            | TraceEvent::Recovery { request, .. }
            | TraceEvent::Eviction { request, .. } => Some(*request),
            TraceEvent::OutageStart { .. }
            | TraceEvent::OutageEnd { .. }
            | TraceEvent::DomainOutageStart { .. }
            | TraceEvent::DomainOutageEnd { .. }
            | TraceEvent::Cascade { .. }
            | TraceEvent::DegradedEnter { .. }
            | TraceEvent::DegradedExit { .. }
            | TraceEvent::AuditViolation { .. }
            | TraceEvent::Promotion { .. }
            | TraceEvent::Fenced { .. }
            | TraceEvent::ReplCatchup { .. }
            | TraceEvent::ChaosFault { .. }
            | TraceEvent::ShardRestart { .. }
            | TraceEvent::StageSample { .. }
            | TraceEvent::ChainDecision(_)
            | TraceEvent::ChainPath { .. } => None,
        }
    }

    /// The chain id the event concerns, if any. Chain ids are a separate
    /// namespace from request ids (`σ0` vs `ρ0`), so chain events never
    /// answer [`TraceEvent::request`].
    pub fn chain(&self) -> Option<usize> {
        match self {
            TraceEvent::ChainDecision(d) => Some(d.chain),
            TraceEvent::ChainPath { chain, .. } => Some(*chain),
            _ => None,
        }
    }
}
