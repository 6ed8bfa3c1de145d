//! Online chain schedulers: primal-dual with path allocation and shared
//! backups, plus a single-site greedy baseline.
//!
//! # Placement model
//!
//! A chain `σ_i = (f_1 → … → f_K)` enters the network at an ingress
//! access point and visits one hosting cloudlet per stage; traffic flows
//! along shortest paths `ingress → j_1 → … → j_K`, and the chain's
//! end-to-end latency is the sum of those segment latencies, which must
//! stay within the chain's budget `L_i`.
//!
//! # Availability
//!
//! Without standbys the chain works iff every *distinct* hosting
//! cloudlet is up and every stage has a live replica:
//! `A = Π_{j ∈ distinct hosts} r(c_j) · Π_k (1 − (1 − r(f_k))^{n_k})`
//! — exact, because cloudlet failures are shared across co-located
//! stages. With standbys the certificate is the per-stage product
//! `Π_k S_k`, where a stage protected by a standby at its own cloudlet
//! survives with
//! `S_k = r(c_{j_k}) · (1 − (1 − r(f_k))^{n_k} · (1 − r(f_k)·s))`,
//! and `s` is the contention slack: `1` for a dedicated standby, and
//! `1 − ε` for a shared one (ε the pool's mass cap — by the union bound
//! the probability any co-subscriber claims the standby first is ≤ ε,
//! no matter which chains join later). The product form double-counts a
//! cloudlet shared by two stages, so it *under*-states availability:
//! the certificate is a sound lower bound, which the Monte-Carlo
//! referee (`mec-sim`) verifies empirically.
//!
//! # Pricing
//!
//! Dual prices `λ_{tj}` are charged along the chosen path: the chain
//! pays `Σ_k n_k·c(f_k)·Σ_{t∈V_i} λ_{t,j_k}` for primaries plus the
//! same per-unit price for each *newly created* standby (joining an
//! existing standby is free — that is exactly the economic advantage of
//! sharing). Admission requires the payment to strictly exceed the
//! total, and admitted chains push the prices of every touched cloudlet
//! up by the usual multiplicative rule (Eq. 34). The grid and the ledger
//! belong to an owned Algorithm 1 ([`OnsitePrimalDual`]), which decides
//! a mixed stream's single-VNF requests
//! ([`ChainPrimalDual::decide_single`]).
//!
//! # Cost
//!
//! A decision costs what its own route search costs, whatever came
//! before it. The replica DP's table is built once per stage prefix,
//! from its prefix's table, and found through a trie keyed by VNF id
//! ([`ReplicaDpMemo`]); the beam runs over `Copy` labels in an arena,
//! with the window prices hoisted per eligible cloudlet and distances
//! read from the source label's [`PathTable`] row; routes are evaluated
//! cheapest label first, up to the first whose label cost (a lower bound
//! on its dual cost) cannot beat the best; the standby pool is visited
//! one `(cloudlet, VNF)` bucket per stage; and every buffer lives in the
//! scheduler, so a warm reject allocates nothing and an admit little
//! beyond the [`ChainPlacement`] it returns. DESIGN §17 (*Cost of a
//! chain decision*) says what is computed per stage prefix, per chain
//! and per route, why the route stop is exact, and which orders are
//! part of the result.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use mec_obs::{
    ChainDecisionEvent, ChainOutcome, ChainRejectReason, ChainStageTrace, NoopSink, TraceEvent,
    TraceSink,
};
use mec_topology::{CloudletId, NodeId};
use mec_workload::{ChainRequest, ChainRequestId, Request, VnfTypeId};

use crate::chain::alloc::ReplicaDpMemo;
use crate::chain::backup::{
    BackupMode, BackupPlan, PlanScratch, SharedBackupPool, StageNeed, StandbyId,
};
use crate::chain::path::PathTable;
use crate::error::VnfrelError;
use crate::instance::ProblemInstance;
use crate::ledger::CapacityLedger;
use crate::onsite::{CapacityPolicy, OnsitePrimalDual};
use crate::schedule::{Decision, Placement};
use crate::scheduler::OnlineScheduler;

/// Labels kept per beam-search layer.
const BEAM: usize = 8;

/// Default per-standby subscriber failure-mass cap ε.
pub const DEFAULT_MASS_CAP: f64 = 0.05;

/// One placed chain stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlacement {
    /// The stage's VNF type.
    pub vnf: VnfTypeId,
    /// Cloudlet hosting the stage's primary replicas.
    pub cloudlet: CloudletId,
    /// Primary replica count `n_k`.
    pub replicas: u32,
    /// Standby protecting the stage, if any.
    pub standby: Option<StandbyId>,
    /// Whether that standby is shared with other chains (joined rather
    /// than created).
    pub backup_shared: bool,
}

/// Where an admitted chain landed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPlacement {
    /// Per-stage placements, in stage order.
    pub stages: Vec<StagePlacement>,
    /// Total primary computing units consumed per active slot.
    pub total_compute: u64,
    /// End-to-end latency of the chosen route.
    pub latency: f64,
    /// Analytic availability certificate (a sound lower bound).
    pub availability: f64,
    /// Route per consecutive pair: segment 0 is ingress → first host,
    /// segment `k` is host `k−1` → host `k`. Node indices, endpoints
    /// included; per-segment latencies sum to `latency`.
    pub segments: Vec<(Vec<usize>, f64)>,
}

/// Decisions for a stream of chain requests, in arrival order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChainSchedule {
    decisions: Vec<Result<ChainPlacement, ChainRejectReason>>,
    revenue: f64,
}

impl ChainSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the decision for the next chain in arrival order. Used by
    /// drivers (e.g. the mixed-workload simulator) that interleave chain
    /// decisions with other work.
    ///
    /// # Panics
    ///
    /// Panics if `request.id()` is not the next dense index — chains
    /// must be recorded in arrival order.
    pub fn record(
        &mut self,
        request: &ChainRequest,
        decision: Result<ChainPlacement, ChainRejectReason>,
    ) {
        assert_eq!(
            request.id().index(),
            self.decisions.len(),
            "chain requests must be recorded densely in arrival order"
        );
        if decision.is_ok() {
            self.revenue += request.payment();
        }
        self.decisions.push(decision);
    }

    /// Placement of a chain, `None` if rejected.
    pub fn placement(&self, id: ChainRequestId) -> Option<&ChainPlacement> {
        self.decisions.get(id.index()).and_then(|d| d.as_ref().ok())
    }

    /// Why a chain was rejected, `None` if admitted (or unknown id).
    pub fn reject_reason(&self, id: ChainRequestId) -> Option<ChainRejectReason> {
        match self.decisions.get(id.index()) {
            Some(Err(reason)) => Some(*reason),
            _ => None,
        }
    }

    /// Whether a chain was admitted.
    pub fn is_admitted(&self, id: ChainRequestId) -> bool {
        self.placement(id).is_some()
    }

    /// Total revenue collected.
    pub fn revenue(&self) -> f64 {
        self.revenue
    }

    /// Number of admitted chains.
    pub fn admitted_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_ok()).count()
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

impl fmt::Display for ChainSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chain schedule: {}/{} admitted, revenue {:.2}",
            self.admitted_count(),
            self.len(),
            self.revenue
        )
    }
}

/// An online scheduler for chain requests.
pub trait ChainScheduler {
    /// Short algorithm name for reports (e.g. `"chain-primal-dual"`).
    fn name(&self) -> &'static str;

    /// Decides admission for the next chain request, committing
    /// resources on success.
    ///
    /// Precondition: the chain's window lies inside
    /// [`ledger().horizon()`](CapacityLedger::horizon). `decide_chain`
    /// does not check it (the ledger's window reads assert it only in
    /// debug builds), so a window past the horizon would be charged into
    /// the next cloudlet's row. The drivers check it before calling:
    /// [`run_chain_online`] and `MixedSimulation::new`.
    fn decide_chain(&mut self, request: &ChainRequest)
        -> Result<ChainPlacement, ChainRejectReason>;

    /// The scheduler's capacity ledger.
    fn ledger(&self) -> &CapacityLedger;
}

/// Feeds chain requests through a scheduler.
///
/// # Errors
///
/// Returns [`VnfrelError::NonDenseRequestIds`] if ids are not dense in
/// arrival order, and [`VnfrelError::Workload`] for a chain whose window
/// leaves the scheduler's horizon (one built against a longer horizon).
/// Chains before the offending one have been decided.
pub fn run_chain_online<S: ChainScheduler + ?Sized>(
    scheduler: &mut S,
    requests: &[ChainRequest],
) -> Result<ChainSchedule, VnfrelError> {
    let horizon = scheduler.ledger().horizon();
    let mut schedule = ChainSchedule::new();
    for (i, r) in requests.iter().enumerate() {
        if r.id().index() != i {
            return Err(VnfrelError::NonDenseRequestIds {
                position: i,
                found: r.id().index(),
            });
        }
        if !horizon.contains_window(r.arrival(), r.duration()) {
            return Err(VnfrelError::Workload(
                mec_workload::WorkloadError::WindowOutsideHorizon {
                    arrival: r.arrival(),
                    duration: r.duration(),
                    horizon: horizon.len(),
                },
            ));
        }
        let decision = scheduler.decide_chain(r);
        schedule.record(r, decision);
    }
    Ok(schedule)
}

/// Helper: resolve a chain's stage parameters `(r(f_k), c(f_k))` against
/// the catalog into `out`; `false` when a stage's type is unknown.
fn stage_params_into(
    instance: &ProblemInstance,
    request: &ChainRequest,
    out: &mut Vec<(f64, u64)>,
) -> bool {
    out.clear();
    for &s in request.stages() {
        let Some(v) = instance.catalog().get(s) else {
            return false;
        };
        out.push((v.reliability().value(), v.compute()));
    }
    true
}

/// Per-stage survival with a standby at the stage's own cloudlet:
/// `r_j · (1 − (1 − r_f)^n · (1 − r_f·slack))`.
fn backed_stage_survival(host_rel: f64, r_f: f64, n: u32, slack: f64) -> f64 {
    host_rel * (1.0 - (1.0 - r_f).powi(n as i32) * (1.0 - r_f * slack))
}

/// Greedy replica allocation when every stage is protected by a standby:
/// start at `n_k = 1` and grow the stage with the best marginal
/// log-availability gain per computing unit until the certificate
/// `Π_k S_k` meets the target. Writes the replica vector into `n` and
/// returns the certificate.
fn allocate_with_backups(
    stages: &[(f64, u64)],
    host_rel: &[f64],
    target: f64,
    slack: f64,
    n: &mut Vec<u32>,
) -> Option<f64> {
    n.clear();
    n.resize(stages.len(), 1);
    let cert = |n: &[u32]| -> f64 {
        stages
            .iter()
            .zip(host_rel)
            .zip(n)
            .map(|((&(r_f, _), &rj), &nk)| backed_stage_survival(rj, r_f, nk, slack))
            .product()
    };
    loop {
        let c = cert(n);
        if c >= target {
            return Some(c);
        }
        let mut best: Option<(f64, usize)> = None;
        for (i, &(r_f, compute)) in stages.iter().enumerate() {
            if n[i] >= 80 {
                continue;
            }
            let cur = backed_stage_survival(host_rel[i], r_f, n[i], slack);
            let nxt = backed_stage_survival(host_rel[i], r_f, n[i] + 1, slack);
            if nxt <= cur {
                continue;
            }
            let gain = (nxt.ln() - cur.ln()) / compute as f64;
            if best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, i));
            }
        }
        let (_, i) = best?;
        n[i] += 1;
    }
}

/// Product of `r(c_j)` over the *distinct* cloudlets in `hosts`.
fn distinct_host_gate(hosts: &[u32], host_rel: &[f64]) -> f64 {
    let mut gate = 1.0;
    for (i, &j) in hosts.iter().enumerate() {
        if hosts[..i].contains(&j) {
            continue;
        }
        gate *= host_rel[i];
    }
    gate
}

/// One beam-search label: a partial route that ends at `node` after
/// placing its last stage at cloudlet `host`. Labels of every layer stay
/// in one arena and point at their predecessor, so extending a route
/// copies 32 bytes instead of cloning a host vector; the hosts of a
/// complete route are read back by walking `parent`.
#[derive(Debug, Clone, Copy)]
struct Label {
    /// Cost proxy: `Σ_k c(f_k) · Σ_t λ_{t, j_k}` over the stages so far.
    cost: f64,
    latency: f64,
    node: NodeId,
    /// Arena index of the previous layer's label.
    parent: u32,
    host: u32,
}

/// A fully evaluated candidate route, ready to commit. The scheduler
/// owns two — the route in hand and the best so far — and swaps them
/// when a route wins, so evaluating allocates nothing once they are
/// sized.
#[derive(Debug, Default)]
struct Evaluated {
    hosts: Vec<u32>,
    latency: f64,
    replicas: Vec<u32>,
    availability: f64,
    plan: BackupPlan,
    /// Aggregated primary compute per cloudlet id.
    primary_per_cloudlet: Vec<(u32, f64)>,
    /// Per-stage dual cost (primaries + created standby); sums to
    /// `dual_cost`.
    stage_costs: Vec<f64>,
    dual_cost: f64,
    total_compute: u64,
}

/// Working memory of one `decide_chain`, kept between calls.
#[derive(Debug, Default)]
struct Scratch {
    /// The chain's `(r(f_k), c(f_k))`.
    stages: Vec<(f64, u64)>,
    /// Cloudlets reliable enough to host a stage: `(id, node)`.
    eligible: Vec<(u32, NodeId)>,
    /// `Σ_{t∈V_i} λ_{tj}` per eligible cloudlet, parallel to `eligible`.
    window_prices: Vec<f64>,
    /// Kept labels of every beam layer, layer after layer.
    arena: Vec<Label>,
    /// One layer's candidates, in generation order.
    candidates: Vec<Label>,
    host_rel: Vec<f64>,
    /// Option B's replica vector.
    backed_replicas: Vec<u32>,
    needs: Vec<StageNeed>,
    plan: PlanScratch,
    /// The route being evaluated, and the cheapest one so far.
    current: Evaluated,
    best: Evaluated,
    standby_ids: Vec<(StandbyId, bool)>,
    weight_per_cloudlet: Vec<(u32, f64)>,
}

/// What went wrong while evaluating one candidate route.
#[derive(Clone, Copy, PartialEq)]
enum EvalFail {
    Reliability,
    Capacity,
}

/// Bookkeeping for one committed chain, so it can be released early.
#[derive(Debug, Clone)]
struct Committed {
    primaries: Vec<(u32, f64)>,
    first: usize,
    last: usize,
}

/// Algorithm 1 generalized to chains: beam search over per-stage hosting
/// cloudlets on the shortest-path layer, minimum-compute replica
/// allocation (with or without standbys, whichever is cheaper), shared
/// backup standbys under the pool's mass-cap test, and the primal-dual
/// payment test summed over stages. See the module docs for the model.
#[derive(Debug)]
pub struct ChainPrimalDual<'a, S: TraceSink = NoopSink> {
    instance: &'a ProblemInstance,
    mode: BackupMode,
    sink: S,
    /// Algorithm 1 itself: it decides the single-VNF requests, and its
    /// price grid and ledger are the ones chains are priced and charged
    /// against.
    alg1: OnsitePrimalDual<'a>,
    pool: SharedBackupPool,
    paths: PathTable,
    /// Every cloudlet as `(id, node, r(c_j))`, in id order.
    all_hosts: Vec<(u32, NodeId, f64)>,
    /// Replica DP tables by stage prefix (see [`ReplicaDpMemo`] for what
    /// bounds it).
    dp: ReplicaDpMemo,
    scratch: Scratch,
    committed: HashMap<usize, Committed>,
    admitted: usize,
    revenue: f64,
}

impl<'a> ChainPrimalDual<'a, NoopSink> {
    /// Creates the scheduler with zero prices, tracing disabled, and the
    /// default mass cap.
    pub fn new(instance: &'a ProblemInstance, mode: BackupMode) -> Self {
        Self::with_sink(instance, mode, NoopSink)
    }
}

impl<'a, S: TraceSink> ChainPrimalDual<'a, S> {
    /// Creates the scheduler with an explicit trace sink.
    pub fn with_sink(instance: &'a ProblemInstance, mode: BackupMode, sink: S) -> Self {
        Self::with_mass_cap(instance, mode, DEFAULT_MASS_CAP, sink)
    }

    /// Creates the scheduler with an explicit shared-pool mass cap ε.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < mass_cap < 1`.
    pub fn with_mass_cap(
        instance: &'a ProblemInstance,
        mode: BackupMode,
        mass_cap: f64,
        sink: S,
    ) -> Self {
        ChainPrimalDual {
            instance,
            mode,
            sink,
            alg1: OnsitePrimalDual::new(instance, CapacityPolicy::Enforce)
                .expect("Enforce takes no scaling factor"),
            pool: SharedBackupPool::new(mass_cap),
            paths: PathTable::new(),
            all_hosts: instance
                .network()
                .cloudlets()
                .map(|c| {
                    (
                        c.id().index() as u32,
                        c.node(),
                        instance.cloudlet_reliability(c.id()),
                    )
                })
                .collect(),
            dp: ReplicaDpMemo::default(),
            scratch: Scratch::default(),
            committed: HashMap::new(),
            admitted: 0,
            revenue: 0.0,
        }
    }

    /// The shared standby pool.
    pub fn pool(&self) -> &SharedBackupPool {
        &self.pool
    }

    /// The backup mode this scheduler runs under.
    pub fn mode(&self) -> BackupMode {
        self.mode
    }

    /// Chains admitted so far.
    pub fn admitted_count(&self) -> usize {
        self.admitted
    }

    /// Revenue collected so far (chains and mixed-in single requests).
    pub fn revenue(&self) -> f64 {
        self.revenue
    }

    /// Consumes the scheduler, returning its sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Mutable access to the sink (e.g. to drain events mid-run).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Releases an admitted chain early (before its window ends):
    /// primaries are credited back and its standby subscriptions are
    /// dropped from the pool (shrinking hulls, deleting orphans).
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::InvalidParameter`] if the chain was never
    /// admitted or was already released — a double release never
    /// double-credits the ledger.
    pub fn release_chain(&mut self, id: ChainRequestId) -> Result<(), VnfrelError> {
        let c = self
            .committed
            .remove(&id.index())
            .ok_or(VnfrelError::InvalidParameter(
                "chain not admitted or already released",
            ))?;
        for &(j, amount) in &c.primaries {
            self.alg1
                .ledger
                .release(CloudletId(j as usize), c.first..=c.last, amount)?;
        }
        self.pool.release_chain(id.index(), &mut self.alg1.ledger);
        Ok(())
    }

    /// Decides one *single-VNF* request by Algorithm 1 (capacity
    /// enforced) on the chains' own ledger and price grid, so mixed
    /// workloads contend for the same capacity. Returns the chosen
    /// cloudlet and instance count, or `None` on rejection.
    pub fn decide_single(&mut self, request: &Request) -> Option<(CloudletId, u32)> {
        let Decision::Admit(Placement::OnSite {
            cloudlet,
            instances,
        }) = self.alg1.decide(request)
        else {
            return None;
        };
        self.revenue += request.payment();
        Some((cloudlet, instances))
    }

    /// Beam search over per-stage hosts, from `scratch.stages` and
    /// `scratch.eligible`. Returns the arena range of the complete
    /// routes' last labels, cheapest first, or an empty range when the
    /// latency budget prunes every route.
    ///
    /// Each layer keeps the first [`BEAM`] labels of its candidates'
    /// Pareto front, in `(cost, latency, generation)` order: a candidate
    /// survives iff no cheaper-or-equal survivor is at least as fast. The
    /// front is read off by selection — each pass takes the least
    /// `(cost, latency)` candidate strictly faster than the last
    /// survivor, the earliest generated on ties, which is the next
    /// element a stable sort followed by the dominance filter would keep
    /// (everything faster than the last survivor sorts after it, or it
    /// would have been kept or dominated earlier). Generation order —
    /// labels in arena order, eligible cloudlets in id order within a
    /// label — is therefore part of the result: it decides which of two
    /// equal-cost, equal-latency routes is evaluated, and so possibly
    /// which hosts a chain lands on.
    fn beam_routes(&mut self, request: &ChainRequest) -> Range<usize> {
        let (first, last) = (*request.slots().start(), *request.slots().end());
        let budget = request.latency_budget();
        let network = self.instance.network();
        let Scratch {
            stages,
            eligible,
            window_prices,
            arena,
            candidates,
            ..
        } = &mut self.scratch;
        window_prices.clear();
        window_prices.extend(
            eligible
                .iter()
                .map(|&(j, _)| self.alg1.prices.window_sum(j as usize, first, last)),
        );
        arena.clear();
        arena.push(Label {
            cost: 0.0,
            latency: 0.0,
            node: request.ingress(),
            parent: u32::MAX,
            host: u32::MAX,
        });
        let mut layer = 0..1;
        for &(_, compute) in stages.iter() {
            candidates.clear();
            for from in layer {
                let label = arena[from];
                let hops = self.paths.distances(network, label.node);
                for (&(j, node), &unit) in eligible.iter().zip(window_prices.iter()) {
                    let latency = label.latency + hops[node.index()];
                    if latency.is_nan() || latency > budget || latency.is_infinite() {
                        continue;
                    }
                    candidates.push(Label {
                        cost: label.cost + compute as f64 * unit,
                        latency,
                        node,
                        parent: from as u32,
                        host: j,
                    });
                }
            }
            let start = arena.len();
            let mut faster_than = f64::INFINITY;
            while arena.len() - start < BEAM {
                let mut next: Option<&Label> = None;
                for c in candidates.iter() {
                    if c.latency < faster_than
                        && next.is_none_or(|n| {
                            c.cost < n.cost || (c.cost == n.cost && c.latency < n.latency)
                        })
                    {
                        next = Some(c);
                    }
                }
                let Some(&kept) = next else { break };
                faster_than = kept.latency;
                arena.push(kept);
            }
            layer = start..arena.len();
            if layer.is_empty() {
                break;
            }
        }
        layer
    }

    /// Fully evaluates the complete route ending at arena label `route`
    /// into `scratch.current`: replica allocation (with or without
    /// standbys, whichever consumes less new compute), capacity checks,
    /// backup plan, and dual cost. `dp` is the chain's replica table.
    fn evaluate(
        &mut self,
        request: &ChainRequest,
        dp: usize,
        route: usize,
    ) -> Result<(), EvalFail> {
        let (first, last) = (*request.slots().start(), *request.slots().end());
        let target = request.reliability_requirement().value();
        let Scratch {
            stages,
            arena,
            host_rel,
            backed_replicas,
            needs,
            plan: plan_scratch,
            current:
                Evaluated {
                    hosts,
                    latency,
                    replicas,
                    availability,
                    plan,
                    primary_per_cloudlet,
                    stage_costs,
                    dual_cost,
                    total_compute,
                },
            ..
        } = &mut self.scratch;
        let stages = stages.as_slice();

        // The route's hosts, read back along the labels' parents.
        *latency = arena[route].latency;
        hosts.clear();
        hosts.resize(stages.len(), 0);
        let mut at = route;
        for host in hosts.iter_mut().rev() {
            *host = arena[at].host;
            at = arena[at].parent as usize;
        }
        host_rel.clear();
        host_rel.extend(
            hosts
                .iter()
                .map(|&j| self.instance.cloudlet_reliability(CloudletId(j as usize))),
        );

        // Option A: primaries only, exact distinct-host availability.
        let gate = distinct_host_gate(hosts, host_rel);
        let no_backup = self.dp.table(dp).solve_into(stages, gate, target, replicas);

        // Option B: every stage protected by a standby at its host.
        let with_backup = if matches!(self.mode, BackupMode::None) {
            None
        } else {
            let slack = match self.mode {
                BackupMode::Shared => 1.0 - self.pool.mass_cap(),
                _ => 1.0,
            };
            allocate_with_backups(stages, host_rel, target, slack, backed_replicas)
        };
        // What option B would ask of the pool.
        needs.clear();
        if with_backup.is_some() {
            needs.extend((0..stages.len()).map(|k| StageNeed {
                stage: k,
                vnf: request.stages()[k],
                compute: stages[k].1,
                cloudlet: CloudletId(hosts[k] as usize),
                mass: (1.0 - stages[k].0).powi(backed_replicas[k] as i32),
            }));
        }

        // Pick the option with the smaller new-compute footprint; count
        // a standby create as one extra instance of the stage's type
        // (joins are free, which is what makes sharing win capacity).
        // Ties go to standbys (higher availability margin).
        let choose_backup = match (no_backup, with_backup) {
            (None, None) => return Err(EvalFail::Reliability),
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((a_compute, _)), Some(_)) => {
                let primary_b: u64 = stages
                    .iter()
                    .zip(backed_replicas.iter())
                    .map(|(&(_, c), &nk)| u64::from(nk) * c)
                    .sum();
                // Upper bound on standby compute: every stage creates.
                let standby_b: u64 = stages.iter().map(|&(_, c)| c).sum();
                primary_b + standby_b <= a_compute
                    // Sharing may still make B cheaper: dry-run the pool
                    // plan and count only the creates it would actually
                    // perform (shared joins excluded). Dedicated standbys
                    // are all creates, so there the bound above is exact
                    // and has just failed.
                    || (matches!(self.mode, BackupMode::Shared)
                        && self.pool.plan_into(
                            self.mode,
                            needs,
                            first,
                            last,
                            &self.alg1.ledger,
                            |_, _| 0.0,
                            plan_scratch,
                            plan,
                        )
                        && primary_b
                            + plan
                                .stages
                                .iter()
                                .filter(|p| p.join.is_none())
                                .map(|p| p.compute)
                                .sum::<u64>()
                            <= a_compute)
            }
        };

        *availability = if choose_backup {
            std::mem::swap(replicas, backed_replicas);
            with_backup.expect("chosen")
        } else {
            no_backup.expect("chosen").1
        };

        // Aggregate primary compute per cloudlet and check capacity.
        primary_per_cloudlet.clear();
        for (k, &j) in hosts.iter().enumerate() {
            let amount = f64::from(replicas[k]) * stages[k].1 as f64;
            match primary_per_cloudlet.iter_mut().find(|(cj, _)| *cj == j) {
                Some((_, a)) => *a += amount,
                None => primary_per_cloudlet.push((j, amount)),
            }
        }
        for &(j, amount) in primary_per_cloudlet.iter() {
            if !self
                .alg1
                .ledger
                .fits_window(CloudletId(j as usize), first, last, amount)
            {
                return Err(EvalFail::Capacity);
            }
        }

        // Backup plan (accounting for the pending primary charges).
        if choose_backup {
            let pending = |j: CloudletId, _t: usize| -> f64 {
                primary_per_cloudlet
                    .iter()
                    .find(|(cj, _)| *cj as usize == j.index())
                    .map_or(0.0, |&(_, a)| a)
            };
            if !self.pool.plan_into(
                self.mode,
                needs,
                first,
                last,
                &self.alg1.ledger,
                pending,
                plan_scratch,
                plan,
            ) {
                return Err(EvalFail::Capacity);
            }
        } else {
            plan.stages.clear();
            plan.new_compute_slots = 0.0;
        }

        // Dual cost: primaries per stage plus each *created* standby.
        stage_costs.clear();
        *dual_cost = 0.0;
        for (k, &j) in hosts.iter().enumerate() {
            let unit = self.alg1.prices.window_sum(j as usize, first, last);
            let mut cost = f64::from(replicas[k]) * stages[k].1 as f64 * unit;
            if let Some(p) = plan.stages.iter().find(|p| p.stage == k) {
                if p.join.is_none() {
                    cost += p.compute as f64 * unit;
                }
            }
            stage_costs.push(cost);
            *dual_cost += cost;
        }

        *total_compute = stages
            .iter()
            .zip(replicas.iter())
            .map(|(&(_, c), &n)| u64::from(n) * c)
            .sum();
        Ok(())
    }

    fn emit_reject(
        &mut self,
        request: &ChainRequest,
        reason: ChainRejectReason,
        dual_cost: Option<f64>,
        margin: Option<f64>,
    ) -> ChainRejectReason {
        if S::ENABLED {
            let event = TraceEvent::ChainDecision(ChainDecisionEvent {
                chain: request.id().index(),
                algorithm: self.name().to_string(),
                slot: request.arrival(),
                payment: request.payment(),
                outcome: ChainOutcome::Reject {
                    reason,
                    dual_cost,
                    margin,
                },
            });
            self.sink.record(event);
        }
        reason
    }

    /// Evaluates the complete `routes` with replica table `dp`, leaving
    /// the one of least dual cost in `scratch.best` (the first of equals),
    /// or returns why none is feasible.
    ///
    /// `routes` come cheapest label first, and a route's label cost is a
    /// lower bound on its dual cost, bit for bit: both sum the same
    /// window prices in stage order, `n_k ≥ 1` replicas cost at least
    /// one, and a created standby only adds. So once a label costs at
    /// least the best dual cost found, neither it nor any route after it
    /// can win, and the loop stops there (DESIGN §17). The reason is read
    /// only when no route was feasible, which no stop can change.
    fn best_route(
        &mut self,
        request: &ChainRequest,
        dp: usize,
        routes: Range<usize>,
    ) -> Result<(), ChainRejectReason> {
        let mut have_best = false;
        let mut saw_capacity_fail = false;
        for route in routes {
            if have_best && self.scratch.arena[route].cost >= self.scratch.best.dual_cost {
                break;
            }
            match self.evaluate(request, dp, route) {
                Ok(()) => {
                    let Scratch { current, best, .. } = &mut self.scratch;
                    if !have_best || current.dual_cost < best.dual_cost {
                        std::mem::swap(current, best);
                        have_best = true;
                    }
                }
                Err(EvalFail::Capacity) => saw_capacity_fail = true,
                Err(EvalFail::Reliability) => {}
            }
        }
        if have_best {
            Ok(())
        } else if saw_capacity_fail {
            Err(ChainRejectReason::CapacityGate)
        } else {
            Err(ChainRejectReason::ReliabilityInfeasible)
        }
    }

    /// [`ChainScheduler::decide_chain`], with the route evaluation loop
    /// supplied: `search` has the contract of
    /// [`ChainPrimalDual::best_route`], which is what production passes.
    fn decide_chain_by(
        &mut self,
        request: &ChainRequest,
        search: impl FnOnce(
            &mut Self,
            &ChainRequest,
            usize,
            Range<usize>,
        ) -> Result<(), ChainRejectReason>,
    ) -> Result<ChainPlacement, ChainRejectReason> {
        let instance = self.instance;
        let network = instance.network();
        if !stage_params_into(instance, request, &mut self.scratch.stages) {
            return Err(self.emit_reject(request, ChainRejectReason::UnknownVnf, None, None));
        }
        let vnfs = request.stages();
        if request.ingress().index() >= network.ap_count() {
            return Err(self.emit_reject(request, ChainRejectReason::BadIngress, None, None));
        }
        let budget = request.latency_budget();

        // Latency pre-check: if even the nearest cloudlet busts the
        // budget, no route exists regardless of reliability.
        let from_ingress = self.paths.distances(network, request.ingress());
        let nearest = self
            .all_hosts
            .iter()
            .map(|&(_, node, _)| from_ingress[node.index()])
            .fold(f64::INFINITY, f64::min);
        if nearest.is_nan() || nearest > budget || nearest.is_infinite() {
            return Err(self.emit_reject(
                request,
                ChainRejectReason::LatencyInfeasible,
                None,
                None,
            ));
        }

        // Reliability gate: every hosting cloudlet must individually
        // clear the end-to-end target (the certificate is ≤ min r(c_j)).
        let target = request.reliability_requirement().value();
        self.scratch.eligible.clear();
        self.scratch.eligible.extend(
            self.all_hosts
                .iter()
                .filter(|&&(_, _, rel)| rel >= target)
                .map(|&(j, node, _)| (j, node)),
        );
        if self.scratch.eligible.is_empty() {
            return Err(self.emit_reject(
                request,
                ChainRejectReason::ReliabilityInfeasible,
                None,
                None,
            ));
        }

        let routes = self.beam_routes(request);
        if routes.is_empty() {
            // Reliable hosts exist and at least one is within reach of
            // the ingress; the budget pruned every complete route.
            return Err(self.emit_reject(
                request,
                ChainRejectReason::LatencyInfeasible,
                None,
                None,
            ));
        }

        // One replica table serves every route of the chain.
        let dp = self.dp.lookup(vnfs, &self.scratch.stages);
        if let Err(reason) = search(self, request, dp, routes) {
            return Err(self.emit_reject(request, reason, None, None));
        }

        // Payment test, summed over stages.
        let pay = request.payment();
        let dual_cost = self.scratch.best.dual_cost;
        let margin = pay - dual_cost;
        if margin <= 0.0 {
            return Err(self.emit_reject(
                request,
                ChainRejectReason::PaymentTest,
                Some(dual_cost),
                Some(margin),
            ));
        }

        // Commit: primaries, standbys, prices.
        let algorithm = self.name();
        let Scratch {
            best: ev,
            standby_ids,
            weight_per_cloudlet,
            ..
        } = &mut self.scratch;
        let (first, last) = (*request.slots().start(), *request.slots().end());
        for &(j, amount) in &ev.primary_per_cloudlet {
            self.alg1
                .ledger
                .charge(CloudletId(j as usize), first..=last, amount);
        }
        self.pool.commit_into(
            &ev.plan,
            request.id().index(),
            &mut self.alg1.ledger,
            standby_ids,
        );
        self.committed.insert(
            request.id().index(),
            Committed {
                primaries: ev.primary_per_cloudlet.clone(),
                first,
                last,
            },
        );

        // Price updates per touched cloudlet: primaries plus created
        // standby compute.
        weight_per_cloudlet.clear();
        weight_per_cloudlet.extend_from_slice(&ev.primary_per_cloudlet);
        for p in &ev.plan.stages {
            if p.join.is_none() {
                let j = p.cloudlet.index() as u32;
                match weight_per_cloudlet.iter_mut().find(|(cj, _)| *cj == j) {
                    Some((_, a)) => *a += p.compute as f64,
                    None => weight_per_cloudlet.push((j, p.compute as f64)),
                }
            }
        }
        let d = request.duration() as f64;
        for &(j, w) in weight_per_cloudlet.iter() {
            let cap = self.alg1.ledger.capacity(CloudletId(j as usize));
            self.alg1
                .prices
                .update_window(j as usize, first, last, |l| {
                    l * (1.0 + w / cap) + w * pay / (d * cap)
                });
        }
        self.admitted += 1;
        self.revenue += pay;

        // Assemble the placement (stage standby assignments from the
        // committed plan, which is in plan-stage order).
        let mut stage_placements: Vec<StagePlacement> = (0..vnfs.len())
            .map(|k| StagePlacement {
                vnf: vnfs[k],
                cloudlet: CloudletId(ev.hosts[k] as usize),
                replicas: ev.replicas[k],
                standby: None,
                backup_shared: false,
            })
            .collect();
        for (p, &(id, shared)) in ev.plan.stages.iter().zip(standby_ids.iter()) {
            stage_placements[p.stage].standby = Some(id);
            stage_placements[p.stage].backup_shared = shared;
        }

        // Route segments: ingress → h_1 → … → h_K.
        let mut segments = Vec::with_capacity(vnfs.len());
        let mut at = request.ingress();
        for &j in &ev.hosts {
            let node = self.all_hosts[j as usize].1;
            let (nodes, lat) = self
                .paths
                .path(network, at, node)
                .expect("route was latency-feasible");
            segments.push((nodes, lat));
            at = node;
        }

        if S::ENABLED {
            for (i, (nodes, lat)) in segments.iter().enumerate() {
                let event = TraceEvent::ChainPath {
                    chain: request.id().index(),
                    segment: i,
                    nodes: nodes.clone(),
                    latency: *lat,
                };
                self.sink.record(event);
            }
            let stages_trace: Vec<ChainStageTrace> = stage_placements
                .iter()
                .enumerate()
                .map(|(k, sp)| ChainStageTrace {
                    vnf: sp.vnf.index(),
                    cloudlet: sp.cloudlet.index(),
                    replicas: sp.replicas,
                    dual_cost: ev.stage_costs[k],
                    standby: sp.standby.map(StandbyId::index),
                    backup_cloudlet: sp.standby.map(|_| sp.cloudlet.index()),
                    backup_shared: sp.standby.map(|_| sp.backup_shared),
                })
                .collect();
            let event = TraceEvent::ChainDecision(ChainDecisionEvent {
                chain: request.id().index(),
                algorithm: algorithm.to_string(),
                slot: request.arrival(),
                payment: pay,
                outcome: ChainOutcome::Admit {
                    dual_cost: ev.dual_cost,
                    margin,
                    latency: ev.latency,
                    budget,
                    availability: ev.availability,
                    stages: stages_trace,
                },
            });
            self.sink.record(event);
        }

        Ok(ChainPlacement {
            stages: stage_placements,
            total_compute: ev.total_compute,
            latency: ev.latency,
            availability: ev.availability,
            segments,
        })
    }
}

impl<S: TraceSink> ChainScheduler for ChainPrimalDual<'_, S> {
    fn name(&self) -> &'static str {
        "chain-primal-dual"
    }

    fn decide_chain(
        &mut self,
        request: &ChainRequest,
    ) -> Result<ChainPlacement, ChainRejectReason> {
        self.decide_chain_by(request, Self::best_route)
    }

    fn ledger(&self) -> &CapacityLedger {
        &self.alg1.ledger
    }
}

/// Greedy chain baseline: hosts the whole chain at the most reliable
/// cloudlet within the latency budget, dedicating no standbys and
/// ignoring payments.
#[derive(Debug)]
pub struct ChainGreedy<'a> {
    instance: &'a ProblemInstance,
    order: Vec<CloudletId>,
    ledger: CapacityLedger,
    paths: PathTable,
    /// Replica DP tables by stage prefix: one table serves every cloudlet
    /// a chain is tried at, and every later chain of the same types.
    dp: ReplicaDpMemo,
}

impl<'a> ChainGreedy<'a> {
    /// Creates the greedy chain scheduler.
    pub fn new(instance: &'a ProblemInstance) -> Self {
        let mut order: Vec<CloudletId> = instance.network().cloudlets().map(|c| c.id()).collect();
        order.sort_by(|&a, &b| {
            let ra = instance
                .network()
                .cloudlet(a)
                .expect("valid id")
                .reliability();
            let rb = instance
                .network()
                .cloudlet(b)
                .expect("valid id")
                .reliability();
            rb.cmp(&ra).then(a.index().cmp(&b.index()))
        });
        ChainGreedy {
            instance,
            order,
            ledger: CapacityLedger::new(instance.network(), instance.horizon()),
            paths: PathTable::new(),
            dp: ReplicaDpMemo::default(),
        }
    }
}

impl ChainScheduler for ChainGreedy<'_> {
    fn name(&self) -> &'static str {
        "chain-greedy"
    }

    fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    fn decide_chain(
        &mut self,
        request: &ChainRequest,
    ) -> Result<ChainPlacement, ChainRejectReason> {
        let network = self.instance.network();
        let mut stages = Vec::with_capacity(request.len());
        if !stage_params_into(self.instance, request, &mut stages) {
            return Err(ChainRejectReason::UnknownVnf);
        }
        if request.ingress().index() >= network.ap_count() {
            return Err(ChainRejectReason::BadIngress);
        }
        let budget = request.latency_budget();
        let target = request.reliability_requirement().value();
        let dp = self.dp.lookup(request.stages(), &stages);
        let mut replicas = Vec::new();
        let mut saw_in_budget = false;
        let mut saw_reliable = false;
        for &cid in &self.order {
            let cloudlet = network.cloudlet(cid).expect("valid id");
            let latency = self
                .paths
                .distance(network, request.ingress(), cloudlet.node());
            if latency.is_nan() || latency > budget || latency.is_infinite() {
                continue;
            }
            saw_in_budget = true;
            let Some((total_compute, availability)) = self.dp.table(dp).solve_into(
                &stages,
                cloudlet.reliability().value(),
                target,
                &mut replicas,
            ) else {
                // Sorted by reliability: no later cloudlet can succeed,
                // but a within-budget one may still exist for latency
                // classification purposes.
                continue;
            };
            saw_reliable = true;
            let weight = total_compute as f64;
            if !self.ledger.fits(cid, request.slots(), weight) {
                continue;
            }
            self.ledger.charge(cid, request.slots(), weight);
            let (nodes, lat) = self
                .paths
                .path(network, request.ingress(), cloudlet.node())
                .expect("finite latency");
            let mut segments = vec![(nodes, lat)];
            for _ in 1..stages.len() {
                segments.push((vec![cloudlet.node().index()], 0.0));
            }
            let stage_placements = request
                .stages()
                .iter()
                .zip(&replicas)
                .map(|(&vnf, &n)| StagePlacement {
                    vnf,
                    cloudlet: cid,
                    replicas: n,
                    standby: None,
                    backup_shared: false,
                })
                .collect();
            return Ok(ChainPlacement {
                stages: stage_placements,
                total_compute,
                latency: lat,
                availability,
                segments,
            });
        }
        if !saw_in_budget {
            Err(ChainRejectReason::LatencyInfeasible)
        } else if !saw_reliable {
            Err(ChainRejectReason::ReliabilityInfeasible)
        } else {
            Err(ChainRejectReason::CapacityGate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::alloc::chain_availability_raw;
    use mec_obs::RingSink;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, VnfCatalog};

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// A line of access points, one cloudlet each, 1.0-latency links.
    fn instance(cloudlets: &[(u64, f64)]) -> ProblemInstance {
        instance_over(cloudlets, Horizon::new(10))
    }

    /// [`instance`] over an explicit horizon.
    fn instance_over(cloudlets: &[(u64, f64)], horizon: Horizon) -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let mut prev = None;
        for (i, &(cap, r)) in cloudlets.iter().enumerate() {
            let ap = b.add_ap(format!("ap{i}"));
            if let Some(p) = prev {
                b.add_link(p, ap, 1.0).unwrap();
            }
            prev = Some(ap);
            b.add_cloudlet(ap, cap, rel(r)).unwrap();
        }
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), horizon).unwrap()
    }

    fn chain(id: usize, stages: Vec<usize>, req: f64, pay: f64) -> ChainRequest {
        chain_at(id, stages, req, pay, f64::INFINITY, 0)
    }

    fn chain_at(
        id: usize,
        stages: Vec<usize>,
        req: f64,
        pay: f64,
        budget: f64,
        ingress: usize,
    ) -> ChainRequest {
        ChainRequest::new(
            ChainRequestId(id),
            stages.into_iter().map(VnfTypeId).collect(),
            rel(req),
            budget,
            NodeId(ingress),
            0,
            2,
            pay,
            Horizon::new(10),
        )
        .unwrap()
    }

    #[test]
    fn primal_dual_admits_and_certificate_is_sound() {
        let inst = instance(&[(40, 0.9999), (40, 0.999)]);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::None);
        let c = chain(0, vec![0, 1, 3], 0.97, 25.0);
        let p = alg.decide_chain(&c).expect("admitted");
        assert_eq!(p.stages.len(), 3);
        assert!(p.availability >= 0.97);
        // Segment latencies sum to the total.
        let sum: f64 = p.segments.iter().map(|(_, l)| l).sum();
        assert!((sum - p.latency).abs() < 1e-12);
        // Recompute the no-backup certificate independently.
        let raw: Vec<(f64, u64)> = c
            .stages()
            .iter()
            .map(|&s| {
                let v = inst.catalog().get(s).unwrap();
                (v.reliability().value(), v.compute())
            })
            .collect();
        let hosts: Vec<u32> = p.stages.iter().map(|s| s.cloudlet.index() as u32).collect();
        let rels: Vec<f64> = hosts
            .iter()
            .map(|&j| inst.cloudlet_reliability(CloudletId(j as usize)))
            .collect();
        let gate = distinct_host_gate(&hosts, &rels);
        let reps: Vec<u32> = p.stages.iter().map(|s| s.replicas).collect();
        assert!(gate * chain_availability_raw(&raw, &reps, 1.0) >= 0.97);
    }

    #[test]
    fn reject_reasons_are_classified() {
        let inst = instance(&[(40, 0.999), (40, 0.99)]);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::Shared);
        // Unknown VNF type.
        assert_eq!(
            alg.decide_chain(&chain(0, vec![42], 0.9, 5.0)),
            Err(ChainRejectReason::UnknownVnf)
        );
        // Ingress outside the network.
        assert_eq!(
            alg.decide_chain(&chain_at(0, vec![0], 0.9, 5.0, 10.0, 99)),
            Err(ChainRejectReason::BadIngress)
        );
        // Budget below the nearest cloudlet distance: node 1 has a
        // cloudlet at distance 0, so use an impossible budget via a
        // multi-stage chain from node 0 with budget smaller than any
        // hop… node 0 also hosts a cloudlet (distance 0), so force
        // latency-infeasible with a tiny but positive budget from a
        // *cloudlet-free* vantage: not available in this topology, so
        // exercise the beam-level prune instead (budget 0.5 admits the
        // local cloudlet only; reliability still satisfiable → admitted).
        // True latency rejection needs every reliable host out of reach:
        let strict = instance(&[(40, 0.9), (40, 0.9999)]);
        let mut alg2 = ChainPrimalDual::new(&strict, BackupMode::None);
        // Only cloudlet 1 (node 1) clears R = 0.99, one hop (1.0) away;
        // budget 0.5 prunes it.
        assert_eq!(
            alg2.decide_chain(&chain_at(0, vec![0], 0.99, 5.0, 0.5, 0)),
            Err(ChainRejectReason::LatencyInfeasible)
        );
        // Reliability unreachable anywhere.
        let low = instance(&[(40, 0.95)]);
        let mut alg3 = ChainPrimalDual::new(&low, BackupMode::None);
        assert_eq!(
            alg3.decide_chain(&chain(0, vec![0, 1], 0.96, 100.0)),
            Err(ChainRejectReason::ReliabilityInfeasible)
        );
        // Capacity gate: demand cannot fit.
        let tiny = instance(&[(1, 0.9999)]);
        let mut alg4 = ChainPrimalDual::new(&tiny, BackupMode::None);
        assert_eq!(
            alg4.decide_chain(&chain(0, vec![2, 4], 0.9, 100.0)),
            Err(ChainRejectReason::CapacityGate)
        );
    }

    #[test]
    fn prices_block_low_payers_eventually() {
        let inst = instance(&[(12, 0.9999)]);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::None);
        let mut admitted = 0;
        let mut payment_rejects = 0;
        for i in 0..40 {
            match alg.decide_chain(&chain(i, vec![1, 5], 0.9, 6.0)) {
                Ok(_) => admitted += 1,
                Err(ChainRejectReason::PaymentTest) => payment_rejects += 1,
                Err(_) => {}
            }
        }
        assert!(
            admitted > 0 && payment_rejects > 0,
            "{admitted}/{payment_rejects}"
        );
        assert_eq!(alg.ledger().max_overflow(), 0.0);
        assert_eq!(alg.admitted_count(), admitted);
    }

    #[test]
    fn latency_budget_binds_across_stages() {
        // Three cloudlets in a line; only the two far ones are reliable
        // enough, so a strict budget rejects while a loose one admits.
        let inst = instance(&[(40, 0.9), (40, 0.9999), (40, 0.9999)]);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::None);
        // From node 0, nearest reliable host is node 1 (distance 1).
        let ok = alg.decide_chain(&chain_at(0, vec![0, 1], 0.99, 50.0, 5.0, 0));
        assert!(ok.is_ok());
        assert!(ok.unwrap().latency <= 5.0);
        let mut alg2 = ChainPrimalDual::new(&inst, BackupMode::None);
        assert_eq!(
            alg2.decide_chain(&chain_at(0, vec![0, 1], 0.99, 50.0, 0.5, 0)),
            Err(ChainRejectReason::LatencyInfeasible)
        );
    }

    #[test]
    fn shared_backups_admit_no_less_and_pool_fills() {
        let caps: Vec<(u64, f64)> = vec![(14, 0.9999), (14, 0.999)];
        let inst = instance(&caps);
        let reqs: Vec<ChainRequest> = (0..30).map(|i| chain(i, vec![2, 2], 0.95, 30.0)).collect();
        let mut shared = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let mut dedicated = ChainPrimalDual::new(&inst, BackupMode::Dedicated);
        let ss = run_chain_online(&mut shared, &reqs).unwrap();
        let sd = run_chain_online(&mut dedicated, &reqs).unwrap();
        assert!(
            ss.admitted_count() >= sd.admitted_count(),
            "shared {} < dedicated {}",
            ss.admitted_count(),
            sd.admitted_count()
        );
        assert_eq!(shared.ledger().max_overflow(), 0.0);
        assert_eq!(dedicated.ledger().max_overflow(), 0.0);
        // When standbys are used at all, sharing keeps fewer of them.
        if shared.pool().standby_count() > 0 && dedicated.pool().standby_count() > 0 {
            assert!(shared.pool().standby_count() <= dedicated.pool().standby_count());
        }
        assert_eq!(shared.mode(), BackupMode::Shared);
    }

    #[test]
    fn release_chain_returns_capacity_and_rejects_double_release() {
        let inst = instance(&[(30, 0.9999)]);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let baseline = alg.ledger().used_grid().to_vec();
        let c = chain(0, vec![1, 5], 0.95, 25.0);
        alg.decide_chain(&c).expect("admitted");
        assert_ne!(alg.ledger().used_grid(), &baseline[..]);
        alg.release_chain(ChainRequestId(0)).unwrap();
        assert_eq!(alg.ledger().used_grid(), &baseline[..]);
        assert!(alg.pool().is_empty());
        // Double release: error, ledger untouched.
        assert!(alg.release_chain(ChainRequestId(0)).is_err());
        assert_eq!(alg.ledger().used_grid(), &baseline[..]);
        // Releasing a never-admitted chain: error.
        assert!(alg.release_chain(ChainRequestId(7)).is_err());
    }

    #[test]
    fn decide_single_shares_capacity_with_chains() {
        use mec_workload::{Request, RequestId};
        let inst = instance(&[(10, 0.9999)]);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::None);
        let single = |id: usize, pay: f64| {
            Request::new(
                RequestId(id),
                VnfTypeId(1),
                rel(0.9),
                0,
                2,
                pay,
                Horizon::new(10),
            )
            .unwrap()
        };
        let mut admitted = 0;
        for i in 0..30 {
            if alg.decide_single(&single(i, 4.0)).is_some() {
                admitted += 1;
            }
        }
        assert!(admitted > 0 && admitted < 30, "{admitted}");
        assert_eq!(alg.ledger().max_overflow(), 0.0);
        assert!(alg.revenue() > 0.0);
        // A chain now contends with the singles' usage and prices.
        let r = alg.decide_chain(&chain(0, vec![1, 5], 0.9, 0.1));
        assert!(r.is_err());
    }

    #[test]
    fn trace_events_cover_admits_and_rejects() {
        let inst = instance(&[(30, 0.9999), (30, 0.999)]);
        let mut alg = ChainPrimalDual::with_sink(&inst, BackupMode::Shared, RingSink::new(64));
        alg.decide_chain(&chain(0, vec![0, 3], 0.95, 25.0))
            .expect("admitted");
        alg.decide_chain(&chain(1, vec![42], 0.9, 5.0)).unwrap_err();
        let events: Vec<TraceEvent> = alg.into_sink().into_events();
        let decisions: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.kind() == "chain-decision")
            .collect();
        assert_eq!(decisions.len(), 2);
        // Admit: stage dual costs sum to the total; paths sum to the
        // recorded latency.
        let TraceEvent::ChainDecision(d) = decisions[0] else {
            panic!()
        };
        let ChainOutcome::Admit {
            dual_cost,
            latency,
            stages,
            ..
        } = &d.outcome
        else {
            panic!("expected admit: {d:?}")
        };
        let sum: f64 = stages.iter().map(|s| s.dual_cost).sum();
        assert!((sum - dual_cost).abs() <= 1e-9 * dual_cost.abs().max(1.0));
        let path_sum: f64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ChainPath {
                    chain: 0, latency, ..
                } => Some(*latency),
                _ => None,
            })
            .sum();
        assert!((path_sum - latency).abs() < 1e-12);
        // Reject carries a reason.
        let TraceEvent::ChainDecision(d1) = decisions[1] else {
            panic!()
        };
        assert!(matches!(
            d1.outcome,
            ChainOutcome::Reject {
                reason: ChainRejectReason::UnknownVnf,
                ..
            }
        ));
    }

    #[test]
    fn greedy_prefers_reliable_cloudlet_and_respects_capacity() {
        let inst = instance(&[(20, 0.99), (20, 0.9999)]);
        let mut g = ChainGreedy::new(&inst);
        let p = g.decide_chain(&chain(0, vec![1, 8], 0.9, 1.0)).unwrap();
        assert_eq!(p.stages[0].cloudlet, CloudletId(1));
        assert_eq!(p.segments.len(), 2);
        // Saturate: capacity never violated, failures classified.
        let mut saw_capacity = false;
        for i in 1..60 {
            if g.decide_chain(&chain(i, vec![1, 8], 0.9, 1.0))
                == Err(ChainRejectReason::CapacityGate)
            {
                saw_capacity = true;
            }
        }
        assert!(saw_capacity);
        assert_eq!(g.ledger().max_overflow(), 0.0);
        assert_eq!(g.name(), "chain-greedy");
    }

    #[test]
    fn greedy_classifies_latency_rejection() {
        // Ingress AP without a cloudlet; the only cloudlet is one
        // 1.0-latency hop away, beyond a 0.5 budget.
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let bb = b.add_ap("b");
        b.add_link(a, bb, 1.0).unwrap();
        b.add_cloudlet(bb, 20, rel(0.9999)).unwrap();
        let inst =
            ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(10))
                .unwrap();
        let mut g = ChainGreedy::new(&inst);
        assert_eq!(
            g.decide_chain(&chain_at(0, vec![0], 0.9, 1.0, 0.5, 0)),
            Err(ChainRejectReason::LatencyInfeasible)
        );
        // Same topology: the primal-dual classifies identically.
        let mut pd = ChainPrimalDual::new(&inst, BackupMode::None);
        assert_eq!(
            pd.decide_chain(&chain_at(0, vec![0], 0.9, 1.0, 0.5, 0)),
            Err(ChainRejectReason::LatencyInfeasible)
        );
    }

    #[test]
    fn run_chain_online_collects_schedule() {
        let inst = instance(&[(30, 0.9999)]);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let reqs: Vec<ChainRequest> = (0..10)
            .map(|i| chain(i, vec![i % 10, (i + 3) % 10], 0.9, 9.0))
            .collect();
        let s = run_chain_online(&mut alg, &reqs).unwrap();
        assert_eq!(s.len(), 10);
        assert!(s.admitted_count() > 0);
        assert!(s.revenue() > 0.0);
        assert!(!s.is_empty());
        assert!(s.to_string().contains("admitted"));
        assert!(s.is_admitted(ChainRequestId(0)));
        assert!(s.reject_reason(ChainRequestId(0)).is_none());
        // Non-dense ids rejected.
        let bad = vec![chain(5, vec![0], 0.9, 1.0)];
        assert!(run_chain_online(&mut ChainGreedy::new(&inst), &bad).is_err());
    }

    #[test]
    fn chain_primal_dual_beats_chain_greedy_under_scarcity() {
        let inst = instance(&[(10, 0.9999), (10, 0.999)]);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::None);
        let mut grd = ChainGreedy::new(&inst);
        // Heterogeneous payments; scarcity after a handful of chains.
        let reqs: Vec<ChainRequest> = (0..80)
            .map(|i| {
                let pay = if i % 4 == 0 { 40.0 } else { 2.0 };
                chain(i, vec![1, 8], 0.9, pay)
            })
            .collect();
        let sa = run_chain_online(&mut alg, &reqs).unwrap();
        let sg = run_chain_online(&mut grd, &reqs).unwrap();
        assert!(
            sa.revenue() > sg.revenue(),
            "primal-dual {} vs greedy {}",
            sa.revenue(),
            sg.revenue()
        );
    }

    #[test]
    fn run_chain_online_refuses_a_window_past_the_schedulers_horizon() {
        use mec_workload::WorkloadError;

        // Two cloudlets over four slots; the chain was built against a
        // ten-slot horizon and covers slots 2..=5. Decided unchecked, its
        // slots 4..=5 would be charged to cloudlet 1's slots 0..=1.
        let inst = instance_over(&[(10, 0.999), (10, 0.999)], Horizon::new(4));
        let long = ChainRequest::new(
            ChainRequestId(0),
            vec![VnfTypeId(8)],
            rel(0.9),
            f64::INFINITY,
            NodeId(0),
            2,
            4,
            10.0,
            Horizon::new(10),
        )
        .unwrap();
        let mut schedulers: Vec<Box<dyn ChainScheduler>> = vec![
            Box::new(ChainPrimalDual::new(&inst, BackupMode::None)),
            Box::new(ChainPrimalDual::new(&inst, BackupMode::Dedicated)),
            Box::new(ChainPrimalDual::new(&inst, BackupMode::Shared)),
            Box::new(ChainGreedy::new(&inst)),
        ];
        for s in &mut schedulers {
            let err = run_chain_online(s.as_mut(), std::slice::from_ref(&long)).unwrap_err();
            assert_eq!(
                err,
                VnfrelError::Workload(WorkloadError::WindowOutsideHorizon {
                    arrival: 2,
                    duration: 4,
                    horizon: 4,
                }),
                "{}",
                s.name()
            );
            assert!(
                s.ledger().used_grid().iter().all(|&u| u == 0.0),
                "{} charged {:?}",
                s.name(),
                s.ledger().used_grid()
            );
        }
    }

    /// The route loop as it was before it stopped at the first route
    /// that cannot win: every route is evaluated. Test-only reference
    /// for [`ChainPrimalDual::best_route`]. `skipped` is set to the
    /// number of routes the stop leaves unevaluated.
    fn best_route_unpruned<S: TraceSink>(
        alg: &mut ChainPrimalDual<'_, S>,
        request: &ChainRequest,
        dp: usize,
        routes: Range<usize>,
        skipped: &mut usize,
    ) -> Result<(), ChainRejectReason> {
        let mut have_best = false;
        let mut saw_capacity_fail = false;
        let mut stop = None;
        for route in routes.clone() {
            if stop.is_none()
                && have_best
                && alg.scratch.arena[route].cost >= alg.scratch.best.dual_cost
            {
                stop = Some(route);
            }
            match alg.evaluate(request, dp, route) {
                Ok(()) => {
                    let Scratch { current, best, .. } = &mut alg.scratch;
                    if !have_best || current.dual_cost < best.dual_cost {
                        assert!(stop.is_none(), "route {route} won past the stop");
                        std::mem::swap(current, best);
                        have_best = true;
                    }
                }
                Err(EvalFail::Capacity) => saw_capacity_fail = true,
                Err(EvalFail::Reliability) => {}
            }
        }
        *skipped = stop.map_or(0, |s| routes.end - s);
        if !have_best {
            let reason = if saw_capacity_fail {
                ChainRejectReason::CapacityGate
            } else {
                ChainRejectReason::ReliabilityInfeasible
            };
            return Err(reason);
        }
        Ok(())
    }

    /// Everything a decision can change, in a comparable form: ledger
    /// and price grids by bits, and the pool's full state.
    fn state_of<S: TraceSink>(alg: &ChainPrimalDual<'_, S>) -> (Vec<u64>, Vec<u64>, String) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            bits(alg.alg1.ledger.used_grid()),
            bits(alg.alg1.prices.values()),
            format!("{:?}", alg.pool),
        )
    }

    #[test]
    fn route_stop_matches_the_unpruned_loop() {
        use mec_topology::generators::CloudletPlacement;
        use mec_topology::zoo;
        use mec_workload::ChainGenerator;
        use rand::SeedableRng;

        // Pruned routes, payment-test rejects after a stop, admits after
        // a stop.
        let mut coverage = [0usize; 3];
        for seed in 1..=4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let placement = CloudletPlacement {
                fraction: 0.75,
                capacity: (12, 30),
                reliability: (0.99, 0.9999),
            };
            let network = zoo::abilene().into_network(&placement, &mut rng).unwrap();
            let inst =
                ProblemInstance::new(network, VnfCatalog::standard(), Horizon::new(16)).unwrap();
            let chains = ChainGenerator::new(inst.horizon(), inst.network().ap_count())
                .length_band(1, 3)
                .unwrap()
                .reliability_band(0.9, 0.97)
                .unwrap()
                .latency_budget_band(3.0, 12.0)
                .unwrap()
                .payment_rate_band(1.0, 10.0)
                .unwrap()
                .generate(300, inst.catalog(), &mut rng)
                .unwrap();
            for mode in [BackupMode::None, BackupMode::Dedicated, BackupMode::Shared] {
                let mut alg = ChainPrimalDual::with_sink(&inst, mode, RingSink::new(64));
                let mut reference = ChainPrimalDual::with_sink(&inst, mode, RingSink::new(64));
                for c in &chains {
                    let got = alg.decide_chain(c);
                    let mut skipped = 0;
                    let want = reference.decide_chain_by(c, |alg, request, dp, routes| {
                        best_route_unpruned(alg, request, dp, routes, &mut skipped)
                    });
                    let at = format!("seed {seed} {} chain {}", mode.as_str(), c.id().index());
                    assert_eq!(got, want, "{at}");
                    assert_eq!(
                        alg.sink.total_recorded(),
                        reference.sink.total_recorded(),
                        "{at}"
                    );
                    assert!(alg.sink.events().eq(reference.sink.events()), "{at}");
                    assert!(state_of(&alg) == state_of(&reference), "{at}");
                    if skipped > 0 {
                        coverage[0] += skipped;
                        match want {
                            Err(ChainRejectReason::PaymentTest) => coverage[1] += 1,
                            Ok(_) => coverage[2] += 1,
                            Err(_) => {}
                        }
                    }
                }
            }
        }
        assert!(coverage.iter().all(|&n| n > 100), "{coverage:?}");
    }
}
