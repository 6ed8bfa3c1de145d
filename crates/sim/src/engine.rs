use std::collections::VecDeque;
use std::time::Instant;

use mec_obs::{NoopSink, TraceEvent, TraceSink};
use mec_topology::{CloudletId, Reliability};
use mec_workload::{Request, RequestId, TimeSlot};
use vnfrel::reliability::onsite_availability;
use vnfrel::{
    validate_schedule, CapacityLedger, Decision, OnlineScheduler, Placement, ProblemInstance,
    Schedule, Scheme, ValidationReport,
};

use crate::audit::{AuditReport, Auditor};
use crate::fault::{DomainEvent, FailureEvent, FailureProcess};
use crate::metrics::{RunMetrics, SlaRecord, SlaReport, SlotStats};
use crate::obs::EngineMetrics;
use crate::recovery::{self, RecoveryPolicy};
use crate::SimError;

/// How requests arriving in the *same* slot are ordered before being
/// offered to the scheduler.
///
/// The paper's model is strictly one-by-one ([`IntraSlotOrder::Arrival`]).
/// A real hypervisor, however, sees a whole slot's batch at once and may
/// sort it — a mild, realistic form of lookahead that the ordering
/// ablation quantifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraSlotOrder {
    /// Arrival (id) order — the paper's online model.
    #[default]
    Arrival,
    /// Largest payment first.
    PaymentDescending,
    /// Largest payment per unit-slot of demand first (`pay/(c·d)`).
    DensityDescending,
}

impl IntraSlotOrder {
    /// What a slot's batch is sorted by, largest first and ties in id
    /// order; `None` for arrival order, which needs no sort.
    fn sort_key(self) -> Option<fn(&ProblemInstance, &Request) -> f64> {
        match self {
            IntraSlotOrder::Arrival => None,
            IntraSlotOrder::PaymentDescending => Some(|_, r| r.payment()),
            IntraSlotOrder::DensityDescending => Some(|instance, r| {
                let c = instance.catalog().get(r.vnf()).map_or(1, |v| v.compute());
                r.payment() / (c as f64 * r.duration() as f64)
            }),
        }
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-request decisions.
    pub schedule: Schedule,
    /// Aggregate statistics.
    pub metrics: RunMetrics,
    /// Independent feasibility check of the schedule.
    pub validation: ValidationReport,
    /// Per-slot arrival/admission/active counters (the fault counters
    /// stay zero).
    pub timeline: Vec<SlotStats>,
}

/// Knobs of the graceful-degradation layer
/// (the `degradation` argument of [`Simulation::run_faulted`]).
///
/// The layer adds three mechanisms on top of a [`RecoveryPolicy`]:
///
/// * **Degraded-mode admission headroom** — while any failure domain is
///   down (or a cascade outage is active), fresh admissions that would
///   push a hosting cloudlet's committed load above
///   `(1 − headroom) · capacity` in any slot of their window are
///   overturned into rejections, keeping `headroom` of every cloudlet
///   free for recovery re-placements.
/// * **Revenue-aware load shedding** — when a re-placement attempt finds
///   no room, retained requests with *strictly lower* payment density
///   (`pay / (duration · demand)`) are evicted in ascending density
///   order until the re-placement fits or no cheaper victim remains.
///   Evicted requests accrue downtime (and thus SLA refunds) for the
///   rest of their window.
/// * **Bounded retry with exponential backoff** — each failure episode
///   allows at most `max_retries` re-placement attempts, spaced
///   `backoff_base · 2^(attempt−1)` slots apart, so a hopeless request
///   stops hammering the ledger.
///
/// With [`DegradationConfig::audit`] the engine additionally re-verifies
/// its books after every slot (see [`crate::audit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Fraction of every cloudlet's capacity reserved while degraded.
    pub headroom: f64,
    /// Re-placement attempts allowed per failure episode.
    pub max_retries: usize,
    /// Base retry spacing in slots; attempt `k` waits
    /// `backoff_base · 2^(k−1)` slots after failing.
    pub backoff_base: usize,
    /// Enables the revenue-aware load shedder.
    pub shed: bool,
    /// Runs the invariant auditor each slot, attaching an
    /// [`AuditReport`] to the run report.
    pub audit: bool,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            headroom: 0.1,
            max_retries: 4,
            backoff_base: 1,
            shed: true,
            audit: true,
        }
    }
}

impl DegradationConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] when the headroom leaves `[0, 1)`
    /// or a retry knob is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.headroom.is_finite() || !(0.0..1.0).contains(&self.headroom) {
            return Err(SimError::Mismatch("degradation headroom must be in [0, 1)"));
        }
        if self.max_retries == 0 {
            return Err(SimError::Mismatch(
                "degradation must allow at least one retry",
            ));
        }
        if self.backoff_base == 0 {
            return Err(SimError::Mismatch(
                "degradation backoff base must be at least one slot",
            ));
        }
        Ok(())
    }
}

/// Counters of the graceful-degradation layer over one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationStats {
    /// Slots spent in degraded mode (a domain or cascade outage active).
    pub degraded_slots: usize,
    /// Admissions overturned by the degraded-mode headroom reserve.
    pub vetoed_admissions: usize,
    /// Requests evicted by the load shedder.
    pub evictions: usize,
    /// Secondary (cascade) outages that fired.
    pub cascades: usize,
    /// Failure episodes that exhausted their retry budget.
    pub retries_exhausted: usize,
}

/// Result of one fault-aware run ([`Simulation::run_faulted`]).
///
/// There is no [`ValidationReport`] here: the static feasibility checker
/// assumes placements persist over their full window, which dynamic
/// faults deliberately break. Capacity consistency is instead maintained
/// online through [`CapacityLedger::release`](vnfrel::CapacityLedger::release).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunReport {
    /// Admission-time decisions (recovery never rewrites these).
    pub schedule: Schedule,
    /// Aggregate statistics of the admission run.
    pub metrics: RunMetrics,
    /// Per-request SLA accounting: downtime, repair latency, refunds.
    pub sla: SlaReport,
    /// Per-slot counters including fault/recovery activity.
    pub timeline: Vec<SlotStats>,
    /// The recovery policy the run used.
    pub policy: RecoveryPolicy,
    /// Invariant-auditor findings, when auditing was enabled
    /// ([`DegradationConfig::audit`]).
    pub audit: Option<AuditReport>,
    /// Degradation-layer counters, when the run was given a
    /// [`DegradationConfig`].
    pub degradation: Option<DegradationStats>,
}

/// Live placement state of one admitted request that was touched.
pub(crate) struct LiveReq<'r> {
    pub(crate) request: &'r Request,
    /// Surviving instances per hosting cloudlet index.
    pub(crate) sites: Vec<(usize, u32)>,
    /// Computing units one instance consumes per slot.
    pub(crate) per_instance: f64,
    /// Reliability of the request's VNF type.
    pub(crate) vnf_rel: Reliability,
    /// Slot of the unrecovered failure, `None` while the placement holds.
    pub(crate) down_since: Option<TimeSlot>,
    /// The SLA record being kept; an evicted request stays down for good.
    sla: SlaRecord,
    /// Re-placement attempts spent on the current failure episode.
    episode_attempts: usize,
    /// Earliest slot the next re-placement attempt may run (backoff).
    retry_at: TimeSlot,
}

impl<'r> LiveReq<'r> {
    /// `request` holding its admitted placement, with a clean SLA record.
    pub(crate) fn new(instance: &ProblemInstance, request: &'r Request, p: &Placement) -> Self {
        let vnf = instance.catalog().get(request.vnf());
        let vnf = vnf.expect("Simulation::new checked every request's VNF type");
        LiveReq {
            request,
            sites: sites(p).collect(),
            per_instance: vnf.compute() as f64,
            vnf_rel: vnf.reliability(),
            down_since: None,
            sla: clean_record(request),
            episode_attempts: 0,
            retry_at: 0,
        }
    }

    /// Position in `sites` of the site on cloudlet `j`.
    fn site_on(&self, j: usize) -> Option<usize> {
        self.sites.iter().position(|&(c, _)| c == j)
    }

    /// Returns to the ledger what `sites` (of this request) hold from
    /// slot `t` to the end of the window.
    fn release(
        &self,
        ledger: &mut CapacityLedger,
        sites: &[(usize, u32)],
        t: TimeSlot,
    ) -> Result<(), SimError> {
        for &(j, n) in sites {
            let amount = f64::from(n) * self.per_instance;
            ledger.release(CloudletId(j), t..=self.request.end_slot(), amount)?;
        }
        Ok(())
    }

    /// Releases every surviving site from `t` on and marks the request
    /// down since `t`.
    fn tear_down(&mut self, ledger: &mut CapacityLedger, t: TimeSlot) -> Result<(), SimError> {
        self.release(ledger, &self.sites, t)?;
        self.sites.clear();
        self.down_since = Some(t);
        Ok(())
    }
}

/// Instances per hosting cloudlet index of a placement.
fn sites(placement: &Placement) -> impl Iterator<Item = (usize, u32)> + '_ {
    let (cloudlets, n) = match placement {
        Placement::OnSite {
            cloudlet,
            instances,
        } => (std::slice::from_ref(cloudlet), *instances),
        Placement::OffSite { cloudlets } => (&cloudlets[..], 1),
    };
    cloudlets.iter().map(move |c| (c.index(), n))
}

/// The SLA record of a request no fault has touched.
fn clean_record(r: &Request) -> SlaRecord {
    SlaRecord {
        request: r.id(),
        payment: r.payment(),
        duration: r.duration(),
        downtime_slots: 0,
        failures: 0,
        recovery_attempts: 0,
        recoveries: 0,
        repair_latency_slots: 0,
        unrecovered: false,
        evicted: false,
    }
}

/// Records a trace event, building it only when the sink listens.
#[inline]
fn emit<K: TraceSink>(sink: &mut K, event: impl FnOnce() -> TraceEvent) {
    if K::ENABLED {
        sink.record(event());
    }
}

/// Availability of whatever instances survive, generalizing Eq. 3 and
/// Eq. 10: each hosting cloudlet `j` with `n_j` instances contributes an
/// independent branch `A_j = r(c_j)·(1 − (1 − r_f)^{n_j})`, and the
/// request is served while any branch is (`1 − Π (1 − A_j)`). A pure
/// on-site placement reduces to Eq. 3, a pure off-site one to Eq. 10,
/// and mixed states (partially killed placements, recoveries under a
/// different scheme) interpolate between them.
pub(crate) fn surviving_availability(
    instance: &ProblemInstance,
    vnf_rel: Reliability,
    sites: &[(usize, u32)],
) -> f64 {
    let mut fail = 1.0;
    for &(j, n) in sites {
        let rel = instance
            .network()
            .cloudlet(CloudletId(j))
            .expect("live site references a known cloudlet")
            .reliability();
        fail *= 1.0 - onsite_availability(vnf_rel, rel, n);
    }
    1.0 - fail
}

/// A slot-stepped simulation of the online admission process.
///
/// Requests are replayed in discrete time: at the beginning of each slot
/// the requests arriving in that slot are offered to the scheduler one by
/// one (the hypervisor model of Section III-B). The engine never peeks at
/// future arrivals, so any [`OnlineScheduler`] run through it experiences
/// a genuinely online stream.
///
/// # Example
///
/// ```
/// # use mec_sim::Simulation;
/// # use vnfrel::{ProblemInstance, onsite::{OnsitePrimalDual, CapacityPolicy}};
/// # use mec_topology::{NetworkBuilder, Reliability};
/// # use mec_workload::{VnfCatalog, RequestGenerator, Horizon};
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let ap = b.add_ap("edge");
/// b.add_cloudlet(ap, 60, Reliability::new(0.999)?)?;
/// let inst = ProblemInstance::new(b.build()?, VnfCatalog::standard(), Horizon::new(12))?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let reqs = RequestGenerator::new(inst.horizon()).generate(30, inst.catalog(), &mut rng)?;
/// let sim = Simulation::new(&inst, &reqs)?;
/// let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce)?;
/// let report = sim.run(&mut alg)?;
/// assert!(report.validation.is_feasible());
/// assert_eq!(report.metrics.total, 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulation<'a> {
    instance: &'a ProblemInstance,
    requests: &'a [Request],
}

impl<'a> Simulation<'a> {
    /// Prepares a simulation over a request stream.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`vnfrel::VnfrelError`] when the requests do not
    /// fit the instance (non-dense ids, unknown VNFs, bad windows) and
    /// [`SimError::Mismatch`] when their arrivals decrease: ids are the
    /// arrival order, and every run records decisions in it.
    pub fn new(instance: &'a ProblemInstance, requests: &'a [Request]) -> Result<Self, SimError> {
        instance.check_requests(requests)?;
        if requests.windows(2).any(|w| w[0].arrival() > w[1].arrival()) {
            return Err(SimError::Mismatch("requests must be sorted by arrival"));
        }
        Ok(Simulation { instance, requests })
    }

    /// The instance being simulated.
    pub fn instance(&self) -> &ProblemInstance {
        self.instance
    }

    /// The request stream.
    pub fn requests(&self) -> &[Request] {
        self.requests
    }

    /// Replays the stream through `scheduler` in arrival order and
    /// validates the result: [`Simulation::run_ordered`] at its defaults.
    ///
    /// # Errors
    ///
    /// Propagates validation errors; scheduler decisions themselves are
    /// infallible.
    pub fn run<S: OnlineScheduler + ?Sized>(
        &self,
        scheduler: &mut S,
    ) -> Result<RunReport, SimError> {
        self.run_ordered(scheduler, IntraSlotOrder::Arrival, None)
    }

    /// [`Simulation::run_faulted`]'s loop over a trace with no events,
    /// then [`validate_schedule`]. Each slot's batch of arrivals is
    /// reordered by `order` before being offered to the scheduler, and
    /// engine-side metrics are recorded into `metrics` when given: a
    /// `decide()` wall-clock latency histogram and, at the end of the
    /// run, one mean-utilization gauge per cloudlet. `None` reads no
    /// clock.
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn run_ordered<S: OnlineScheduler + ?Sized>(
        &self,
        scheduler: &mut S,
        order: IntraSlotOrder,
        metrics: Option<&EngineMetrics<'_>>,
    ) -> Result<RunReport, SimError> {
        let (no_faults, mut sink) = (FailureProcess::empty(), NoopSink);
        let run = FaultRun::new(self, scheduler, &no_faults, None, &mut sink);
        let run = run.replay(RecoveryPolicy::None, order, metrics)?;
        let scheme = run.scheduler.scheme();
        let validation = validate_schedule(self.instance, self.requests, &run.schedule, scheme)?;
        if let Some(m) = metrics {
            let ledger = run.scheduler.ledger();
            let slots = self.instance.horizon().len().max(1) as f64;
            for j in 0..m.cloudlet_count().min(ledger.cloudlet_count()) {
                let cid = CloudletId(j);
                let cap = ledger.capacity(cid);
                let mean = if cap > 0.0 {
                    // Folded from +0.0: `sum()` of an empty prefix is -0.0,
                    // which an untouched cloudlet's gauge would print.
                    ledger.charged_row(cid).iter().fold(0.0, |sum, u| sum + u) / (cap * slots)
                } else {
                    0.0
                };
                m.set_utilization(j, mean);
            }
        }
        Ok(RunReport {
            metrics: run.metrics(),
            schedule: run.schedule,
            validation,
            timeline: run.timeline,
        })
    }

    /// Replays the stream through `scheduler` while the outage trace in
    /// `failures` unfolds, reacting online with `policy`.
    ///
    /// An admitted request is *untouched* — a count in an expiry ring and
    /// an id in a list, visited by no step — until a take-down or an
    /// instance kill hits a cloudlet it sits on (`touch`) or it is
    /// admitted onto a down cloudlet; only then does it get its sites and
    /// SLA record. With the degradation layer on, whose auditor and
    /// shedder weigh every live request, admissions are touched at once.
    /// Every step walks only the touched requests whose window has not
    /// ended (the *active set*, in id order), so with no fault pending a
    /// slot costs O(1) beyond its arrivals. Each slot opens (`expire`)
    /// and runs nine steps, one private function each:
    ///
    /// 1. **Lift cascades** (`lift_cascades`) — cascade outages whose
    ///    forced window ended are lifted, unless the base process still
    ///    holds the cloudlet down.
    /// 2. **Events** (`apply_events`) — this slot's [`FailureEvent`]s are
    ///    applied. A crashed cloudlet takes every instance hosted there
    ///    down with it (`take_down`); the dead placement's remaining
    ///    capacity is [released](vnfrel::CapacityLedger::release) so
    ///    survivors and future arrivals can reuse it. An
    ///    [`FailureEvent::InstanceKill`] resolves its selector against
    ///    the instances actually hosted on that cloudlet (in request-id
    ///    order) and kills exactly one (`kill_instance`).
    /// 3. **Cascade check** (`cascade_check`) — in a slot where a domain
    ///    crashed, a surviving cloudlet loaded above the cascade
    ///    threshold may fail too, and is taken down the same way.
    /// 4. **Degraded tracking** (`track_degraded`) — degraded mode holds
    ///    while any failure domain or cascade outage is unrepaired.
    /// 5. **Arrivals** (`offer_arrivals`) — the slot's requests are
    ///    offered to the (outage-blind) scheduler one by one, exactly as
    ///    in [`Simulation::run`]; sites that an admission places on a
    ///    currently-down cloudlet are stripped and refunded immediately.
    /// 6. **Violation detection** (`detect_breaches`) — every active
    ///    request's surviving placement is re-checked against its
    ///    requirement `R_i` (an untouched one holds the scheduler's own
    ///    placement, which meets it). A placement that fell below `R_i`
    ///    is torn down entirely (its remaining charges released) and the
    ///    request is marked down.
    /// 7. **Recovery** (`recover`) — each down request is handed to
    ///    `policy`, which may re-place it on the up cloudlets for the
    ///    *rest* of its window, charging the ledger like a fresh
    ///    admission. Recovery within the failure slot itself counts as
    ///    zero downtime.
    /// 8. **Accounting** (`account`) — every active request still down
    ///    after recovery accrues one SLA-violated request-slot.
    /// 9. **Audit** (`audit`) — with [`DegradationConfig::audit`], the
    ///    invariant auditor checks the end-of-slot books.
    ///
    /// The admission-time [`Schedule`] (and thus gross revenue) is
    /// unaffected by faults; the SLA ledger tracks what part of that
    /// revenue survives downtime refunds.
    ///
    /// `degradation = Some(config)` switches the graceful-degradation
    /// layer on: degraded-mode admission headroom while a failure domain
    /// (or cascade outage) is down (step 5), revenue-aware load shedding
    /// (`shed_one`) when re-placements find no room and bounded retries
    /// with exponential backoff per failure episode (step 7), and the
    /// audit of step 9. See [`DegradationConfig`] for the knobs.
    /// Cascade outages replay whenever the failure stream carries a
    /// [`CascadeConfig`](crate::CascadeConfig), degradation or not, so
    /// the same trace stresses every policy identically.
    ///
    /// `sink` receives one [`TraceEvent`] per fault-lifecycle transition:
    /// [`TraceEvent::OutageStart`]/[`TraceEvent::OutageEnd`] when a
    /// cloudlet crashes or is repaired, [`TraceEvent::InstanceKill`] when
    /// an instance-kill resolves to a victim request,
    /// [`TraceEvent::SlaBreach`] when a placement falls below `R_i`,
    /// [`TraceEvent::Recovery`] for every recovery attempt (successful or
    /// not, with the re-placement cloudlets on success), and from the
    /// degradation layer [`TraceEvent::Eviction`],
    /// [`TraceEvent::DegradedEnter`] / [`TraceEvent::DegradedExit`],
    /// [`TraceEvent::Cascade`], [`TraceEvent::DomainOutageStart`] /
    /// [`TraceEvent::DomainOutageEnd`] and
    /// [`TraceEvent::AuditViolation`]. Decision events are *not* emitted
    /// here — they belong to the scheduler, which carries its own sink
    /// (see `with_sink` on the scheduler types); share one sink between
    /// both via `Rc<RefCell<_>>` to get a single interleaved stream.
    /// Pass `&mut NoopSink` for no tracing: every hook is behind
    /// `K::ENABLED` and compiles away.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] when the failure stream was
    /// generated for a different horizon or topology or the degradation
    /// knobs are invalid, and propagates ledger release failures (which
    /// would indicate double-release bookkeeping bugs).
    pub fn run_faulted<S: OnlineScheduler + ?Sized, K: TraceSink>(
        &self,
        scheduler: &mut S,
        failures: &FailureProcess,
        policy: RecoveryPolicy,
        degradation: Option<&DegradationConfig>,
        sink: &mut K,
    ) -> Result<FaultRunReport, SimError> {
        let m = self.instance.network().cloudlets().count();
        if failures.horizon_len() != self.instance.horizon().len() {
            return Err(SimError::Mismatch(
                "failure stream horizon does not match the instance",
            ));
        }
        if failures.iter().any(|e| e.cloudlet() >= m) {
            return Err(SimError::Mismatch(
                "failure stream references unknown cloudlet",
            ));
        }
        if (0..failures.domain_count()).any(|d| failures.domain_members(d).iter().any(|&j| j >= m))
        {
            return Err(SimError::Mismatch(
                "failure stream domain references unknown cloudlet",
            ));
        }
        if let Some(cfg) = degradation {
            cfg.validate()?;
        }
        let run = FaultRun::new(self, scheduler, failures, degradation, sink);
        let run = run.replay(policy, IntraSlotOrder::Arrival, None)?;
        Ok(FaultRunReport {
            metrics: run.metrics(),
            sla: run.sla_report(),
            schedule: run.schedule,
            timeline: run.timeline,
            policy,
            audit: run.auditor.map(Auditor::finish),
            degradation: degradation.map(|_| run.deg_stats),
        })
    }
}

/// State of one replay: the slot loop every run entry point shares.
/// Each numbered step of [`Simulation::run_faulted`]'s documentation is
/// one method here.
struct FaultRun<'r, S: ?Sized, K> {
    sim: &'r Simulation<'r>,
    scheduler: &'r mut S,
    failures: &'r FailureProcess,
    degradation: Option<&'r DegradationConfig>,
    sink: &'r mut K,
    /// Effective cloudlet state: base process AND cascade overlay.
    up: Vec<bool>,
    /// The trace's net transitions alone.
    base_up: Vec<bool>,
    cascade_until: Vec<Option<TimeSlot>>,
    domain_down: Vec<bool>,
    /// Cascades in force plus domains down: degraded while non-zero.
    holds: usize,
    degraded: bool,
    deg_stats: DegradationStats,
    auditor: Option<Auditor>,
    /// Admitted requests ending in each slot from the current one on.
    expiring: VecDeque<usize>,
    /// The untouched admitted requests, in id order; one whose window
    /// ended leaves at the front, or when `touch` walks the list.
    pending: VecDeque<RequestId>,
    /// The *active set*: touched requests whose window has not ended, in
    /// id order. Every per-slot step walks it.
    live: Vec<LiveReq<'r>>,
    /// Touched requests whose window ended, kept for the SLA records.
    done: Vec<LiveReq<'r>>,
    schedule: Schedule,
    timeline: Vec<SlotStats>,
}

impl<'r, S: OnlineScheduler + ?Sized, K: TraceSink> FaultRun<'r, S, K> {
    fn new(
        sim: &'r Simulation<'r>,
        scheduler: &'r mut S,
        failures: &'r FailureProcess,
        degradation: Option<&'r DegradationConfig>,
        sink: &'r mut K,
    ) -> Self {
        let m = sim.instance.network().cloudlets().count();
        FaultRun {
            sim,
            scheduler,
            failures,
            degradation,
            sink,
            up: vec![true; m],
            base_up: vec![true; m],
            cascade_until: vec![None; m],
            domain_down: vec![false; failures.domain_count()],
            holds: 0,
            degraded: false,
            deg_stats: DegradationStats::default(),
            auditor: degradation.filter(|cfg| cfg.audit).map(|_| Auditor::new(m)),
            expiring: VecDeque::new(),
            pending: VecDeque::new(),
            live: Vec::new(),
            done: Vec::new(),
            schedule: Schedule::new(),
            timeline: Vec::with_capacity(sim.instance.horizon().len()),
        }
    }

    /// The slot loop.
    fn replay(
        mut self,
        policy: RecoveryPolicy,
        order: IntraSlotOrder,
        metrics: Option<&EngineMetrics<'_>>,
    ) -> Result<Self, SimError> {
        let recovery_scheme = policy.scheme_for(self.scheduler.scheme());
        for t in self.sim.instance.horizon().slots() {
            self.expire(t);
            if let Some(a) = self.auditor.as_mut() {
                a.begin_slot(t);
            }
            self.lift_cascades(t);
            self.apply_events(t)?;
            self.cascade_check(t)?;
            self.track_degraded(t);
            self.offer_arrivals(t, order, metrics)?;
            self.detect_breaches(t)?;
            if let Some(scheme) = recovery_scheme {
                self.recover(t, scheme)?;
            }
            self.account(t);
            self.audit(t);
        }
        Ok(self)
    }

    /// Opens slot `t`: the requests whose window ended at `t - 1` leave,
    /// and the rest are active in `t` too.
    fn expire(&mut self, t: TimeSlot) {
        let carried = self.timeline.last().map_or(0, |s| s.active);
        self.timeline.push(SlotStats::default());
        self.timeline[t].active = carried - self.expiring.pop_front().unwrap_or(0);
        let (pending, requests) = (&mut self.pending, self.sim.requests);
        let ended = |id: &RequestId| requests[id.index()].end_slot() < t;
        while pending.front().is_some_and(ended) {
            pending.pop_front();
        }
        if !self.live.is_empty() {
            let ended = self.live.extract_if(.., |lr| lr.request.end_slot() < t);
            self.done.extend(ended);
        }
    }

    /// Adds a touched request to the active set, at its id's place.
    fn activate(&mut self, lr: LiveReq<'r>) {
        let id = lr.request.id();
        let at = self.live.partition_point(|a| a.request.id() < id);
        self.live.insert(at, lr);
    }

    /// A fault is about to change what cloudlet `j` holds: every
    /// untouched request with a site there gets its live state first.
    fn touch(&mut self, j: usize, t: TimeSlot) {
        let (instance, requests, schedule) = (self.sim.instance, self.sim.requests, &self.schedule);
        let mut touched = Vec::new();
        self.pending.retain(|&id| {
            let (r, p) = (&requests[id.index()], schedule.placement(id));
            let p = p.expect("pending requests were admitted");
            let hit = sites(p).any(|(c, _)| c == j);
            if hit && t <= r.end_slot() {
                touched.push(LiveReq::new(instance, r, p));
            }
            !hit && t <= r.end_slot()
        });
        for lr in touched {
            self.activate(lr);
        }
    }

    /// Aggregate statistics at the end of the run.
    fn metrics(&self) -> RunMetrics {
        let ledger = self.scheduler.ledger();
        RunMetrics {
            algorithm: self.scheduler.name().to_string(),
            revenue: self.schedule.revenue(),
            admitted: self.schedule.admitted_count(),
            total: self.sim.requests.len(),
            mean_utilization: ledger.mean_utilization(),
            max_overflow: ledger.max_overflow(),
            dual_bound: None,
        }
    }

    /// One SLA record per admitted request, in id order; an untouched
    /// request's is clean.
    fn sla_report(&self) -> SlaReport {
        let (requests, schedule) = (self.sim.requests, &self.schedule);
        let admitted = requests.iter().filter(|r| schedule.is_admitted(r.id()));
        let mut records: Vec<SlaRecord> = admitted.map(clean_record).collect();
        for lr in self.live.iter().chain(&self.done) {
            let k = records.binary_search_by_key(&lr.request.id(), |r| r.request);
            records[k.expect("touched requests were admitted")] = SlaRecord {
                unrecovered: lr.down_since.is_some(),
                ..lr.sla.clone()
            };
        }
        SlaReport { records }
    }

    /// Cloudlet `j` goes down at `t`: every request with a site there
    /// loses it, and the rest of that site's window is released.
    fn take_down(&mut self, j: usize, t: TimeSlot) -> Result<(), SimError> {
        self.up[j] = false;
        emit(self.sink, || TraceEvent::OutageStart {
            slot: t,
            cloudlet: j,
        });
        self.touch(j, t);
        for lr in &mut self.live {
            if let Some(pos) = lr.site_on(j) {
                let site = lr.sites.remove(pos);
                lr.release(self.scheduler.ledger_mut(), &[site], t)?;
            }
        }
        Ok(())
    }

    /// Cloudlet `j` is back at `t`, if anything was holding it down.
    fn bring_up(&mut self, j: usize, t: TimeSlot) {
        if !self.up[j] {
            self.up[j] = true;
            emit(self.sink, || TraceEvent::OutageEnd {
                slot: t,
                cloudlet: j,
            });
        }
    }

    fn lift_cascades(&mut self, t: TimeSlot) {
        if self.holds == 0 {
            return;
        }
        for j in 0..self.up.len() {
            if matches!(self.cascade_until[j], Some(end) if end <= t) {
                self.cascade_until[j] = None;
                self.holds -= 1;
                if self.base_up[j] {
                    self.bring_up(j, t);
                }
            }
        }
    }

    fn apply_events(&mut self, t: TimeSlot) -> Result<(), SimError> {
        let failures = self.failures;
        // Domain markers first — they carry the shared-risk grouping for
        // tracing and degraded-mode tracking; the matching net
        // per-cloudlet transitions arrive through the event stream itself.
        for de in failures.domain_events_at(t) {
            match *de {
                DomainEvent::Down { domain, .. } => {
                    self.holds +=
                        usize::from(!std::mem::replace(&mut self.domain_down[domain], true));
                    emit(self.sink, || TraceEvent::DomainOutageStart {
                        slot: t,
                        domain,
                        cloudlets: failures.domain_members(domain).to_vec(),
                    });
                }
                DomainEvent::Up { domain, .. } => {
                    self.holds -=
                        usize::from(std::mem::replace(&mut self.domain_down[domain], false));
                    emit(self.sink, || TraceEvent::DomainOutageEnd {
                        slot: t,
                        domain,
                    });
                }
            }
        }
        for e in failures.events_at(t) {
            self.timeline[t].events += 1;
            match *e {
                FailureEvent::CloudletDown { cloudlet: j, .. } => {
                    self.base_up[j] = false;
                    // A cloudlet already held down by a cascade overlay
                    // had its sites released when the cascade fired.
                    if self.up[j] {
                        self.take_down(j, t)?;
                    }
                }
                FailureEvent::CloudletUp { cloudlet: j, .. } => {
                    self.base_up[j] = true;
                    if self.cascade_until[j].is_none() {
                        self.bring_up(j, t);
                    }
                }
                FailureEvent::InstanceKill {
                    cloudlet: j,
                    selector,
                    ..
                } => {
                    if self.up[j] {
                        self.kill_instance(j, selector, t)?;
                    }
                }
            }
        }
        if let Some(a) = self.auditor.as_mut() {
            a.apply_events(failures.events_at(t));
        }
        Ok(())
    }

    /// Kills the `selector`-th (modulo their count) of the instances the
    /// live requests host on cloudlet `j`, counted in request-id order.
    fn kill_instance(&mut self, j: usize, selector: u64, t: TimeSlot) -> Result<(), SimError> {
        self.touch(j, t);
        let on_j = |lr: &LiveReq| lr.site_on(j).map_or(0, |pos| u64::from(lr.sites[pos].1));
        let total: u64 = self.live.iter().map(on_j).sum();
        if total == 0 {
            return Ok(());
        }
        let mut victim = selector % total;
        for lr in &mut self.live {
            let n = on_j(lr);
            if victim >= n {
                victim -= n;
                continue;
            }
            let pos = lr.site_on(j).expect("the victim has an instance on j");
            lr.sites[pos].1 -= 1;
            if lr.sites[pos].1 == 0 {
                lr.sites.remove(pos);
            }
            lr.release(self.scheduler.ledger_mut(), &[(j, 1)], t)?;
            emit(self.sink, || TraceEvent::InstanceKill {
                slot: t,
                cloudlet: j,
                request: lr.sla.request.index(),
            });
            break;
        }
        Ok(())
    }

    /// The uniform deciding each (slot, cloudlet) was pre-drawn at
    /// generation time, so replays stay seed-deterministic.
    fn cascade_check(&mut self, t: TimeSlot) -> Result<(), SimError> {
        let failures = self.failures;
        let domain_crashed = failures
            .domain_events_at(t)
            .iter()
            .any(|e| matches!(e, DomainEvent::Down { .. }));
        let (Some(cc), true) = (failures.cascade(), domain_crashed) else {
            return Ok(());
        };
        for j in 0..self.up.len() {
            if !self.up[j] {
                continue;
            }
            let ledger = self.scheduler.ledger();
            let cap = ledger.capacity(CloudletId(j));
            if cap <= 0.0 {
                continue;
            }
            let util = ledger.used(CloudletId(j), t) / cap;
            if util <= cc.utilization_threshold || failures.cascade_draw(t, j) >= cc.hazard {
                continue;
            }
            // Up, so no cascade holds it yet.
            self.cascade_until[j] = Some(t + cc.outage_slots);
            self.holds += 1;
            self.deg_stats.cascades += 1;
            self.timeline[t].events += 1;
            if let Some(a) = self.auditor.as_mut() {
                a.note_cascade(j, t + cc.outage_slots);
            }
            emit(self.sink, || TraceEvent::Cascade {
                slot: t,
                cloudlet: j,
                utilization: util,
            });
            self.take_down(j, t)?;
        }
        Ok(())
    }

    fn track_degraded(&mut self, t: TimeSlot) {
        if self.degradation.is_none() {
            return;
        }
        let now = self.holds > 0;
        if now != self.degraded {
            self.degraded = now;
            emit(self.sink, || match now {
                true => TraceEvent::DegradedEnter { slot: t },
                false => TraceEvent::DegradedExit { slot: t },
            });
        }
        if self.degraded {
            self.deg_stats.degraded_slots += 1;
        }
    }

    /// Decides the slot's arrivals in `order` and records them in id
    /// order (the Schedule requires dense recording).
    fn offer_arrivals(
        &mut self,
        t: TimeSlot,
        order: IntraSlotOrder,
        metrics: Option<&EngineMetrics<'_>>,
    ) -> Result<(), SimError> {
        let (instance, rest) = (self.sim.instance, &self.sim.requests[self.schedule.len()..]);
        let arrivals = &rest[..rest.iter().take_while(|r| r.arrival() == t).count()];
        let Some(key) = order.sort_key() else {
            // Arrival order is id order is recording order.
            for r in arrivals {
                let decision = self.offer(t, r, metrics)?;
                self.schedule.record(r, decision);
            }
            return Ok(());
        };
        let mut batch: Vec<&Request> = arrivals.iter().collect();
        batch.sort_by(|a, b| {
            key(instance, b)
                .partial_cmp(&key(instance, a))
                .expect("sort keys are finite")
                .then(a.id().cmp(&b.id()))
        });
        let mut decided = Vec::with_capacity(batch.len());
        for r in batch {
            decided.push((r, self.offer(t, r, metrics)?));
        }
        decided.sort_by_key(|(r, _)| r.id());
        for (r, decision) in decided {
            self.schedule.record(r, decision);
        }
        Ok(())
    }

    /// Decides `r` and books the decision: returns it, or the rejection
    /// the degraded-mode headroom overturned it into.
    fn offer(
        &mut self,
        t: TimeSlot,
        r: &'r Request,
        metrics: Option<&EngineMetrics<'_>>,
    ) -> Result<Decision, SimError> {
        let start = metrics.map(|_| Instant::now());
        let decision = self.scheduler.decide(r);
        if let Some((m, start)) = metrics.zip(start) {
            m.observe_decide(start.elapsed().as_secs_f64());
        }
        self.timeline[t].arrivals += 1;
        let Some(p) = decision.placement() else {
            return Ok(decision);
        };
        // Degraded mode overturns admissions that would eat into the
        // recovery headroom on any of their hosting cloudlets.
        if let Some(cfg) = self.degradation.filter(|_| self.degraded) {
            let ledger = self.scheduler.ledger();
            let vetoed = sites(p).any(|(j, _)| {
                let limit = (1.0 - cfg.headroom) * ledger.capacity(CloudletId(j));
                (t..=r.end_slot()).any(|s| ledger.used(CloudletId(j), s) > limit + 1e-9)
            });
            if vetoed {
                let lr = LiveReq::new(self.sim.instance, r, p);
                lr.release(self.scheduler.ledger_mut(), &lr.sites, t)?;
                self.deg_stats.vetoed_admissions += 1;
                return Ok(Decision::Reject);
            }
        }
        self.timeline[t].admitted += 1;
        self.timeline[t].active += 1;
        let ends_in = r.end_slot() - t;
        self.expiring
            .resize(self.expiring.len().max(ends_in + 1), 0);
        self.expiring[ends_in] += 1;
        if self.degradation.is_none() && sites(p).all(|(j, _)| self.up[j]) {
            self.pending.push_back(r.id());
            return Ok(decision);
        }
        // The scheduler is outage-blind: strip (and refund) any site it
        // placed on a cloudlet that is currently down.
        let mut lr = LiveReq::new(self.sim.instance, r, p);
        for &site in lr.sites.iter().filter(|&&(j, _)| !self.up[j]) {
            lr.release(self.scheduler.ledger_mut(), &[site], t)?;
        }
        lr.sites.retain(|&(j, _)| self.up[j]);
        self.activate(lr);
        Ok(decision)
    }

    fn detect_breaches(&mut self, t: TimeSlot) -> Result<(), SimError> {
        for lr in &mut self.live {
            if lr.down_since.is_some() {
                continue;
            }
            let avail = surviving_availability(self.sim.instance, lr.vnf_rel, &lr.sites);
            if avail + 1e-12 < lr.request.reliability_requirement().value() {
                lr.tear_down(self.scheduler.ledger_mut(), t)?;
                lr.sla.failures += 1;
                lr.episode_attempts = 0;
                lr.retry_at = t;
                self.timeline[t].newly_failed += 1;
                emit(self.sink, || TraceEvent::SlaBreach {
                    slot: t,
                    request: lr.sla.request.index(),
                });
            }
        }
        Ok(())
    }

    /// Down requests are attempted in id order. The degradation layer
    /// adds bounded retries with exponential backoff and, when an attempt
    /// finds no room, sheds cheaper requests until the re-placement fits.
    fn recover(&mut self, t: TimeSlot, scheme: Scheme) -> Result<(), SimError> {
        for a in 0..self.live.len() {
            let lr = &mut self.live[a];
            let Some(fail_slot) = lr.down_since.filter(|_| !lr.sla.evicted) else {
                continue;
            };
            if let Some(cfg) = self.degradation {
                if lr.episode_attempts >= cfg.max_retries || t < lr.retry_at {
                    continue;
                }
            }
            lr.sla.recovery_attempts += 1;
            let r = lr.request;
            let replace = |run: &mut Self| {
                recovery::try_replace(
                    run.sim.instance,
                    run.scheduler.ledger_mut(),
                    r,
                    t,
                    &run.up,
                    scheme,
                )
            };
            let mut placed = replace(self);
            if self.degradation.is_some_and(|cfg| cfg.shed) {
                while placed.is_none() && self.shed_one(a, t)? {
                    placed = replace(self);
                }
            }
            let lr = &mut self.live[a];
            match placed {
                Some(p) => {
                    lr.sites = sites(&p).collect();
                    lr.sla.recoveries += 1;
                    lr.sla.repair_latency_slots += t - fail_slot;
                    lr.down_since = None;
                    lr.episode_attempts = 0;
                    lr.retry_at = t;
                    self.timeline[t].recovered += 1;
                }
                None => {
                    if let Some(cfg) = self.degradation {
                        lr.episode_attempts += 1;
                        if lr.episode_attempts >= cfg.max_retries {
                            self.deg_stats.retries_exhausted += 1;
                        } else {
                            let shift = (lr.episode_attempts - 1).min(16) as u32;
                            lr.retry_at = t + cfg.backoff_base.saturating_mul(1usize << shift);
                        }
                    }
                }
            }
            // A request that stays down holds no sites.
            emit(self.sink, || TraceEvent::Recovery {
                slot: t,
                request: lr.sla.request.index(),
                success: lr.down_since.is_none(),
                cloudlets: lr.sites.iter().map(|&(c, _)| c).collect(),
            });
        }
        Ok(())
    }

    /// Evicts the cheapest healthy active request whose payment density
    /// is strictly below that of the recovering `live[a]` (id
    /// tie-break); `false` when no such victim remains.
    fn shed_one(&mut self, a: usize, t: TimeSlot) -> Result<bool, SimError> {
        let density =
            |lr: &LiveReq| lr.sla.payment / (lr.sla.duration as f64 * lr.per_instance).max(1e-12);
        let mine = density(&self.live[a]);
        let mut best: Option<(f64, usize)> = None;
        for (v, lr) in self.live.iter().enumerate() {
            if v == a || lr.down_since.is_some() || lr.sites.is_empty() {
                continue;
            }
            let d = density(lr);
            if d + 1e-12 < mine && best.is_none_or(|b| (d, v) < b) {
                best = Some((d, v));
            }
        }
        let Some((d, v)) = best else {
            return Ok(false);
        };
        let lr = &mut self.live[v];
        lr.tear_down(self.scheduler.ledger_mut(), t)?;
        lr.sla.evicted = true;
        self.deg_stats.evictions += 1;
        self.timeline[t].evicted += 1;
        emit(self.sink, || TraceEvent::Eviction {
            slot: t,
            request: lr.sla.request.index(),
            density: d,
        });
        Ok(true)
    }

    /// A slot spent down is a violated slot.
    fn account(&mut self, t: TimeSlot) {
        for lr in &mut self.live {
            if lr.down_since.is_some() {
                lr.sla.downtime_slots += 1;
                self.timeline[t].violated += 1;
            }
        }
    }

    fn audit(&mut self, t: TimeSlot) {
        let Some(auditor) = self.auditor.as_mut() else {
            return;
        };
        let first = auditor.check_slot(
            t,
            self.sim.instance,
            self.scheduler.ledger(),
            &self.up,
            &self.live,
        );
        for v in auditor.violations_since(first) {
            emit(self.sink, || TraceEvent::AuditViolation {
                slot: t,
                invariant: v.invariant.as_str().to_string(),
                detail: v.detail.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_obs::NoopSink;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestGenerator, RequestId, VnfCatalog, VnfTypeId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};

    fn instance() -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        b.add_link(a, c, 1.0).unwrap();
        b.add_cloudlet(a, 30, Reliability::new(0.999).unwrap())
            .unwrap();
        b.add_cloudlet(c, 30, Reliability::new(0.995).unwrap())
            .unwrap();
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(12)).unwrap()
    }

    #[test]
    fn runs_and_validates() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let reqs = RequestGenerator::new(inst.horizon())
            .generate(50, inst.catalog(), &mut rng)
            .unwrap();
        let sim = Simulation::new(&inst, &reqs).unwrap();
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let report = sim.run(&mut alg).unwrap();
        assert!(report.validation.is_feasible());
        assert_eq!(report.metrics.total, 50);
        assert_eq!(report.schedule.len(), 50);
        // Timeline arrivals sum to the request count.
        let arrivals: usize = report.timeline.iter().map(|s| s.arrivals).sum();
        assert_eq!(arrivals, 50);
        // Active counts are consistent with admitted windows.
        let active: usize = report.timeline.iter().map(|s| s.active).sum();
        let expected: usize = reqs
            .iter()
            .filter(|r| report.schedule.is_admitted(r.id()))
            .map(|r| r.duration())
            .sum();
        assert_eq!(active, expected);
    }

    #[test]
    fn slot_stepping_preserves_arrival_order() {
        let inst = instance();
        // Handcrafted requests across slots: ids dense in arrival order.
        let h = inst.horizon();
        let mk = |id: usize, arrival: usize| {
            Request::new(
                RequestId(id),
                VnfTypeId(1),
                Reliability::new(0.9).unwrap(),
                arrival,
                1,
                2.0,
                h,
            )
            .unwrap()
        };
        let reqs = vec![mk(0, 0), mk(1, 0), mk(2, 3), mk(3, 7)];
        let sim = Simulation::new(&inst, &reqs).unwrap();
        let mut g = OnsiteGreedy::new(&inst);
        let report = sim.run(&mut g).unwrap();
        assert_eq!(report.timeline[0].arrivals, 2);
        assert_eq!(report.timeline[3].arrivals, 1);
        assert_eq!(report.timeline[7].arrivals, 1);
        assert_eq!(report.timeline[1].arrivals, 0);
    }

    #[test]
    fn ordered_runs_cover_all_requests_and_stay_feasible() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let reqs = RequestGenerator::new(inst.horizon())
            .payment_rate_band(1.0, 10.0)
            .unwrap()
            .generate(80, inst.catalog(), &mut rng)
            .unwrap();
        let sim = Simulation::new(&inst, &reqs).unwrap();
        for order in [
            IntraSlotOrder::Arrival,
            IntraSlotOrder::PaymentDescending,
            IntraSlotOrder::DensityDescending,
        ] {
            let mut g = OnsiteGreedy::new(&inst);
            let report = sim.run_ordered(&mut g, order, None).unwrap();
            assert_eq!(report.schedule.len(), 80, "{order:?}");
            assert!(report.validation.is_feasible(), "{order:?}");
        }
        // Arrival order through run_ordered equals plain run.
        let mut a = OnsiteGreedy::new(&inst);
        let ra = sim.run(&mut a).unwrap();
        let mut b = OnsiteGreedy::new(&inst);
        let rb = sim
            .run_ordered(&mut b, IntraSlotOrder::Arrival, None)
            .unwrap();
        assert_eq!(ra.schedule, rb.schedule);
    }

    #[test]
    fn payment_ordering_reorders_same_slot_batch() {
        // Two same-slot requests where only one fits: payment ordering
        // must pick the big payer, arrival ordering the first.
        let inst = {
            let mut b = NetworkBuilder::new();
            let a = b.add_ap("a");
            b.add_cloudlet(a, 1, Reliability::new(0.999).unwrap())
                .unwrap();
            ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(4))
                .unwrap()
        };
        let h = inst.horizon();
        let mk = |id: usize, pay: f64| {
            Request::new(
                RequestId(id),
                VnfTypeId(1), // NAT: compute 1, N=1 here
                Reliability::new(0.9).unwrap(),
                0,
                2,
                pay,
                h,
            )
            .unwrap()
        };
        let reqs = vec![mk(0, 1.0), mk(1, 50.0)];
        let sim = Simulation::new(&inst, &reqs).unwrap();

        let mut g = OnsiteGreedy::new(&inst);
        let arrival = sim.run(&mut g).unwrap();
        assert!(arrival.schedule.is_admitted(RequestId(0)));
        assert!(!arrival.schedule.is_admitted(RequestId(1)));

        let mut g = OnsiteGreedy::new(&inst);
        let paid = sim
            .run_ordered(&mut g, IntraSlotOrder::PaymentDescending, None)
            .unwrap();
        assert!(!paid.schedule.is_admitted(RequestId(0)));
        assert!(paid.schedule.is_admitted(RequestId(1)));
        assert!(paid.metrics.revenue > arrival.metrics.revenue);
    }

    mod faults {
        use super::*;
        use crate::fault::{FailureConfig, FailureEvent, FailureProcess};
        use crate::recovery::RecoveryPolicy;

        /// One request, slots 0..=5: both cloudlets crash in slot 2, and
        /// cloudlet 1 is repaired in slot 3. Schedule-independent — the
        /// request is wiped out wherever it was placed.
        fn outage_trace(h: Horizon) -> FailureProcess {
            FailureProcess::from_events(
                h,
                vec![
                    FailureEvent::CloudletDown {
                        slot: 2,
                        cloudlet: 0,
                    },
                    FailureEvent::CloudletDown {
                        slot: 2,
                        cloudlet: 1,
                    },
                    FailureEvent::CloudletUp {
                        slot: 3,
                        cloudlet: 1,
                    },
                ],
                FailureConfig::default(),
            )
            .unwrap()
        }

        fn one_request(h: Horizon) -> Vec<Request> {
            vec![Request::new(
                RequestId(0),
                VnfTypeId(1),
                Reliability::new(0.9).unwrap(),
                0,
                6,
                10.0,
                h,
            )
            .unwrap()]
        }

        #[test]
        fn outage_without_recovery_accrues_downtime() {
            let inst = instance();
            let reqs = one_request(inst.horizon());
            let sim = Simulation::new(&inst, &reqs).unwrap();
            let trace = outage_trace(inst.horizon());
            let mut g = OnsiteGreedy::new(&inst);
            let report = sim
                .run_faulted(&mut g, &trace, RecoveryPolicy::None, None, &mut NoopSink)
                .unwrap();
            assert!(report.schedule.is_admitted(RequestId(0)));
            let rec = &report.sla.records[0];
            assert_eq!(rec.failures, 1);
            assert_eq!(rec.recovery_attempts, 0);
            assert_eq!(rec.recoveries, 0);
            // Down from slot 2 through the window end (slot 5).
            assert_eq!(rec.downtime_slots, 4);
            assert!(rec.unrecovered);
            assert!((rec.refund() - 10.0 * 4.0 / 6.0).abs() < 1e-12);
            assert_eq!(report.sla.violated_request_slots(), 4);
            assert_eq!(report.timeline[2].newly_failed, 1);
            // The dead placement's remaining capacity was refunded.
            for j in 0..2 {
                for t in 2..6 {
                    assert_eq!(g.ledger().used(mec_topology::CloudletId(j), t), 0.0);
                }
            }
        }

        #[test]
        fn recovery_restores_service_after_repair() {
            let inst = instance();
            let reqs = one_request(inst.horizon());
            let sim = Simulation::new(&inst, &reqs).unwrap();
            let trace = outage_trace(inst.horizon());
            let mut g = OnsiteGreedy::new(&inst);
            let report = sim
                .run_faulted(
                    &mut g,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    None,
                    &mut NoopSink,
                )
                .unwrap();
            let rec = &report.sla.records[0];
            assert_eq!(rec.failures, 1);
            // Slot 2: everything down, attempt fails. Slot 3: cloudlet 1
            // is back, re-placement succeeds.
            assert_eq!(rec.recovery_attempts, 2);
            assert_eq!(rec.recoveries, 1);
            assert_eq!(rec.downtime_slots, 1);
            assert_eq!(rec.repair_latency_slots, 1);
            assert!(!rec.unrecovered);
            assert_eq!(report.sla.violated_request_slots(), 1);
            assert_eq!(report.timeline[3].recovered, 1);
            // Strictly better than no recovery on the same trace.
            let mut g2 = OnsiteGreedy::new(&inst);
            let none = sim
                .run_faulted(&mut g2, &trace, RecoveryPolicy::None, None, &mut NoopSink)
                .unwrap();
            assert!(report.sla.violated_request_slots() < none.sla.violated_request_slots());
            // The replacement landed on the repaired cloudlet 1 for the
            // remaining window (slots 3..=5).
            assert!(g.ledger().used(mec_topology::CloudletId(1), 4) > 0.0);
            assert_eq!(g.ledger().used(mec_topology::CloudletId(0), 4), 0.0);
        }

        #[test]
        fn traced_fault_run_emits_lifecycle_events() {
            use mec_obs::RingSink;

            let inst = instance();
            let reqs = one_request(inst.horizon());
            let sim = Simulation::new(&inst, &reqs).unwrap();
            let trace = outage_trace(inst.horizon());

            // The traced run must not change behaviour at all.
            let mut g0 = OnsiteGreedy::new(&inst);
            let plain = sim
                .run_faulted(
                    &mut g0,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    None,
                    &mut NoopSink,
                )
                .unwrap();
            let mut g = OnsiteGreedy::new(&inst);
            let mut sink = RingSink::new(64);
            let traced = sim
                .run_faulted(
                    &mut g,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    None,
                    &mut sink,
                )
                .unwrap();
            assert_eq!(plain, traced);

            let events = sink.into_events();
            let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
            // Two crashes, one repair from the injected trace.
            assert_eq!(count("outage-start"), 2);
            assert_eq!(count("outage-end"), 1);
            // One SLA breach (slot 2) and two recovery attempts: the
            // slot-2 attempt fails, the slot-3 one succeeds.
            assert_eq!(count("sla-breach"), 1);
            let recoveries: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Recovery {
                        slot,
                        success,
                        cloudlets,
                        ..
                    } => Some((*slot, *success, cloudlets.clone())),
                    _ => None,
                })
                .collect();
            assert_eq!(recoveries.len(), 2);
            assert_eq!((recoveries[0].0, recoveries[0].1), (2, false));
            assert_eq!((recoveries[1].0, recoveries[1].1), (3, true));
            // The successful re-placement names the repaired cloudlet.
            assert_eq!(recoveries[1].2, vec![1]);
            // Counts line up with the SLA ledger.
            assert_eq!(count("sla-breach"), traced.sla.total_failures());
            assert_eq!(
                recoveries.iter().filter(|r| r.1).count(),
                traced.timeline.iter().map(|s| s.recovered).sum::<usize>()
            );
        }

        #[test]
        fn mismatched_traces_are_rejected() {
            let inst = instance();
            let reqs = one_request(inst.horizon());
            let sim = Simulation::new(&inst, &reqs).unwrap();
            // Wrong horizon.
            let short =
                FailureProcess::from_events(Horizon::new(5), [], FailureConfig::default()).unwrap();
            let mut g = OnsiteGreedy::new(&inst);
            assert!(sim
                .run_faulted(&mut g, &short, RecoveryPolicy::None, None, &mut NoopSink)
                .is_err());
            // Unknown cloudlet index.
            let alien = FailureProcess::from_events(
                inst.horizon(),
                [FailureEvent::CloudletDown {
                    slot: 0,
                    cloudlet: 7,
                }],
                FailureConfig::default(),
            )
            .unwrap();
            let mut g = OnsiteGreedy::new(&inst);
            assert!(sim
                .run_faulted(&mut g, &alien, RecoveryPolicy::None, None, &mut NoopSink)
                .is_err());
        }

        #[test]
        fn instance_kill_degrades_offsite_placements() {
            // Off-site placement across several cloudlets: killing one
            // instance releases exactly that instance's share and the
            // availability re-check decides survival.
            let mut b = NetworkBuilder::new();
            let mut prev = None;
            for i in 0..4 {
                let ap = b.add_ap(format!("ap{i}"));
                if let Some(p) = prev {
                    b.add_link(p, ap, 1.0).unwrap();
                }
                prev = Some(ap);
                b.add_cloudlet(ap, 30, Reliability::new(0.95).unwrap())
                    .unwrap();
            }
            let inst =
                ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(12))
                    .unwrap();
            let reqs = one_request(inst.horizon());
            let sim = Simulation::new(&inst, &reqs).unwrap();
            let trace = FailureProcess::from_events(
                inst.horizon(),
                [FailureEvent::InstanceKill {
                    slot: 2,
                    cloudlet: 0,
                    selector: 11,
                }],
                FailureConfig::default(),
            )
            .unwrap();
            let mut g = vnfrel::offsite::OffsiteGreedy::new(&inst);
            let report = sim
                .run_faulted(
                    &mut g,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    None,
                    &mut NoopSink,
                )
                .unwrap();
            assert!(report.schedule.is_admitted(RequestId(0)));
            let rec = &report.sla.records[0];
            // Whether the surviving subset still meets R_i depends on the
            // original fan-out; either way the books must stay
            // consistent: no downtime without a failure, and a recovery
            // implies a preceding failure.
            assert!(rec.failures <= 1);
            assert!(rec.recoveries <= rec.failures);
            assert!(rec.downtime_slots <= 4);
            let events: usize = report.timeline.iter().map(|s| s.events).sum();
            assert_eq!(events, 1);
        }
    }

    mod degradation {
        use super::*;
        use crate::fault::{
            CascadeConfig, DomainEvent, FailureConfig, FailureEvent, FailureProcess,
        };
        use crate::recovery::RecoveryPolicy;
        use mec_obs::RingSink;

        /// Domain `{0, 1}` crashes in slot 2 and is repaired in slot 3,
        /// with matching net cloudlet transitions.
        fn domain_outage_trace(h: Horizon) -> FailureProcess {
            FailureProcess::from_events(
                h,
                [
                    FailureEvent::CloudletDown {
                        slot: 2,
                        cloudlet: 0,
                    },
                    FailureEvent::CloudletDown {
                        slot: 2,
                        cloudlet: 1,
                    },
                    FailureEvent::CloudletUp {
                        slot: 3,
                        cloudlet: 0,
                    },
                    FailureEvent::CloudletUp {
                        slot: 3,
                        cloudlet: 1,
                    },
                ],
                FailureConfig::default(),
            )
            .unwrap()
            .with_domain_events(
                vec![vec![0, 1]],
                [
                    DomainEvent::Down { slot: 2, domain: 0 },
                    DomainEvent::Up { slot: 3, domain: 0 },
                ],
            )
            .unwrap()
        }

        fn one_request(h: Horizon) -> Vec<Request> {
            vec![Request::new(
                RequestId(0),
                VnfTypeId(1),
                Reliability::new(0.9).unwrap(),
                0,
                6,
                10.0,
                h,
            )
            .unwrap()]
        }

        #[test]
        fn fault_free_degraded_run_matches_recovery_run() {
            let inst = instance();
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let reqs = RequestGenerator::new(inst.horizon())
                .generate(50, inst.catalog(), &mut rng)
                .unwrap();
            let sim = Simulation::new(&inst, &reqs).unwrap();
            let empty =
                FailureProcess::from_events(inst.horizon(), [], FailureConfig::default()).unwrap();
            let mut a = OnsiteGreedy::new(&inst);
            let plain = sim
                .run_faulted(
                    &mut a,
                    &empty,
                    RecoveryPolicy::SchemeMatching,
                    None,
                    &mut NoopSink,
                )
                .unwrap();
            let mut b = OnsiteGreedy::new(&inst);
            let deg = sim
                .run_faulted(
                    &mut b,
                    &empty,
                    RecoveryPolicy::SchemeMatching,
                    Some(&DegradationConfig::default()),
                    &mut NoopSink,
                )
                .unwrap();
            assert_eq!(plain.schedule, deg.schedule);
            assert_eq!(plain.metrics, deg.metrics);
            assert_eq!(deg.degradation, Some(DegradationStats::default()));
            let audit = deg.audit.as_ref().expect("auditing enabled by default");
            assert!(audit.is_clean(), "{audit}");
            assert_eq!(audit.slots_checked, inst.horizon().len());
        }

        #[test]
        fn degradation_config_is_validated() {
            for cfg in [
                DegradationConfig {
                    headroom: 1.0,
                    ..DegradationConfig::default()
                },
                DegradationConfig {
                    headroom: f64::NAN,
                    ..DegradationConfig::default()
                },
                DegradationConfig {
                    max_retries: 0,
                    ..DegradationConfig::default()
                },
                DegradationConfig {
                    backoff_base: 0,
                    ..DegradationConfig::default()
                },
            ] {
                assert!(cfg.validate().is_err(), "{cfg:?}");
                let inst = instance();
                let reqs = one_request(inst.horizon());
                let sim = Simulation::new(&inst, &reqs).unwrap();
                let empty =
                    FailureProcess::from_events(inst.horizon(), [], FailureConfig::default())
                        .unwrap();
                let mut g = OnsiteGreedy::new(&inst);
                assert!(sim
                    .run_faulted(
                        &mut g,
                        &empty,
                        RecoveryPolicy::SchemeMatching,
                        Some(&cfg),
                        &mut NoopSink
                    )
                    .is_err());
            }
        }

        #[test]
        fn domain_outage_drives_degraded_lifecycle_and_beats_no_recovery() {
            let inst = instance();
            let reqs = one_request(inst.horizon());
            let sim = Simulation::new(&inst, &reqs).unwrap();
            let trace = domain_outage_trace(inst.horizon());

            let mut g = OnsiteGreedy::new(&inst);
            let mut sink = RingSink::new(64);
            let report = sim
                .run_faulted(
                    &mut g,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    Some(&DegradationConfig::default()),
                    &mut sink,
                )
                .unwrap();
            let events = sink.into_events();
            let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
            assert_eq!(count("domain-outage-start"), 1);
            assert_eq!(count("domain-outage-end"), 1);
            assert_eq!(count("degraded-enter"), 1);
            assert_eq!(count("degraded-exit"), 1);
            assert!(events
                .iter()
                .any(|e| matches!(e, TraceEvent::DegradedEnter { slot: 2 })));
            assert!(events
                .iter()
                .any(|e| matches!(e, TraceEvent::DegradedExit { slot: 3 })));

            let stats = report.degradation.unwrap();
            assert_eq!(stats.degraded_slots, 1);
            assert_eq!(stats.cascades, 0);
            assert_eq!(stats.evictions, 0);
            let rec = &report.sla.records[0];
            // Slot-2 attempt fails (whole fleet down), slot-3 succeeds
            // once the domain repairs; default backoff base 1 retries
            // exactly then.
            assert_eq!(rec.recovery_attempts, 2);
            assert_eq!(rec.recoveries, 1);
            assert_eq!(rec.downtime_slots, 1);
            let audit = report.audit.as_ref().unwrap();
            assert!(audit.is_clean(), "{audit}");

            // Strictly fewer violated slots and strictly more retained
            // revenue than no recovery on the identical trace.
            let mut g2 = OnsiteGreedy::new(&inst);
            let none = sim
                .run_faulted(&mut g2, &trace, RecoveryPolicy::None, None, &mut NoopSink)
                .unwrap();
            assert!(report.sla.violated_request_slots() < none.sla.violated_request_slots());
            assert!(report.sla.revenue_retained() > none.sla.revenue_retained());
        }

        #[test]
        fn headroom_veto_blocks_admissions_while_degraded() {
            let inst = instance();
            let h = inst.horizon();
            let mk = |id: usize, arrival: usize, dur: usize| {
                Request::new(
                    RequestId(id),
                    VnfTypeId(1),
                    Reliability::new(0.9).unwrap(),
                    arrival,
                    dur,
                    5.0,
                    h,
                )
                .unwrap()
            };
            // Request 0 holds one unit on cloudlet 0; cloudlet 1's
            // domain crashes in slot 1 and stays down, so request 1's
            // slot-2 arrival lands in degraded mode.
            let reqs = vec![mk(0, 0, 8), mk(1, 2, 4)];
            let sim = Simulation::new(&inst, &reqs).unwrap();
            let trace = FailureProcess::from_events(
                h,
                [FailureEvent::CloudletDown {
                    slot: 1,
                    cloudlet: 1,
                }],
                FailureConfig::default(),
            )
            .unwrap()
            .with_domain_events(vec![vec![1]], [DomainEvent::Down { slot: 1, domain: 0 }])
            .unwrap();

            // Without degradation the second request is admitted.
            let mut g = OnsiteGreedy::new(&inst);
            let plain = sim
                .run_faulted(
                    &mut g,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    None,
                    &mut NoopSink,
                )
                .unwrap();
            assert!(plain.schedule.is_admitted(RequestId(1)));

            // With a headroom reserve of 95% of each cloudlet the
            // two-unit load on cloudlet 0 breaches the cap and the
            // admission is overturned.
            let cfg = DegradationConfig {
                headroom: 0.95,
                ..DegradationConfig::default()
            };
            let mut g2 = OnsiteGreedy::new(&inst);
            let report = sim
                .run_faulted(
                    &mut g2,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    Some(&cfg),
                    &mut NoopSink,
                )
                .unwrap();
            assert!(report.schedule.is_admitted(RequestId(0)));
            assert!(!report.schedule.is_admitted(RequestId(1)));
            let stats = report.degradation.unwrap();
            assert_eq!(stats.vetoed_admissions, 1);
            // Degraded from slot 1 to the end of the horizon.
            assert_eq!(stats.degraded_slots, h.len() - 1);
            assert!(report.metrics.revenue < plain.metrics.revenue);
            // The veto released the charge: cloudlet 0 carries exactly
            // request 0's unit over the contested window.
            for t in 2..6 {
                assert_eq!(g2.ledger().used(mec_topology::CloudletId(0), t), 1.0);
            }
            let audit = report.audit.as_ref().unwrap();
            assert!(audit.is_clean(), "{audit}");
        }

        #[test]
        fn shedder_evicts_cheaper_request_to_recover_denser_one() {
            // Two unit-capacity cloudlets: the cheap request takes the
            // reliable cloudlet 0, the dense one cloudlet 1. When
            // cloudlet 1's domain crashes, re-placement only fits by
            // evicting the cheap tenant.
            let mut b = NetworkBuilder::new();
            let a = b.add_ap("a");
            let c = b.add_ap("b");
            b.add_link(a, c, 1.0).unwrap();
            b.add_cloudlet(a, 1, Reliability::new(0.999).unwrap())
                .unwrap();
            b.add_cloudlet(c, 1, Reliability::new(0.995).unwrap())
                .unwrap();
            let inst =
                ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(12))
                    .unwrap();
            let h = inst.horizon();
            let mk = |id: usize, pay: f64| {
                Request::new(
                    RequestId(id),
                    VnfTypeId(1),
                    Reliability::new(0.9).unwrap(),
                    0,
                    6,
                    pay,
                    h,
                )
                .unwrap()
            };
            let reqs = vec![mk(0, 1.0), mk(1, 50.0)];
            let sim = Simulation::new(&inst, &reqs).unwrap();
            let trace = FailureProcess::from_events(
                h,
                [FailureEvent::CloudletDown {
                    slot: 2,
                    cloudlet: 1,
                }],
                FailureConfig::default(),
            )
            .unwrap()
            .with_domain_events(vec![vec![1]], [DomainEvent::Down { slot: 2, domain: 0 }])
            .unwrap();

            let mut g = OnsiteGreedy::new(&inst);
            let mut sink = RingSink::new(64);
            let report = sim
                .run_faulted(
                    &mut g,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    Some(&DegradationConfig::default()),
                    &mut sink,
                )
                .unwrap();
            let stats = report.degradation.unwrap();
            assert_eq!(stats.evictions, 1);
            let cheap = &report.sla.records[0];
            let dense = &report.sla.records[1];
            assert!(cheap.evicted);
            // Evicted in slot 2, down through the window end (slot 5).
            assert_eq!(cheap.downtime_slots, 4);
            assert!(!dense.evicted);
            assert_eq!(dense.recoveries, 1);
            // Same-slot re-placement: the dense request never loses a
            // whole slot.
            assert_eq!(dense.downtime_slots, 0);
            assert_eq!(report.sla.evicted_requests(), 1);
            let evictions: Vec<_> = sink
                .into_events()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Eviction {
                        slot,
                        request,
                        density,
                    } => Some((slot, request, density)),
                    _ => None,
                })
                .collect();
            assert_eq!(evictions.len(), 1);
            assert_eq!((evictions[0].0, evictions[0].1), (2, 0));
            assert!((evictions[0].2 - 1.0 / 6.0).abs() < 1e-12);
            // The dense request ends on cloudlet 0 for the rest of its
            // window.
            assert_eq!(g.ledger().used(mec_topology::CloudletId(0), 4), 1.0);
            let audit = report.audit.as_ref().unwrap();
            assert!(audit.is_clean(), "{audit}");
            // Shedding retains strictly more revenue than refusing to
            // shed on the same trace.
            let no_shed = DegradationConfig {
                shed: false,
                ..DegradationConfig::default()
            };
            let mut g2 = OnsiteGreedy::new(&inst);
            let kept = sim
                .run_faulted(
                    &mut g2,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    Some(&no_shed),
                    &mut NoopSink,
                )
                .unwrap();
            assert_eq!(kept.degradation.unwrap().evictions, 0);
            assert!(report.sla.revenue_retained() > kept.sla.revenue_retained());
        }

        #[test]
        fn backoff_spaces_retries_and_exhaustion_stops_them() {
            let inst = instance();
            let reqs = one_request(inst.horizon());
            let sim = Simulation::new(&inst, &reqs).unwrap();
            // Fleet-wide crash in slot 2; cloudlet 1 repairs in slot 3.
            let trace = FailureProcess::from_events(
                inst.horizon(),
                [
                    FailureEvent::CloudletDown {
                        slot: 2,
                        cloudlet: 0,
                    },
                    FailureEvent::CloudletDown {
                        slot: 2,
                        cloudlet: 1,
                    },
                    FailureEvent::CloudletUp {
                        slot: 3,
                        cloudlet: 1,
                    },
                ],
                FailureConfig::default(),
            )
            .unwrap()
            .with_domain_events(vec![vec![0, 1]], [DomainEvent::Down { slot: 2, domain: 0 }])
            .unwrap();

            // backoff_base 2: the failed slot-2 attempt schedules the
            // retry for slot 4, deliberately skipping the slot-3 repair.
            let spaced = DegradationConfig {
                backoff_base: 2,
                ..DegradationConfig::default()
            };
            let mut g = OnsiteGreedy::new(&inst);
            let report = sim
                .run_faulted(
                    &mut g,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    Some(&spaced),
                    &mut NoopSink,
                )
                .unwrap();
            let rec = &report.sla.records[0];
            assert_eq!(rec.recovery_attempts, 2);
            assert_eq!(rec.recoveries, 1);
            assert_eq!(rec.downtime_slots, 2);
            assert_eq!(report.degradation.unwrap().retries_exhausted, 0);

            // max_retries 1: the slot-2 failure exhausts the episode and
            // the request stays down even after the repair.
            let single = DegradationConfig {
                max_retries: 1,
                ..DegradationConfig::default()
            };
            let mut g2 = OnsiteGreedy::new(&inst);
            let report = sim
                .run_faulted(
                    &mut g2,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    Some(&single),
                    &mut NoopSink,
                )
                .unwrap();
            let rec = &report.sla.records[0];
            assert_eq!(rec.recovery_attempts, 1);
            assert_eq!(rec.recoveries, 0);
            assert!(rec.unrecovered);
            assert_eq!(rec.downtime_slots, 4);
            assert_eq!(report.degradation.unwrap().retries_exhausted, 1);
            let audit = report.audit.as_ref().unwrap();
            assert!(audit.is_clean(), "{audit}");
        }

        #[test]
        fn hot_survivor_cascades_after_domain_crash() {
            let inst = instance();
            let reqs = one_request(inst.horizon());
            let sim = Simulation::new(&inst, &reqs).unwrap();
            // Domain {1} crashes in slot 2; the pre-drawn uniforms are
            // all zero so any loaded survivor above the (tiny) threshold
            // cascades with certainty for two slots.
            let cascade = CascadeConfig {
                utilization_threshold: 0.01,
                hazard: 0.3,
                outage_slots: 2,
            };
            let draws = vec![0.0; inst.horizon().len() * 2];
            let trace = FailureProcess::from_events(
                inst.horizon(),
                [FailureEvent::CloudletDown {
                    slot: 2,
                    cloudlet: 1,
                }],
                FailureConfig::default(),
            )
            .unwrap()
            .with_domain_events(vec![vec![1]], [DomainEvent::Down { slot: 2, domain: 0 }])
            .unwrap()
            .with_cascade(cascade, 2, draws)
            .unwrap();

            let mut g = OnsiteGreedy::new(&inst);
            let mut sink = RingSink::new(64);
            let report = sim
                .run_faulted(
                    &mut g,
                    &trace,
                    RecoveryPolicy::SchemeMatching,
                    Some(&DegradationConfig::default()),
                    &mut sink,
                )
                .unwrap();
            let stats = report.degradation.unwrap();
            // Only cloudlet 0 was loaded (the request lives there), so
            // exactly one secondary outage fires.
            assert_eq!(stats.cascades, 1);
            let events = sink.into_events();
            let cascades: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Cascade {
                        slot,
                        cloudlet,
                        utilization,
                    } => Some((*slot, *cloudlet, *utilization)),
                    _ => None,
                })
                .collect();
            assert_eq!(cascades.len(), 1);
            assert_eq!((cascades[0].0, cascades[0].1), (2, 0));
            assert!(cascades[0].2 > 0.01);
            let rec = &report.sla.records[0];
            assert_eq!(rec.failures, 1);
            // Down slots 2..4 while the cascade holds cloudlet 0 and the
            // domain holds cloudlet 1; the forced window lifts at slot 4
            // and the backoff schedule retries then.
            assert_eq!(rec.recoveries, 1);
            assert!(rec.downtime_slots >= 2);
            let audit = report.audit.as_ref().unwrap();
            assert!(audit.is_clean(), "{audit}");
            // The cascade counts as a fleet event in the timeline.
            assert_eq!(report.timeline[2].events, 2);
        }
    }

    #[test]
    fn rejects_mismatched_requests() {
        let inst = instance();
        let r = Request::new(
            RequestId(3), // non-dense
            VnfTypeId(0),
            Reliability::new(0.9).unwrap(),
            0,
            1,
            1.0,
            inst.horizon(),
        )
        .unwrap();
        assert!(Simulation::new(&inst, &[r]).is_err());

        // Dense ids whose arrivals decrease: a typed error from `new`,
        // not a panic from the first run.
        let mk = |id: usize, arrival: usize| {
            Request::new(
                RequestId(id),
                VnfTypeId(0),
                Reliability::new(0.9).unwrap(),
                arrival,
                1,
                1.0,
                inst.horizon(),
            )
            .unwrap()
        };
        assert!(matches!(
            Simulation::new(&inst, &[mk(0, 3), mk(1, 1)]),
            Err(SimError::Mismatch("requests must be sorted by arrival"))
        ));
    }
}
