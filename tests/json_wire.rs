//! Byte pins of every JSON line the workspace writes: trace events,
//! metrics JSONL, the client/server wire (single lines and batch
//! frames), replication frames, the `/status` body and snapshots.
//!
//! `tests/golden/json_wire.txt` holds one `label<TAB>line` row per
//! encoded line. It is the encoders' output as it stood before they
//! shared one writer, so a change to any of them that moves one byte of
//! any message fails here with the label of the first differing row.
//! Every golden line must also parse back as JSON. After a deliberate
//! format change, empty the golden file and rerun: the row-count
//! failure prints every row as the encoders now write it.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mec_obs::{
    parse_value, to_json, ChainDecisionEvent, ChainOutcome, ChainRejectReason, ChainStageTrace,
    DecisionEvent, MetricsRegistry, Outcome, PipelineStage, RejectReason, SitePlacement,
    TraceEvent,
};
use mec_serve::replica::ReplHandle;
use mec_serve::{
    encode_batch_into, encode_batch_reply_into, encode_client, encode_repl, encode_server,
    ClientMsg, ControlAck, ControlAction, OverloadReject, ReplMsg, Role, ServeMetricIds,
    ServeStats, ServerMsg, Snapshot, StatusShared, SubmitRequest, BATCH_ADMIT, BATCH_ERROR,
    BATCH_OVERLOAD, BATCH_REJECT,
};
use vnfrel::SchedulerState;

const GOLDEN: &str = include_str!("golden/json_wire.txt");

/// Floats that stress the shortest-round-trip and integral-value rules.
const AWKWARD: [f64; 6] = [0.1 + 0.2, -1.5e-300, 4.0, -0.0, 1e21, 123.456_789];

/// A string every escape rule applies to.
const NASTY: &str = "q\"b\\n\nr\rt\tc\u{1}\u{1f}é✓";

fn decision_admit() -> DecisionEvent {
    DecisionEvent {
        request: 7,
        algorithm: "alg1-primal-dual".into(),
        scheme: "onsite".into(),
        slot: 3,
        payment: 4.0,
        outcome: Outcome::Admit {
            dual_cost: 0.1 + 0.2,
            margin: 3.7,
            sites: vec![
                SitePlacement {
                    cloudlet: 2,
                    instances: 3,
                    dual_cost: 1.5,
                },
                SitePlacement {
                    cloudlet: 5,
                    instances: 1,
                    dual_cost: -0.0,
                },
            ],
        },
    }
}

fn decision_reject(
    reason: RejectReason,
    dual_cost: Option<f64>,
    margin: Option<f64>,
) -> DecisionEvent {
    DecisionEvent {
        request: 11,
        algorithm: NASTY.into(),
        scheme: "offsite".into(),
        slot: 0,
        payment: f64::INFINITY,
        outcome: Outcome::Reject {
            reason,
            dual_cost,
            margin,
        },
    }
}

fn trace_events() -> Vec<(String, TraceEvent)> {
    let mut events = vec![
        (
            "decision-admit".to_string(),
            TraceEvent::Decision(decision_admit()),
        ),
        (
            "decision-reject-null".to_string(),
            TraceEvent::Decision(decision_reject(RejectReason::UnknownVnf, None, None)),
        ),
    ];
    for (i, reason) in RejectReason::ALL.into_iter().enumerate() {
        events.push((
            format!("decision-reject-{i}"),
            TraceEvent::Decision(decision_reject(
                reason,
                Some(AWKWARD[i % AWKWARD.len()]),
                Some(f64::NAN),
            )),
        ));
    }
    events.extend([
        (
            "outage-start".to_string(),
            TraceEvent::OutageStart {
                slot: 4,
                cloudlet: 9,
            },
        ),
        (
            "outage-end".to_string(),
            TraceEvent::OutageEnd {
                slot: 8,
                cloudlet: 9,
            },
        ),
        (
            "instance-kill".to_string(),
            TraceEvent::InstanceKill {
                slot: 5,
                cloudlet: 1,
                request: 12,
            },
        ),
        (
            "sla-breach".to_string(),
            TraceEvent::SlaBreach {
                slot: 6,
                request: 12,
            },
        ),
        (
            "recovery".to_string(),
            TraceEvent::Recovery {
                slot: 6,
                request: 12,
                success: true,
                cloudlets: vec![0, 3, 10],
            },
        ),
        (
            "recovery-failed".to_string(),
            TraceEvent::Recovery {
                slot: 7,
                request: 13,
                success: false,
                cloudlets: vec![],
            },
        ),
        (
            "domain-outage-start".to_string(),
            TraceEvent::DomainOutageStart {
                slot: 4,
                domain: 1,
                cloudlets: vec![usize::MAX, 2],
            },
        ),
        (
            "domain-outage-end".to_string(),
            TraceEvent::DomainOutageEnd { slot: 9, domain: 1 },
        ),
        (
            "cascade".to_string(),
            TraceEvent::Cascade {
                slot: 5,
                cloudlet: 3,
                utilization: 0.9375,
            },
        ),
        (
            "eviction".to_string(),
            TraceEvent::Eviction {
                slot: 6,
                request: 12,
                density: f64::NEG_INFINITY,
            },
        ),
        (
            "degraded-enter".to_string(),
            TraceEvent::DegradedEnter { slot: 4 },
        ),
        (
            "degraded-exit".to_string(),
            TraceEvent::DegradedExit { slot: 10 },
        ),
        (
            "audit-violation".to_string(),
            TraceEvent::AuditViolation {
                slot: 7,
                invariant: "ledger-balance".into(),
                detail: NASTY.into(),
            },
        ),
        (
            "promotion".to_string(),
            TraceEvent::Promotion {
                epoch: 2,
                seq: u64::MAX,
            },
        ),
        (
            "fenced".to_string(),
            TraceEvent::Fenced {
                epoch: 3,
                stale_epoch: 1,
            },
        ),
        (
            "repl-catchup".to_string(),
            TraceEvent::ReplCatchup { epoch: 1, seq: 96 },
        ),
        (
            "chaos-fault".to_string(),
            TraceEvent::ChaosFault {
                family: "network".into(),
                detail: "drop conn=2 \"torn\"".into(),
            },
        ),
        (
            "shard-restart".to_string(),
            TraceEvent::ShardRestart {
                shard: 1,
                replayed: 42,
            },
        ),
    ]);
    for stage in PipelineStage::ALL {
        events.push((
            format!("stage-{}", stage.as_str()),
            TraceEvent::StageSample {
                shard: 3,
                stage,
                nanos: 12_345,
            },
        ));
    }
    events.push((
        "chain-admit".to_string(),
        TraceEvent::ChainDecision(ChainDecisionEvent {
            chain: 4,
            algorithm: "chain-primal-dual".into(),
            slot: 2,
            payment: 18.5,
            outcome: ChainOutcome::Admit {
                dual_cost: 3.25,
                margin: 15.25,
                latency: 6.0,
                budget: f64::INFINITY,
                availability: 0.9951,
                stages: vec![
                    ChainStageTrace {
                        vnf: 0,
                        cloudlet: 1,
                        replicas: 2,
                        dual_cost: 1.25,
                        standby: Some(0),
                        backup_cloudlet: Some(3),
                        backup_shared: Some(true),
                    },
                    ChainStageTrace {
                        vnf: 5,
                        cloudlet: 2,
                        replicas: 3,
                        dual_cost: 2.0,
                        standby: Some(1),
                        backup_cloudlet: Some(4),
                        backup_shared: Some(false),
                    },
                    ChainStageTrace {
                        vnf: 1,
                        cloudlet: 0,
                        replicas: 1,
                        dual_cost: 0.0,
                        standby: None,
                        backup_cloudlet: None,
                        backup_shared: None,
                    },
                ],
            },
        }),
    ));
    for (i, reason) in ChainRejectReason::ALL.into_iter().enumerate() {
        events.push((
            format!("chain-reject-{i}"),
            TraceEvent::ChainDecision(ChainDecisionEvent {
                chain: 9,
                algorithm: "chain-greedy".into(),
                slot: 1,
                payment: 3.0,
                outcome: ChainOutcome::Reject {
                    reason,
                    dual_cost: i.is_multiple_of(2).then_some(4.5),
                    margin: i.is_multiple_of(3).then_some(-1.5),
                },
            }),
        ));
    }
    events.push((
        "chain-path".to_string(),
        TraceEvent::ChainPath {
            chain: 4,
            segment: 1,
            nodes: vec![3, 7, 2],
            latency: 2.75,
        },
    ));
    events
}

fn metrics_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let c = reg.register_counter("vnfrel_admissions_total", "admits");
    let labelled = reg.register_counter("r_total{reason=\"payment-test\"}", "by reason");
    let g = reg.register_gauge("vnfrel_slot", "slot");
    let nan = reg.register_gauge("vnfrel_nan", "never set to a number");
    let frac = reg.register_gauge("vnfrel_frac", "a fraction");
    let h = reg.register_histogram("lat_seconds", "latency", &[0.001, 0.5, 2.0]);
    let empty = reg.register_histogram("bare", "no bounds", &[]);
    reg.add(c, 17);
    reg.inc(labelled);
    reg.set_gauge(g, 5.0);
    reg.set_gauge(nan, f64::NAN);
    reg.set_gauge(frac, 0.1 + 0.2);
    for v in [0.0005, 0.25, 0.25, 9.0] {
        reg.observe(h, v);
    }
    reg.observe(empty, 1.0);
    reg
}

fn submit(id: usize) -> SubmitRequest {
    SubmitRequest {
        id,
        vnf: id % 7,
        reliability: 0.9 + (id % 9) as f64 * 0.01,
        arrival: id % 5,
        duration: 1 + id % 3,
        payment: if id.is_multiple_of(2) {
            2.0
        } else {
            2.5 + id as f64 * 0.125
        },
    }
}

fn client_messages() -> Vec<(String, ClientMsg)> {
    let mut msgs = vec![
        ("submit".to_string(), ClientMsg::Submit(submit(43))),
        ("submit-integral".to_string(), ClientMsg::Submit(submit(8))),
    ];
    for (i, action) in [
        ControlAction::AdvanceSlot,
        ControlAction::Snapshot,
        ControlAction::Stats,
        ControlAction::Shutdown,
        ControlAction::Promote,
        ControlAction::DumpFlight,
        ControlAction::ChaosPanic(0),
        ControlAction::ChaosPanic(3),
    ]
    .into_iter()
    .enumerate()
    {
        msgs.push((
            format!("control-{i}-{}", action.as_str()),
            ClientMsg::Control(action),
        ));
    }
    msgs
}

fn stats() -> ServeStats {
    ServeStats {
        decided: 10,
        admitted: 6,
        rejected: 4,
        overloaded: 1,
        revenue: 33.5,
    }
}

fn server_messages() -> Vec<(&'static str, ServerMsg)> {
    vec![
        ("decision-admit", ServerMsg::Decision(decision_admit())),
        (
            "decision-reject",
            ServerMsg::Decision(decision_reject(
                RejectReason::PaymentTest,
                Some(5.5),
                Some(-3.5),
            )),
        ),
        (
            "overload",
            ServerMsg::Overload(OverloadReject {
                id: 9,
                queue_depth: 128,
                limit: 128,
            }),
        ),
        (
            "ack-stats",
            ServerMsg::Ack(ControlAck {
                action: ControlAction::Stats,
                slot: 3,
                epoch: 2,
                role: "standby".into(),
                last_snapshot_unix_ms: Some(1_754_000_000_000),
                stats: stats(),
            }),
        ),
        (
            "ack-chaos",
            ServerMsg::Ack(ControlAck {
                action: ControlAction::ChaosPanic(2),
                slot: 0,
                epoch: 1,
                role: "primary".into(),
                last_snapshot_unix_ms: None,
                stats: ServeStats {
                    revenue: 0.1 + 0.2,
                    ..ServeStats::default()
                },
            }),
        ),
        ("not-primary", ServerMsg::NotPrimary { epoch: 3, id: 12 }),
        ("error", ServerMsg::Error(NASTY.into())),
    ]
}

fn repl_frames() -> Vec<(&'static str, ReplMsg)> {
    vec![
        ("hello", ReplMsg::Hello { epoch: 1, seq: 42 }),
        ("state", ReplMsg::State { epoch: 2, seq: 40 }),
        (
            "snapshot",
            ReplMsg::Snapshot {
                epoch: 1,
                seq: 42,
                data: sample_snapshot().encode(),
            },
        ),
        (
            "frame",
            ReplMsg::Frame {
                epoch: 1,
                seq: 43,
                submit: encode_client(&ClientMsg::Submit(submit(7))),
                decision: to_json(&TraceEvent::Decision(decision_admit())),
            },
        ),
        (
            "frame-nasty",
            ReplMsg::Frame {
                epoch: 1,
                seq: 44,
                submit: NASTY.into(),
                decision: String::new(),
            },
        ),
        (
            "advance",
            ReplMsg::Advance {
                epoch: 1,
                seq: 45,
                slot: 3,
            },
        ),
        ("heartbeat", ReplMsg::Heartbeat { epoch: 1, seq: 45 }),
        ("ack", ReplMsg::Ack { epoch: 1, seq: 43 }),
        (
            "refused",
            ReplMsg::Refused {
                epoch: 1,
                expected: 44,
                got: 46,
            },
        ),
        (
            "fenced",
            ReplMsg::Fenced {
                epoch: 2,
                stale_epoch: 1,
            },
        ),
    ]
}

fn sample_snapshot() -> Snapshot {
    Snapshot {
        algorithm: "alg1-primal-dual".into(),
        config: "zoo:seed=42 \"quoted\"".into(),
        next_id: 17,
        slot: 4,
        stats: ServeStats {
            revenue: 123.456_789,
            ..stats()
        },
        state: SchedulerState {
            used: vec![0.0, 1.5, 0.25, 3.0, -0.0],
            lambda: AWKWARD.to_vec(),
            sum_delta: 42.125,
            counters: vec![3, 0, 3, u32::MAX as u64],
        },
        epoch: 2,
        seq: 19,
        recent: vec![
            to_json(&TraceEvent::Decision(decision_admit())),
            NASTY.to_string(),
        ],
    }
}

/// `/status` with its one wall-clock field masked.
fn status_body(status: &StatusShared, reg: &MetricsRegistry, ids: &ServeMetricIds) -> String {
    let body = status.render_json(reg, ids);
    assert!(body.ends_with('\n'), "the /status body ends in a newline");
    let key = "\"uptime_seconds\":";
    let start = body.find(key).expect("uptime field") + key.len();
    let end = start + body[start..].find(',').expect("a field follows uptime");
    format!("{}U{}", &body[..start], &body[end..body.len() - 1])
}

fn produce() -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for (label, event) in trace_events() {
        rows.push((format!("trace/{label}"), to_json(&event)));
    }
    for (i, line) in metrics_registry().to_jsonl().lines().enumerate() {
        rows.push((format!("metrics/{i}"), line.to_string()));
    }
    for (label, msg) in client_messages() {
        rows.push((format!("client/{label}"), encode_client(&msg)));
    }
    for (label, msg) in server_messages() {
        rows.push((format!("server/{label}"), encode_server(&msg)));
    }
    let mut line = String::new();
    let reqs: Vec<SubmitRequest> = (0..4).map(submit).collect();
    encode_batch_into(&mut line, 42, &reqs);
    rows.push(("batch/frame".into(), line.clone()));
    encode_batch_into(&mut line, u64::from(u32::MAX), &reqs[..1]);
    rows.push(("batch/frame-one".into(), line.clone()));
    encode_batch_reply_into(
        &mut line,
        42,
        &[
            BATCH_ADMIT,
            BATCH_REJECT,
            BATCH_OVERLOAD,
            BATCH_ERROR,
            10,
            255,
        ],
    );
    rows.push(("batch/reply".into(), line.clone()));
    for (label, frame) in repl_frames() {
        rows.push((format!("repl/{label}"), encode_repl(&frame)));
    }

    let mut reg = MetricsRegistry::new();
    let ids = ServeMetricIds::register_sharded(&mut reg, 4, 2);
    ids.lanes.set_depth(&reg, 1, 3, 8);
    reg.add(ids.lanes.shed[0], 5);
    reg.set_gauge(ids.slot, 6.0);
    let status = StatusShared::new(Role::Standby, 3, 2, NASTY);
    rows.push(("status/standby".into(), status_body(&status, &reg, &ids)));
    let handle = Arc::new(ReplHandle::default());
    handle.connected.store(true, Ordering::Release);
    handle.sent_seq.store(44, Ordering::Release);
    handle.acked_seq.store(43, Ordering::Release);
    handle.reconnects.store(2, Ordering::Release);
    handle.connect_failures.store(7, Ordering::Release);
    let status = StatusShared::new(Role::Primary, 1, 1, "fp-1");
    status.set_repl(handle);
    let mut reg = MetricsRegistry::new();
    let ids = ServeMetricIds::register_sharded(&mut reg, 4, 1);
    rows.push((
        "status/replicating".into(),
        status_body(&status, &reg, &ids),
    ));

    rows.push(("snapshot/sample".into(), sample_snapshot().encode()));

    let mut text = String::new();
    for (label, line) in rows {
        assert!(
            !line.contains('\n'),
            "{label}: an encoded line holds a newline"
        );
        text.push_str(&label);
        text.push('\t');
        text.push_str(&line);
        text.push('\n');
    }
    text
}

#[test]
fn every_encoder_matches_its_golden_bytes() {
    let produced = produce();
    for (i, (got, want)) in produced.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "row {} moved (encoder left, golden right)",
            i + 1
        );
    }
    assert_eq!(
        produced.lines().count(),
        GOLDEN.lines().count(),
        "row count moved; the encoders now produce:\n{produced}"
    );
}

#[test]
fn every_golden_line_is_json() {
    for row in GOLDEN.lines() {
        let (label, line) = row.split_once('\t').expect("label<TAB>line");
        let line = line.replacen("\"uptime_seconds\":U", "\"uptime_seconds\":0", 1);
        if let Err(e) = parse_value(&line) {
            panic!("{label}: golden line is not JSON ({e}): {line}");
        }
    }
}
