//! Property tests for the serve wire protocol: every message type —
//! submit request, decision, control, overload-reject, ack, error —
//! round-trips through the versioned JSON encoder/parser with bit-exact
//! floats.

use mec_obs::{DecisionEvent, Outcome, RejectReason, SitePlacement};
use mec_serve::{
    encode_client, encode_server, parse_client, parse_server, ClientMsg, ControlAck, ControlAction,
    OverloadReject, ServeStats, ServerMsg, SubmitRequest,
};
use proptest::prelude::*;

const ACTIONS: [ControlAction; 6] = [
    ControlAction::AdvanceSlot,
    ControlAction::Snapshot,
    ControlAction::Stats,
    ControlAction::Shutdown,
    ControlAction::Promote,
    ControlAction::DumpFlight,
];

const REASONS: [RejectReason; 5] = RejectReason::ALL;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn submit_round_trips(
        id in 0usize..1_000_000,
        vnf in 0usize..16,
        reliability in 0.5f64..0.99999,
        arrival in 0usize..256,
        duration in 1usize..64,
        payment in 1e-3f64..1e4,
    ) {
        let msg = ClientMsg::Submit(SubmitRequest {
            id, vnf, reliability, arrival, duration, payment,
        });
        let line = encode_client(&msg);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(parse_client(&line).unwrap(), msg);
    }

    #[test]
    fn control_round_trips(which in 0usize..6) {
        let msg = ClientMsg::Control(ACTIONS[which]);
        prop_assert_eq!(parse_client(&encode_client(&msg)).unwrap(), msg);
    }

    #[test]
    fn admit_decision_round_trips(
        request in 0usize..1_000_000,
        slot in 0usize..256,
        payment in 1e-3f64..1e4,
        dual_cost in 0.0f64..1e3,
        cloudlet in 0usize..32,
        instances in 1usize..9,
        onsite in 0usize..2,
    ) {
        let sites = if onsite == 1 {
            vec![SitePlacement { cloudlet, instances: instances as u32, dual_cost }]
        } else {
            (0..instances)
                .map(|k| SitePlacement {
                    cloudlet: cloudlet + k,
                    instances: 1,
                    dual_cost: dual_cost / instances as f64,
                })
                .collect()
        };
        let msg = ServerMsg::Decision(DecisionEvent {
            request,
            algorithm: if onsite == 1 { "alg1-primal-dual" } else { "alg2-primal-dual" }.into(),
            scheme: if onsite == 1 { "on-site" } else { "off-site" }.into(),
            slot,
            payment,
            outcome: Outcome::Admit { dual_cost, margin: payment - dual_cost, sites },
        });
        let line = encode_server(&msg);
        let back = parse_server(&line).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn reject_decision_round_trips(
        request in 0usize..1_000_000,
        slot in 0usize..256,
        payment in 1e-3f64..1e4,
        dual_cost in 0.0f64..1e3,
        which in 0usize..5,
        with_cost in 0usize..2,
    ) {
        let msg = ServerMsg::Decision(DecisionEvent {
            request,
            algorithm: "alg1-primal-dual".into(),
            scheme: "on-site".into(),
            slot,
            payment,
            outcome: Outcome::Reject {
                reason: REASONS[which],
                dual_cost: (with_cost == 1).then_some(dual_cost),
                margin: (with_cost == 1).then_some(payment - dual_cost),
            },
        });
        prop_assert_eq!(parse_server(&encode_server(&msg)).unwrap(), msg);
    }

    #[test]
    fn overload_round_trips(
        id in 0usize..1_000_000,
        queue_depth in 0usize..100_000,
        limit in 1usize..100_000,
    ) {
        let msg = ServerMsg::Overload(OverloadReject { id, queue_depth, limit });
        prop_assert_eq!(parse_server(&encode_server(&msg)).unwrap(), msg);
    }

    #[test]
    fn ack_round_trips(
        which in 0usize..6,
        slot in 0usize..100_000,
        decided in 0usize..1_000_000,
        admitted in 0usize..1_000_000,
        overloaded in 0usize..1_000,
        revenue in 0.0f64..1e7,
        epoch in 1u64..1_000,
        role in 0usize..3,
        snapshot_ms in 0u64..2_000_000_000_000,
        with_snapshot in 0usize..2,
    ) {
        let admitted = admitted.min(decided);
        let msg = ServerMsg::Ack(ControlAck {
            action: ACTIONS[which],
            slot,
            stats: ServeStats {
                decided: decided as u64,
                admitted: admitted as u64,
                rejected: (decided - admitted) as u64,
                overloaded: overloaded as u64,
                revenue,
            },
            epoch,
            // Any role string survives, quotes and backslashes included.
            role: ["primary", "standby", "st\"and\\by"][role].to_string(),
            last_snapshot_unix_ms: (with_snapshot == 1).then_some(snapshot_ms),
        });
        prop_assert_eq!(parse_server(&encode_server(&msg)).unwrap(), msg);
    }

    #[test]
    fn not_primary_round_trips(
        epoch in 1u64..1_000,
        id in 0usize..1_000_000,
    ) {
        let msg = ServerMsg::NotPrimary { epoch, id };
        prop_assert_eq!(parse_server(&encode_server(&msg)).unwrap(), msg);
    }

    #[test]
    fn error_round_trips_with_escapes(
        a in 0usize..128,
        b in 0usize..128,
    ) {
        // Cover control characters, quotes and backslashes.
        let text = format!(
            "bad \"line\" \\ {}\n\tchar {}",
            char::from_u32(a as u32).unwrap_or('?'),
            b
        );
        let msg = ServerMsg::Error(text);
        prop_assert_eq!(parse_server(&encode_server(&msg)).unwrap(), msg);
    }
}

#[test]
#[allow(clippy::excessive_precision)] // the rounding IS the test input
fn float_fields_round_trip_bit_exact() {
    // Awkward values that would break a lossy float encoding.
    for payment in [0.1 + 0.2, 1e-300, 123456789.123456789, 5e-324_f64] {
        let msg = ClientMsg::Submit(SubmitRequest {
            id: 0,
            vnf: 0,
            reliability: 0.9999999999999999,
            arrival: 0,
            duration: 1,
            payment,
        });
        match parse_client(&encode_client(&msg)).unwrap() {
            ClientMsg::Submit(s) => {
                assert_eq!(s.payment.to_bits(), payment.to_bits());
                assert_eq!(s.reliability.to_bits(), 0.9999999999999999_f64.to_bits());
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }
}
