//! The client-line reader (`parse_client`) pinned row by row.
//!
//! `tests/golden/client_reader.txt` holds one `label<TAB>outcome` row
//! per line below: `ok <ClientMsg as Debug>` or `err <error text>`.
//! The rows cover syntax errors at several offsets, every submit field
//! missing and mistyped in turn, `null` floats, duplicate keys, unknown
//! nested fields, escaped keys and values, whitespace between every
//! token, each protocol version and the control lines, so a change to
//! the reader that moves one result or one error offset fails here with
//! the row's label. After a deliberate change, empty the golden file
//! and rerun: the row-count failure prints every row as the reader now
//! answers.
//!
//! Beside the golden: the v2 line and the v3 batch frame read the same
//! integers, up to `u64::MAX` and refused past it; a string as long as
//! a line may be is read in linear time, in a submit, a bare value and
//! a snapshot alike; and nesting is bounded.

use std::time::{Duration, Instant};

use mec_obs::{parse_value, JsonValue};
use mec_serve::{
    encode_batch_into, encode_client, parse_batch_into, parse_client, ClientMsg, ServeStats,
    Snapshot, SubmitRequest, MAX_LINE_BYTES,
};
use proptest::prelude::*;
use vnfrel::SchedulerState;

const GOLDEN: &str = include_str!("golden/client_reader.txt");

const FIELDS: [(&str, &str); 8] = [
    ("type", "\"submit\""),
    ("v", "2"),
    ("id", "7"),
    ("vnf", "2"),
    ("reliability", "0.95"),
    ("arrival", "3"),
    ("duration", "4"),
    ("payment", "6.5"),
];

/// A submit line with field `key` replaced by `value` (`None` drops
/// it), the others as in [`FIELDS`].
fn submit_with(key: &str, value: Option<&str>) -> String {
    let body: Vec<String> = FIELDS
        .iter()
        .filter_map(|&(k, v)| {
            let v = if k == key { value? } else { v };
            Some(format!("\"{k}\":{v}"))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn submit() -> String {
    submit_with("", None)
}

/// Every line the golden pins, with its label.
fn cases() -> Vec<(String, String)> {
    let base = submit();
    let cases: Vec<(&str, String)> = vec![
        ("ok/submit", base.clone()),
        ("syntax/empty-line", String::new()),
        ("syntax/missing-colon", base.replacen("\"v\":", "\"v\" ", 1)),
        ("syntax/trailing-comma", base.replacen('}', ",}", 1)),
        (
            "syntax/unterminated-string",
            base.replacen('}', ",\"note\":\"abc", 1),
        ),
        ("syntax/bad-escape", base.replacen('}', ",\"note\":\"a\\qb\"}", 1)),
        (
            "syntax/invalid-u-escape",
            base.replacen('}', ",\"note\":\"\\u12\"}", 1),
        ),
        (
            "syntax/truncated-u-escape",
            base.replacen('}', ",\"note\":\"\\u12", 1),
        ),
        ("syntax/lone-surrogate", base.replacen('}', ",\"n\":\"\\ud800\"}", 1)),
        ("syntax/trailing-garbage", format!("{base} x")),
        ("syntax/second-object", format!("{base}{base}")),
        ("syntax/malformed-number", submit_with("id", Some("1-2"))),
        ("syntax/plus-number", submit_with("id", Some("+5"))),
        ("syntax/bare-word", submit_with("vnf", Some("tru"))),
        (
            "syntax/late-error-beats-unknown-type",
            submit_with("type", Some("\"nope\"")).replacen('}', ",}", 1),
        ),
        ("syntax/unclosed-array", base.replacen('}', ",\"x\":[1,2}", 1)),
        ("shape/empty-object", "{}".to_string()),
        ("shape/array", "[1,2]".to_string()),
        ("shape/string", "\"submit\"".to_string()),
        ("type/unknown", submit_with("type", Some("\"nope\""))),
        ("type/number", submit_with("type", Some("1"))),
        ("v/0", submit_with("v", Some("0"))),
        ("v/1", submit_with("v", Some("1"))),
        ("v/3", submit_with("v", Some("3"))),
        ("v/4", submit_with("v", Some("4"))),
        ("v/string", submit_with("v", Some("\"2\""))),
        ("v/float", submit_with("v", Some("2.0"))),
        ("id/negative", submit_with("id", Some("-1"))),
        ("id/fraction", submit_with("id", Some("1.5"))),
        ("id/exponent", submit_with("id", Some("1e3"))),
        ("id/float-integral", submit_with("id", Some("12.0"))),
        ("id/minus-zero", submit_with("id", Some("-0"))),
        ("id/leading-zeros", submit_with("id", Some("007"))),
        ("id/2^53+1", submit_with("id", Some("9007199254740993"))),
        ("id/u64-max", submit_with("id", Some("18446744073709551615"))),
        ("id/2^64", submit_with("id", Some("18446744073709551616"))),
        ("id/huge-exponent", submit_with("id", Some("1e400"))),
        ("vnf/string", submit_with("vnf", Some("\"x\""))),
        ("reliability/string", submit_with("reliability", Some("\"0.9\""))),
        ("reliability/bool", submit_with("reliability", Some("true"))),
        ("reliability/null", submit_with("reliability", Some("null"))),
        ("arrival/null", submit_with("arrival", Some("null"))),
        ("duration/array", submit_with("duration", Some("[1]"))),
        ("payment/object", submit_with("payment", Some("{}"))),
        ("payment/null", submit_with("payment", Some("null"))),
        ("payment/integer", submit_with("payment", Some("100000000000000000000"))),
        (
            "fields/all-mistyped",
            "{\"type\":\"submit\",\"v\":2,\"id\":\"a\",\"vnf\":\"b\",\"reliability\":\"c\",\
             \"arrival\":\"d\",\"duration\":\"e\",\"payment\":\"f\"}"
                .to_string(),
        ),
        (
            "dup/first-id-wins",
            base.replacen('}', ",\"id\":9}", 1),
        ),
        (
            "dup/first-type-wins",
            base.replacen('}', ",\"type\":\"control\"}", 1),
        ),
        (
            "dup/mistyped-later-copy-ignored",
            base.replacen('}', ",\"payment\":\"x\"}", 1),
        ),
        (
            "unknown/nested",
            base.replacen(
                "{",
                "{\"extra\":{\"a\":[1,{\"b\":[]},null,true,false,-2.5e-3],\"c\":\"d\"},\"z\":[[[]]],",
                1,
            ),
        ),
        (
            "escape/type",
            submit_with("type", Some("\"sub\\u006dit\"")),
        ),
        (
            "escape/u-plus-sign",
            submit_with("type", Some("\"subm\\u+069t\"")),
        ),
        (
            "escape/u-split-char",
            base.replacen('}', ",\"note\":\"\\u12é\"}", 1),
        ),
        (
            "escape/key",
            base.replacen("\"id\"", "\"\\u0069d\"", 1),
        ),
        (
            "escape/slash-type",
            submit_with("type", Some("\"submit\\/\"")),
        ),
        (
            "escape/non-ascii-fields",
            base.replacen('}', ",\"note\":\"é✓😀\\\"\\\\\\n\",\"ключ\":\"値\"}", 1),
        ),
        (
            "escape/raw-control-in-string",
            base.replacen('}', ",\"note\":\"a\tb\"}", 1),
        ),
        (
            "whitespace/everywhere",
            format!(
                " \t{{ {} }}\r\n ",
                FIELDS
                    .iter()
                    .map(|(k, v)| format!("\"{k}\" \n:\t{v} "))
                    .collect::<Vec<_>>()
                    .join(" ,\r")
            ),
        ),
        (
            "control/advance-slot",
            "{\"type\":\"control\",\"v\":2,\"action\":\"advance-slot\"}".to_string(),
        ),
        (
            "control/stats-v1",
            "{\"type\":\"control\",\"v\":1,\"action\":\"stats\"}".to_string(),
        ),
        (
            "control/chaos-panic-shard",
            "{\"type\":\"control\",\"v\":2,\"action\":\"chaos-panic\",\"shard\":3}".to_string(),
        ),
        (
            "control/chaos-panic-default",
            "{\"type\":\"control\",\"v\":2,\"action\":\"chaos-panic\"}".to_string(),
        ),
        (
            "control/chaos-panic-bad-shard",
            "{\"type\":\"control\",\"v\":2,\"action\":\"chaos-panic\",\"shard\":\"x\"}".to_string(),
        ),
        (
            "control/unknown-action",
            "{\"type\":\"control\",\"v\":2,\"action\":\"dance\"}".to_string(),
        ),
        (
            "control/missing-action",
            "{\"type\":\"control\",\"v\":2}".to_string(),
        ),
        (
            "control/v4",
            "{\"type\":\"control\",\"v\":4,\"action\":\"stats\"}".to_string(),
        ),
        (
            "control/with-submit-fields",
            base.replacen("\"submit\"", "\"control\"", 1)
                .replacen('}', ",\"action\":\"shutdown\"}", 1),
        ),
    ];
    let mut cases: Vec<(String, String)> = cases
        .into_iter()
        .map(|(label, line)| (label.to_string(), line))
        .collect();
    for (key, _) in FIELDS {
        cases.push((format!("missing/{key}"), submit_with(key, None)));
    }
    cases
}

fn produce() -> String {
    let mut text = String::new();
    for (label, line) in cases() {
        let outcome = match parse_client(&line) {
            Ok(msg) => format!("ok {msg:?}"),
            Err(e) => format!("err {e}"),
        };
        assert!(!outcome.contains('\n'), "{label}: outcome holds a newline");
        text.push_str(&format!("{label}\t{outcome}\n"));
    }
    text
}

#[test]
fn every_client_line_reads_as_its_golden_row() {
    let produced = produce();
    for (i, (got, want)) in produced.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "row {} moved (reader left, golden right)", i + 1);
    }
    assert_eq!(
        produced.lines().count(),
        GOLDEN.lines().count(),
        "row count moved; the reader now answers:\n{produced}"
    );
}

/// A submit whose integer fields are read by both wire formats.
fn both_ways(req: SubmitRequest) -> (SubmitRequest, SubmitRequest) {
    let v2 = match parse_client(&encode_client(&ClientMsg::Submit(req))).unwrap() {
        ClientMsg::Submit(got) => got,
        other => panic!("a submit read as {other:?}"),
    };
    let mut frame = String::new();
    encode_batch_into(&mut frame, 0, &[req]);
    let mut v3 = Vec::new();
    parse_batch_into(&frame, &mut v3).unwrap();
    (v2, v3[0])
}

/// `2^53 − 2048 + offset` or `u64::MAX − offset`: where an `f64` read
/// first loses integers, and where a `u64` runs out.
fn around(edge: usize, offset: u64) -> usize {
    if edge == 0 {
        ((1u64 << 53) - 2048 + offset) as usize
    } else {
        (u64::MAX - offset) as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn v2_and_v3_read_the_same_integers(
        id_edge in 0usize..2,
        id_off in 0u64..4096,
        arrival_edge in 0usize..2,
        arrival_off in 0u64..4096,
        duration_edge in 0usize..2,
        duration_off in 0u64..4096,
    ) {
        let req = SubmitRequest {
            id: around(id_edge, id_off),
            vnf: 3,
            reliability: 0.95,
            arrival: around(arrival_edge, arrival_off),
            duration: around(duration_edge, duration_off),
            payment: 6.5,
        };
        let (v2, v3) = both_ways(req);
        prop_assert_eq!(v2, req);
        prop_assert_eq!(v3, req);
    }

    #[test]
    fn v2_and_v3_refuse_the_same_integers_past_u64(
        field in 0usize..3,
        past in 1u64..1_000_000,
    ) {
        let big = (u128::from(u64::MAX) + u128::from(past)).to_string();
        let mut ints = ["7", "3", "4"].map(str::to_string);
        ints[field] = big;
        let [id, arrival, duration] = &ints;
        let v2 = format!(
            "{{\"type\":\"submit\",\"v\":2,\"id\":{id},\"vnf\":3,\"reliability\":0.95,\
             \"arrival\":{arrival},\"duration\":{duration},\"payment\":6.5}}"
        );
        let v3 = format!(
            "{{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":1,\
             \"reqs\":[[{id},3,0.95,{arrival},{duration},6.5]]}}"
        );
        let name = ["id", "arrival", "duration"][field];
        prop_assert_eq!(
            parse_client(&v2).unwrap_err().to_string(),
            format!("protocol error: field '{name}' must be a non-negative integer")
        );
        prop_assert_eq!(
            parse_batch_into(&v3, &mut Vec::new()).unwrap_err().to_string(),
            "protocol error: batch frame integer overflows"
        );
    }
}

/// An integral float at `2^64` is past every `usize`: `usize::MAX as
/// f64` rounds up to it, so a bound written `<=` let it through and the
/// cast saturated it to `usize::MAX`.
#[test]
fn an_integral_float_at_2_pow_64_is_not_a_usize() {
    assert_eq!(
        JsonValue::Num(18_446_744_073_709_551_616.0).as_usize(),
        None
    );
    // `u64::MAX` in a tree is that same float.
    assert_eq!(
        parse_value("18446744073709551615").unwrap().as_usize(),
        None
    );
    assert_eq!(
        parse_value("9007199254740992").unwrap().as_usize(),
        Some(1 << 53)
    );
    let snapshot = Snapshot {
        next_id: 7,
        ..small_snapshot(String::new())
    }
    .encode()
    .replacen("\"next_id\":7", "\"next_id\":18446744073709551616", 1);
    // The checksum no longer matches either, but the field is read
    // after it: re-seal the line so the field read is what refuses it.
    let body = &snapshot[..snapshot.rfind(",\"crc\":\"").unwrap()];
    let sealed = format!("{body},\"crc\":\"{:016x}\"}}", fnv1a64(body.as_bytes()));
    let err = Snapshot::decode(&sealed).unwrap_err().to_string();
    assert!(
        err.contains("field 'next_id' must be a non-negative integer"),
        "{err}"
    );
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn small_snapshot(config: String) -> Snapshot {
    Snapshot {
        algorithm: "alg2-primal-dual".into(),
        config,
        next_id: 0,
        slot: 0,
        stats: ServeStats::default(),
        state: SchedulerState {
            used: vec![0.0, 1.5],
            lambda: vec![0.25, 0.0],
            sum_delta: 0.0,
            counters: vec![0, 1],
        },
        epoch: 1,
        seq: 0,
        recent: Vec::new(),
    }
}

/// Under a second even in a debug build; a read that re-validates the
/// rest of the line per character took 25 s in a release build.
const LINEAR: Duration = Duration::from_secs(1);

/// Text of exactly `bytes` bytes, ASCII and multi-byte characters mixed.
fn long_text(bytes: usize) -> String {
    let mut text = String::with_capacity(bytes);
    for c in "xé✓".chars().cycle() {
        if text.len() + c.len_utf8() > bytes {
            break;
        }
        text.push(c);
    }
    while text.len() < bytes {
        text.push('x');
    }
    text
}

#[test]
fn a_max_line_string_reads_in_linear_time() {
    // The line and its newline fill `MAX_LINE_BYTES`.
    let line = format!("\"{}\"", long_text(MAX_LINE_BYTES - 3));
    let start = Instant::now();
    let value = parse_value(&line).unwrap();
    let took = start.elapsed();
    assert_eq!(value.as_str().map(str::len), Some(MAX_LINE_BYTES - 3));
    assert!(took < LINEAR, "{took:?} for one {} byte string", line.len());

    let submit = encode_client(&ClientMsg::Submit(SubmitRequest {
        id: 1,
        vnf: 2,
        reliability: 0.9,
        arrival: 3,
        duration: 4,
        payment: 5.0,
    }));
    let padded = submit.replacen(
        '{',
        &format!("{{\"pad\":\"{}\",", long_text(MAX_LINE_BYTES / 2)),
        1,
    );
    let start = Instant::now();
    assert!(matches!(parse_client(&padded), Ok(ClientMsg::Submit(_))));
    let took = start.elapsed();
    assert!(
        took < LINEAR,
        "{took:?} for a submit padded to {} bytes",
        padded.len()
    );
}

#[test]
fn a_snapshot_with_a_512_kib_fingerprint_decodes_in_linear_time() {
    let snapshot = small_snapshot(long_text(512 << 10));
    let line = snapshot.encode();
    let start = Instant::now();
    let back = Snapshot::decode(&line).unwrap();
    let took = start.elapsed();
    assert_eq!(back, snapshot);
    assert!(took < LINEAR, "{took:?} for a {} byte snapshot", line.len());
}

/// Reading recurses once per nesting level, so a line of `[` as long as
/// a line may be would overflow a worker's stack and abort the daemon.
/// Past 128 levels it is a syntax error instead, for every reader.
#[test]
fn nesting_past_128_levels_is_a_syntax_error_not_a_stack_overflow() {
    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    assert!(parse_value(&nested(128)).is_ok());
    let err = parse_value(&nested(129)).unwrap_err();
    assert_eq!(err.to_string(), "nested deeper than 128 levels at byte 128");

    let hostile = "[".repeat(MAX_LINE_BYTES - 1);
    let err = parse_client(&hostile).unwrap_err().to_string();
    assert_eq!(
        err,
        "protocol error: nested deeper than 128 levels at byte 128"
    );
    let submit = format!(
        "{{\"pad\":{},\"type\":\"submit\"}}",
        "{\"a\":".repeat(MAX_LINE_BYTES / 8)
    );
    let err = parse_client(&submit).unwrap_err().to_string();
    assert!(err.contains("nested deeper than 128 levels"), "{err}");
    let snapshot = format!("{{\"type\":\"snapshot\",\"x\":{}}}", "[".repeat(1 << 16));
    assert!(Snapshot::decode(&snapshot).is_err());
}
