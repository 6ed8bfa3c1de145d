//! `vnfrel`'s argument parser and help text, pinned row by row.
//!
//! `tests/golden/cli_help.txt` holds the exact bytes `vnfrel help`
//! prints. `tests/golden/cli_args.txt` holds one `label<TAB>outcome` row
//! per argument vector below: the label is the vector as `{:?}`, the
//! outcome `{:?}` of [`parse`]. The rows cover every flag of every
//! command that accepts it, with a valid value, with none and with a
//! malformed one; every cross-flag check; the positional forms; the
//! order `--no-cascade` meets the cascade knobs in; and a repeated flag.
//! A change to the parser that moves one field or one error text fails
//! here with the row's label. After a deliberate change, empty the
//! golden file and rerun: the row-count failure prints every row as the
//! parser now answers.
//!
//! Beside the goldens: every flag `USAGE` lists under a command's
//! section, inherited sections included, is one that command accepts,
//! with a value exactly when the text shows a metavar.
//!
//! The binary has no library target, so this file is a child module of
//! `crates/cli/src/args.rs` and runs with `cargo test -p vnfrel-cli`.

use super::{parse, ParseError, USAGE};

const HELP: &str = include_str!("golden/cli_help.txt");
const GOLDEN: &str = include_str!("golden/cli_args.txt");

/// A flag with a value it takes and a value it refuses; a switch has
/// neither.
type Flag = (&'static str, Option<(&'static str, &'static str)>);

const fn val(name: &'static str, good: &'static str, bad: &'static str) -> Flag {
    (name, Some((good, bad)))
}

const fn switch(name: &'static str) -> Flag {
    (name, None)
}

/// The scenario flags every scenario command shares. A path flag takes
/// any text, so its "malformed" value is one that looks like a flag.
const SIM: &[Flag] = &[
    val("--topology", "nsfnet", "mystery"),
    val("--requests", "50", "x"),
    val("--scheme", "offsite", "sideways"),
    val("--algorithm", "greedy", "smart"),
    val("--seed", "9", "-1"),
    val("--horizon", "24", "2.5"),
    val("--capacity", "10:20", "10-20"),
    val("--cloudlet-rel", "0.95:0.999", "0.95:x"),
    val("--requirement", "0.9:0.93", "x:0.93"),
    val("--payment", "2:8", "2"),
    val("--fraction", "0.7", "70%"),
    val("--failure-trials", "1000", "many"),
    val("--threads", "4", "-4"),
    val("--trace", "t.jsonl", "-q"),
    val("--metrics", "m.prom", "--quiet"),
    val("--timeline-csv", "tl.csv", ""),
    switch("--quiet"),
    switch("-q"),
];

const FAILURES: &[Flag] = &[
    val("--mttf", "20", "x"),
    val("--mttr", "4", "four"),
    val("--kill-rate", "0.1", "1/10"),
    val("--policy", "none", "prayer"),
    val("--failure-seed", "7", "7.5"),
    val("--sla-csv", "sla.csv", "--mttf"),
];

const DEGRADATION: &[Flag] = &[
    val("--domains", "3", "three"),
    val("--domain-mttf", "12", "x"),
    val("--domain-mttr", "4", "x"),
    switch("--no-cascade"),
    val("--cascade-threshold", "0.6", "high"),
    val("--cascade-hazard", "0.5", "x"),
    val("--cascade-slots", "3", "1.5"),
    val("--headroom", "0.2", "x"),
    val("--max-retries", "2", "-2"),
    val("--backoff", "2", "x"),
    switch("--no-shed"),
    switch("--no-audit"),
];

const CHAIN: &[Flag] = &[
    val("--chains", "40", "x"),
    val("--chain-len", "2:4", "2-4"),
    val("--latency-budget", "5:9", "5"),
    switch("--mixed"),
    val("--shared-backups", "off", "maybe"),
    val("--backup-mass-cap", "0.1", "x"),
    switch("--quick"),
];

const SERVE: &[Flag] = &[
    val("--addr", "0.0.0.0:9000", "-q"),
    val("--queue", "64", "x"),
    val("--workers", "2", "x"),
    val("--snapshot", "state.snap", "--resume"),
    switch("--resume"),
    val("--tick-ms", "250", "x"),
    switch("--standby"),
    val("--replicate-to", "127.0.0.1:7071", "--standby"),
    val("--auto-promote-ms", "750", "x"),
    val("--shards", "4", "x"),
    val("--flight-dir", "fl", "-q"),
];

const LOADGEN: &[Flag] = &[
    val("--addr", "127.0.0.1:9000", "-q"),
    val("--rate", "500", "fast"),
    val("--start-at", "100", "x"),
    switch("--no-shutdown"),
    val("--hist-out", "hist.txt", "--reconnect"),
    switch("--reconnect"),
    switch("--open-loop"),
    val("--conns", "4", "x"),
    val("--batch", "128", "x"),
    val("--shards", "4", "x"),
    val("--window", "8", "x"),
    val("--deadline-ms", "1500", "x"),
];

const FAILOVER_DRILL: &[Flag] = &[val("--kill-at", "77", "x"), val("--out", "drill.txt", "-q")];

const CHAOS_DRILL: &[Flag] = &[
    val("--chaos-seed", "42", "x"),
    switch("--quick"),
    val("--out", "x.txt", "-q"),
    val("--flight-dir", "flights", "-q"),
];

const CHAOS_PROXY: &[Flag] = &[
    val("--upstream", "10.0.0.2:9000", "-q"),
    val("--chaos-seed", "3", "x"),
    switch("--quiet"),
    switch("-q"),
];

const PROMOTE: &[Flag] = &[
    val("--addr", "10.0.0.2:9000", "-q"),
    switch("--quiet"),
    switch("-q"),
];

const SERVE_REPORT: &[Flag] = &[
    val("--trace", "dump.jsonl", "-q"),
    val("--out", "table.txt", "-q"),
    switch("--quiet"),
    switch("-q"),
];

const EXPLAIN: &[Flag] = &[
    val("--trace", "run.jsonl", "-q"),
    switch("--quiet"),
    switch("-q"),
];

const TOPO: &[Flag] = &[
    val("--topology", "geant", "mystery"),
    val("--seed", "4", "x"),
    switch("--dot"),
];

/// Every command with the flag families it accepts, and the words that
/// make a row of it valid before the flag under test.
fn commands() -> Vec<(&'static str, &'static str, Vec<&'static [Flag]>)> {
    vec![
        ("simulate", "", vec![SIM]),
        ("chain", "", vec![CHAIN, SIM]),
        ("failures", "", vec![FAILURES, SIM]),
        ("degradation", "", vec![DEGRADATION, FAILURES, SIM]),
        ("serve", "", vec![SERVE, SIM]),
        ("loadgen", "", vec![LOADGEN, SIM]),
        ("failover-drill", "", vec![FAILOVER_DRILL, SIM]),
        ("chaos-drill", "", vec![CHAOS_DRILL, SIM]),
        ("chaos-proxy", "127.0.0.1:7070", vec![CHAOS_PROXY]),
        ("promote", "127.0.0.1:7071", vec![PROMOTE]),
        ("dump-flight", "127.0.0.1:7071", vec![PROMOTE]),
        ("serve-report", "dump.jsonl", vec![SERVE_REPORT]),
        ("explain", "17 --trace run.jsonl", vec![EXPLAIN]),
        ("topo", "", vec![TOPO]),
    ]
}

/// Every argument vector the golden pins.
fn cases() -> Vec<Vec<String>> {
    let mut cases: Vec<Vec<&str>> = vec![
        vec![],
        vec!["help"],
        vec!["--help"],
        vec!["-h"],
        vec!["help", "simulate"],
        vec!["frobnicate"],
        vec!["Simulate"],
        vec!["--requests", "5"],
    ];
    let commands = commands();
    let accepted = |cmd: &str, flag: &str| {
        commands
            .iter()
            .find(|(name, ..)| *name == cmd)
            .is_some_and(|(_, _, families)| {
                families.iter().any(|f| f.iter().any(|(n, _)| *n == flag))
            })
    };

    // Each flag alone: valid, missing and malformed values; a switch
    // given twice and given a stray word.
    for &(cmd, base, ref families) in &commands {
        cases.push(vec![cmd]);
        for &(flag, value) in families.iter().flat_map(|f| f.iter()) {
            let row = |tail: &[&'static str]| {
                let mut argv = vec![cmd];
                argv.extend(base.split_whitespace());
                argv.push(flag);
                argv.extend_from_slice(tail);
                argv
            };
            match value {
                Some((good, bad)) => {
                    cases.push(row(&[good]));
                    cases.push(row(&[]));
                    cases.push(row(&[bad]));
                }
                None => {
                    cases.push(row(&[]));
                    cases.push(row(&[flag]));
                    cases.push(row(&["stray"]));
                }
            }
        }
    }

    // Flags a command does not take are unknown options there.
    let every_flag: Vec<&str> = {
        let mut all: Vec<&str> = commands
            .iter()
            .flat_map(|(_, _, families)| families.iter().flat_map(|f| f.iter().map(|(n, _)| *n)))
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    };
    for cmd in [
        "simulate",
        "chain",
        "failures",
        "promote",
        "dump-flight",
        "chaos-proxy",
        "serve-report",
        "explain",
        "topo",
    ] {
        for &flag in &every_flag {
            if !accepted(cmd, flag) {
                cases.push(vec![cmd, flag, "1"]);
            }
        }
    }

    // Value spellings, once each.
    for topology in [
        "abilene",
        "CESNET",
        "nsfnet",
        "aarnet",
        "att",
        "att-na",
        "geant",
        "garr",
        "er:30:0.1",
        "ER:30:0.1",
        "er:30:1.5",
        "er:30:nan",
        "er:0:0.5",
        "er:30",
        "er:x:0.1",
        "er:30:p",
        "er:30:0.1:9",
        "ba:50:2",
        "ba:50",
        "ba:x:2",
        "ba:50:x",
        "grid:3:4",
        "grid:3",
        "grid:x:4",
        "grid:3:x",
        "grid:3:4:5",
        "mystery",
        "",
    ] {
        cases.push(vec!["topo", "--topology", topology]);
    }
    for scheme in ["onsite", "on-site", "offsite", "off-site", "OnSite", ""] {
        cases.push(vec!["simulate", "--scheme", scheme]);
    }
    for algorithm in ["primal-dual", "pd", "greedy", "random", "density", "Greedy"] {
        cases.push(vec!["simulate", "--algorithm", algorithm]);
    }
    for policy in [
        "none",
        "onsite",
        "on-site",
        "offsite",
        "off-site",
        "matching",
        "scheme-matching",
        "Matching",
    ] {
        cases.push(vec!["failures", "--policy", policy]);
    }
    for mode in ["on", "shared", "off", "dedicated", "none", "On"] {
        cases.push(vec!["chain", "--shared-backups", mode]);
    }
    for number in [
        "0",
        "+5",
        "-5",
        " 5",
        "5 ",
        "5_000",
        "0x10",
        "1e3",
        "2.0",
        "18446744073709551615",
        "18446744073709551616",
        "",
    ] {
        cases.push(vec!["simulate", "--requests", number]);
        cases.push(vec!["simulate", "--seed", number]);
    }
    for float in [
        "0", "-1", "1e-3", ".5", "5.", "nan", "NaN", "inf", "-inf", "infinity", "0x1",
    ] {
        cases.push(vec!["simulate", "--fraction", float]);
        cases.push(vec!["failures", "--mttf", float]);
    }
    for range in [
        "1:2", "2:1", ":2", "1:", ":", "1:2:3", "-1:2", "1.5:2", "a:b",
    ] {
        cases.push(vec!["simulate", "--capacity", range]);
        cases.push(vec!["simulate", "--payment", range]);
    }
    for cap in ["0", "1", "0.5", "0.999", "1.5", "-0.1", "nan", "inf"] {
        cases.push(vec!["chain", "--backup-mass-cap", cap]);
    }
    for len in ["1:1", "1:3", "0:2", "3:2", "0:0", "-1:2", "1.5:2"] {
        cases.push(vec!["chain", "--chain-len", len]);
    }

    // Cross-flag checks, one message each, then in combination.
    let sim_commands = [
        "simulate",
        "chain",
        "failures",
        "degradation",
        "serve",
        "loadgen",
        "failover-drill",
        "chaos-drill",
    ];
    for cmd in sim_commands {
        cases.push(vec![cmd, "--horizon", "0"]);
        cases.push(vec![cmd, "--scheme", "offsite", "--algorithm", "density"]);
        cases.push(vec![cmd, "--algorithm", "density", "--scheme", "offsite"]);
        cases.push(vec![cmd, "--algorithm", "random"]);
        cases.push(vec![cmd, "--requests", "0"]);
        cases.push(vec![cmd, "--requests", "5", "--requests", "7"]);
    }
    cases.extend([
        vec!["degradation", "--domains", "0"],
        vec!["degradation", "--domains", "0", "--horizon", "0"],
        vec![
            "degradation",
            "--headroom",
            "2",
            "--backoff",
            "0",
            "--max-retries",
            "0",
        ],
        vec!["serve", "--queue", "0"],
        vec!["serve", "--standby", "--replicate-to", "x:1"],
        vec!["serve", "--replicate-to", "x:1", "--standby"],
        vec!["serve", "--auto-promote-ms", "500"],
        vec!["serve", "--standby", "--auto-promote-ms", "500"],
        vec!["serve", "--auto-promote-ms", "0", "--standby"],
        vec!["serve", "--algorithm", "density"],
        vec!["serve", "--shards", "0"],
        vec!["serve", "--shards", "2"],
        vec!["serve", "--shards", "2", "--standby"],
        vec!["serve", "--shards", "2", "--replicate-to", "x:1"],
        vec!["serve", "--shards", "2", "--snapshot", "s.snap"],
        vec!["serve", "--shards", "2", "--resume"],
        vec!["serve", "--shards", "2", "--algorithm", "greedy"],
        vec!["serve", "--shards", "2", "--flight-dir", "fl"],
        vec![
            "serve",
            "--queue",
            "0",
            "--standby",
            "--replicate-to",
            "x:1",
        ],
        vec![
            "serve",
            "--standby",
            "--replicate-to",
            "x:1",
            "--auto-promote-ms",
            "5",
        ],
        vec!["serve", "--auto-promote-ms", "5", "--algorithm", "random"],
        vec!["serve", "--algorithm", "random", "--shards", "0"],
        vec![
            "serve",
            "--shards",
            "0",
            "--scheme",
            "offsite",
            "--algorithm",
            "density",
        ],
        vec![
            "serve",
            "--shards",
            "2",
            "--snapshot",
            "s",
            "--standby",
            "--algorithm",
            "greedy",
        ],
        vec![
            "serve",
            "--shards",
            "2",
            "--resume",
            "--algorithm",
            "greedy",
        ],
        vec!["loadgen", "--deadline-ms", "0"],
        vec!["loadgen", "--rate", "-1"],
        vec!["loadgen", "--rate", "inf"],
        vec!["loadgen", "--rate", "nan"],
        vec!["loadgen", "--rate", "0"],
        vec!["loadgen", "--rate", "2.5"],
        vec!["loadgen", "--deadline-ms", "0", "--rate", "-1"],
        vec!["loadgen", "--open-loop", "--reconnect"],
        vec!["loadgen", "--open-loop", "--start-at", "5"],
        vec!["loadgen", "--open-loop", "--start-at", "0"],
        vec!["loadgen", "--open-loop", "--deadline-ms", "500"],
        vec!["loadgen", "--open-loop", "--deadline-ms", "0"],
        vec!["loadgen", "--open-loop", "--conns", "0"],
        vec!["loadgen", "--open-loop", "--shards", "0"],
        vec!["loadgen", "--open-loop", "--window", "0"],
        vec!["loadgen", "--open-loop", "--batch", "0"],
        vec!["loadgen", "--open-loop", "--batch", "0", "--conns", "0"],
        vec!["loadgen", "--open-loop", "--reconnect", "--start-at", "5"],
        vec![
            "loadgen",
            "--open-loop",
            "--start-at",
            "5",
            "--deadline-ms",
            "9",
        ],
        vec![
            "loadgen",
            "--open-loop",
            "--deadline-ms",
            "9",
            "--conns",
            "0",
        ],
        vec![
            "loadgen",
            "--open-loop",
            "--conns",
            "4",
            "--batch",
            "128",
            "--shards",
            "4",
            "--window",
            "8",
        ],
        vec!["loadgen", "--conns", "4"],
        vec!["loadgen", "--batch", "128"],
        vec!["loadgen", "--shards", "4"],
        vec!["loadgen", "--window", "8"],
        vec![
            "loadgen", "--conns", "2", "--batch", "64", "--shards", "1", "--window", "4",
        ],
        vec!["loadgen", "--conns", "0"],
        vec![
            "loadgen",
            "--reconnect",
            "--start-at",
            "5",
            "--deadline-ms",
            "9",
        ],
        vec![
            "loadgen",
            "--conns",
            "4",
            "--algorithm",
            "density",
            "--scheme",
            "offsite",
        ],
        vec!["failover-drill", "--kill-at", "0"],
        vec!["failover-drill", "--kill-at", "120"],
        vec!["failover-drill", "--kill-at", "119"],
        vec!["failover-drill", "--requests", "50", "--kill-at", "50"],
        vec!["failover-drill", "--requests", "1"],
        vec!["failover-drill", "--requests", "0", "--kill-at", "0"],
        vec!["failover-drill", "--kill-at", "0", "--algorithm", "random"],
        vec!["failover-drill", "--algorithm", "greedy"],
        vec!["chaos-drill", "--requests", "4"],
        vec!["chaos-drill", "--requests", "7"],
        vec!["chaos-drill", "--requests", "8"],
        vec!["chaos-drill", "--algorithm", "greedy"],
        vec!["chaos-drill", "--requests", "4", "--algorithm", "greedy"],
        vec![
            "chain",
            "--chain-len",
            "0:2",
            "--scheme",
            "offsite",
            "--algorithm",
            "density",
        ],
    ]);

    // Positional forms: the second positional, a positional after the
    // flag spelling, the flag after the positional, and a missing one.
    for (cmd, flag) in [
        ("promote", "--addr"),
        ("dump-flight", "--addr"),
        ("chaos-proxy", "--upstream"),
        ("serve-report", "--trace"),
    ] {
        cases.extend([
            vec![cmd, "a:1"],
            vec![cmd, "a:1", "-q"],
            vec![cmd, "-q", "a:1"],
            vec![cmd, "a:1", "b:2"],
            vec![cmd, flag, "a:1", "b:2"],
            vec![cmd, "a:1", flag, "b:2"],
            vec![cmd, flag, "a:1", flag, "b:2"],
            vec![cmd, flag],
            vec![cmd, "-q"],
            vec![cmd, "-x"],
            vec![cmd, ""],
            vec![cmd, "", "a:1"],
        ]);
    }
    cases.extend([
        vec![
            "chaos-proxy",
            "a:1",
            "--chaos-seed",
            "9",
            "--chaos-seed",
            "10",
        ],
        vec!["serve-report", "d.jsonl", "--out", "a", "--out", "b"],
        vec!["serve-report", "--out", "a"],
        vec!["explain", "17", "--trace", "t"],
        vec!["explain", "chain:4", "--trace", "t", "-q"],
        vec!["explain", "17", "18", "--trace", "t"],
        vec!["explain", "--trace", "t", "17"],
        vec!["explain", "--trace", "t", "17", "18"],
        vec!["explain", "17", "--trace", "a", "--trace", "b"],
        vec!["explain", "--trace", "t"],
        vec!["explain", "17"],
        vec!["explain"],
        vec!["explain", "x", "--trace", "t"],
        vec!["explain", "chain:x", "--trace", "t"],
        vec!["explain", "chain:", "--trace", "t"],
        vec!["explain", "chain:chain:4", "--trace", "t"],
        vec!["explain", "CHAIN:4", "--trace", "t"],
        vec!["explain", "-5", "--trace", "t"],
        vec!["explain", "+5", "--trace", "t"],
        vec!["explain", "", "--trace", "t"],
        vec!["explain", "x"],
        vec!["topo", "nsfnet"],
    ]);

    // `--no-cascade` before and after the knobs that bring it back.
    for knob in [
        ["--cascade-threshold", "0.6"],
        ["--cascade-hazard", "0.5"],
        ["--cascade-slots", "3"],
    ] {
        cases.push(vec!["degradation", "--no-cascade", knob[0], knob[1]]);
        cases.push(vec!["degradation", knob[0], knob[1], "--no-cascade"]);
    }
    cases.push(vec!["degradation", "--no-cascade", "--no-cascade"]);

    // A repeated flag: the last one wins.
    cases.extend([
        vec!["simulate", "--topology", "geant", "--topology", "er:10:0.5"],
        vec!["simulate", "--trace", "a", "--trace", "b"],
        vec!["simulate", "--scheme", "offsite", "--scheme", "onsite"],
        vec!["simulate", "--requests", "5", "--requests", "x"],
        vec!["failures", "--policy", "none", "--policy", "offsite"],
        vec!["degradation", "--domains", "0", "--domains", "2"],
        vec![
            "chain",
            "--shared-backups",
            "none",
            "--shared-backups",
            "on",
        ],
        vec!["serve", "--addr", "a:1", "--addr", "b:2"],
        vec!["serve", "--tick-ms", "5", "--tick-ms", "6"],
        vec!["loadgen", "--open-loop", "--batch", "0", "--batch", "8"],
        vec!["topo", "--seed", "4", "--seed", "5", "--dot", "--dot"],
        vec!["failover-drill", "--out", "a", "--out", "b"],
        vec!["chaos-drill", "--out", "a", "--out", "b"],
    ]);

    // The families mixed on one command line.
    cases.extend([
        vec![
            "degradation",
            "--requests",
            "80",
            "--mttf",
            "20",
            "--domains",
            "3",
            "--scheme",
            "offsite",
            "--policy",
            "offsite",
            "--no-shed",
            "-q",
        ],
        vec![
            "chain",
            "--mixed",
            "--requests",
            "30",
            "--chains",
            "10",
            "--trace",
            "c.jsonl",
        ],
        vec![
            "serve", "--shards", "2", "--queue", "4096", "--scheme", "offsite", "-q",
        ],
        vec![
            "loadgen",
            "--open-loop",
            "--shards",
            "2",
            "--conns",
            "2",
            "--batch",
            "256",
            "--window",
            "8",
        ],
    ]);

    cases
        .into_iter()
        .map(|argv| argv.into_iter().map(str::to_string).collect())
        .collect()
}

fn produce() -> String {
    let mut text = String::new();
    for argv in cases() {
        let outcome = format!("{:?}", parse(&argv));
        assert!(!outcome.contains('\n'), "{argv:?}: outcome holds a newline");
        text.push_str(&format!("{argv:?}\t{outcome}\n"));
    }
    text
}

#[test]
fn help_prints_its_golden_bytes() {
    assert_eq!(USAGE, HELP, "USAGE drifted from tests/golden/cli_help.txt");
}

#[test]
fn every_argument_vector_parses_as_its_golden_row() {
    let produced = produce();
    for (i, (got, want)) in produced.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "row {} moved (parser left, golden right)", i + 1);
    }
    assert_eq!(
        produced.lines().count(),
        GOLDEN.lines().count(),
        "row count moved; the parser now answers:\n{produced}"
    );
}

/// One `… OPTIONS` section of `USAGE`.
struct Section {
    /// The upper-case command name the section documents.
    name: &'static str,
    /// The heading line, which names the sections this one inherits.
    heading: &'static str,
    /// Each flag the section lists, and whether it shows a metavar.
    flags: Vec<(&'static str, bool)>,
}

fn sections() -> Vec<Section> {
    let mut sections: Vec<Section> = Vec::new();
    for line in USAGE.lines() {
        if let Some((name, _)) = line.split_once(" OPTIONS") {
            if !name.starts_with(' ') {
                let flags = Vec::new();
                sections.push(Section {
                    name,
                    heading: line,
                    flags,
                });
                continue;
            }
        }
        let Some(section) = sections.last_mut() else {
            continue;
        };
        // Flags are listed at a two-space indent; descriptions sit deeper.
        if !line.starts_with("  ") || line.starts_with("   ") {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        for (i, word) in words.iter().enumerate() {
            let word = word.trim_end_matches(',');
            let listed = i == 0 || words[i - 1] == "|" || words[i - 1] == "--quiet,";
            if listed && word.starts_with('-') && word.len() > 1 {
                let takes_value = words.get(i + 1).is_some_and(|w| w.starts_with('<'));
                section.flags.push((word, takes_value));
            }
        }
    }
    sections
}

/// `(command, [(flag, takes a value)])` for each section of `USAGE`,
/// with the flags of the sections its heading names folded in.
fn documented_flags() -> Vec<(String, Vec<(&'static str, bool)>)> {
    let sections = sections();
    let inherits = |section: &Section, other: &Section| {
        let rest = section
            .heading
            .split_once(" OPTIONS")
            .map_or("", |(_, r)| r);
        let names = |w: &str| w.trim_matches(|c: char| !c.is_ascii_uppercase()) == other.name;
        other.name != section.name && rest.split_whitespace().any(names)
    };
    sections
        .iter()
        .map(|section| {
            let mut flags = section.flags.clone();
            let mut pending = vec![section];
            while let Some(next) = pending.pop() {
                for other in sections.iter().filter(|other| inherits(next, other)) {
                    flags.extend(other.flags.iter().copied());
                    pending.push(other);
                }
            }
            (section.name.to_ascii_lowercase(), flags)
        })
        .collect()
}

#[test]
fn every_flag_the_help_lists_is_accepted() {
    let sections = documented_flags();
    assert_eq!(sections.len(), 14, "one OPTIONS section per command");
    for (cmd, flags) in sections {
        assert!(!flags.is_empty(), "{cmd} lists no flags");
        for (flag, takes_value) in flags {
            let mut argv = vec![cmd.clone(), flag.to_string()];
            if takes_value {
                let Err(ParseError(bare)) = parse(&argv) else {
                    panic!("`{cmd} {flag}` parsed without its value");
                };
                assert_eq!(bare, format!("{flag} expects a value"), "`{cmd} {flag}`");
                argv.push("2".into());
            }
            if let Err(ParseError(e)) = parse(&argv) {
                assert!(
                    !e.starts_with("unknown option"),
                    "`{}` is documented but refused: {e}",
                    argv.join(" ")
                );
            }
        }
    }
}
