//! Pins the fault loop's output through the installed binary, against
//! two golden files:
//!
//! * `results/failure_week.txt` — the stdout of the `failures` and
//!   `degradation` commands;
//! * `results/failure_week_digests.txt` — the FNV-1a 64-bit digest of
//!   every file those commands (and one `simulate`) write under
//!   `--sla-csv`, `--timeline-csv` and `--trace`. These pin what the
//!   summary lines cannot: each request's SLA row, the per-slot counters
//!   and the order of trace events.
//!
//! At 20 000 requests over 2 016 slots every command must reproduce both
//! byte for byte. The week-sized half (131 072 × 10 080) is
//! `week_shape_matches_golden`: ignored here, run in release by CI's
//! fault-loop week smoke, which also bounds the run time.

use std::path::PathBuf;
use std::process::Command;

const STDOUT: &str = include_str!("../../../results/failure_week.txt");
const DIGESTS: &str = include_str!("../../../results/failure_week_digests.txt");

/// A golden file's sections: each `$ vnfrel <args>` header line with the
/// lines that followed it.
fn sections(golden: &'static str) -> Vec<(&'static str, Vec<&'static str>)> {
    let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in golden.lines() {
        match line.strip_prefix("$ vnfrel ") {
            Some(args) => out.push((args, Vec::new())),
            None => out
                .last_mut()
                .expect("golden starts with a command")
                .1
                .push(line),
        }
    }
    out
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs every golden command at `--requests <requests>`, each once with
/// the digested files written to a scratch directory, and holds its
/// stdout and files to the goldens.
fn check_shape(requests: usize) {
    let marker = format!("--requests {requests} ");
    let stdout_golden: Vec<_> = sections(STDOUT)
        .into_iter()
        .filter(|(args, _)| args.contains(&marker))
        .collect();
    let dir = std::env::temp_dir().join(format!(
        "vnfrel-failure-week-{requests}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut stdout_checked = 0;
    for (args, digests) in sections(DIGESTS) {
        if !args.contains(&marker) {
            continue;
        }
        let files: Vec<(&str, &str, PathBuf)> = digests
            .iter()
            .map(|line| {
                let (flag, digest) = line.split_once(' ').expect("`<flag> <digest>`");
                (flag, digest, dir.join(flag.trim_start_matches('-')))
            })
            .collect();
        let mut command = Command::new(env!("CARGO_BIN_EXE_vnfrel"));
        command.args(args.split_whitespace());
        for (flag, _, path) in &files {
            command.arg(flag).arg(path);
        }
        let result = command.output().expect("vnfrel spawns");
        assert!(result.status.success(), "`vnfrel {args}` failed");
        if let Some((_, lines)) = stdout_golden.iter().find(|(a, _)| *a == args) {
            let expected: String = lines.iter().map(|l| format!("{l}\n")).collect();
            assert_eq!(
                String::from_utf8_lossy(&result.stdout),
                expected,
                "`vnfrel {args}` drifted from results/failure_week.txt"
            );
            stdout_checked += 1;
        }
        for (flag, want, path) in &files {
            let bytes = std::fs::read(path).expect("the command wrote its file");
            assert_eq!(
                format!("{:016x}", fnv1a64(&bytes)),
                *want,
                "`vnfrel {args}`: {flag} drifted from results/failure_week_digests.txt"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        stdout_checked, 2,
        "failures and degradation at {requests} requests, each with its digests"
    );
}

#[test]
fn small_shape_matches_golden() {
    check_shape(20_000);
}

#[test]
#[ignore = "week-sized: CI's fault-loop week smoke runs it in release"]
fn week_shape_matches_golden() {
    check_shape(131_072);
}
