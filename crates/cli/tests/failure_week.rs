//! Pins the fault loop's output through the installed binary: the
//! `failures` and `degradation` commands at 20 000 requests over 2 016
//! slots must print `results/failure_week.txt`'s sections byte for byte.
//! The week-sized half of that file is checked by CI's perf smoke, which
//! also bounds the run time.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../results/failure_week.txt");

/// The golden file's sections: each `$ vnfrel <args>` header line with
/// the stdout that followed it.
fn sections() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&str, String)> = Vec::new();
    for line in GOLDEN.lines() {
        match line.strip_prefix("$ vnfrel ") {
            Some(args) => out.push((args, String::new())),
            None => {
                let body = &mut out.last_mut().expect("golden starts with a command").1;
                body.push_str(line);
                body.push('\n');
            }
        }
    }
    out
}

#[test]
fn small_shape_matches_golden() {
    let small: Vec<_> = sections()
        .into_iter()
        .filter(|(args, _)| args.contains("--requests 20000 "))
        .collect();
    assert_eq!(small.len(), 2, "failures and degradation at 20000 x 2016");
    for (args, expected) in small {
        let result = Command::new(env!("CARGO_BIN_EXE_vnfrel"))
            .args(args.split_whitespace())
            .output()
            .expect("vnfrel spawns");
        assert!(result.status.success(), "`vnfrel {args}` failed");
        assert_eq!(
            String::from_utf8_lossy(&result.stdout),
            expected,
            "`vnfrel {args}` drifted from results/failure_week.txt"
        );
    }
}
