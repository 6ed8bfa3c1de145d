//! Pins the mixed singles + chains run through the installed binary:
//! `results/chain_mixed_quick.txt` holds the stdout of `vnfrel chain
//! --quick --mixed --seed 3` in each backup mode, each under a
//! `$ vnfrel <args>` header line. Every command must reproduce its
//! section byte for byte: the admission counts and revenues pin
//! `MixedSimulation::run`, and the `chain failure injection` line pins
//! the Monte-Carlo referee's printed margin.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../results/chain_mixed_quick.txt");

#[test]
fn mixed_chain_runs_match_golden() {
    let mut checked = 0;
    for section in GOLDEN.split("$ vnfrel ").skip(1) {
        let (args, expected) = section.split_once('\n').expect("header line");
        let result = Command::new(env!("CARGO_BIN_EXE_vnfrel"))
            .args(args.split_whitespace())
            .output()
            .expect("vnfrel spawns");
        assert!(result.status.success(), "`vnfrel {args}` failed");
        assert_eq!(
            String::from_utf8_lossy(&result.stdout),
            expected,
            "`vnfrel {args}` drifted from results/chain_mixed_quick.txt"
        );
        checked += 1;
    }
    assert_eq!(checked, 3, "one section per backup mode");
}
