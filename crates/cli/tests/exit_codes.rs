//! Inputs that once panicked or were blamed on the program exit with
//! the typed code of their cause: a usage error (2) for a flag value the
//! parser can refuse, a configuration error (3) for one only the model
//! can. None of them may panic on the way.

use std::process::Command;

#[test]
fn bad_values_exit_with_their_typed_code() {
    for (args, code) in [
        ("simulate --horizon 0", 2),
        ("topo --topology er:5:nan", 3),
        ("degradation --backoff 0", 3),
        ("degradation --headroom 2", 3),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_vnfrel"))
            .args(args.split_whitespace())
            .output()
            .expect("vnfrel spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "`vnfrel {args}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`vnfrel {args}`: {stderr}");
    }
}
