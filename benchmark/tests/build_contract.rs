//! The promises the benchmark makes about how it is built and what it
//! is held to: the same release profile as the program it measures, a
//! `BENCHMARK.json` that matches the names compiled into the binary, a
//! frozen reference lap, and a single adapter module.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vnfrel_benchmark::contract::{END_TO_END, PER_LAYER, WORKLOADS};
use vnfrel_benchmark::json::{self, Json};
use vnfrel_benchmark::reflap::{lap, LapInput, LAP_COPIES, LAP_DIGEST};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

// The `key = value` lines of one TOML table, comments and blanks dropped.
fn toml_table(text: &str, header: &str) -> BTreeMap<String, String> {
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| {
            let l = l.split('#').next().unwrap_or("").trim();
            l.split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

#[test]
fn release_profile_repeats_the_root_workspace() {
    // Cargo takes profiles from the building workspace: if these differ,
    // the benchmark measures a differently optimised program.
    let root = toml_table(&read(&repo_root().join("Cargo.toml")), "[profile.release]");
    let own = toml_table(
        &read(&repo_root().join("benchmark/Cargo.toml")),
        "[profile.release]",
    );
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(
        root, own,
        "benchmark/Cargo.toml [profile.release] drifted from the root"
    );
}

#[test]
fn build_products_are_ignored() {
    let ignore = read(&repo_root().join(".gitignore"));
    for entry in ["/benchmark/target", "/benchmark/out", "/.bench_build"] {
        assert!(
            ignore.lines().any(|l| l.trim() == entry),
            ".gitignore lacks {entry}"
        );
    }
}

fn strings(v: &Json, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|s| s.as_str().expect("a string").to_string())
        .collect()
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}"))
}

#[test]
fn benchmark_json_matches_the_compiled_contract() {
    let doc = json::parse(&read(&repo_root().join("BENCHMARK.json"))).expect("valid JSON");
    let keys: Vec<&String> = doc.as_object().expect("an object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ],
        "BENCHMARK.json has exactly the contract's keys"
    );
    assert_eq!(strings(&doc, "command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings(&doc, "paths"), ["benchmark"]);
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(20.0));

    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(field(entry, "name"), name);
        assert_eq!(field(entry, "why"), why);
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one line of ≤ 200"
        );
    }

    let e2e = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name"), name);
        assert_eq!(field(entry, "unit"), unit);
        assert_eq!(field(entry, "better"), better);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
    }
    // The bounds ISSUE 12 fixed; a spread that does not fit one is met
    // with more repetitions, never with a wider bound.
    assert_eq!(
        END_TO_END.map(|(name, _, _, bound)| (name, bound)),
        [
            ("setup_s", 0.10),
            ("decisions_per_s", 0.08),
            ("cpu_us_per_decision", 0.08),
            ("latency_p50_us", 0.10),
            ("revenue_ratio", 0.02),
            ("peak_rss_mb", 0.10),
        ]
    );

    let layers = doc
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(entry, "name"), *name);
        assert_eq!(field(entry, "unit"), *unit);
        assert_eq!(field(entry, "better"), *better);
    }

    // Names are used once, across all three lists.
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        total,
        "a metric or workload name is used twice"
    );
}

#[test]
fn reference_lap_is_frozen() {
    // The literal is repeated here on purpose: editing the lap means
    // editing its constant *and* this test, with REF_NOMINAL_US
    // re-measured and every baseline retaken.
    assert_eq!(LAP_DIGEST, 0x2d95_bf5b_1f5e_b8c6);
    let input = LapInput::frozen();
    for copy in LAP_COPIES {
        assert_eq!(copy(&input).digest(), LAP_DIGEST);
    }
    assert_eq!(
        lap(&input),
        lap(&input),
        "the lap is a pure function of its input"
    );
}

// Source lines that are code, not comments.
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|l| !l.trim_start().starts_with("//"))
}

const WORKSPACE_CRATES: [&str; 9] = [
    "vnfrel::",
    "mec_topology",
    "mec_workload",
    "mec_sim",
    "mec_obs",
    "mec_serve",
    "lp_solver",
    "rand::",
    "rand_chacha",
];

#[test]
fn reference_lap_imports_nothing_from_the_workspace() {
    let text = read(&repo_root().join("benchmark/src/reflap.rs"));
    for line in code_lines(&text) {
        assert!(
            !line.trim_start().starts_with("use ") || line.trim_start().starts_with("use std"),
            "reflap.rs may only `use std`: {line}"
        );
        for krate in WORKSPACE_CRATES.iter().chain(&["crate::", "super::"]) {
            assert!(!line.contains(krate), "reflap.rs names {krate}: {line}");
        }
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_the_adapter_names_workspace_crates() {
    // Later refactors of the workspace may not edit benchmark/: the
    // surface they must keep compiling has to sit in one module.
    let src = repo_root().join("benchmark/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    assert!(files.len() > 10, "source tree not found");
    for path in files {
        if path.starts_with(src.join("adapter")) {
            continue;
        }
        let text = read(&path);
        for line in code_lines(&text) {
            for krate in WORKSPACE_CRATES {
                assert!(
                    !line.contains(krate),
                    "{} names {krate} outside src/adapter/: {line}",
                    path.display()
                );
            }
        }
    }
}
