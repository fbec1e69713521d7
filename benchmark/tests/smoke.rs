//! The names the benchmark prints are exactly the names
//! `BENCHMARK.json` declares: `--quick` runs every workload, untraced
//! and traced, and the results file is compared with the spec.
//!
//! Needs the root release `sdl-server` (`SDL_SERVER_BIN`, or
//! `target/release/sdl-server` under the repository root);
//! `benchmark/run.sh test` builds it first.

use std::path::{Path, PathBuf};
use std::process::Command;

use sdl::trace::json::{self, Json};

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

fn keys(obj: Option<&Json>) -> Vec<String> {
    match obj {
        Some(Json::Obj(m)) => m.keys().cloned().collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn quick_suite_prints_exactly_the_declared_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let server = std::env::var_os("SDL_SERVER_BIN")
        .map_or_else(|| root.join("target/release/sdl-server"), PathBuf::from);
    assert!(
        server.exists(),
        "{} is missing: run `cargo build --release` at the repository root, or `benchmark/run.sh test`",
        server.display()
    );
    let seed = "424242";
    let status = Command::new(env!("CARGO_BIN_EXE_sdl-benchmark"))
        .args(["suite", "--quick", "--traced", "--seed", seed])
        .env("SDL_SERVER_BIN", &server)
        .current_dir(root)
        .status()
        .expect("the benchmark starts");
    assert!(status.success(), "the quick suite failed");

    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&spec).expect("BENCHMARK.json parses");
    let results = root.join(format!("benchmark/out/results-{seed}.json"));
    let results = json::parse(&std::fs::read_to_string(results).expect("results file"))
        .expect("results file parses");

    let workloads = results.get("workloads");
    assert_eq!(
        sorted(keys(workloads)),
        sorted(names(spec.get("workloads").expect("workloads")))
    );
    for w in keys(workloads) {
        let run = workloads.and_then(|ws| ws.get(&w)).expect("a workload");
        for (section, declared) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let section = run
                .get(section)
                .unwrap_or_else(|| panic!("{w}: no {section}"));
            assert_eq!(section.get("failed").and_then(Json::as_u64), Some(0), "{w}");
            assert_eq!(
                sorted(keys(section.get("metrics"))),
                sorted(names(spec.get(declared).expect("declared metrics"))),
                "{w}: printed and declared {declared} names differ"
            );
        }
    }
}
