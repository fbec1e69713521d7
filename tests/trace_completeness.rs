//! Trace-completeness invariants over all three schedulers:
//!
//! * every committed transaction carries a trace id that also owns at
//!   least one `eval` span (the span chain is never broken);
//! * every wake-attribution edge names a commit that exists in the
//!   trace, and the watch key it fired on is one of that commit's
//!   changed keys;
//! * every woken process has a park interval covering the watch key it
//!   was woken on.

use std::collections::{HashMap, HashSet};

use sdl::core::parallel::ParallelRuntime;
use sdl::core::{CompiledProgram, Runtime, SpanPhase, TraceRecord, Tracer};
use sdl::tuple::Value;

/// A token chain: consumer `C(k)` parks on `<item, k, _>`, producer
/// `P(k)` parks on `<tok, k, _>`; each consumer hands the token to the
/// next producer, so every process parks and wakes at least once.
const CHAIN: &str = "process C(k) {
        exists x : <item, k, x>! => <got, k>, <tok, k + 1, 0>;
    }
    process P(k) {
        exists x : <tok, k, x>! => <item, k, 0>;
    }";

const N: i64 = 8;

fn chain_program() -> CompiledProgram {
    CompiledProgram::from_source(CHAIN).expect("compiles")
}

/// Checks the completeness invariants; returns (commits, wakes) so
/// callers can assert the run actually exercised the machinery.
fn check_records(records: &[TraceRecord], ctx: &str) -> (usize, usize) {
    let mut commit_keys: HashMap<u64, &[String]> = HashMap::new();
    let mut eval_traces: HashSet<u64> = HashSet::new();
    for r in records {
        match r {
            TraceRecord::Commit { commit, keys, .. } => {
                assert!(*commit != 0, "{ctx}: commit with id 0");
                let prev = commit_keys.insert(*commit, keys);
                assert!(prev.is_none(), "{ctx}: duplicate commit id {commit}");
            }
            TraceRecord::Span { trace, phase, .. } if *phase == SpanPhase::Eval => {
                eval_traces.insert(*trace);
            }
            _ => {}
        }
    }
    let mut wakes = 0usize;
    for r in records {
        match r {
            TraceRecord::Commit { trace, commit, .. } => {
                assert!(
                    eval_traces.contains(trace),
                    "{ctx}: commit {commit} (trace {trace}) has no eval span"
                );
            }
            TraceRecord::Wake {
                pid, commit, key, ..
            } => {
                wakes += 1;
                assert!(
                    *commit != 0,
                    "{ctx}: wake of {pid} without a causing commit"
                );
                let keys = commit_keys.get(commit).unwrap_or_else(|| {
                    panic!("{ctx}: wake of {pid} cites unknown commit {commit}")
                });
                // "child-exit" (replication parent resumed) and
                // "consensus" (community barrier fired) are synthetic
                // edges, not watch-key wakes.
                if key != "child-exit" && key != "consensus" {
                    assert!(
                        keys.contains(key) || keys.iter().any(|k| k == "\u{2026}"),
                        "{ctx}: wake key {key} not in commit {commit}'s keys {keys:?}"
                    );
                    let parked_on_key = records.iter().any(|p| {
                        matches!(p, TraceRecord::Park { pid: ppid, keys, .. }
                            if ppid == pid && (keys.contains(key) || keys.iter().any(|k| k == "\u{2026}")))
                    });
                    assert!(
                        parked_on_key,
                        "{ctx}: {pid} woken on {key} but never parked watching it"
                    );
                }
            }
            _ => {}
        }
    }
    (commit_keys.len(), wakes)
}

fn serial_runtime(rounds: bool) -> (Tracer, Vec<TraceRecord>) {
    let tracer = Tracer::new();
    let mut b = Runtime::builder(chain_program())
        .seed(3)
        .tracer(tracer.clone())
        .tuple(sdl::tuple::tuple![Value::atom("tok"), 0, 0]);
    for k in 0..N {
        b = b.spawn("C", vec![Value::Int(k)]);
        b = b.spawn("P", vec![Value::Int(k)]);
    }
    let mut rt = b.build().expect("builds");
    let report = if rounds {
        rt.run_rounds().expect("runs")
    } else {
        rt.run().expect("runs")
    };
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    let records = tracer.take();
    (tracer, records)
}

#[test]
fn serial_traces_are_complete() {
    let (tracer, records) = serial_runtime(false);
    assert_eq!(tracer.dropped(), 0);
    let (commits, wakes) = check_records(&records, "serial");
    assert_eq!(
        commits as i64,
        2 * N,
        "every transaction commits exactly once"
    );
    assert!(
        wakes >= N as usize,
        "token chain must wake every producer: {wakes}"
    );
}

#[test]
fn rounds_traces_are_complete() {
    let (_, records) = serial_runtime(true);
    let (commits, wakes) = check_records(&records, "rounds");
    assert_eq!(commits as i64, 2 * N);
    // Rounds mode re-evaluates the society every round, so parks are
    // rarer, but the chain still forces some.
    let _ = wakes;
}

#[test]
fn threaded_traces_are_complete() {
    for shards in [1usize, 4] {
        let tracer = Tracer::new();
        let mut b = ParallelRuntime::builder(chain_program())
            .threads(4)
            .shards(shards)
            .seed(3)
            .tracer(tracer.clone())
            .tuple(sdl::tuple::tuple![Value::atom("tok"), 0, 0]);
        for k in 0..N {
            b = b.spawn("C", vec![Value::Int(k)]);
            b = b.spawn("P", vec![Value::Int(k)]);
        }
        let (report, _) = b.build().expect("builds").run().expect("runs");
        assert!(report.outcome.is_completed(), "{:?}", report.outcome);
        let records = tracer.take();
        assert_eq!(tracer.dropped(), 0);
        let (commits, _) = check_records(&records, &format!("threaded/{shards}"));
        assert_eq!(commits as i64, 2 * N, "shards={shards}");
        // One Spawn and one Exit for every process the run started.
        let pids = |exit: bool| {
            let mut v: Vec<_> = records
                .iter()
                .filter_map(|r| match r {
                    TraceRecord::Spawn { pid, .. } if !exit => Some(*pid),
                    TraceRecord::Exit { pid, .. } if exit => Some(*pid),
                    _ => None,
                })
                .collect();
            v.sort_unstable();
            v
        };
        let spawned = pids(false);
        assert_eq!(spawned.len() as i64, 2 * N, "shards={shards}");
        assert!(spawned.windows(2).all(|w| w[0] != w[1]), "shards={shards}");
        assert_eq!(spawned, pids(true), "shards={shards}");
    }
}

#[test]
fn tracing_does_not_perturb_execution() {
    // E4-style overhead guard, semantic half: a disabled tracer records
    // nothing, and enabling tracing must not change what a seeded run
    // computes — only observe it.
    let final_store = |tracer: Tracer| {
        let mut b = Runtime::builder(chain_program())
            .seed(11)
            .tracer(tracer)
            .tuple(sdl::tuple::tuple![Value::atom("tok"), 0, 0]);
        for k in 0..N {
            b = b.spawn("C", vec![Value::Int(k)]);
            b = b.spawn("P", vec![Value::Int(k)]);
        }
        let mut rt = b.build().expect("builds");
        rt.run().expect("runs");
        let mut pairs: Vec<_> = rt
            .dataspace()
            .iter()
            .map(|(id, t)| (id, t.clone()))
            .collect();
        pairs.sort();
        pairs
    };
    let off = Tracer::disabled();
    let store_off = final_store(off.clone());
    assert!(off.take().is_empty(), "disabled tracer must record nothing");
    let on = Tracer::new();
    let store_on = final_store(on.clone());
    assert!(!on.take().is_empty(), "enabled tracer must record");
    assert_eq!(store_off, store_on, "tracing changed the computation");
}

#[test]
fn consensus_commits_keep_the_span_chain() {
    // Consensus transactions commit through the community-firing path;
    // their trace id must still own an eval span (from the last probe).
    let program = CompiledProgram::from_source(
        "process A() { <go> @> skip; -> <done_a>; }
         process B() { <go> @> skip; -> <done_b>; }",
    )
    .expect("compiles");
    let tracer = Tracer::new();
    let mut rt = Runtime::builder(program)
        .seed(0)
        .tracer(tracer.clone())
        .tuple(sdl::tuple::tuple![Value::atom("go")])
        .spawn("A", vec![])
        .spawn("B", vec![])
        .build()
        .expect("builds");
    let report = rt.run().expect("runs");
    assert!(report.outcome.is_completed(), "{:?}", report.outcome);
    let records = tracer.take();
    let (commits, _) = check_records(&records, "consensus");
    assert!(commits >= 1, "consensus firing must record a commit");
}
