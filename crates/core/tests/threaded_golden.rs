//! The threaded executor at one worker, pinned: with a single worker
//! thread and its FIFO queue, a seeded run is deterministic, so the
//! report, the final store (ids included) and the transaction and wake
//! counters of three societies over one and four shards must match the
//! golden exactly.

use std::fmt::Write as _;

use sdl_core::parallel::ParallelRuntime;
use sdl_core::CompiledProgram;
use sdl_metrics::{Counter, Metrics};
use sdl_tuple::Value;

/// Workers draining a job pool.
const JOB_DRAIN: &str = "
    process Worker() {
        loop { exists j : <job, j>! -> <done, j> }
    }
    init {
        <job, 1>; <job, 2>; <job, 3>; <job, 4>; <job, 5>;
        <job, 6>; <job, 7>; <job, 8>; <job, 9>; <job, 10>;
        spawn Worker(); spawn Worker(); spawn Worker();
    }";

/// Delayed consumers spawned before their producers, so every consumer
/// parks and is woken by a producer's commit.
const PRODUCER_CONSUMER: &str = "
    process Consumer(n) {
        exists v : <item, v>! => <got, n, v>;
    }
    process Producer(n) {
        -> <item, n>;
    }";

/// Workers that, after their loop ends, record any job still present.
const PREMATURE: &str = "
    process W() {
        loop { exists j : <job, j>! -> <done, j> }
        exists j : <job, j> -> <premature, j>;
    }
    init {
        <job, 1>; <job, 2>; <job, 3>; <job, 4>; <job, 5>; <job, 6>;
        spawn W(); spawn W(); spawn W();
    }";

const COUNTERS: [Counter; 10] = [
    Counter::TxnAttemptsImmediate,
    Counter::TxnAttemptsDelayed,
    Counter::TxnAttemptsConsensus,
    Counter::TxnCommittedImmediate,
    Counter::TxnCommittedDelayed,
    Counter::TxnCommittedConsensus,
    Counter::WakeupCommit,
    Counter::WakeProgress,
    Counter::WakeSpurious,
    Counter::ProcessesBlocked,
];

/// One run at one worker over `shards` shards, rendered as text.
fn render(name: &str, src: &str, shards: usize) -> String {
    let program = CompiledProgram::from_source(src).expect("compiles");
    let (metrics, registry) = Metrics::registry();
    let mut b = ParallelRuntime::builder(program)
        .threads(1)
        .shards(shards)
        .seed(1)
        .metrics(metrics);
    if name == "producer_consumer" {
        for n in 0..6i64 {
            b = b.spawn("Consumer", vec![Value::Int(n)]);
        }
        for n in 0..6i64 {
            b = b.spawn("Producer", vec![Value::Int(n)]);
        }
    }
    let (report, ds) = b.build().expect("builds").run().expect("runs");
    let mut out = format!("== {name} shards={shards}\n{report:?}\n");
    for c in COUNTERS {
        writeln!(out, "{c:?} {}", registry.counter(c)).unwrap();
    }
    let mut store: Vec<_> = ds.iter().map(|(id, t)| (id, t.to_string())).collect();
    store.sort();
    for (id, t) in store {
        writeln!(out, "{id:?} {t}").unwrap();
    }
    out
}

#[test]
fn one_worker_runs_match_the_golden() {
    let mut text = String::new();
    for (name, src) in [
        ("job_drain", JOB_DRAIN),
        ("producer_consumer", PRODUCER_CONSUMER),
        ("premature", PREMATURE),
    ] {
        for shards in [1, 4] {
            text.push_str(&render(name, src, shards));
        }
    }
    assert_eq!(text, include_str!("goldens/threaded_threads1.golden"));
}
