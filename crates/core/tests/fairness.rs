//! Weak fairness, measured: one producer and two delayed consumers on
//! `<item, *>`. Each consumer takes one item and respawns itself, so a
//! consumer's process id grows with every item it takes, and a fair
//! wake order serves the older waiter first.
//!
//! The **bypass count** is computed from the observation stream alone: a
//! waiter becomes *pending* when a wake ends its park (an `Unpark` with
//! outcome `Woken`), and stays pending through spurious re-parks until
//! it commits. Every commit by another process that retracts an
//! `<item, *>` tuple while a waiter is pending bypasses that waiter. The
//! test pins the worst single waiter's count and the run's total at the
//! values the serial and rounds schedulers reach, for fixed seeds.

use std::collections::HashMap;

use sdl_core::{CompiledProgram, ParkOutcome, Runtime, TraceRecord, Tracer};
use sdl_tuple::{ProcId, Value};

const SOCIETY: &str = "
    process Producer() {
        loop {
            exists n : <next, n>! : n < 12 -> <half, n>
          | exists n : <half, n>! -> <item, n>, <next, n + 1>
        }
    }
    process Consumer(k) {
        exists v : <item, v>! => <got, k, v>, spawn Consumer(k);
    }
    init { <next, 0>; spawn Producer(); spawn Consumer(1); spawn Consumer(2); }";

/// `(max over waiters, total)` bypasses in one run's records.
fn bypasses(records: &[TraceRecord]) -> (u64, u64) {
    let mut pending: HashMap<ProcId, bool> = HashMap::new();
    let mut count: HashMap<ProcId, u64> = HashMap::new();
    for r in records {
        match r {
            TraceRecord::Unpark {
                pid,
                outcome: ParkOutcome::Woken,
                ..
            } => {
                pending.insert(*pid, true);
            }
            TraceRecord::Commit {
                parts, retracted, ..
            } => {
                for (pid, _) in parts {
                    pending.insert(*pid, false);
                }
                let items = retracted
                    .iter()
                    .filter(|(_, _, t)| t[0] == Value::atom("item"))
                    .count() as u64;
                for (pid, waiting) in &pending {
                    if *waiting && items > 0 {
                        *count.entry(*pid).or_default() += items;
                    }
                }
            }
            _ => {}
        }
    }
    (
        count.values().copied().max().unwrap_or(0),
        count.values().sum(),
    )
}

fn run(seed: u64, rounds: bool) -> (u64, u64) {
    let tracer = Tracer::new();
    let program = CompiledProgram::from_source(SOCIETY).expect("compiles");
    let mut rt = Runtime::builder(program)
        .seed(seed)
        .tracer(tracer.clone())
        .build()
        .expect("builds");
    if rounds {
        rt.run_rounds().expect("runs");
    } else {
        rt.run().expect("runs");
    }
    assert_eq!(tracer.dropped(), 0);
    let got = rt
        .dataspace()
        .iter()
        .filter(|(_, t)| t[0] == Value::atom("got"))
        .count();
    assert_eq!(got, 12, "every item is consumed");
    bypasses(&tracer.take())
}

/// `(seed, rounds, max, total)` as measured before the process
/// interpreter was shared between the executors.
const PINNED: [(u64, bool, u64, u64); 6] = [
    (1, false, 1, 12),
    (2, false, 1, 12),
    (3, false, 1, 12),
    (1, true, 2, 6),
    (2, true, 2, 5),
    (3, true, 3, 8),
];

#[test]
fn serial_and_rounds_bypass_counts_stay_pinned() {
    for (seed, rounds, max, total) in PINNED {
        let (got_max, got_total) = run(seed, rounds);
        assert!(
            got_max <= max && got_total <= total,
            "seed {seed} rounds {rounds}: bypasses (max, total) = ({got_max}, {got_total}), pinned ({max}, {total})"
        );
    }
}
