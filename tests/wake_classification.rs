//! Property: every wakeup is classified exactly once —
//! `sdl_wakes_total{result="progress"}` +
//! `sdl_wakes_total{result="spurious"}` equals `sdl_wakeups_total` —
//! under the threaded executor on completed runs, and under the serial
//! and rounds schedulers on a replication parent woken by its last
//! child and on a run cut at the attempt cap. (The threaded
//! epoch-requeue path, where a commit races past the blocked lists
//! before a parking process becomes visible, counts as neither: the
//! process never actually parked.)

use proptest::prelude::*;

use sdl::core::parallel::ParallelRuntime;
use sdl::core::{CompiledProgram, RunLimits, Runtime};
use sdl::metrics::{Counter, Metrics};
use sdl_tuple::{tuple, Value};

/// Token-chain workload: the producers run serialised by a token, and
/// every consumer parks until its item arrives, forcing real wakes. A
/// `keyed` consumer names its key in the pattern and parks on that
/// value; the other tests the key after matching, so its pattern has no
/// constant slot, it parks on the whole `item` relation, and every item
/// wakes it — spuriously unless the item is its own.
fn chain_program(keyed: bool) -> CompiledProgram {
    let consume = if keyed {
        "exists x : <item, k, x>!"
    } else {
        "exists j, x : <item, j, x>! : j == k"
    };
    CompiledProgram::from_source(&format!(
        "process C(k) {{
            {consume} => <got, k>, <tok, k + 1, 0>;
         }}
         process P(k) {{
            exists x : <tok, k, x>! => <item, k, 0>;
         }}"
    ))
    .expect("compiles")
}

/// Runs the chain threaded; returns (wakeup_commit, progress, spurious,
/// completed).
fn run_chain(seed: u64, shards: usize, n: i64, keyed: bool) -> (u64, u64, u64, bool) {
    let (metrics, registry) = Metrics::registry();
    let mut b = ParallelRuntime::builder(chain_program(keyed))
        .threads(4)
        .shards(shards)
        .seed(seed)
        .metrics(metrics)
        .tuple(tuple![Value::atom("tok"), 0, 0]);
    for k in 0..n {
        b = b.spawn("C", vec![Value::Int(k)]);
        b = b.spawn("P", vec![Value::Int(k)]);
    }
    let (report, _) = b.build().expect("builds").run().expect("runs");
    (
        registry.counter(Counter::WakeupCommit),
        registry.counter(Counter::WakeProgress),
        registry.counter(Counter::WakeSpurious),
        report.outcome.is_completed(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wake_classification_balances(seed in 0u64..64, n in 2i64..8) {
        for shards in [1usize, 4] {
            for keyed in [true, false] {
                let (wakeups, progress, spurious, completed) =
                    run_chain(seed, shards, n, keyed);
                prop_assert!(completed, "chain must complete (shards={shards})");
                prop_assert_eq!(
                    progress + spurious,
                    wakeups,
                    "shards={} keyed={}: progress {} + spurious {} != wakeups {}",
                    shards, keyed, progress, spurious, wakeups
                );
            }
        }
    }
}

#[test]
fn chain_actually_parks_and_wakes() {
    // Guard against the property passing vacuously (0 == 0): at one
    // shard with a long chain, at least one wake must be observed, and
    // the unkeyed chain must wake spuriously at least once, so both
    // sides of the ledger are exercised.
    let (mut any, mut spurious) = (0, 0);
    for seed in 0..8 {
        let (wakeups, _, _, completed) = run_chain(seed, 1, 8, true);
        assert!(completed);
        any += wakeups;
        let (_, _, unkeyed_spurious, completed) = run_chain(seed, 1, 8, false);
        assert!(completed);
        spurious += unkeyed_spurious;
    }
    assert!(any > 0, "no run of the chain ever parked a process");
    assert!(
        spurious > 0,
        "the unkeyed chain never woke a consumer spuriously"
    );
}

/// Runs `src` on the serial scheduler, or the rounds scheduler when
/// `rounds`, cut after `max_attempts`; returns (wakeups, verdicts).
fn serial_ledger(src: &str, rounds: bool, max_attempts: u64) -> (u64, u64) {
    let (metrics, registry) = Metrics::registry();
    let mut rt = Runtime::builder(CompiledProgram::from_source(src).expect("compiles"))
        .metrics(metrics)
        .limits(RunLimits { max_attempts })
        .build()
        .expect("builds");
    if rounds {
        rt.run_rounds().expect("runs");
    } else {
        rt.run().expect("runs");
    }
    (
        registry.counter(Counter::WakeupCommit) + registry.counter(Counter::WakeupConsensus),
        registry.counter(Counter::WakeProgress) + registry.counter(Counter::WakeSpurious),
    )
}

/// A `par` parent parks while its helpers run, is woken by the last
/// one's exit, and pops its construct without committing or parking
/// again: that turn moved it on, so the wake is progress.
#[test]
fn serial_and_rounds_settle_a_wake_that_pops_a_construct() {
    let src = "process P() {
            par { exists x : <job, x>! -> <working, x>;
                  exists y : <working, y>! -> <done, y> }
        }
        init { <job, 1>; <job, 2>; spawn P(); }";
    for rounds in [false, true] {
        let (wakeups, verdicts) = serial_ledger(src, rounds, RunLimits::default().max_attempts);
        assert!(wakeups > 0, "rounds={rounds}: the parent never woke");
        assert_eq!(verdicts, wakeups, "rounds={rounds}");
    }
}

/// The attempt cap stops the serial run with three woken consumers
/// still queued: the run ended before their turns, so each wake is
/// spurious.
#[test]
fn serial_and_rounds_settle_wakes_the_step_limit_cuts_off() {
    let src = "process C() { exists v : <item, v>! => <got, v>; }
        process P() { -> <item, 1>, <item, 2>, <item, 3>; }
        init { spawn C(); spawn C(); spawn C(); spawn P(); }";
    let (wakeups, verdicts) = serial_ledger(src, false, 4);
    assert_eq!(wakeups, 3, "every consumer parked, then woke");
    assert_eq!(verdicts, 3);
    let (wakeups, verdicts) = serial_ledger(src, true, 4);
    assert_eq!(verdicts, wakeups);
}
