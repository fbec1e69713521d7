//! Schedule exploration over the threaded executor's park/wake protocol.
//!
//! These tests run the *real* [`ParallelRuntime`] under the `sdl-sync`
//! virtual scheduler: every facade lock, condvar, and protocol atomic
//! becomes a yield point, and the explorer enumerates interleavings with
//! sleep-set pruning. A failing interleaving panics inside the body and
//! surfaces as an [`explore::Failure`] carrying a compact replayable
//! schedule string.
//!
//! The programs are deliberately tiny — two or three processes, one or
//! two shards — because exploration cost is exponential in yield points;
//! what matters is that the *protocol* paths (failed eval → park insert
//! → epoch re-check vs. commit → epoch bump → wake scan) all interleave.

use sdl_core::parallel::ParallelRuntime;
use sdl_core::{CompiledProgram, RunLimits};
use sdl_metrics::{Counter, Gauge, Metrics};
use sdl_sync::explore::Explore;
use sdl_tuple::{tuple, Tuple, Value};

/// One producer, one delayed consumer: the canonical lost-wakeup shape.
/// The consumer's evaluation fails, it parks; the producer's commit must
/// always wake it, whichever way the two interleave.
fn producer_consumer() -> CompiledProgram {
    CompiledProgram::from_source(
        "process Producer() { true -> <item, 1> }
         process Consumer() { exists x : <item, x>! => <got, x> }",
    )
    .unwrap()
}

fn run_producer_consumer(skip_recheck: bool, shards: usize) {
    let program = producer_consumer();
    let (report, ds) = ParallelRuntime::builder(program)
        .threads(2)
        .shards(shards)
        .seed(7)
        .testing_skip_park_recheck(skip_recheck)
        .spawn("Producer", vec![])
        .spawn("Consumer", vec![])
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(
        report.outcome.is_completed(),
        "consumer never woke: {:?}",
        report.outcome
    );
    assert_eq!(ds.len(), 1, "expected exactly the <got, 1> tuple");
}

#[test]
fn park_wake_protocol_explores_clean() {
    let report = Explore::new()
        .max_schedules(20_000)
        .max_steps(20_000)
        .run(|| run_producer_consumer(false, 1));
    assert!(
        report.failure.is_none(),
        "park/wake protocol failed under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(report.complete, "exploration did not exhaust the tree");
    assert!(report.schedules > 1, "expected real branching");
}

#[test]
fn park_wake_protocol_explores_clean_sharded() {
    let report = Explore::new()
        .max_schedules(20_000)
        .max_steps(20_000)
        .preemption_bound(2)
        .run(|| run_producer_consumer(false, 2));
    assert!(
        report.failure.is_none(),
        "sharded park/wake failed under exploration:\n{}",
        report.failure.unwrap()
    );
}

/// Reverting the park-path epoch re-check reintroduces the lost-wakeup
/// race; the explorer must find the interleaving where the producer's
/// commit scans the blocked lists before the consumer's entry is
/// visible, and the schedule it reports must replay to the same failure.
#[test]
fn lost_wakeup_mutant_is_caught_and_replays() {
    let report = Explore::new()
        .max_schedules(20_000)
        .max_steps(20_000)
        .run(|| run_producer_consumer(true, 1));
    let failure = report
        .failure
        .expect("explorer missed the seeded lost-wakeup mutant");
    assert!(
        failure.message.contains("consumer never woke"),
        "unexpected failure: {failure}"
    );
    // The compact schedule string replays the bug deterministically.
    let replayed = Explore::new()
        .replay(&failure.schedule, || run_producer_consumer(true, 1))
        .expect("pinned schedule no longer reproduces the lost wakeup");
    assert!(replayed.message.contains("consumer never woke"));
}

/// Pinned regression schedule for the lost-wakeup race (the shape the
/// mutant exposes): producer runs up to its commit, consumer parks
/// around it. With the epoch re-check in place the same interleaving
/// must complete. Lenient replay keeps the pin useful even as yield
/// points drift: divergence falls back to a legal schedule, so the test
/// can never fail for the wrong reason.
#[test]
fn pinned_lost_wakeup_schedule_passes_with_recheck() {
    // Derive the pin from the mutant so it tracks the current yield-point
    // layout exactly.
    let report = Explore::new()
        .max_schedules(20_000)
        .run(|| run_producer_consumer(true, 1));
    let schedule = report.failure.expect("mutant must fail").schedule;
    assert!(
        Explore::new()
            .replay(&schedule, || run_producer_consumer(false, 1))
            .is_none(),
        "epoch re-check lost a wakeup on the pinned adversarial schedule"
    );
}

/// Two identical grabbers race for one tuple: the waking commit matches
/// both subscriptions, one grabber wins, the other re-parks. Whatever
/// the interleaving, the wake ledger must balance — every WakeupCommit
/// ends as exactly one WakeProgress or WakeSpurious — and the depth
/// gauge must never dip negative (the claim/park accounting handoff).
#[test]
fn wake_classification_balances_under_exploration() {
    let program_src = "process Producer() { true -> <item, 1> }
         process Grabber() { exists x : <item, x>! => <got, x> }";
    let report = Explore::new()
        .max_schedules(30_000)
        .max_steps(30_000)
        .preemption_bound(2)
        .run(|| {
            let (metrics, registry) = Metrics::registry();
            let program = CompiledProgram::from_source(program_src).unwrap();
            let (report, _ds) = ParallelRuntime::builder(program)
                .threads(2)
                .seed(3)
                .metrics(metrics)
                .spawn("Producer", vec![])
                .spawn("Grabber", vec![])
                .spawn("Grabber", vec![])
                .build()
                .unwrap()
                .run()
                .unwrap();
            // One grabber consumes the item; the other stays parked.
            assert!(
                matches!(report.outcome, sdl_core::Outcome::Quiescent { ref blocked } if blocked.len() == 1),
                "expected one parked grabber: {:?}",
                report.outcome
            );
            let commits = registry.counter(Counter::WakeupCommit);
            let progress = registry.counter(Counter::WakeProgress);
            let spurious = registry.counter(Counter::WakeSpurious);
            assert_eq!(
                progress + spurious,
                commits,
                "wake ledger out of balance: {progress} progress + {spurious} spurious != {commits} commits"
            );
            assert!(
                registry.gauge_min(Gauge::BlockedQueueDepth) >= 0,
                "blocked-depth gauge dipped negative: {}",
                registry.gauge_min(Gauge::BlockedQueueDepth)
            );
        });
    assert!(
        report.failure.is_none(),
        "wake classification failed under exploration:\n{}",
        report.failure.unwrap()
    );
}

/// Two workers race one hot counter: some interleavings make one of them
/// fail validation and retry. In every schedule the metrics must account
/// for exactly the commits and conflicts the report counts, and some
/// schedule must actually produce a conflict — the case a seeded unit
/// test could only hope timing would hit.
#[test]
fn conflict_metrics_match_the_report_under_exploration() {
    let mut conflicted = 0usize;
    let report = Explore::new()
        .max_schedules(20_000)
        .max_steps(30_000)
        .preemption_bound(2)
        .run(|| {
            let (metrics, registry) = Metrics::registry();
            let program = CompiledProgram::from_source(
                "process W() { loop { exists c : <counter, c>! : c < 2 -> <counter, c + 1> } }",
            )
            .unwrap();
            let (report, _ds) = ParallelRuntime::builder(program)
                .threads(2)
                .seed(1)
                .metrics(metrics)
                .tuple(tuple![Value::atom("counter"), 0])
                .spawn("W", vec![])
                .spawn("W", vec![])
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert!(report.outcome.is_completed(), "{:?}", report.outcome);
            assert_eq!(report.commits, 2);
            assert_eq!(
                registry.counter(Counter::TxnCommittedImmediate),
                report.commits
            );
            assert_eq!(registry.counter(Counter::TxnConflicts), report.conflicts);
            if report.conflicts > 0 {
                conflicted += 1;
            }
        });
    assert!(
        report.failure.is_none(),
        "conflict accounting failed under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(
        conflicted > 0,
        "no explored schedule hit a validation conflict"
    );
}

/// A run that hits the attempt cap can wind down while a woken process
/// is still queued or mid-flight — its wake must still get a verdict
/// (settled as spurious at shutdown), or the ledger silently leaks.
#[test]
fn wake_ledger_balances_at_step_limit() {
    let program_src = "process Producer() { true -> <item, 1> }
         process Grabber() { exists x : <item, x>! => <got, x> }";
    let report = Explore::new()
        .max_schedules(30_000)
        .max_steps(30_000)
        .preemption_bound(2)
        .run(|| {
            let (metrics, registry) = Metrics::registry();
            let program = CompiledProgram::from_source(program_src).unwrap();
            let (_report, _ds) = ParallelRuntime::builder(program)
                .threads(2)
                .seed(3)
                .limits(RunLimits { max_attempts: 3 })
                .metrics(metrics)
                .spawn("Producer", vec![])
                .spawn("Grabber", vec![])
                .spawn("Grabber", vec![])
                .build()
                .unwrap()
                .run()
                .unwrap();
            let commits = registry.counter(Counter::WakeupCommit);
            let progress = registry.counter(Counter::WakeProgress);
            let spurious = registry.counter(Counter::WakeSpurious);
            assert_eq!(
                progress + spurious,
                commits,
                "wake ledger out of balance at step limit: \
                 {progress} progress + {spurious} spurious != {commits} commits"
            );
        });
    assert!(
        report.failure.is_none(),
        "step-limit shutdown leaked a wake verdict:\n{}",
        report.failure.unwrap()
    );
}

/// Runs `src`, whose `init` block spawns the society, threaded, and
/// checks it completes with `done` in the store.
fn run_to_done(src: &str, done: Tuple) {
    let program = CompiledProgram::from_source(src).unwrap();
    let (report, ds) = ParallelRuntime::builder(program)
        .threads(2)
        .seed(11)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(
        report.outcome.is_completed(),
        "a parked subscription lost a wakeup: {:?}",
        report.outcome
    );
    assert_eq!(ds.count_value(&done), 1, "missing {done}");
}

/// Explores every schedule of [`run_to_done`] within a preemption bound
/// of two.
fn explore_to_done(src: &'static str, done: Tuple) {
    let report = Explore::new()
        .max_schedules(40_000)
        .max_steps(40_000)
        .preemption_bound(2)
        .run(|| run_to_done(src, done.clone()));
    assert!(
        report.failure.is_none(),
        "a parked subscription lost a wakeup under exploration:\n{}",
        report.failure.unwrap()
    );
}

/// The threaded path parks on the narrowed watch set probed inside the
/// eval read locks. A two-atom query re-parks with a different narrow
/// subscription after each producer fires; exploration proves no
/// interleaving of the probes and the commits loses a wakeup.
#[test]
fn narrowed_watch_never_loses_wakeups() {
    explore_to_done(
        "process A() { true -> <a, 1> }
         process B() { true -> <b, 2> }
         process C() { exists x, y : <a, x>!, <b, y>! => <done, x, y> }
         init { spawn A(); spawn B(); spawn C(); }",
        tuple![Value::atom("done"), 1, 2],
    );
}

/// A join over two non-empty relations that fails leaves nothing to
/// narrow to, so the consumer parks on the full per-atom subscription;
/// the producer's tuple must still wake it in every interleaving.
#[test]
fn full_subscription_never_loses_wakeups() {
    explore_to_done(
        "process P() { true -> <b, 1> }
         process C() { exists x : <a, x>!, <b, x>! => <done, x> }
         init { <a, 1>; <b, 2>; spawn P(); spawn C(); }",
        tuple![Value::atom("done"), 1],
    );
}

/// Budget sweep for EXPERIMENTS.md: how exploration cost scales with
/// the preemption bound, and what sleep-set pruning saves. Ignored in
/// normal runs; `cargo test -p sdl-core --test exploration --release --
/// --ignored --nocapture budget_sweep` prints the table.
#[test]
#[ignore]
fn budget_sweep() {
    println!("| bound | schedules | pruned | truncated | complete | time |");
    println!("|---|---|---|---|---|---|");
    for bound in [0u32, 1, 2, 3] {
        let t0 = std::time::Instant::now();
        let report = Explore::new()
            .max_schedules(200_000)
            .max_steps(40_000)
            .preemption_bound(bound)
            .run(|| run_producer_consumer(false, 1));
        assert!(report.failure.is_none());
        println!(
            "| {} | {} | {} | {} | {} | {:?} |",
            bound,
            report.schedules,
            report.pruned,
            report.truncated,
            report.complete,
            t0.elapsed()
        );
    }
    let t0 = std::time::Instant::now();
    let report = Explore::new()
        .max_schedules(200_000)
        .max_steps(40_000)
        .run(|| run_producer_consumer(false, 1));
    assert!(report.failure.is_none());
    println!(
        "| none | {} | {} | {} | {} | {:?} |",
        report.schedules,
        report.pruned,
        report.truncated,
        report.complete,
        t0.elapsed()
    );
    // Mutant time-to-catch at default budgets.
    let t0 = std::time::Instant::now();
    let report = Explore::new()
        .max_schedules(200_000)
        .max_steps(40_000)
        .run(|| run_producer_consumer(true, 1));
    println!(
        "mutant caught after {} schedules in {:?}",
        report.schedules,
        t0.elapsed()
    );
    assert!(report.failure.is_some());
}

/// The durability hook under exploration (PR 8 follow-up): WAL appends
/// happen inside each commit's shard write locks, so the append order
/// the log records is a legal serialisation of the commit order no
/// matter how the committers interleave. Recovery replays that order;
/// the recovered store must therefore be *identical* — ids, owners,
/// values, and id-mint cursors — to the live store after every explored
/// interleaving of two workers racing pairwise-summation commits.
#[test]
fn wal_append_order_recovers_exact_state_under_exploration() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use sdl_durability::{recover, FsyncPolicy, Wal, WalConfig};

    // A fresh scratch dir per explored schedule; file I/O is not a
    // yield point, so the paths stay out of the schedule space.
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let report = Explore::new()
        .max_schedules(20_000)
        .max_steps(30_000)
        .preemption_bound(2)
        .run(|| {
            let dir = std::env::temp_dir().join(format!(
                "sdl-explore-wal-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let mut cfg = WalConfig::new(&dir);
            cfg.fsync = FsyncPolicy::Never;
            let wal = Arc::new(Wal::create(cfg, 2, Metrics::disabled()).expect("wal creates"));
            let program = CompiledProgram::from_source(
                "process W() { loop { exists a, b : <v, a>!, <v, b>! -> <v, a + b> } }",
            )
            .unwrap();
            let (report, ds) = ParallelRuntime::builder(program)
                .threads(2)
                .shards(2)
                .seed(9)
                .tuples(vec![
                    tuple![Value::atom("v"), 1],
                    tuple![Value::atom("v"), 2],
                    tuple![Value::atom("v"), 3],
                ])
                .wal(Arc::clone(&wal))
                .spawn("W", vec![])
                .spawn("W", vec![])
                .build()
                .unwrap()
                .run()
                .unwrap();
            // Two summation commits fold three values into <v, 6>; the
            // workers' loops then run dry and complete.
            assert!(report.outcome.is_completed(), "{:?}", report.outcome);
            assert_eq!(ds.count_value(&tuple![Value::atom("v"), 6]), 1);

            // The run's final sync flushed everything; recovery must
            // reproduce the live store exactly.
            let recovered = recover(&dir, &Metrics::disabled()).expect("recovers");
            let mut live: Vec<_> = ds.iter().map(|(id, t)| (id, t.clone())).collect();
            live.sort();
            assert_eq!(
                recovered.tuples, live,
                "recovered store diverged from the live store"
            );
            assert_eq!(recovered.n_shards, 2);
            assert_eq!(
                recovered.last_commit, recovered.records_replayed,
                "commit numbering must be gapless from an empty log"
            );
            let _ = std::fs::remove_dir_all(&dir);
        });
    assert!(
        report.failure.is_none(),
        "WAL recovery diverged under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(report.schedules > 1, "expected real branching");
}

/// The stall watchdog (threshold zero so every park trips it) must
/// neither double-flag an entry nor leave the stalled gauge unsettled,
/// under any interleaving of watchdog scans, wakes, and the drain.
#[test]
fn watchdog_claim_report_handoff_explores_clean() {
    let report = Explore::new()
        .max_schedules(20_000)
        .max_steps(30_000)
        .preemption_bound(1)
        .run(|| {
            let (metrics, registry) = Metrics::registry();
            let program = producer_consumer();
            let (report, _ds) = ParallelRuntime::builder(program)
                .threads(2)
                .seed(5)
                .metrics(metrics)
                .stall_threshold(std::time::Duration::ZERO)
                .spawn("Producer", vec![])
                .spawn("Consumer", vec![])
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert!(report.outcome.is_completed(), "{:?}", report.outcome);
            // Every flag the watchdog raised was settled by exactly one
            // claimant (waker, re-queueing parker, or drain).
            assert_eq!(
                registry.gauge(Gauge::StalledProcesses),
                0,
                "stalled gauge left unsettled"
            );
            assert!(registry.gauge_min(Gauge::StalledProcesses) >= 0);
            assert!(registry.gauge_min(Gauge::BlockedQueueDepth) >= 0);
        });
    assert!(
        report.failure.is_none(),
        "watchdog handoff failed under exploration:\n{}",
        report.failure.unwrap()
    );
}
