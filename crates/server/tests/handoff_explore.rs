//! Schedule exploration over the cross-loop wake handoff.
//!
//! Two engines over one [`NetShared`] run on explorer-controlled
//! threads, exactly as two event-loop workers would own them: a blocking
//! `in` parks on one loop while an `out` commits on the other. Every
//! facade lock and protocol atomic in the handoff — shard locks, router
//! mutexes, the commit epoch, the claim token, the mailbox — is a yield
//! point, so the explorer enumerates the park-vs-commit interleavings
//! the wire protocol can actually experience. The fd layer is absent by
//! design: the engine returns a kick mask and the mailbox carries the
//! wake, so the test drives delivery the way the event loop does after a
//! kick, with no sockets in the schedule space.
//!
//! The seeded mutant (`NetShared::with_mutant` skipping the park epoch
//! re-check) must be caught, replay deterministically, and export a
//! replayable schedule artifact for CI. Two wire transactions racing
//! for one tuple exercise the optimistic conflict path: validation must
//! let exactly one of them commit.

use std::path::PathBuf;
use std::sync::Arc;

use sdl_metrics::{Counter, Gauge, Metrics};
use sdl_server::engine::Reply;
use sdl_server::wire::{Request, Response};
use sdl_server::{Engine, NetShared};
use sdl_sync::explore::Explore;
use sdl_tuple::{pattern, tuple, Value};

/// One producer commit racing one consumer park across two loops.
/// Afterwards the consumer's loop drains its mailbox (the event loop's
/// response to a wake-fd kick); the consumer must end up holding the
/// tuple no matter how the two threads interleaved.
fn run_handoff(skip_recheck: bool) {
    let shared = Arc::new(NetShared::with_mutant(
        2,
        2,
        Metrics::disabled(),
        skip_recheck,
    ));
    let mut e0 = Engine::over(Arc::clone(&shared), 0);
    let mut e1 = Engine::over(Arc::clone(&shared), 1);
    let mut r0: Vec<Reply> = Vec::new();
    let mut r1: Vec<Reply> = Vec::new();

    sdl_sync::scope(|s| {
        let producer = (&mut e0, &mut r0);
        let consumer = (&mut e1, &mut r1);
        s.spawn(move || {
            let (e, r) = producer;
            e.submit(20, 1, Request::Out(tuple![Value::atom("job"), 5]), r);
            e.finish(r);
        });
        s.spawn(move || {
            let (e, r) = consumer;
            e.submit(10, 1, Request::In(pattern![Value::atom("job"), any]), r);
            e.finish(r);
        });
    });

    // Loop 0's commit may have kicked loop 1; deliver what its mailbox
    // holds. (Loop 0 parks nothing, so only mailbox 1 matters.)
    e1.deliver_wakes(shared.drain_mailbox(1), &mut r1);

    let got: Vec<_> = r1
        .iter()
        .filter(|(_, _, resp)| matches!(resp, Response::Tuple(_)))
        .collect();
    assert_eq!(
        got.len(),
        1,
        "consumer never got the tuple (lost wakeup): consumer={r1:?} producer={r0:?}"
    );
    assert_eq!(e1.parked_len(), 0, "consumer still parked");
    assert_eq!(shared.parked_total(), 0);
    assert_eq!(shared.live_stubs(), 0, "router stubs leaked");
    assert_eq!(e1.store_len(), 0, "the in must have retracted the tuple");
}

#[test]
fn cross_loop_handoff_explores_clean() {
    let report = Explore::new()
        .max_schedules(50_000)
        .max_steps(50_000)
        .run(|| run_handoff(false));
    assert!(
        report.failure.is_none(),
        "cross-loop handoff failed under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(report.complete, "exploration did not exhaust the tree");
    assert!(report.schedules > 1, "expected real branching");
}

/// Reverting the park epoch re-check reintroduces the cross-loop lost
/// wakeup: the commit's wake scan runs before the stub registers, the
/// epoch evidence is stale, and the consumer sleeps forever. The
/// explorer must find that interleaving, replay it from the compact
/// schedule string, and leave the artifact where CI uploads it.
#[test]
fn lost_wakeup_mutant_is_caught_and_exports_artifact() {
    let report = Explore::new()
        .max_schedules(50_000)
        .max_steps(50_000)
        .run(|| run_handoff(true));
    let failure = report
        .failure
        .expect("explorer missed the seeded cross-loop lost-wakeup mutant");
    assert!(
        failure.message.contains("lost wakeup"),
        "unexpected failure: {failure}"
    );

    let replayed = Explore::new()
        .replay(&failure.schedule, || run_handoff(true))
        .expect("pinned schedule no longer reproduces the lost wakeup");
    assert!(replayed.message.contains("lost wakeup"));

    // Same artifact pipeline as the executor mutant: schedule text plus
    // the Perfetto staircase, under SDL_SCHEDULE_ARTIFACT_DIR for CI.
    let json = sdl_trace::schedule::schedule_trace_to_string(&failure);
    sdl_trace::json::parse(&json).expect("Perfetto export must be valid JSON");
    let dir = std::env::var("SDL_SCHEDULE_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("../../target/schedule-artifacts"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("net-lost-wakeup.schedule.txt"),
        failure.to_string(),
    )
    .unwrap();
    std::fs::write(dir.join("net-lost-wakeup.perfetto.json"), json).unwrap();
}

/// With the re-check in place, the exact interleaving the mutant fails
/// on must complete: derive the adversarial schedule from the mutant,
/// then replay it against the correct protocol.
#[test]
fn pinned_adversarial_schedule_passes_with_recheck() {
    let report = Explore::new()
        .max_schedules(50_000)
        .max_steps(50_000)
        .run(|| run_handoff(true));
    let schedule = report.failure.expect("mutant must fail").schedule;
    assert!(
        Explore::new()
            .replay(&schedule, || run_handoff(false))
            .is_none(),
        "epoch re-check lost a cross-loop wakeup on the pinned schedule"
    );
}

/// A disconnect racing the cross-loop wake: the consumer parks and its
/// loop drops the connection while the producer commits on the other
/// loop. Whatever the order, nothing leaks — the blocked gauge settles,
/// stubs are claimed, and the tuple survives unless the consumer
/// legitimately took it before the disconnect.
#[test]
fn disconnect_races_cross_loop_wake_without_residue() {
    let report = Explore::new()
        .max_schedules(50_000)
        .max_steps(50_000)
        .run(|| {
            let (metrics, registry) = Metrics::registry();
            let shared = Arc::new(NetShared::new(2, 2, metrics));
            let mut e0 = Engine::over(Arc::clone(&shared), 0);
            let mut e1 = Engine::over(Arc::clone(&shared), 1);
            let mut r0: Vec<Reply> = Vec::new();
            let mut r1: Vec<Reply> = Vec::new();

            sdl_sync::scope(|s| {
                let producer = (&mut e0, &mut r0);
                let consumer = (&mut e1, &mut r1);
                s.spawn(move || {
                    let (e, r) = producer;
                    e.submit(20, 1, Request::Out(tuple![Value::atom("job"), 5]), r);
                    e.finish(r);
                });
                s.spawn(move || {
                    let (e, r) = consumer;
                    e.submit(10, 1, Request::In(pattern![Value::atom("job"), any]), r);
                    e.finish(r);
                    // The client hangs up; its loop reaps the park. A
                    // wake may already be in flight toward mailbox 1.
                    e.disconnect(10);
                });
            });
            e1.deliver_wakes(shared.drain_mailbox(1), &mut r1);

            let took = r1
                .iter()
                .any(|(_, _, resp)| matches!(resp, Response::Tuple(_)));
            assert_eq!(e1.parked_len(), 0);
            assert_eq!(shared.parked_total(), 0);
            assert_eq!(shared.live_stubs(), 0, "router stubs leaked");
            assert_eq!(
                e1.store_len(),
                usize::from(!took),
                "tuple lost to a dead park (took={took})"
            );
            assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 0);
            assert!(registry.gauge_min(Gauge::BlockedQueueDepth) >= 0);
        });
    assert!(
        report.failure.is_none(),
        "disconnect race leaked under exploration:\n{}",
        report.failure.unwrap()
    );
}

/// Two loops each submit a transaction claiming the one `<job, 1>`. On
/// every interleaving exactly one commits and the other fails (after
/// losing validation, or by evaluating after the winner committed), the
/// store holds only the winner's `<done, 1>`, and nothing stays parked.
/// Some schedule must make the loser lose validation.
#[test]
fn racing_txns_for_one_tuple_commit_exactly_once() {
    let conflicted = std::cell::Cell::new(false);
    let report = Explore::new()
        .max_schedules(50_000)
        .max_steps(50_000)
        .run(|| {
            let (metrics, registry) = Metrics::registry();
            let shared = Arc::new(NetShared::new(2, 2, metrics));
            let mut e0 = Engine::over(Arc::clone(&shared), 0);
            let mut e1 = Engine::over(Arc::clone(&shared), 1);
            let (mut r0, mut r1): (Vec<Reply>, Vec<Reply>) = (Vec::new(), Vec::new());
            e0.submit(1, 1, Request::Out(tuple![Value::atom("job"), 1]), &mut r0);
            e0.finish(&mut r0);
            r0.clear();

            sdl_sync::scope(|s| {
                for (conn, (e, r)) in [(10, (&mut e0, &mut r0)), (20, (&mut e1, &mut r1))] {
                    s.spawn(move || {
                        let source = "exists j : <job, j>! -> <done, j>".to_owned();
                        let env = Vec::new();
                        e.submit(conn, 1, Request::Txn { source, env }, r);
                        e.finish(r);
                    });
                }
            });

            let mut verdicts: Vec<_> = r0.iter().chain(&r1).map(|(_, _, v)| v).collect();
            verdicts.sort_by_key(|v| **v != Response::Ok);
            assert_eq!(verdicts, [&Response::Ok, &Response::Failed]);
            assert_eq!(e0.store_len(), 1);
            let done = Request::Rdp(pattern![Value::atom("done"), 1]);
            e0.submit(1, 2, done, &mut r0);
            assert!(matches!(r0.last(), Some((1, 2, Response::Tuple(_)))));
            assert_eq!(shared.live_stubs(), 0, "router stubs leaked");
            if registry.counter(Counter::TxnConflicts) > 0 {
                conflicted.set(true);
            }
        });
    assert!(
        report.failure.is_none(),
        "racing transactions misbehaved under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(report.complete, "exploration did not exhaust the tree");
    assert!(
        conflicted.get(),
        "no schedule made a transaction lose validation"
    );
}
