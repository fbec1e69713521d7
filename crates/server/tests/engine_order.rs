//! Order exploration for the server engine's park/wake/cancel/disconnect
//! paths.
//!
//! The engine is single-threaded, so there is no thread interleaving to
//! explore — but the *request arrival order* is the adversary: parks,
//! wakes, cancels, and disconnects can arrive in any permutation across
//! connections. [`explore::choose`] turns that order into an explored
//! decision, so one test body checks every permutation of the event set
//! with the explorer's DFS doing the enumeration and pruning.

use std::collections::HashMap;

use sdl_metrics::{Counter, Gauge, Metrics};
use sdl_server::wire::{Request, Response};
use sdl_server::Engine;
use sdl_sync::explore::{choose, Explore};
use sdl_tuple::{pattern, tuple, Value};

type Reply = (u64, u64, Response);

#[derive(Clone)]
enum Event {
    Submit(u64, u64, &'static str),
    Disconnect(u64),
}

fn request_for(label: &str) -> Request {
    match label {
        "in-job" => Request::In(pattern![Value::atom("job"), var 0]),
        "rd-done" => Request::Rd(pattern![Value::atom("done"), var 0]),
        "out-job" => Request::Out(tuple![Value::atom("job"), 7]),
        "txn-relay" => Request::Txn {
            source: "exists j : <job2, j>! => <done, j>".to_owned(),
            env: Vec::new(),
        },
        "out-job2" => Request::Out(tuple![Value::atom("job2"), 5]),
        "cancel-1" => Request::Cancel(1),
        other => panic!("unknown request label {other}"),
    }
}

fn terminal(resp: &Response) -> bool {
    !matches!(resp, Response::Parked)
}

/// Runs the seven-event scenario in the order the explorer picks and
/// checks the engine's invariants at the end.
fn run_scenario() {
    let (metrics, registry) = Metrics::registry();
    let mut engine = Engine::new(metrics);
    let mut replies: Vec<Reply> = Vec::new();
    let mut events = vec![
        Event::Submit(1, 1, "in-job"),
        Event::Submit(1, 2, "rd-done"),
        Event::Submit(2, 1, "out-job"),
        Event::Submit(2, 2, "txn-relay"),
        Event::Submit(2, 3, "out-job2"),
        Event::Submit(1, 9, "cancel-1"),
        Event::Disconnect(1),
    ];
    while !events.is_empty() {
        let i = choose(events.len() as u32) as usize;
        match events.remove(i) {
            Event::Submit(conn, req_id, label) => {
                engine.submit(conn, req_id, request_for(label), &mut replies);
                // The event loop ends every readiness batch with finish.
                engine.finish(&mut replies);
            }
            Event::Disconnect(conn) => {
                engine.disconnect(conn);
            }
        }
    }
    engine.finish(&mut replies);

    // Every request gets at most one terminal reply, in any order.
    let mut terminals: HashMap<(u64, u64), usize> = HashMap::new();
    for (conn, req_id, resp) in &replies {
        if terminal(resp) {
            *terminals.entry((*conn, *req_id)).or_default() += 1;
        }
    }
    for ((conn, req_id), n) in &terminals {
        assert!(
            *n <= 1,
            "request ({conn}, {req_id}) got {n} terminal replies: {replies:?}"
        );
    }
    // Connection 2 never disconnects, so each of its requests resolves
    // exactly once. The relay transaction always completes: its fuel
    // (<job2, 5>) is asserted by an event in the same set.
    for req_id in [1u64, 2, 3] {
        assert_eq!(
            terminals.get(&(2, req_id)).copied().unwrap_or(0),
            1,
            "conn-2 request {req_id} unresolved: {replies:?}"
        );
    }
    // Every park resolves (wake, cancel, or disconnect) by the end, and
    // resolving it must drop its wake-index subscriptions and settle the
    // depth gauge — a leaked key here is the server-side lost-wakeup
    // residue this suite exists to rule out.
    assert_eq!(engine.parked_len(), 0, "parked requests leaked");
    assert_eq!(
        engine.wake_index_len(),
        0,
        "wake index leaked subscriptions"
    );
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 0);
    assert!(registry.gauge_min(Gauge::BlockedQueueDepth) >= 0);
    // The wake ledger the in-process executors are held to: every wake
    // a commit delivered ends as exactly one progress or spurious.
    assert_eq!(
        registry.counter(Counter::WakeupCommit),
        registry.counter(Counter::WakeProgress) + registry.counter(Counter::WakeSpurious),
        "wake ledger out of balance"
    );

    // Store contents: <done, 5> always remains (the relay always runs,
    // consuming <job2, 5>); <job, 7> remains exactly when the In on
    // conn 1 did not take it.
    let took_job = replies.iter().any(|(conn, req_id, resp)| {
        *conn == 1 && *req_id == 1 && matches!(resp, Response::Tuple(_))
    });
    assert_eq!(
        engine.store_len(),
        if took_job { 1 } else { 2 },
        "unexpected store residue (took_job={took_job}): {replies:?}"
    );
}

#[test]
fn engine_event_orders_explore_clean() {
    let report = Explore::new()
        .max_schedules(10_000)
        .max_steps(10_000)
        .run(run_scenario);
    assert!(
        report.failure.is_none(),
        "engine order exploration failed:\n{}",
        report.failure.unwrap()
    );
    assert!(report.complete, "event permutations not exhausted");
    // 7 events => 7! interleavings, minus nothing: value choices carry
    // no sleep-set pruning.
    assert_eq!(report.schedules, 5040);
}
