//! Chrome/Perfetto export for schedule-exploration failures.
//!
//! A failing interleaving found by [`sdl_sync::explore`] carries the
//! full step trace: which virtual thread ran each step, what facade
//! operation it performed, and which steps consumed a real scheduling
//! decision. `write_schedule_trace` lays that out as a trace-event
//! JSON document that `chrome://tracing` and <https://ui.perfetto.dev>
//! open directly:
//!
//! * one thread track per virtual thread (`t0` is the root), each step
//!   a 1 µs slice at its global step index, so the single-runner baton
//!   passing reads as a staircase across tracks;
//! * steps that consumed a recorded decision (real branch points) are
//!   instant-marked on a separate `decisions` track — the compact
//!   schedule string is exactly this subsequence;
//! * the failure message and schedule string ride in process metadata
//!   so the artifact is self-describing.
//!
//! Time is the step index, not wall clock: under the virtual scheduler
//! exactly one thread runs between yield points, so the step sequence
//! *is* the execution's total order.

use std::io::{self, Write};

use sdl_sync::explore::Failure;

use crate::json::escape;
use crate::perfetto::{event, meta, write_document};

/// pid of the per-virtual-thread tracks.
const PID_THREADS: u64 = 1;
/// pid and tid of the decision-point track.
const PID_DECISIONS: u64 = 2;

/// Writes the failure's step trace as a Chrome trace-event JSON
/// document.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub(crate) fn write_schedule_trace<W: Write>(failure: &Failure, w: &mut W) -> io::Result<()> {
    let decisions = (PID_DECISIONS, 0);
    let mut events = vec![
        meta(PID_THREADS, 0, "process_name", "virtual threads"),
        meta(PID_DECISIONS, 0, "process_name", "decisions"),
        // The failure context rides on the decisions track's metadata.
        meta(
            PID_DECISIONS,
            0,
            "thread_name",
            &format!("schedule {}", failure.schedule),
        ),
    ];
    let mut named: Vec<usize> = Vec::new();
    for s in &failure.steps {
        if !named.contains(&s.tid) {
            named.push(s.tid);
            events.push(meta(
                PID_THREADS,
                s.tid as u64,
                "thread_name",
                &format!("t{}", s.tid),
            ));
        }
    }
    for s in &failure.steps {
        let (label, at) = (escape(&s.label), (PID_THREADS, s.tid as u64));
        let args = format!("\"step\":{},\"decision\":{}", s.step, s.decision);
        events.push(event(at, &label, "step", s.step as u64, Some(1), &args));
        if s.decision {
            let name = format!("t{} {label}", s.tid);
            let args = format!("\"step\":{}", s.step);
            events.push(event(
                decisions,
                &name,
                "decision",
                s.step as u64,
                None,
                &args,
            ));
        }
    }
    // The failure itself as a terminal instant, so the crash point is
    // visible at the end of the staircase.
    let name = format!("FAILURE: {}", escape(&failure.message));
    let end = failure.steps.len() as u64;
    events.push(event(decisions, &name, "failure", end, None, ""));
    write_document(w, events)
}

/// `write_schedule_trace` into a `String`.
#[must_use]
pub fn schedule_trace_to_string(failure: &Failure) -> String {
    let mut buf = Vec::new();
    write_schedule_trace(failure, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("trace JSON is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use sdl_sync::explore::Explore;
    use sdl_sync::{AtomicU64, Ordering};

    /// A racy increment the explorer is guaranteed to fail: its failure
    /// provides a realistic step trace for the exporter.
    fn lost_update_failure() -> Failure {
        let report = Explore::new().max_schedules(1_000).run(|| {
            let c = std::sync::Arc::new(AtomicU64::new(0));
            sdl_sync::scope(|s| {
                for _ in 0..2 {
                    let c = c.clone();
                    s.spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        });
        report.failure.expect("lost update must be found")
    }

    #[test]
    fn export_is_wellformed_json_with_all_steps() {
        let failure = lost_update_failure();
        let doc = schedule_trace_to_string(&failure);
        let parsed = json::parse(&doc).expect("export must parse");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        let slices = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .count();
        assert_eq!(slices, failure.steps.len(), "one slice per step");
        let decisions = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("i")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(PID_DECISIONS)
                    && e.get("name")
                        .and_then(|n| n.as_str())
                        .is_some_and(|n| !n.starts_with("FAILURE"))
            })
            .count();
        assert_eq!(
            decisions,
            failure.steps.iter().filter(|s| s.decision).count(),
            "one instant per decision step"
        );
        assert!(doc.contains("FAILURE: "), "failure marker present");
    }
}
