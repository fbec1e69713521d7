//! End-to-end coverage of the event view of the observation stream: every
//! event kind is produced by a real program, a commit and a park are each
//! one record, the JSONL export is pinned byte for byte, and the rounds
//! scheduler's event order is deterministic per seed.

use sdl_core::{CompiledProgram, Runtime, TraceRecord, Tracer};
use sdl_trace::events::write_jsonl;

/// A program whose single serial run produces every event kind:
/// assertion, retraction, export drop, commit, failure, block,
/// creation, termination (both normal and aborted), and consensus.
const KITCHEN_SINK: &str = r#"
    process P() {
        export { <out, *>; }
        -> <out, 1>, <secret, 2>;
        <nope> -> skip;
        exists v : <out, v>! -> ;
    }
    process A() { -> abort; }
    process Q() {
        import { <never, *>; }
        <never, 1> => skip;
    }
    process C(me) {
        import { <ready, *>; }
        <ready, 1>, <ready, 2> @> skip;
    }
    init {
        <ready, 1>; <ready, 2>;
        spawn P(); spawn A(); spawn Q(); spawn C(1); spawn C(2);
    }
"#;

/// The records of one run of `src` into `tracer`.
fn run_traced(src: &str, seed: u64, rounds: bool, tracer: &Tracer) -> Vec<TraceRecord> {
    let program = CompiledProgram::from_source(src).unwrap();
    let mut rt = Runtime::builder(program)
        .seed(seed)
        .tracer(tracer.clone())
        .build()
        .unwrap();
    if rounds {
        rt.run_rounds().unwrap();
    } else {
        rt.run().unwrap();
    }
    tracer.take()
}

/// The JSONL lines of one traced run of [`KITCHEN_SINK`].
fn jsonl(seed: u64, rounds: bool) -> String {
    let records = run_traced(KITCHEN_SINK, seed, rounds, &Tracer::new());
    let mut out = Vec::new();
    write_jsonl(&records, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn every_event_variant_is_produced() {
    let text = jsonl(7, false);
    let kinds: std::collections::BTreeSet<&str> = text
        .lines()
        .map(|l| {
            l.split("\"type\":\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
        })
        .collect();
    for expected in [
        "tuple_asserted",
        "tuple_retracted",
        "export_dropped",
        "txn_committed",
        "txn_failed",
        "process_blocked",
        "process_created",
        "process_terminated",
        "consensus_reached",
    ] {
        assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
    }
    let records = run_traced(KITCHEN_SINK, 7, false, &Tracer::new());
    let aborted = records
        .iter()
        .any(|r| matches!(r, TraceRecord::Exit { aborted: true, .. }));
    assert!(aborted, "A aborts, so an aborted termination must appear");
}

/// A commit is one record, however many tuples it moves, and a park is
/// one record, closed by one unpark.
#[test]
fn a_commit_and_a_park_are_one_record_each() {
    let records = run_traced(
        "process P() { exists v : <x, v>! -> <y, v>, <z, v>; }
         process W() { exists v : <y, v>! => <done, v>; }
         init { <x, 1>; spawn W(); spawn P(); }",
        0,
        false,
        &Tracer::new(),
    );
    let commits: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| matches!(r, TraceRecord::Commit { .. }))
        .collect();
    assert_eq!(commits.len(), 2, "{records:#?}");
    let TraceRecord::Commit {
        parts,
        retracted,
        asserted,
        ..
    } = commits[0]
    else {
        unreachable!()
    };
    assert_eq!(parts.len(), 1, "a single contribution");
    assert_eq!((retracted.len(), asserted.len()), (1, 2));
    let count = |f: fn(&TraceRecord) -> bool| records.iter().filter(|r| f(r)).count();
    assert_eq!(count(|r| matches!(r, TraceRecord::Park { .. })), 1);
    assert_eq!(count(|r| matches!(r, TraceRecord::Unpark { .. })), 1);
}

#[test]
fn jsonl_sink_carries_the_same_events_as_the_log() {
    let records = run_traced(KITCHEN_SINK, 7, false, &Tracer::new());
    let mut out = Vec::new();
    let written = write_jsonl(&records, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let timeline = sdl_trace::timeline::render(&records);
    assert_eq!(written as usize, text.lines().count());
    assert_eq!(text.lines().count(), timeline.lines().count());
    // Each exported line is one well-formed JSON object with the shared
    // envelope fields.
    for line in text.lines() {
        sdl_trace::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(line.starts_with("{\"step\":"), "{line}");
        assert!(line.contains("\"type\":\""), "{line}");
    }
}

#[test]
fn bounded_log_reports_drops_and_clear_resets() {
    let total = run_traced(KITCHEN_SINK, 7, false, &Tracer::new()).len() as u64;
    let bounded = Tracer::with_capacity(4);
    let kept = run_traced(KITCHEN_SINK, 7, false, &bounded);
    assert_eq!(kept.len(), 4);
    assert_eq!(bounded.dropped(), total - 4);
    assert!(bounded.take().is_empty(), "a drain empties the buffer");
}

#[test]
fn rounds_event_order_is_deterministic_per_seed() {
    let a = jsonl(3, true);
    let b = jsonl(3, true);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay the identical event stream");
}

/// The event view is pinned byte for byte: serial at seed 7, rounds at
/// seed 3.
#[test]
fn kitchen_sink_jsonl_matches_the_goldens() {
    assert_eq!(
        jsonl(7, false),
        include_str!("goldens/kitchen_sink_serial_seed7.golden")
    );
    assert_eq!(
        jsonl(3, true),
        include_str!("goldens/kitchen_sink_rounds_seed3.golden")
    );
}
