//! The observation stream: one record type and one bounded sink.
//!
//! The paper's companion goal is *visualization*: "potentially one can
//! create visualization processes completely decoupled from the rest of
//! the process society, yet having complete access to the data state of
//! the computation". Observing a run is one more consumer of one stream:
//! the executors append [`TraceRecord`]s to a [`Tracer`], and `sdl-trace`
//! derives every view from them — the JSON-Lines event log, the
//! timeline, statistics, growth curves, the interaction graph, the
//! Chrome/Perfetto export and the latency analysis.
//!
//! The stream says two things:
//!
//! * **what happened**: spawns, exits, failed transactions, parks, and
//!   each commit — a consensus firing included — with the tuples it
//!   retracted, asserted or lost to export filtering. These records carry the
//!   serial scheduler's `step` (transaction attempts so far).
//! * **why, and how long**: every transaction attempt gets a trace id and
//!   a span chain (eval → plan → lock wait → … → commit), and causality
//!   edges are minted where the engine already knows them — the reverse
//!   wake index (commit *X* woke process *Y* on watch key *K*,
//!   [`TraceRecord::Wake`]) and footprint-lock conflicts (attempt *A*
//!   aborted because of batch *B*, [`TraceRecord::Conflict`], attributed
//!   through [`ShardedDataspace::latest_commit_over`]).
//!
//! A [`Tracer`] is a cheap cloneable handle over an `Option<Arc<…>>`, like
//! [`sdl_metrics::Metrics`]. Disabled (the default) every site is one
//! branch on `None`: the clock is not read and no record is built.
//! Enabled, records go into a bounded buffer behind a mutex that is only
//! touched at span boundaries, never inside the solver. [`Tracer::take`]
//! drains it, so a reader that drains while the run goes keeps memory
//! bounded.
//!
//! [`ShardedDataspace::latest_commit_over`]:
//!     sdl_dataspace::ShardedDataspace::latest_commit_over

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use sdl_dataspace::WatchSet;
use sdl_lang::ast::TxnKind;
use sdl_tuple::{ProcId, Tuple, TupleId, Value};

use crate::txn::EvalProbe;

/// Where a record was produced: the serial scheduler's single thread or
/// one of the threaded executor's workers. Parked-process intervals get
/// their own per-process tracks in the exported view and carry no
/// `Track`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Track {
    /// The serial/rounds scheduler thread.
    Main,
    /// Worker `i` of the threaded executor.
    Worker(usize),
}

thread_local! {
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Marks the current thread as worker `w` for subsequent records.
/// The threaded executor calls this once at worker startup.
pub(crate) fn set_worker_track(w: usize) {
    WORKER.with(|c| c.set(Some(w)));
}

impl Track {
    /// The track of the calling thread: `Worker(i)` inside a marked
    /// executor worker, `Main` otherwise.
    pub(crate) fn current() -> Track {
        WORKER.with(|c| match c.get() {
            Some(w) => Track::Worker(w),
            None => Track::Main,
        })
    }
}

/// A phase inside one transaction attempt's span chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// Guard evaluation (query solving over the window).
    Eval,
    /// Plan-cache lookup / query planning, nested inside `Eval`.
    Plan,
    /// Acquiring the read-shard footprint locks.
    LockWaitRead,
    /// Acquiring the write-shard footprint locks.
    LockWaitWrite,
    /// Substituting bindings into the effect set after the guard held.
    Effects,
}

impl SpanPhase {
    /// The stable name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Eval => "eval",
            SpanPhase::Plan => "plan",
            SpanPhase::LockWaitRead => "lock_wait_read",
            SpanPhase::LockWaitWrite => "lock_wait_write",
            SpanPhase::Effects => "effects",
        }
    }
}

/// How a park interval ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParkOutcome {
    /// The process was re-enqueued, usually because a commit's watch keys
    /// matched (the [`TraceRecord::Wake`] that follows names the commit).
    Woken,
    /// The run ended with the process still parked.
    Drained,
}

/// One record of the observation stream. Timestamps are microseconds
/// since the tracer was created; durations are microseconds. `step` is
/// the serial scheduler's attempt count when the record was made (`0`
/// from the threaded executor).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// A timed phase of one transaction attempt.
    Span {
        /// Trace id of the attempt this span belongs to.
        trace: u64,
        /// The process whose transaction is being attempted.
        pid: ProcId,
        /// The scheduler thread that executed the phase.
        track: Track,
        /// Which phase this span times.
        phase: SpanPhase,
        /// Start, µs since tracer creation.
        t_us: u64,
        /// Duration in µs.
        dur_us: u64,
    },
    /// A committed transaction — one record however many processes
    /// contributed: a consensus firing is the one commit whose parts are
    /// its community. The span covers the commit critical section
    /// (validate + apply + WAL append, under write locks in the threaded
    /// executor).
    Commit {
        /// Attempts so far.
        step: u64,
        /// Trace id of the committing attempt.
        trace: u64,
        /// The contributions, in commit order: the committing process and
        /// its transaction mode (several for a consensus; never empty).
        parts: Vec<(ProcId, TxnKind)>,
        /// The scheduler thread that committed.
        track: Track,
        /// The commit id other records attribute to.
        commit: u64,
        /// Start, µs since tracer creation.
        t_us: u64,
        /// Duration in µs.
        dur_us: u64,
        /// Labels of the watch keys the batch published (sorted; a
        /// trailing `"…"` marks truncation).
        keys: Vec<String>,
        /// Write-footprint shards the batch locked (empty for the
        /// serial store).
        shards: Vec<usize>,
        /// Retracted instances with the process that retracted each.
        retracted: Vec<(ProcId, TupleId, Tuple)>,
        /// Asserted tuples in `parts` order, each with its issuer and its
        /// fresh id — `None` when the issuer's export set dropped it
        /// (`D' = (D − Wr) ∪ (Export(p) ∩ Wa)`).
        asserted: Vec<(ProcId, Option<TupleId>, Tuple)>,
    },
    /// An attempt aborted at validation, attributed (best effort) to the
    /// most recent committed batch over its write footprint.
    Conflict {
        /// Trace id of the aborted attempt.
        trace: u64,
        /// The process whose attempt aborted.
        pid: ProcId,
        /// The scheduler thread the abort happened on.
        track: Track,
        /// Commit id of the invalidating batch (`0` = unknown).
        against: u64,
        /// Abort time, µs since tracer creation.
        t_us: u64,
    },
    /// A process blocked on a delayed or consensus transaction. The next
    /// [`TraceRecord::Unpark`] of the same process closes the interval.
    Park {
        /// Attempts so far.
        step: u64,
        /// The parked process.
        pid: ProcId,
        /// Park start, µs since tracer creation.
        t_us: u64,
        /// True if the block includes a consensus guard.
        consensus: bool,
        /// Labels of the watch keys the process subscribed on (sorted;
        /// a trailing `"…"` marks truncation).
        keys: Vec<String>,
    },
    /// The end of a park interval.
    Unpark {
        /// The process that was parked.
        pid: ProcId,
        /// Park end, µs since tracer creation.
        t_us: u64,
        /// Whether it was woken or the run drained it.
        outcome: ParkOutcome,
    },
    /// Causality edge from the reverse wake index: `commit` woke `pid`
    /// because it published watch key `key`.
    Wake {
        /// The woken process.
        pid: ProcId,
        /// Commit id of the causing batch.
        commit: u64,
        /// Label of the first matching watch key.
        key: String,
        /// Wake time, µs since tracer creation.
        t_us: u64,
    },
    /// Stall-watchdog annotation: `pid` has been parked beyond the
    /// configured threshold.
    Stall {
        /// The stalled process.
        pid: ProcId,
        /// Flag time, µs since tracer creation.
        t_us: u64,
        /// How long it had been parked when flagged, in µs.
        waited_us: u64,
        /// Labels of the watch keys it waits on.
        keys: Vec<String>,
        /// Recent committed batches on the same `(functor, arity)`
        /// channels that did *not* carry the watched values.
        near_misses: Vec<String>,
    },
    /// A process entered the society.
    Spawn {
        /// Attempts so far.
        step: u64,
        /// Creation time, µs since tracer creation.
        t_us: u64,
        /// New process id.
        pid: ProcId,
        /// Definition name.
        name: String,
        /// Actual arguments.
        args: Vec<Value>,
        /// Creating process (`ProcId::ENV` for initial processes).
        by: ProcId,
    },
    /// A process left the society.
    Exit {
        /// Attempts so far.
        step: u64,
        /// Exit time, µs since tracer creation.
        t_us: u64,
        /// The process.
        pid: ProcId,
        /// True if it ended via `abort`.
        aborted: bool,
    },
    /// An immediate transaction failed.
    Failed {
        /// Attempts so far.
        step: u64,
        /// Failure time, µs since tracer creation.
        t_us: u64,
        /// Issuing process.
        pid: ProcId,
    },
}

/// Default record-buffer capacity (records past it are counted, not
/// kept): generous enough for ~10⁶-commit runs at a few records each.
const DEFAULT_TRACE_RECORDS: usize = 4 << 20;

/// Keys kept per commit/park record before truncation to `"…"`.
const MAX_KEY_LABELS: usize = 48;

struct TracerInner {
    start: Instant,
    records: Mutex<Vec<TraceRecord>>,
    next_trace: AtomicU64,
    next_commit: AtomicU64,
    cap: usize,
    dropped: AtomicU64,
}

/// Cheap cloneable handle onto the one observation stream, threaded
/// through the schedulers.
///
/// Disabled (the default) every call is one branch on `None` and the
/// clock is never read. Cloning shares the record buffer.
///
/// # Examples
///
/// ```
/// use sdl_core::{CompiledProgram, Runtime, TraceRecord, Tracer};
///
/// let program = CompiledProgram::from_source(
///     "process P() { -> <a>; } init { spawn P(); }",
/// ).unwrap();
/// let tracer = Tracer::with_capacity(1);
/// let mut rt = Runtime::builder(program).tracer(tracer.clone()).build().unwrap();
/// rt.run().unwrap();
/// let records = tracer.take();
/// assert!(matches!(records[..], [TraceRecord::Spawn { .. }]));
/// assert!(tracer.dropped() > 0);
/// ```
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A handle that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer with the default record capacity.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_TRACE_RECORDS)
    }

    /// An enabled tracer buffering at most `cap` records between drains;
    /// further records are counted in [`Tracer::dropped`].
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                start: Instant::now(),
                records: Mutex::new(Vec::new()),
                next_trace: AtomicU64::new(0),
                next_commit: AtomicU64::new(0),
                cap,
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether records are being kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// How many records the buffer holds between drains (`0` when
    /// disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.cap)
    }

    /// Starts a span timer: the current offset when enabled, `None` when
    /// disabled (so the disabled path never reads the clock).
    #[inline]
    pub(crate) fn begin(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|i| i.start.elapsed().as_micros() as u64)
    }

    /// Mints the next trace id (one per transaction attempt); `0` when
    /// disabled. Real ids start at 1.
    #[inline]
    pub(crate) fn new_trace(&self) -> u64 {
        match &self.inner {
            Some(i) => i.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
            None => 0,
        }
    }

    /// Mints the next commit id; `0` when disabled (`0` also means
    /// "no attribution" in [`TraceRecord::Conflict`]).
    #[inline]
    pub(crate) fn new_commit(&self) -> u64 {
        match &self.inner {
            Some(i) => i.next_commit.fetch_add(1, Ordering::Relaxed) + 1,
            None => 0,
        }
    }

    /// Appends the record `make` builds from the current time (bounded
    /// by the construction-time capacity). Disabled, `make` never runs.
    #[inline]
    pub(crate) fn record(&self, make: impl FnOnce(u64) -> TraceRecord) {
        if let Some(i) = &self.inner {
            let r = make(i.start.elapsed().as_micros() as u64);
            let mut buf = i.records.lock();
            if buf.len() < i.cap {
                buf.push(r);
            } else {
                i.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Closes a span opened with [`Tracer::begin`] and records it.
    #[inline]
    pub(crate) fn span(&self, started: Option<u64>, trace: u64, pid: ProcId, phase: SpanPhase) {
        if let Some(t0) = started {
            self.record(|now| TraceRecord::Span {
                trace,
                pid,
                track: Track::current(),
                phase,
                t_us: t0,
                dur_us: now.saturating_sub(t0),
            });
        }
    }

    /// Closes an eval span opened with [`Tracer::begin`], recording first
    /// the plan-cache lookup `probe` timed inside it.
    pub(crate) fn eval_span(
        &self,
        started: Option<u64>,
        probe: Option<&EvalProbe>,
        trace: u64,
        pid: ProcId,
    ) {
        if let (Some(t0), Some((off, dur))) = (started, probe.and_then(|p| p.plan_us)) {
            self.record(|_| TraceRecord::Span {
                trace,
                pid,
                track: Track::current(),
                phase: SpanPhase::Plan,
                t_us: t0 + off,
                dur_us: dur,
            });
        }
        self.span(started, trace, pid, SpanPhase::Eval);
    }

    /// Records dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(i) => i.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Drains and returns every record collected since the last drain.
    pub fn take(&self) -> Vec<TraceRecord> {
        match &self.inner {
            Some(i) => std::mem::take(&mut *i.records.lock()),
            None => Vec::new(),
        }
    }
}

/// Sorted, bounded labels for a watch-key set: deterministic output for
/// commit/park records, with a trailing `"…"` sentinel when the set was
/// larger than the cap (tests treat the sentinel as "may contain more").
pub(crate) fn watch_labels(keys: &WatchSet) -> Vec<String> {
    let mut labels: Vec<String> = keys.iter().map(|k| k.label()).collect();
    labels.sort();
    if labels.len() > MAX_KEY_LABELS {
        labels.truncate(MAX_KEY_LABELS);
        labels.push("…".to_string());
    }
    labels
}

/// The last 32 committed batches as `(commit id, published keys,
/// description)`, newest last: where the stall watchdog finds near
/// misses.
#[derive(Debug, Default)]
pub(crate) struct RecentCommits(VecDeque<(u64, WatchSet, String)>);

impl RecentCommits {
    pub(crate) fn push(&mut self, commit: u64, keys: WatchSet, desc: String) {
        if self.0.len() >= 32 {
            self.0.pop_front();
        }
        self.0.push_back((commit, keys, desc));
    }

    /// Nearest-miss explanations for a stalled process: recent committed
    /// batches whose keys share a `(functor, arity)` channel with the
    /// parked watch set but did **not** intersect it — i.e. traffic on
    /// the right relation carrying the wrong values.
    pub(crate) fn near_misses(&self, parked: &WatchSet) -> Vec<String> {
        let channels: Vec<_> = parked.iter().map(|k| k.channel()).collect();
        self.0
            .iter()
            .rev()
            .filter(|(_, keys, _)| {
                !parked.intersects(keys) && keys.iter().any(|k| channels.contains(&k.channel()))
            })
            .take(3)
            .map(|(commit, _, desc)| format!("commit {commit}: {desc}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::{pattern, tuple, Value};

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.new_trace(), 0);
        assert_eq!(t.new_commit(), 0);
        assert_eq!(t.begin(), None);
        t.span(None, 0, ProcId(1), SpanPhase::Eval);
        t.record(|_| unreachable!("a disabled tracer builds no record"));
        assert!(t.take().is_empty());
    }

    #[test]
    fn ids_are_minted_from_one() {
        let t = Tracer::new();
        assert_eq!(t.new_trace(), 1);
        assert_eq!(t.new_trace(), 2);
        assert_eq!(t.new_commit(), 1);
    }

    #[test]
    fn spans_record_on_the_current_track() {
        let t = Tracer::new();
        let s = t.begin();
        t.span(s, 7, ProcId(3), SpanPhase::Eval);
        let recs = t.take();
        assert_eq!(recs.len(), 1);
        match &recs[0] {
            TraceRecord::Span {
                trace,
                pid,
                track,
                phase,
                ..
            } => {
                assert_eq!(*trace, 7);
                assert_eq!(*pid, ProcId(3));
                assert_eq!(*track, Track::Main);
                assert_eq!(*phase, SpanPhase::Eval);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn capacity_is_enforced_and_counted() {
        let t = Tracer::with_capacity(2);
        let failed = |t_us| TraceRecord::Failed {
            step: 0,
            t_us,
            pid: ProcId(1),
        };
        for _ in 0..5 {
            t.record(failed);
        }
        assert_eq!(t.take().len(), 2);
        assert_eq!(t.dropped(), 3);
        t.record(failed);
        assert_eq!(t.take().len(), 1, "a drain makes room again");
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn near_misses_report_same_channel_non_matching_commits() {
        let mut parked = WatchSet::new();
        parked.add_pattern_exact(&pattern![Value::atom("job"), 7]);

        let mut matching = WatchSet::new();
        matching.add_tuple(&tuple![Value::atom("job"), 7]);
        let mut near = WatchSet::new();
        near.add_tuple(&tuple![Value::atom("job"), 8]);
        let mut far = WatchSet::new();
        far.add_tuple(&tuple![Value::atom("log"), 1, 2]);

        let mut recent = RecentCommits::default();
        recent.push(1, matching, "<job, 7>".to_string());
        recent.push(2, near, "<job, 8>".to_string());
        recent.push(3, far, "<log, 1, 2>".to_string());
        let misses = recent.near_misses(&parked);
        assert_eq!(misses, vec!["commit 2: <job, 8>".to_string()]);
    }
}
