//! Deterministic schedule exploration (loom/CHESS-style).
//!
//! Real OS threads run the code under test, but a baton-passing scheduler
//! lets exactly one proceed at a time. At every facade operation the thread
//! *announces* the operation and blocks until granted; the scheduler picks
//! which announced thread runs next. Where more than one thread is enabled
//! a *decision* is recorded, and the driver backtracks over decisions
//! depth-first until the space is exhausted or a budget trips.
//!
//! Pruning is sleep-set based (Godefroid): when the driver backtracks past
//! a choice it already explored, the not-chosen-again thread goes to sleep
//! and stays asleep until some executed segment performs an operation
//! *dependent* with the sleeper's announced one (same mutex, same rwlock
//! with a writer involved, same atomic with a store involved, same
//! condvar). An execution whose only enabled threads are all asleep is
//! provably redundant and is cut. An optional preemption bound (CHESS)
//! caps how often the scheduler switches away from a still-enabled thread.
//!
//! Failures are panics in the code under test *or* deadlocks: no thread
//! enabled while some thread still waits. A lost wakeup — the bug family
//! this explorer exists to catch — surfaces as exactly that deadlock. Every
//! failure carries a compact schedule string (`"t1.t0.v2"…`) that
//! [`Explore::replay`] re-runs, plus the full per-step trace for export.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Unique id for a facade object (mutex, rwlock, atomic, condvar).
pub(crate) type ObjId = u64;

static NEXT_OBJ: AtomicU64 = AtomicU64::new(1);

pub(crate) fn alloc_obj() -> ObjId {
    NEXT_OBJ.fetch_add(1, Ordering::Relaxed)
}

/// An operation a thread announces before performing. The scheduler grants
/// at most one per step; the real effect happens after the grant, while the
/// thread is the unique runner, so the model stays sequentially consistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Start,
    Lock(ObjId),
    /// Reacquire after a condvar wait (same dependency footprint as Lock).
    Relock(ObjId),
    RwRead(ObjId),
    RwWrite(ObjId),
    Notify {
        cv: ObjId,
        all: bool,
    },
    AtomLoad(ObjId),
    /// Stores and RMWs.
    AtomStore(ObjId),
    Sleep,
    /// Scope join: enabled once all children of this thread finished.
    Join,
    /// Value choice: `explore::choose(n)`.
    Choose(u32),
}

/// The memory footprint of an executed operation, used for the dependency
/// relation that drives sleep-set pruning. Lock releases and condvar waits
/// happen eagerly (no grant) and are folded into the running thread's
/// current segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Effect {
    LockOp(ObjId),
    RwRead(ObjId),
    RwWrite(ObjId),
    AtomLoad(ObjId),
    AtomStore(ObjId),
    Cv(ObjId),
    /// Thread-local only: independent with everything.
    Local,
}

fn op_effect(op: Op) -> Effect {
    match op {
        Op::Lock(o) | Op::Relock(o) => Effect::LockOp(o),
        Op::RwRead(o) => Effect::RwRead(o),
        Op::RwWrite(o) => Effect::RwWrite(o),
        Op::Notify { cv, .. } => Effect::Cv(cv),
        Op::AtomLoad(o) => Effect::AtomLoad(o),
        Op::AtomStore(o) => Effect::AtomStore(o),
        Op::Start | Op::Sleep | Op::Join | Op::Choose(_) => Effect::Local,
    }
}

fn dependent(a: Effect, b: Effect) -> bool {
    use Effect::*;
    match (a, b) {
        (LockOp(x), LockOp(y)) => x == y,
        (RwRead(x), RwWrite(y)) | (RwWrite(x), RwRead(y)) | (RwWrite(x), RwWrite(y)) => x == y,
        (AtomLoad(x), AtomStore(y))
        | (AtomStore(x), AtomLoad(y))
        | (AtomStore(x), AtomStore(y)) => x == y,
        (Cv(x), Cv(y)) => x == y,
        _ => false,
    }
}

fn op_label(op: Op) -> String {
    match op {
        Op::Start => "start".into(),
        Op::Lock(o) => format!("lock(M{o})"),
        Op::Relock(o) => format!("relock(M{o})"),
        Op::RwRead(o) => format!("read(R{o})"),
        Op::RwWrite(o) => format!("write(R{o})"),
        Op::Notify { cv, all: false } => format!("notify_one(C{cv})"),
        Op::Notify { cv, all: true } => format!("notify_all(C{cv})"),
        Op::AtomLoad(o) => format!("load(A{o})"),
        Op::AtomStore(o) => format!("store(A{o})"),
        Op::Sleep => "sleep".into(),
        Op::Join => "join".into(),
        Op::Choose(n) => format!("choose({n})"),
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum ThrState {
    /// Registered; the real OS thread has not announced `Start` yet. Not
    /// schedulable — the spawner blocks until the announce so that enabled
    /// sets never depend on OS thread-start timing.
    Spawned,
    /// Announced an op, waiting for a grant.
    Waiting(Op),
    /// Granted; the unique runner.
    Running,
    /// Inside `Condvar::wait`, not yet notified.
    CondBlocked {
        cv: ObjId,
        mutex: ObjId,
    },
    Finished,
}

struct Thr {
    state: ThrState,
    /// Effects of the current segment: the granted op plus every eager
    /// effect (unlock, rwlock release, condvar release) folded in until the
    /// next announce.
    segment: Vec<Effect>,
    /// Value handed back by a granted `Choose`.
    chosen: u32,
    /// Sleep-op budget (prevents the watchdog loop from running forever).
    sleeps_done: u32,
    children: Vec<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LockModel {
    Mutex(usize),
    Readers, // reader set tracked separately
    Writer(usize),
}

/// One scheduling/value decision with the alternatives that were enabled.
#[derive(Clone, Debug)]
pub(crate) struct DecisionRec {
    /// Candidate choices (thread ids, or 0..n for a value choice).
    pub choices: Vec<u32>,
    pub chosen: u32,
    /// True when the preemption bound forced this choice: no alternatives
    /// should be explored at this node.
    pub forced: bool,
    /// Sleep set at the moment of the decision (thread decisions only).
    pub sleeping: Vec<u32>,
    pub is_value: bool,
}

/// One granted step, for trace export.
#[derive(Clone, Debug)]
pub struct ScheduleStep {
    pub step: usize,
    pub tid: usize,
    pub label: String,
    /// True when this step consumed a recorded decision (a real branch).
    pub decision: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StopKind {
    Fail,
    Truncated,
    Redundant,
    Divergent,
}

struct Sched {
    threads: Vec<Thr>,
    current: Option<usize>,
    locks: HashMap<ObjId, LockModel>,
    readers: HashMap<ObjId, HashSet<usize>>,
    cv_waiters: HashMap<ObjId, VecDeque<usize>>,
    /// Threads in the sleep set (sleep-set pruning).
    sleeping: HashSet<usize>,
    /// Replay prefix: decision choices to force, in order.
    prefix: Vec<u32>,
    /// For replayed decisions: siblings already explored (go to sleep).
    prefix_tried: Vec<Vec<u32>>,
    decisions: Vec<DecisionRec>,
    trace: Vec<ScheduleStep>,
    steps: usize,
    live: usize,
    last_run: Option<usize>,
    preemptions: u32,
    stop: Option<StopKind>,
    fail_msg: Option<String>,
    opts: Opts,
    /// Set when replaying leniently: prefix divergence falls back to the
    /// first enabled candidate instead of stopping.
    lenient: bool,
    diverged: bool,
}

#[derive(Clone, Copy, Debug)]
struct Opts {
    max_steps: usize,
    preemption_bound: Option<u32>,
}

/// Grants of `sleep()` per thread before the sleeper only runs when
/// nothing else can.
const SLEEP_BUDGET: u32 = 2;

pub(crate) struct ExplorerInner {
    sched: Mutex<Sched>,
    cv: Condvar,
}

/// Per-thread handle installed in TLS while a thread runs under exploration.
pub(crate) struct ThreadCtx {
    pub(crate) exp: Arc<ExplorerInner>,
    pub(crate) tid: usize,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CTX: RefCell<Option<Arc<ThreadCtx>>> = const { RefCell::new(None) };
}

/// Cheap check used by the facade fast path.
#[inline]
pub(crate) fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

pub(crate) fn current() -> Option<Arc<ThreadCtx>> {
    if !active() {
        return None;
    }
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Arc<ThreadCtx>>) {
    ACTIVE.with(|a| a.set(ctx.is_some()));
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Panic payload used to unwind threads when the scheduler stops early.
/// Swallowed by the per-thread `catch_unwind`; never user-visible.
struct ExplorerStop;

fn stop_panic() -> ! {
    std::panic::panic_any(ExplorerStop)
}

impl Sched {
    fn enabled_op(&self, tid: usize, op: Op, allow_over_sleep: bool) -> bool {
        match op {
            Op::Lock(o) | Op::Relock(o) => {
                !self.locks.contains_key(&o) && self.readers.get(&o).is_none_or(|r| r.is_empty())
            }
            Op::RwRead(o) => !matches!(self.locks.get(&o), Some(LockModel::Writer(_))),
            Op::RwWrite(o) => {
                !self.locks.contains_key(&o) && self.readers.get(&o).is_none_or(|r| r.is_empty())
            }
            Op::Sleep => allow_over_sleep || self.threads[tid].sleeps_done < SLEEP_BUDGET,
            Op::Join => self.threads[tid]
                .children
                .iter()
                .all(|&c| self.threads[c].state == ThrState::Finished),
            Op::Start | Op::Notify { .. } | Op::AtomLoad(_) | Op::AtomStore(_) | Op::Choose(_) => {
                true
            }
        }
    }

    fn enabled_threads(&self) -> Vec<usize> {
        let mut within: Vec<usize> = Vec::new();
        let mut over_sleep: Vec<usize> = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            if let ThrState::Waiting(op) = t.state {
                if self.enabled_op(tid, op, false) {
                    within.push(tid);
                } else if op == Op::Sleep {
                    over_sleep.push(tid);
                }
            }
        }
        // Over-budget sleepers only run when nothing else can: this bounds
        // infinite poll loops (the stall watchdog) without losing them.
        if within.is_empty() {
            over_sleep
        } else {
            within
        }
    }

    /// Take one decision: consume the prefix if present, else branch.
    /// Returns the chosen value and whether this was a recorded decision.
    fn decide(&mut self, choices: Vec<u32>, is_value: bool, forced: Option<u32>) -> u32 {
        debug_assert!(!choices.is_empty());
        let depth = self.decisions.len();
        let sleeping: Vec<u32> = if is_value {
            Vec::new()
        } else {
            let mut s: Vec<u32> = self.sleeping.iter().map(|&t| t as u32).collect();
            s.sort_unstable();
            s
        };
        let chosen = if depth < self.prefix.len() {
            let want = self.prefix[depth];
            if choices.contains(&want) {
                // Put already-explored siblings to sleep (thread decisions).
                if !is_value {
                    if let Some(tried) = self.prefix_tried.get(depth) {
                        for &s in tried {
                            if s != want {
                                self.sleeping.insert(s as usize);
                            }
                        }
                    }
                }
                want
            } else if self.lenient {
                self.diverged = true;
                choices[0]
            } else {
                self.diverged = true;
                self.stop = Some(StopKind::Divergent);
                self.fail_msg = Some(format!(
                    "schedule divergence at decision {depth}: wanted {want}, enabled {choices:?}"
                ));
                return choices[0];
            }
        } else if let Some(f) = forced {
            f
        } else {
            choices[0]
        };
        self.decisions.push(DecisionRec {
            choices,
            chosen,
            forced: forced.is_some(),
            sleeping,
            is_value,
        });
        chosen
    }

    /// Grant `tid`'s announced op: apply its model effect and make it the
    /// unique runner.
    fn grant(&mut self, tid: usize, decision: bool) {
        let op = match self.threads[tid].state {
            ThrState::Waiting(op) => op,
            ref s => unreachable!("grant of non-waiting thread {tid}: {s:?}"),
        };
        match op {
            Op::Lock(o) | Op::Relock(o) => {
                self.locks.insert(o, LockModel::Mutex(tid));
            }
            Op::RwRead(o) => {
                self.locks.entry(o).or_insert(LockModel::Readers);
                self.readers.entry(o).or_default().insert(tid);
                if self.readers[&o].len() == 1 {
                    self.locks.insert(o, LockModel::Readers);
                }
            }
            Op::RwWrite(o) => {
                self.locks.insert(o, LockModel::Writer(tid));
            }
            Op::Notify { cv, all } => {
                let waiters = self.cv_waiters.entry(cv).or_default();
                let woken: Vec<usize> = if all {
                    waiters.drain(..).collect()
                } else {
                    waiters.pop_front().into_iter().collect()
                };
                for w in woken {
                    let mutex = match self.threads[w].state {
                        ThrState::CondBlocked { mutex, .. } => mutex,
                        ref s => unreachable!("notified thread {w} not cond-blocked: {s:?}"),
                    };
                    self.threads[w].state = ThrState::Waiting(Op::Relock(mutex));
                }
            }
            Op::Sleep => {
                self.threads[tid].sleeps_done += 1;
            }
            Op::Choose(n) => {
                let v = self.decide((0..n).collect(), true, None);
                self.threads[tid].chosen = v;
            }
            Op::Start | Op::Join | Op::AtomLoad(_) | Op::AtomStore(_) => {}
        }
        self.trace.push(ScheduleStep {
            step: self.steps,
            tid,
            label: op_label(op),
            decision,
        });
        self.steps += 1;
        self.threads[tid].segment = vec![op_effect(op)];
        self.threads[tid].state = ThrState::Running;
        if let Some(last) = self.last_run {
            if last != tid {
                if let ThrState::Waiting(last_op) = self.threads[last].state {
                    if self.enabled_op(last, last_op, true) {
                        self.preemptions += 1;
                    }
                }
            }
        }
        self.last_run = Some(tid);
        self.current = Some(tid);
    }

    /// Pick and grant the next thread. Called whenever `current` is vacated.
    fn schedule(&mut self) {
        if self.stop.is_some() {
            return;
        }
        // Only the baton holder may trigger scheduling; anything else would
        // let two threads run at once.
        debug_assert!(self.current.is_none(), "schedule with a live runner");
        if self.current.is_some() {
            return;
        }
        let enabled = self.enabled_threads();
        if enabled.is_empty() {
            let stuck: Vec<String> = self
                .threads
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match &t.state {
                    ThrState::Waiting(op) => Some(format!("t{i} waiting on {}", op_label(*op))),
                    ThrState::CondBlocked { cv, .. } => Some(format!("t{i} blocked on C{cv}")),
                    _ => None,
                })
                .collect();
            if !stuck.is_empty() {
                self.stop = Some(StopKind::Fail);
                self.fail_msg = Some(format!("deadlock: no thread enabled; {}", stuck.join(", ")));
            }
            // else: execution winding down, remaining threads all finished.
            return;
        }
        if self.steps >= self.opts.max_steps {
            self.stop = Some(StopKind::Truncated);
            return;
        }
        let awake: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|t| !self.sleeping.contains(t))
            .collect();
        if awake.is_empty() {
            // Every enabled thread is asleep: this state's full subtree was
            // already covered from an earlier sibling. Prune.
            self.stop = Some(StopKind::Redundant);
            return;
        }
        let (tid, decision) = if enabled.len() == 1 {
            (enabled[0], false)
        } else {
            // Preemption bound: once exhausted, keep running the last
            // thread while it stays enabled.
            let forced = match (self.opts.preemption_bound, self.last_run) {
                (Some(bound), Some(last)) if self.preemptions >= bound => {
                    if awake.contains(&last) {
                        Some(last as u32)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let choices: Vec<u32> = awake.iter().map(|&t| t as u32).collect();
            let chosen = self.decide(choices, false, forced);
            (chosen as usize, true)
        };
        self.grant(tid, decision);
    }

    /// Fold the just-completed segment of `tid` into sleep-set filtering:
    /// wake any sleeper whose announced op is dependent with it.
    fn end_segment(&mut self, tid: usize) {
        if self.sleeping.is_empty() {
            return;
        }
        let segment = std::mem::take(&mut self.threads[tid].segment);
        let mut woken: Vec<usize> = Vec::new();
        for &s in &self.sleeping {
            if s == tid {
                woken.push(s);
                continue;
            }
            if let ThrState::Waiting(op) = self.threads[s].state {
                let eff = op_effect(op);
                if segment.iter().any(|&e| dependent(e, eff)) {
                    woken.push(s);
                }
            }
        }
        for s in woken {
            self.sleeping.remove(&s);
        }
        self.threads[tid].segment = segment;
    }
}

impl ExplorerInner {
    fn new(opts: Opts, prefix: Vec<u32>, prefix_tried: Vec<Vec<u32>>, lenient: bool) -> Self {
        ExplorerInner {
            sched: Mutex::new(Sched {
                threads: Vec::new(),
                current: None,
                locks: HashMap::new(),
                readers: HashMap::new(),
                cv_waiters: HashMap::new(),
                sleeping: HashSet::new(),
                prefix,
                prefix_tried,
                decisions: Vec::new(),
                trace: Vec::new(),
                steps: 0,
                live: 0,
                last_run: None,
                preemptions: 0,
                stop: None,
                fail_msg: None,
                opts,
                lenient,
                diverged: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn register(&self, parent: Option<usize>) -> usize {
        let mut st = self.lock();
        let tid = st.threads.len();
        st.threads.push(Thr {
            state: ThrState::Spawned,
            segment: Vec::new(),
            chosen: 0,
            sleeps_done: 0,
            children: Vec::new(),
        });
        st.live += 1;
        if let Some(p) = parent {
            st.threads[p].children.push(tid);
        }
        tid
    }
}

impl ThreadCtx {
    /// Panic out of the code under test, waking every blocked thread first
    /// so the execution winds down instead of hanging.
    fn bail(&self) -> ! {
        self.exp.cv.notify_all();
        stop_panic()
    }

    /// First announce of a freshly spawned thread: publish `Waiting(Start)`
    /// (unblocking the spawner, which is still the baton holder) and wait
    /// for the grant. Does NOT call `schedule` — the spawner keeps running.
    fn announce_start(&self) {
        let mut st = self.exp.lock();
        st.threads[self.tid].state = ThrState::Waiting(Op::Start);
        drop(st);
        self.exp.cv.notify_all();
        let mut st = self.exp.lock();
        loop {
            if st.stop.is_some() {
                drop(st);
                self.bail();
            }
            if st.current == Some(self.tid) && st.threads[self.tid].state == ThrState::Running {
                drop(st);
                self.exp.cv.notify_all();
                return;
            }
            st = self
                .exp
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Announce `op`, yield to the scheduler, block until granted.
    /// Returns the chosen value for `Op::Choose`.
    pub(crate) fn reach(&self, op: Op) -> u32 {
        let mut st = self.exp.lock();
        if st.stop.is_some() {
            drop(st);
            self.bail();
        }
        st.end_segment(self.tid);
        st.threads[self.tid].state = ThrState::Waiting(op);
        if st.current == Some(self.tid) {
            st.current = None;
        }
        st.schedule();
        // The grant itself wakes nobody: notify while still holding the
        // scheduler lock so the granted thread re-checks.
        self.exp.cv.notify_all();
        loop {
            if st.stop.is_some() {
                drop(st);
                self.bail();
            }
            if st.current == Some(self.tid) && st.threads[self.tid].state == ThrState::Running {
                let v = st.threads[self.tid].chosen;
                drop(st);
                return v;
            }
            st = self
                .exp
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Record an eager (non-gated) effect of the running thread: lock and
    /// rwlock releases. The model transition happens immediately.
    pub(crate) fn eager_release(&self, eff: Effect) {
        let mut st = self.exp.lock();
        if st.stop.is_some() {
            // Never panic here: releases run from guard destructors, which
            // may already be unwinding on ExplorerStop. Record nothing; the
            // execution is being torn down.
            return;
        }
        match eff {
            Effect::LockOp(o) => {
                st.locks.remove(&o);
            }
            Effect::RwRead(o) => {
                if let Some(r) = st.readers.get_mut(&o) {
                    r.remove(&self.tid);
                    if r.is_empty() {
                        st.locks.remove(&o);
                    }
                }
            }
            Effect::RwWrite(o) => {
                st.locks.remove(&o);
            }
            _ => {}
        }
        st.threads[self.tid].segment.push(eff);
        drop(st);
        // Releases can enable waiters, but scheduling only happens at the
        // next announce: this thread remains the unique runner.
        self.exp.cv.notify_all();
    }

    /// Condvar wait: release the mutex, block until notified, reacquire.
    pub(crate) fn cond_wait(&self, cv: ObjId, mutex: ObjId) {
        let mut st = self.exp.lock();
        if st.stop.is_some() {
            drop(st);
            self.bail();
        }
        st.locks.remove(&mutex);
        st.threads[self.tid].segment.push(Effect::LockOp(mutex));
        st.threads[self.tid].segment.push(Effect::Cv(cv));
        st.end_segment(self.tid);
        st.threads[self.tid].state = ThrState::CondBlocked { cv, mutex };
        st.cv_waiters.entry(cv).or_default().push_back(self.tid);
        if st.current == Some(self.tid) {
            st.current = None;
        }
        st.schedule();
        self.exp.cv.notify_all();
        loop {
            if st.stop.is_some() {
                drop(st);
                self.bail();
            }
            if st.current == Some(self.tid) && st.threads[self.tid].state == ThrState::Running {
                drop(st);
                return;
            }
            st = self
                .exp
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Mark this thread finished; record a failure if it panicked.
    fn finish(&self, panic_msg: Option<String>) {
        let mut st = self.exp.lock();
        st.end_segment(self.tid);
        st.threads[self.tid].state = ThrState::Finished;
        st.live -= 1;
        if st.current == Some(self.tid) {
            st.current = None;
        }
        if let Some(msg) = panic_msg {
            if st.stop.is_none() {
                st.stop = Some(StopKind::Fail);
                st.fail_msg = Some(msg);
            }
        } else {
            st.schedule();
        }
        drop(st);
        self.exp.cv.notify_all();
    }

    /// Record a failure (or just wake everyone if `msg` is `None`) and make
    /// sure every blocked thread can wind down. Used when a scope closure
    /// unwinds with threads still parked in the scheduler.
    pub(crate) fn stop_all(&self, msg: Option<String>) {
        let mut st = self.exp.lock();
        if st.stop.is_none() {
            match msg {
                Some(m) => {
                    st.stop = Some(StopKind::Fail);
                    st.fail_msg = Some(m);
                }
                None => st.stop = Some(StopKind::Truncated),
            }
        }
        drop(st);
        self.exp.cv.notify_all();
    }

    /// Block until all children of this thread have finished (scope join),
    /// modelled as an announced op so the scheduler keeps control.
    pub(crate) fn join_children(&self) {
        let has_children = {
            let st = self.exp.lock();
            !st.threads[self.tid].children.is_empty()
        };
        if has_children {
            self.reach(Op::Join);
        }
    }
}

/// `None` when the payload is the explorer's own teardown panic.
pub(crate) fn unwind_message(p: &Box<dyn std::any::Any + Send>) -> Option<String> {
    if p.downcast_ref::<ExplorerStop>().is_some() {
        None
    } else {
        Some(panic_message(p.as_ref()))
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

// ---------------------------------------------------------------------------
// Facade hooks (called from facade.rs)
// ---------------------------------------------------------------------------

/// Spawn a child thread of the current explorer context inside `scope`.
pub(crate) fn spawn_under<'scope, 'env, F>(
    ctx: &Arc<ThreadCtx>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
    f: F,
) where
    F: FnOnce() + Send + 'scope,
{
    let tid = ctx.exp.register(Some(ctx.tid));
    let child = Arc::new(ThreadCtx {
        exp: Arc::clone(&ctx.exp),
        tid,
    });
    scope.spawn(move || {
        set_ctx(Some(Arc::clone(&child)));
        child.announce_start();
        let result = catch_unwind(AssertUnwindSafe(f));
        let msg = match result {
            Ok(()) => None,
            Err(p) => {
                if p.downcast_ref::<ExplorerStop>().is_some() {
                    None
                } else {
                    Some(panic_message(p.as_ref()))
                }
            }
        };
        child.finish(msg);
        set_ctx(None);
    });
    // Block the spawner until the child has announced: enabled sets must
    // never depend on OS thread-start timing, or schedules would not replay.
    let mut st = ctx.exp.lock();
    while st.threads[tid].state == ThrState::Spawned && st.stop.is_none() {
        st = ctx
            .exp
            .cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Value choice under exploration: returns every value in `0..n` across
/// schedules. Outside exploration (or with `n <= 1`) returns 0. This is how
/// single-threaded order-exploration tests (e.g. the server engine's park
/// lifecycle) enumerate event orders deterministically.
pub fn choose(n: u32) -> u32 {
    if n <= 1 {
        return 0;
    }
    match current() {
        Some(ctx) => ctx.reach(Op::Choose(n)),
        None => 0,
    }
}

/// True while the calling thread runs under a deterministic explorer.
pub fn is_active() -> bool {
    active()
}

/// A failing schedule: the message, a compact replayable schedule string,
/// and the full granted-step trace for export.
#[derive(Clone, Debug)]
pub struct Failure {
    pub message: String,
    pub schedule: String,
    pub steps: Vec<ScheduleStep>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.message)?;
        writeln!(f, "schedule: {}", self.schedule)?;
        for s in &self.steps {
            writeln!(
                f,
                "  #{:<4} t{} {}{}",
                s.step,
                s.tid,
                s.label,
                if s.decision { "  <- decision" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Exploration report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Executions run (including pruned/truncated ones).
    pub schedules: usize,
    /// Executions cut by the sleep-set check (provably redundant).
    pub pruned: usize,
    /// Executions cut by `max_steps`.
    pub truncated: usize,
    /// Executions whose prefix replay diverged (nondeterministic body).
    pub divergent: usize,
    /// True when the decision tree was exhausted within budget.
    pub complete: bool,
    pub failure: Option<Failure>,
}

/// Compact schedule string: decision choices joined by '.', thread picks as
/// `t<tid>`, value picks as `v<n>`.
fn schedule_string(decisions: &[DecisionRec]) -> String {
    let mut s = String::new();
    for (i, d) in decisions.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        let _ = write!(s, "{}{}", if d.is_value { 'v' } else { 't' }, d.chosen);
    }
    s
}

fn parse_schedule(s: &str) -> Vec<u32> {
    s.split('.')
        .filter(|p| !p.is_empty())
        .filter_map(|p| p[1..].parse().ok())
        .collect()
}

/// DFS node over one recorded decision.
struct Node {
    choices: Vec<u32>,
    tried: Vec<u32>,
    /// Choice the current subtree was explored under.
    cur: u32,
    forced: bool,
    /// Sleep set on entry: sleeping threads are not candidates here.
    sleep_entry: Vec<u32>,
}

impl Node {
    fn next_candidate(&self) -> Option<u32> {
        if self.forced {
            return None;
        }
        self.choices
            .iter()
            .copied()
            .find(|c| !self.tried.contains(c) && !self.sleep_entry.contains(c))
    }
}

/// Bounded deterministic exploration of a concurrent body.
///
/// ```ignore
/// let report = Explore::new().max_schedules(5_000).run(|| {
///     // build + run the system under test; assertions panic on failure
/// });
/// assert!(report.failure.is_none(), "{}", report.failure.unwrap());
/// ```
#[derive(Clone, Debug)]
pub struct Explore {
    pub max_schedules: usize,
    pub max_steps: usize,
    /// CHESS-style preemption bound; `None` = unbounded.
    pub preemption_bound: Option<u32>,
    pub time_budget: Option<Duration>,
}

impl Default for Explore {
    fn default() -> Self {
        Explore {
            max_schedules: 10_000,
            max_steps: 20_000,
            preemption_bound: None,
            time_budget: None,
        }
    }
}

impl Explore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn max_schedules(mut self, n: usize) -> Self {
        self.max_schedules = n;
        self
    }

    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    pub fn preemption_bound(mut self, n: u32) -> Self {
        self.preemption_bound = Some(n);
        self
    }

    pub fn time_budget(mut self, d: Duration) -> Self {
        self.time_budget = Some(d);
        self
    }

    fn opts(&self) -> Opts {
        Opts {
            max_steps: self.max_steps,
            preemption_bound: self.preemption_bound,
        }
    }

    /// Run one execution with the given decision prefix. The calling thread
    /// becomes thread 0 of the exploration.
    fn run_once<F>(
        &self,
        prefix: &[u32],
        prefix_tried: &[Vec<u32>],
        lenient: bool,
        body: &mut F,
    ) -> (
        Vec<DecisionRec>,
        Vec<ScheduleStep>,
        Option<StopKind>,
        Option<String>,
        bool,
    )
    where
        F: FnMut(),
    {
        let inner = Arc::new(ExplorerInner::new(
            self.opts(),
            prefix.to_vec(),
            prefix_tried.to_vec(),
            lenient,
        ));
        let root_tid = inner.register(None);
        debug_assert_eq!(root_tid, 0);
        {
            let mut st = inner.lock();
            st.threads[0].state = ThrState::Running;
            st.threads[0].segment = vec![Effect::Local];
            st.current = Some(0);
        }
        let root = Arc::new(ThreadCtx {
            exp: Arc::clone(&inner),
            tid: 0,
        });
        set_ctx(Some(Arc::clone(&root)));
        let result = catch_unwind(AssertUnwindSafe(&mut *body));
        let msg = match result {
            Ok(()) => None,
            Err(p) => {
                if p.downcast_ref::<ExplorerStop>().is_some() {
                    None
                } else {
                    Some(panic_message(p.as_ref()))
                }
            }
        };
        root.finish(msg);
        set_ctx(None);
        let st = inner.lock();
        (
            st.decisions.clone(),
            st.trace.clone(),
            st.stop,
            st.fail_msg.clone(),
            st.diverged,
        )
    }

    /// Explore schedules depth-first until exhausted or a budget trips.
    /// Stops at the first failure.
    pub fn run<F>(&self, mut body: F) -> Report
    where
        F: FnMut(),
    {
        let start = Instant::now();
        let mut report = Report::default();
        let mut stack: Vec<Node> = Vec::new();
        let mut prefix: Vec<u32> = Vec::new();
        loop {
            let prefix_tried: Vec<Vec<u32>> = stack.iter().map(|n| n.tried.clone()).collect();
            let (decisions, trace, stop, fail_msg, _diverged) =
                self.run_once(&prefix, &prefix_tried, false, &mut body);
            report.schedules += 1;
            match stop {
                Some(StopKind::Fail) => {
                    report.failure = Some(Failure {
                        message: fail_msg.unwrap_or_else(|| "failure".into()),
                        schedule: schedule_string(&decisions),
                        steps: trace,
                    });
                    return report;
                }
                Some(StopKind::Truncated) => report.truncated += 1,
                Some(StopKind::Redundant) => report.pruned += 1,
                Some(StopKind::Divergent) => {
                    report.divergent += 1;
                    // The tree is unreliable past the divergence; drop the
                    // diverged suffix and keep backtracking.
                }
                None => {}
            }
            // Grow the DFS stack with the fresh decisions of this run.
            if stop != Some(StopKind::Divergent) {
                for d in decisions.iter().skip(stack.len()) {
                    stack.push(Node {
                        choices: d.choices.clone(),
                        tried: vec![d.chosen],
                        cur: d.chosen,
                        forced: d.forced,
                        sleep_entry: if d.is_value {
                            Vec::new()
                        } else {
                            d.sleeping.clone()
                        },
                    });
                }
            }
            if report.schedules >= self.max_schedules {
                return report;
            }
            if let Some(t) = self.time_budget {
                if start.elapsed() >= t {
                    return report;
                }
            }
            // Backtrack to the deepest node with an untried candidate.
            loop {
                let Some(top) = stack.last_mut() else {
                    report.complete = true;
                    return report;
                };
                if let Some(c) = top.next_candidate() {
                    top.tried.push(c);
                    top.cur = c;
                    break;
                }
                stack.pop();
            }
            prefix = stack.iter().map(|n| n.cur).collect();
        }
    }

    /// Re-run a single schedule (lenient: divergence falls back to the
    /// first enabled candidate). Returns the failure if it reproduces.
    pub fn replay<F>(&self, schedule: &str, mut body: F) -> Option<Failure>
    where
        F: FnMut(),
    {
        let prefix = parse_schedule(schedule);
        let (decisions, trace, stop, fail_msg, _diverged) =
            self.run_once(&prefix, &[], true, &mut body);
        if stop == Some(StopKind::Fail) {
            Some(Failure {
                message: fail_msg.unwrap_or_else(|| "failure".into()),
                schedule: schedule_string(&decisions),
                steps: trace,
            })
        } else {
            None
        }
    }

    /// `run`, panicking with the printable failure if one is found.
    pub fn check<F>(&self, body: F)
    where
        F: FnMut(),
    {
        let report = self.run(body);
        if let Some(f) = report.failure {
            panic!(
                "schedule exploration failed after {} schedules:\n{f}",
                report.schedules
            );
        }
    }
}
