//! The one process interpreter.
//!
//! The paper's flow of control has one meaning on every executor:
//! sequence, selection (at most one guard commits; when none can, the
//! construct is a `skip`), repetition and replication, plus the control
//! effects of a committed transaction (`let`, `spawn`, `exit`, `abort`).
//! This module is that meaning, written once. The serial, rounds and
//! threaded executors each implement [`Executor`], whose
//! [`Executor::attempt`] evaluates, validates where it evaluated against
//! a snapshot, commits and wakes, and reports one [`Attempt`] outcome; the
//! interpreter branches on that outcome, never on who drives it. Parking
//! is the driver's: a turn that must wait returns [`Turn::Park`].
//!
//! The wake ledger is settled here too ([`settle_wake`]): each wake a
//! process receives ends as one `sdl_wakes_total` verdict, decided by
//! the turn it leads to. So is a park's record ([`Parked`]) and the
//! stall watchdog that reads it ([`StallWatch`]): every executor parks
//! in a [`crate::commit::WakeRouter`] and opens, flags and closes the
//! park through them.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use sdl_dataspace::WatchSet;
use sdl_lang::ast::TxnKind;
use sdl_metrics::{Counter, Gauge, Metrics};
use sdl_sync::Mutex;
use sdl_tuple::{ProcId, Value};

use crate::error::RuntimeError;
use crate::process::{Frame, ProcessInstance};
use crate::program::{CompiledBranch, CompiledStmt, CompiledTxn};
use crate::trace::{self, ParkOutcome, RecentCommits, TraceRecord, Tracer};
use crate::txn::Pending;

/// The construct a set of guards belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GuardMode {
    Select,
    Loop,
    Repl,
}

/// What one attempt of one transaction came to.
pub(crate) enum Attempt {
    /// Committed (and its waiters woken); the control effects are the
    /// interpreter's to apply.
    Committed(Pending),
    /// The query failed. Carries what a park would listen on (empty when
    /// the attempt was not asked to subscribe) and the commit epoch the
    /// evaluation read.
    Failed(WatchSet, u64),
    /// Enabled, but a sibling's commit invalidated the evaluation: retry
    /// on a later turn without advancing or parking.
    Lost,
    /// The attempt cap was hit: the verdict is unknown, so the process
    /// stays where it stands.
    Halted,
}

/// What one turn of a process did.
pub(crate) enum Turn {
    /// The process moved on, by a commit (`true`) or by control alone
    /// (a skip, a pop, its termination). It may have ended.
    Progressed(bool),
    /// Its construct must wait: park on `watch`; `epoch` is the earliest
    /// commit epoch its failed evaluations read.
    Park {
        watch: WatchSet,
        epoch: u64,
        consensus: bool,
    },
    /// A guard lost a validation conflict; try again next turn.
    Lost,
    /// The attempt cap was hit mid-turn.
    Halted,
}

/// Where a process stands: its next bare transaction, or the guards of
/// its current selection, repetition or replication.
pub(crate) enum Site {
    Txn(Arc<CompiledTxn>),
    Guards(Arc<[CompiledBranch]>, GuardMode),
}

/// What an executor supplies to the interpreter for the process it is
/// stepping.
pub(crate) trait Executor {
    /// The process being stepped (live until [`Self::terminate`]).
    fn proc(&mut self) -> &mut ProcessInstance;
    /// The scheduling randomness guards are shuffled with.
    fn rng(&mut self) -> &mut StdRng;
    /// The observation stream and the step number its lifecycle records
    /// carry.
    fn tracer(&self) -> (&Tracer, u64);
    /// Where wake verdicts are counted.
    fn metrics(&self) -> &Metrics;
    /// Evaluates `t` and, when its query holds, commits it. On failure
    /// the watch set is the subscription of the transactions in `park`:
    /// empty, or `t` first and then unevaluated consensus guards.
    fn attempt(&mut self, t: &CompiledTxn, park: &[&CompiledTxn]) -> Result<Attempt, RuntimeError>;
    /// The subscription of a consensus transaction, which parks without
    /// being evaluated.
    fn subscribe(&mut self, t: &CompiledTxn) -> WatchSet;
    /// Creates and starts process `name(args)`, spawned by this one.
    fn spawn(&mut self, name: &str, args: Vec<Value>) -> Result<(), RuntimeError>;
    /// Starts a replication body helper running `body` under `env`.
    fn fork_helper(&mut self, body: Arc<[CompiledStmt]>, env: HashMap<String, Value>);
    /// Terminates, transitively, this process's replication helpers.
    fn cancel_helpers(&mut self);
    /// Removes the process from the society.
    fn terminate(&mut self);
    /// The process's constants changed (a `let` committed).
    fn rebound(&mut self) {}
}

/// A parked process as the wake router holds it: `proc` is what a claim
/// hands back (`()` for the serial and rounds schedulers, whose society
/// keeps the process; the process itself for the threaded executor).
#[derive(Debug)]
pub(crate) struct Parked<P> {
    pub(crate) pid: ProcId,
    pub(crate) proc: P,
    pub(crate) watch: WatchSet,
    /// The park includes a consensus guard.
    pub(crate) consensus: bool,
    /// When it parked; `None` unless the stall watchdog is armed.
    since: Option<Instant>,
    /// Set once by [`StallWatch::check`], so each park is flagged once.
    stalled: bool,
}

impl<P> Parked<P> {
    /// Opens a park: its trace record (`step` as [`Executor::tracer`]
    /// gives it) and the depth gauge. Call it before the park is
    /// claimable, so its close comes after.
    pub(crate) fn new(
        (tracer, step): (&Tracer, u64),
        metrics: &Metrics,
        pid: ProcId,
        proc: P,
        watch: WatchSet,
        consensus: bool,
        armed: bool,
    ) -> Parked<P> {
        tracer.record(|t_us| TraceRecord::Park {
            step,
            pid,
            t_us,
            consensus,
            keys: trace::watch_labels(&watch),
        });
        metrics.add_gauge(Gauge::BlockedQueueDepth, 1);
        let since = armed.then(Instant::now);
        Parked {
            pid,
            proc,
            watch,
            consensus,
            since,
            stalled: false,
        }
    }

    /// Closes a claimed park: the depth and stall gauges come down and
    /// the park interval ends in the trace.
    pub(crate) fn settle(&self, tracer: &Tracer, metrics: &Metrics, outcome: ParkOutcome) {
        metrics.add_gauge(Gauge::BlockedQueueDepth, -1);
        if self.stalled {
            metrics.add_gauge(Gauge::StalledProcesses, -1);
        }
        tracer.record(|t_us| TraceRecord::Unpark {
            pid: self.pid,
            t_us,
            outcome,
        });
    }

    /// Closes a claimed park that `commit` woke by publishing `key` (or a
    /// synthetic cause): the wake is counted under `counter` and its
    /// causality edge recorded.
    pub(crate) fn woken(
        &self,
        tracer: &Tracer,
        metrics: &Metrics,
        counter: Counter,
        commit: u64,
        key: impl FnOnce() -> String,
    ) {
        self.settle(tracer, metrics, ParkOutcome::Woken);
        metrics.inc(counter);
        tracer.record(|t_us| TraceRecord::Wake {
            pid: self.pid,
            commit,
            key: key(),
            t_us,
        });
    }
}

/// The stall watchdog (`--stall-ms`): a park older than `threshold` is
/// flagged once, in the `sdl_stalled_processes` gauge and with a trace
/// annotation naming its watch keys and the nearest-miss commits.
#[derive(Debug)]
pub(crate) struct StallWatch {
    pub(crate) threshold: Duration,
    /// Recent commits, for nearest-miss reporting.
    pub(crate) recent: Mutex<RecentCommits>,
}

impl StallWatch {
    pub(crate) fn new(threshold: Duration) -> StallWatch {
        StallWatch {
            threshold,
            recent: Mutex::default(),
        }
    }

    /// Flags `e` if, at `now`, it has been parked for the threshold and
    /// is not flagged yet. Runs under the park's slot lock, so exactly
    /// one side settles the flag: flagged before a claim, the claimant
    /// brings the gauge down; claimed first, the park is never checked.
    pub(crate) fn check<P>(
        &self,
        e: &mut Parked<P>,
        now: Instant,
        tracer: &Tracer,
        metrics: &Metrics,
    ) {
        let Some(since) = e.since else { return };
        let waited = now.saturating_duration_since(since);
        if e.stalled || waited < self.threshold {
            return;
        }
        e.stalled = true;
        metrics.add_gauge(Gauge::StalledProcesses, 1);
        tracer.record(|t_us| TraceRecord::Stall {
            pid: e.pid,
            t_us,
            waited_us: waited.as_micros() as u64,
            keys: trace::watch_labels(&e.watch),
            near_misses: self.recent.lock().near_misses(&e.watch),
        });
    }
}

/// Records a process creation.
pub(crate) fn spawned(tracer: &Tracer, step: u64, proc: &ProcessInstance, by: ProcId) {
    tracer.record(|t_us| TraceRecord::Spawn {
        step,
        t_us,
        pid: proc.id,
        name: proc.def.name.clone(),
        args: proc
            .def
            .params
            .iter()
            .map(|p| proc.env[p].clone())
            .collect(),
        by,
    });
}

/// Records a process termination.
pub(crate) fn exited(tracer: &Tracer, step: u64, pid: ProcId, aborted: bool) {
    tracer.record(|t_us| TraceRecord::Exit {
        step,
        t_us,
        pid,
        aborted,
    });
}

/// The construct at the top of `proc`'s frames, without moving it.
pub(crate) fn site(proc: &ProcessInstance) -> Option<Site> {
    match proc.frames.last()? {
        Frame::Seq { stmts, idx } => match stmts.get(*idx)? {
            CompiledStmt::Txn(t) => Some(Site::Txn(t.clone())),
            CompiledStmt::Select(b) => Some(Site::Guards(b.clone(), GuardMode::Select)),
            CompiledStmt::Repeat(_) | CompiledStmt::Replicate(_) => None,
        },
        Frame::Loop { branches } => Some(Site::Guards(branches.clone(), GuardMode::Loop)),
        Frame::Repl { branches, .. } => Some(Site::Guards(branches.clone(), GuardMode::Repl)),
    }
}

/// Moves `proc` through control-only frame changes (finished sequences
/// pop, repetitions and replications open their frames) to its next
/// site; `None` once its frames are exhausted.
pub(crate) fn walk(proc: &mut ProcessInstance) -> Option<Site> {
    loop {
        if let Some(site) = site(proc) {
            return Some(site);
        }
        let Frame::Seq { stmts, idx } = proc.frames.last()? else {
            unreachable!("only a sequence has no site")
        };
        let frame = match stmts.get(*idx).cloned() {
            None => {
                proc.frames.pop();
                continue;
            }
            Some(CompiledStmt::Repeat(branches)) => Frame::Loop { branches },
            Some(CompiledStmt::Replicate(branches)) => Frame::Repl {
                branches,
                active: 0,
            },
            Some(_) => unreachable!("a transaction or selection is a site"),
        };
        advance(proc);
        proc.frames.push(frame);
    }
}

/// One turn: walk to the next site and attempt it.
pub(crate) fn step<X: Executor>(x: &mut X) -> Result<Turn, RuntimeError> {
    let site = walk(x.proc());
    at(x, site)
}

/// Attempts `site` (what [`walk`] returned); `None` ends the process.
/// Settles the wake the process carried into the turn.
pub(crate) fn at<X: Executor>(x: &mut X, site: Option<Site>) -> Result<Turn, RuntimeError> {
    let mut woken = std::mem::take(&mut x.proc().woken);
    let turn = match site {
        None => {
            finish(x, false);
            Turn::Progressed(false)
        }
        Some(Site::Txn(t)) => txn(x, &t)?,
        Some(Site::Guards(branches, mode)) => guards(x, &branches, mode)?,
    };
    settle_wake(x.metrics(), &mut woken, Some(&turn));
    if woken {
        x.proc().woken = true;
    }
    Ok(turn)
}

/// The wake ledger's one rule: settles the wake a process carries
/// (`woken`, cleared here) by the turn it took next. A turn that moved
/// it on (a commit, a skip, a completed construct or its termination) is
/// progress; parking again, or the run or the process ending first
/// (`None`, or the attempt cap mid-turn), is spurious. A lost conflict
/// decides nothing: the wake stays pending until the retry.
pub(crate) fn settle_wake(metrics: &Metrics, woken: &mut bool, turn: Option<&Turn>) {
    if !std::mem::take(woken) {
        return;
    }
    match turn {
        Some(Turn::Lost) => *woken = true,
        Some(Turn::Progressed(_)) => metrics.inc(Counter::WakeProgress),
        Some(Turn::Park { .. } | Turn::Halted) | None => metrics.inc(Counter::WakeSpurious),
    }
}

/// A bare transaction statement.
fn txn<X: Executor>(x: &mut X, t: &CompiledTxn) -> Result<Turn, RuntimeError> {
    if t.kind == TxnKind::Consensus {
        // A bare consensus transaction waits until its community fires it.
        let watch = x.subscribe(t);
        return Ok(Turn::Park {
            watch,
            epoch: u64::MAX,
            consensus: true,
        });
    }
    let park: &[&CompiledTxn] = if t.kind == TxnKind::Delayed {
        &[t]
    } else {
        &[]
    };
    Ok(match x.attempt(t, park)? {
        Attempt::Committed(p) => {
            advance(x.proc());
            control(x, &p, true)?;
            Turn::Progressed(true)
        }
        Attempt::Failed(watch, epoch) if t.kind == TxnKind::Delayed => Turn::Park {
            watch,
            epoch,
            consensus: false,
        },
        Attempt::Failed(..) => {
            // A failed immediate transaction "has no effect on the
            // dataspace"; as a statement it acts as skip.
            let pid = x.proc().id;
            let (tracer, step) = x.tracer();
            tracer.record(|t_us| TraceRecord::Failed { step, t_us, pid });
            advance(x.proc());
            Turn::Progressed(false)
        }
        Attempt::Lost => Turn::Lost,
        Attempt::Halted => Turn::Halted,
    })
}

/// The guards of a selection, repetition or replication: tried in a
/// random order until one commits.
fn guards<X: Executor>(
    x: &mut X,
    branches: &Arc<[CompiledBranch]>,
    mode: GuardMode,
) -> Result<Turn, RuntimeError> {
    let mut order: Vec<usize> = (0..branches.len()).collect();
    order.shuffle(x.rng());
    let kind_present = |k| branches.iter().any(|b| b.guard.kind == k);
    let delayed = kind_present(TxnKind::Delayed);
    let consensus = kind_present(TxnKind::Consensus);
    // A parked construct retries every branch on wake, so it listens on
    // the union of the per-guard subscriptions, each taken through a
    // failed evaluation's window — the consensus guards', which are not
    // evaluated here, through the first one's.
    let may_park = mode == GuardMode::Repl || delayed || consensus;
    let mut unsubscribed: Vec<&CompiledTxn> = branches
        .iter()
        .filter(|b| may_park && b.guard.kind == TxnKind::Consensus)
        .map(|b| &*b.guard)
        .collect();
    let mut watch = WatchSet::new();
    let mut epoch = u64::MAX;
    let mut lost = false;
    for &i in &order {
        let guard = &branches[i].guard;
        if guard.kind == TxnKind::Consensus {
            continue;
        }
        // Empty unless the construct may park.
        let park: Vec<&CompiledTxn> = std::iter::once(&**guard)
            .filter(|_| may_park)
            .chain(unsubscribed.drain(..))
            .collect();
        match x.attempt(guard, &park)? {
            Attempt::Committed(p) => {
                enter_branch(x, &p, branches[i].rest.clone(), mode)?;
                return Ok(Turn::Progressed(true));
            }
            Attempt::Failed(w, e) => {
                watch.extend(&w);
                epoch = epoch.min(e);
            }
            Attempt::Lost => lost = true,
            Attempt::Halted => return Ok(Turn::Halted),
        }
    }
    // No guard committed.
    if lost {
        return Ok(Turn::Lost);
    }
    let helpers = match x.proc().frames.last() {
        Some(Frame::Repl { active, .. }) => *active,
        _ => 0,
    };
    if delayed || consensus || helpers > 0 {
        for t in unsubscribed {
            watch.extend(&x.subscribe(t));
        }
        return Ok(Turn::Park {
            watch,
            epoch,
            consensus,
        });
    }
    match mode {
        // "The selection is modeled as a 'skip' statement."
        GuardMode::Select => advance(x.proc()),
        GuardMode::Loop | GuardMode::Repl => {
            x.proc().frames.pop();
        }
    }
    Ok(Turn::Progressed(false))
}

/// Applies a committed guard's control effects and enters its branch
/// body according to the construct.
pub(crate) fn enter_branch<X: Executor>(
    x: &mut X,
    p: &Pending,
    rest: Arc<[CompiledStmt]>,
    mode: GuardMode,
) -> Result<(), RuntimeError> {
    if mode == GuardMode::Select {
        advance(x.proc());
    }
    // A replication guard's `let`s address the copy, not the parent.
    let copy = mode == GuardMode::Repl;
    if control(x, p, !copy)? || p.exit || rest.is_empty() {
        return Ok(());
    }
    let proc = x.proc();
    if copy {
        let mut env = proc.env.clone();
        env.extend(p.lets.iter().cloned());
        if let Some(Frame::Repl { active, .. }) = proc.frames.last_mut() {
            *active += 1;
        }
        x.fork_helper(rest, env);
    } else {
        proc.frames.push(Frame::Seq {
            stmts: rest,
            idx: 0,
        });
    }
    Ok(())
}

/// Applies `let`s (when `bind`), `spawn`s, `abort` and `exit`. True if
/// the process terminated.
fn control<X: Executor>(x: &mut X, p: &Pending, bind: bool) -> Result<bool, RuntimeError> {
    if bind && !p.lets.is_empty() {
        x.proc().env.extend(p.lets.iter().cloned());
        x.rebound();
    }
    for (name, args) in &p.spawns {
        x.spawn(name, args.clone())?;
    }
    if p.abort {
        x.cancel_helpers();
        finish(x, true);
        return Ok(true);
    }
    Ok(p.exit && exit(x))
}

/// Applies `exit`: unwind to the nearest loop or replication, cancelling
/// its outstanding helpers; terminate if there is none. True if
/// terminated.
fn exit<X: Executor>(x: &mut X) -> bool {
    let Some(helpers) = x.proc().unwind_exit() else {
        finish(x, false);
        return true;
    };
    if helpers > 0 {
        x.cancel_helpers();
    }
    false
}

/// Ends the process.
fn finish<X: Executor>(x: &mut X, aborted: bool) {
    let pid = x.proc().id;
    let (tracer, step) = x.tracer();
    exited(tracer, step, pid, aborted);
    x.terminate();
}

fn advance(proc: &mut ProcessInstance) {
    if let Some(Frame::Seq { idx, .. }) = proc.frames.last_mut() {
        *idx += 1;
    }
}
