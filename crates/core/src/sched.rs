//! The serial reference scheduler.
//!
//! Transactions execute one at a time, so every history is trivially
//! serialisable — this scheduler is the semantic reference against which
//! the parallel-rounds scheduler and the threaded executor are checked.
//! Scheduling is seeded-deterministic: the same program and seed produce
//! the same trace.
//!
//! Blocked delayed/consensus transactions are re-examined only when a
//! commit touches a watch key they subscribe to (conservative wake-up),
//! and the ready queue is FIFO, which together give the paper's weak
//! fairness: an indefinitely-enabled delayed transaction is eventually
//! executed.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sdl_dataspace::{Action, Dataspace, SolveLimits, WatchKey, WatchSet};
use sdl_durability::Wal;
use sdl_lang::ast::TxnKind;
use sdl_metrics::{Counter, Gauge, Hist, Metrics};
use sdl_tuple::{ProcId, Tuple, TupleId, Value};

use crate::builder::{Config, RuntimeBuilder, RuntimeStore};
use crate::builtins::Builtins;
use crate::consensus::CommunityIndex;
use crate::error::RuntimeError;
use crate::outcome::{Outcome, RunLimits, RunReport};
use crate::process::{Frame, ProcessInstance};
use crate::program::{CompiledBranch, CompiledProgram, CompiledStmt, CompiledTxn};
use crate::trace::{self, ParkOutcome, RecentCommits, TraceRecord, Tracer, Track};
use crate::txn::{self, EvalProbe, Pending};

/// What a single step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StepResult {
    /// Committed, failed-and-skipped, or made control progress; the
    /// process remains runnable (if still alive).
    Progressed,
    /// Blocked on a delayed or consensus transaction.
    Blocked {
        /// The block includes a consensus guard.
        has_consensus: bool,
    },
    /// The process terminated.
    Terminated,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GuardMode {
    Select,
    Loop,
    Repl,
}

#[derive(Clone, Debug)]
pub(crate) struct BlockInfo {
    pub(crate) watch: WatchSet,
    pub(crate) has_consensus: bool,
    /// When the process blocked; populated when metrics or the stall
    /// watchdog are enabled.
    pub(crate) since: Option<Instant>,
}

/// Serial-scheduler state of the stall watchdog (`--stall-ms`).
#[derive(Debug)]
pub(crate) struct StallState {
    /// Parked-beyond-this flags a process as stalled.
    pub(crate) threshold: Duration,
    /// Last blocked-set scan, to keep the watchdog off the hot path.
    pub(crate) last_scan: Instant,
    /// Processes already flagged (and counted in the gauge).
    pub(crate) flagged: HashSet<ProcId>,
    /// Recent commits, for nearest-miss reporting.
    pub(crate) recent: RecentCommits,
}

impl StallState {
    pub(crate) fn new(threshold: Duration) -> StallState {
        StallState {
            threshold,
            last_scan: Instant::now(),
            flagged: HashSet::new(),
            recent: RecentCommits::default(),
        }
    }
}

/// A one-line description of a committed batch for nearest-miss output:
/// its first asserted tuple plus a remainder count.
pub(crate) fn batch_desc(p: &Pending) -> String {
    match p.asserts.first() {
        Some(t) => {
            let extra = p.asserts.len() - 1 + p.retracts.len();
            if extra > 0 {
                format!("{t} (+{extra} more actions)")
            } else {
                format!("{t}")
            }
        }
        None => format!("{} retracts", p.retracts.len()),
    }
}

/// The `sdl_txn_attempts_total` series for a transaction mode.
pub(crate) fn attempts_counter(kind: TxnKind) -> Counter {
    match kind {
        TxnKind::Immediate => Counter::TxnAttemptsImmediate,
        TxnKind::Delayed => Counter::TxnAttemptsDelayed,
        TxnKind::Consensus => Counter::TxnAttemptsConsensus,
    }
}

/// The `sdl_txn_committed_total` series for a transaction mode.
pub(crate) fn committed_counter(kind: TxnKind) -> Counter {
    match kind {
        TxnKind::Immediate => Counter::TxnCommittedImmediate,
        TxnKind::Delayed => Counter::TxnCommittedDelayed,
        TxnKind::Consensus => Counter::TxnCommittedConsensus,
    }
}

/// The `sdl_txn_failed_total` series for a transaction mode.
pub(crate) fn failed_counter(kind: TxnKind) -> Counter {
    match kind {
        TxnKind::Immediate => Counter::TxnFailedImmediate,
        TxnKind::Delayed => Counter::TxnFailedDelayed,
        TxnKind::Consensus => Counter::TxnFailedConsensus,
    }
}

/// Where a blocked process will contribute its consensus transaction.
#[derive(Clone, Debug)]
pub(crate) enum ConsensusSite {
    /// A bare consensus transaction statement.
    PlainTxn,
    /// A consensus guard of a selection/repetition/replication.
    Guard {
        mode: GuardMode,
        rest: Arc<[CompiledStmt]>,
    },
}

impl RuntimeBuilder {
    /// Builds the runtime: fills the store and spawns the initial
    /// society (see [`RuntimeBuilder::recover_from`] for a recovered
    /// store).
    ///
    /// # Errors
    ///
    /// Fails if an init tuple expression cannot evaluate, an initial
    /// spawn names an unknown process, or the write-ahead log rejects
    /// the recovered state or genesis snapshot.
    pub fn build(mut self) -> Result<Runtime, RuntimeError> {
        let mut ds = Dataspace::new();
        ds.set_metrics(self.config.metrics.clone());
        let spawns = self.seed_store(&mut ds)?;
        let Config {
            program,
            seed,
            builtins,
            metrics,
            tracer,
            stall_threshold,
            limits,
            wal,
            ..
        } = self.config;
        let mut rt = Runtime {
            program,
            ds,
            procs: HashMap::new(),
            ready: VecDeque::new(),
            blocked: BTreeMap::new(),
            wake_index: HashMap::new(),
            next_pid: 1,
            rng: StdRng::seed_from_u64(seed),
            builtins,
            tracer,
            cur_trace: 0,
            last_commit_id: 0,
            stall: stall_threshold.map(StallState::new),
            metrics,
            report: RunReport::new(),
            limits,
            wal,
            communities: CommunityIndex::default(),
        };
        for (name, args) in spawns {
            rt.spawn_process(&name, args, ProcId::ENV)?;
        }
        Ok(rt)
    }
}

/// The SDL runtime: dataspace + process society + scheduler.
///
/// # Examples
///
/// ```
/// use sdl_core::{CompiledProgram, Runtime};
///
/// let program = CompiledProgram::from_source(r#"
///     process Greeter() {
///         exists w : <hello, w>! -> <greeting, w>;
///     }
///     init { <hello, world>; spawn Greeter(); }
/// "#).unwrap();
/// let mut rt = Runtime::builder(program).build().unwrap();
/// let report = rt.run().unwrap();
/// assert!(report.outcome.is_completed());
/// assert_eq!(rt.dataspace().len(), 1);
/// ```
#[derive(Debug)]
pub struct Runtime {
    program: Arc<CompiledProgram>,
    pub(crate) ds: Dataspace,
    pub(crate) procs: HashMap<ProcId, ProcessInstance>,
    pub(crate) ready: VecDeque<ProcId>,
    pub(crate) blocked: BTreeMap<ProcId, BlockInfo>,
    /// Reverse subscription index: watch key → blocked processes
    /// subscribed to it. Lets a commit wake only the subscribers of the
    /// keys it published instead of scanning the whole blocked set —
    /// with value-level keys that is O(1) per commit on keyed-park
    /// workloads. Maintained by `block`/`unblock`; `BTreeSet` keeps
    /// wake order (ascending pid) identical to a blocked-set scan.
    wake_index: HashMap<WatchKey, BTreeSet<ProcId>>,
    next_pid: u64,
    pub(crate) rng: StdRng,
    builtins: Builtins,
    /// The observation stream (disabled by default).
    pub(crate) tracer: Tracer,
    /// Trace id of the attempt currently being evaluated/committed.
    pub(crate) cur_trace: u64,
    /// Commit id of the most recent committed batch (0 = none yet) —
    /// the attribution target for wake edges and rounds conflicts.
    pub(crate) last_commit_id: u64,
    /// Stall watchdog, when armed.
    pub(crate) stall: Option<StallState>,
    pub(crate) metrics: Metrics,
    pub(crate) report: RunReport,
    limits: RunLimits,
    /// Write-ahead log; when present, every commit appends one record
    /// before the transaction is acknowledged.
    wal: Option<Arc<Wal>>,
    /// Every process's import set, kept current by [`Runtime::adopt`],
    /// [`Runtime::bury`], `let` and the one serial commit — what
    /// consensus detection reads instead of re-deriving the partition.
    pub(crate) communities: CommunityIndex,
}

/// Stringifies a durability error into the runtime's error type.
pub(crate) fn wal_err(e: sdl_durability::WalError) -> RuntimeError {
    RuntimeError::Wal(e.to_string())
}

impl Runtime {
    /// Starts configuring a runtime for `program`.
    pub fn builder(program: CompiledProgram) -> RuntimeBuilder {
        RuntimeBuilder::new(program)
    }

    /// The current dataspace.
    pub fn dataspace(&self) -> &Dataspace {
        &self.ds
    }

    /// The built-in registry.
    pub fn builtins(&self) -> &Builtins {
        &self.builtins
    }

    /// Explains a quiescent outcome: one line per blocked process with
    /// its definition name and what it waits on — a delayed transaction,
    /// or a consensus, in which case the line names the process's
    /// community and the members that are not at a consensus guard (none
    /// means every member arrived and some member's query fails). The
    /// first thing to read when a society deadlocks.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdl_core::{CompiledProgram, Runtime};
    ///
    /// let program = CompiledProgram::from_source(
    ///     "process W() { <never> => skip; } init { spawn W(); }",
    /// ).unwrap();
    /// let mut rt = Runtime::builder(program).build().unwrap();
    /// rt.run().unwrap();
    /// let report = rt.blocked_report();
    /// assert!(report.contains("W"));
    /// assert!(report.contains("delayed"));
    /// ```
    pub fn blocked_report(&self) -> String {
        use std::fmt::Write as _;
        let list = |pids: &[ProcId]| {
            let names: Vec<String> = pids.iter().map(ProcId::to_string).collect();
            names.join(", ")
        };
        // A report may not disturb the run: partition a copy.
        let communities = if self.blocked.values().any(|info| info.has_consensus) {
            self.communities.clone().partition(&self.ds, &self.builtins)
        } else {
            Vec::new()
        };
        let mut out = String::new();
        for (pid, info) in &self.blocked {
            let name = self
                .procs
                .get(pid)
                .map(|p| p.def.name.as_str())
                .unwrap_or("?");
            let kind = if info.has_consensus {
                let set = communities
                    .iter()
                    .find(|set| set.contains(pid))
                    .expect("every process is in one community");
                let absent: Vec<ProcId> = set
                    .iter()
                    .copied()
                    .filter(|m| !self.blocked.get(m).is_some_and(|b| b.has_consensus))
                    .collect();
                if absent.is_empty() {
                    format!(
                        "consensus (community {{{}}} is all at a consensus guard: a member's query is failing)",
                        list(set)
                    )
                } else {
                    format!(
                        "consensus (community {{{}}} incomplete: {{{}}} not at a consensus guard)",
                        list(set),
                        list(&absent)
                    )
                }
            } else {
                "delayed transaction (query never enabled)".to_owned()
            };
            let keys = info.watch.iter().count();
            let _ = writeln!(
                out,
                "{pid} {name}: blocked on {kind}; watching {keys} key(s)"
            );
        }
        if out.is_empty() {
            out.push_str(
                "no blocked processes
",
            );
        }
        out
    }

    /// Live processes, in id order.
    pub fn processes(&self) -> Vec<&ProcessInstance> {
        let mut v: Vec<&ProcessInstance> = self.procs.values().collect();
        v.sort_by_key(|p| p.id);
        v
    }

    /// Runs to completion, quiescence, or the step limit, executing
    /// transactions strictly serially.
    ///
    /// # Errors
    ///
    /// Propagates `RuntimeError`s from expression evaluation outside
    /// test positions and from runtime `spawn`s.
    pub fn run(&mut self) -> Result<RunReport, RuntimeError> {
        loop {
            if self.report.attempts >= self.limits.max_attempts {
                self.report.outcome = Outcome::StepLimit;
                break;
            }
            self.stall_scan();
            let Some(pid) = self.ready.pop_front() else {
                if self.try_consensus_any()? {
                    continue;
                }
                self.report.outcome = if self.procs.is_empty() {
                    Outcome::Completed
                } else {
                    Outcome::Quiescent {
                        blocked: {
                            let mut b: Vec<ProcId> = self.procs.keys().copied().collect();
                            b.sort_unstable();
                            b
                        },
                    }
                };
                break;
            };
            if !self.procs.contains_key(&pid) {
                continue; // cancelled while queued
            }
            match self.step(pid)? {
                StepResult::Progressed => {
                    if self.procs.contains_key(&pid) && !self.blocked.contains_key(&pid) {
                        self.ready.push_back(pid);
                    }
                }
                StepResult::Blocked { has_consensus } => {
                    // Fire as soon as a community is complete, even while
                    // unrelated processes are still running. Computing
                    // communities is the expensive part, so pre-filter:
                    // only bother when this process's own consensus query
                    // currently succeeds.
                    if has_consensus && {
                        self.cur_trace = self.tracer.new_trace();
                        self.probe_consensus(pid)?.is_some()
                    } {
                        self.try_consensus_any()?;
                    }
                }
                StepResult::Terminated => {}
            }
        }
        self.report.final_tuples = self.ds.len();
        self.drain_parks();
        // Whatever the fsync policy deferred becomes durable before the
        // run is reported back.
        if let Some(wal) = &self.wal {
            wal.sync().map_err(wal_err)?;
        }
        Ok(self.report.clone())
    }

    /// Closes the park interval of every still-blocked process, so a
    /// finished run leaves no open park in the stream.
    pub(crate) fn drain_parks(&self) {
        for &pid in self.blocked.keys() {
            self.tracer.record(|t_us| TraceRecord::Unpark {
                pid,
                t_us,
                outcome: ParkOutcome::Drained,
            });
        }
    }

    /// Periodic stall-watchdog pass over the blocked set: flags (once)
    /// every process parked beyond the threshold, moving the
    /// `sdl_stalled_processes` gauge and annotating the trace with the
    /// watch keys waited on and the nearest-miss commits.
    fn stall_scan(&mut self) {
        let Some(stall) = &mut self.stall else {
            return;
        };
        // Scan at half-threshold granularity, not every iteration.
        if stall.last_scan.elapsed() < stall.threshold / 2 {
            return;
        }
        stall.last_scan = Instant::now();
        for (pid, info) in &self.blocked {
            let Some(since) = info.since else { continue };
            let waited = since.elapsed();
            if waited < stall.threshold || !stall.flagged.insert(*pid) {
                continue;
            }
            self.metrics.add_gauge(Gauge::StalledProcesses, 1);
            self.tracer.record(|t_us| TraceRecord::Stall {
                pid: *pid,
                t_us,
                waited_us: waited.as_micros() as u64,
                keys: trace::watch_labels(&info.watch),
                near_misses: stall.recent.near_misses(&info.watch),
            });
        }
    }

    // ---------------- stepping ----------------

    pub(crate) fn step(&mut self, pid: ProcId) -> Result<StepResult, RuntimeError> {
        loop {
            let Some(proc) = self.procs.get(&pid) else {
                return Ok(StepResult::Terminated);
            };
            let top = proc.frames.last().cloned();
            match top {
                None => {
                    self.terminate(pid, false);
                    return Ok(StepResult::Terminated);
                }
                Some(Frame::Seq { stmts, idx }) => {
                    if idx >= stmts.len() {
                        self.procs
                            .get_mut(&pid)
                            .expect("checked above")
                            .frames
                            .pop();
                        continue;
                    }
                    match stmts[idx].clone() {
                        CompiledStmt::Txn(t) => return self.step_txn(pid, &t),
                        CompiledStmt::Select(branches) => {
                            return self.attempt_guards(pid, &branches, GuardMode::Select)
                        }
                        CompiledStmt::Repeat(branches) => {
                            self.advance_seq(pid);
                            self.procs
                                .get_mut(&pid)
                                .expect("checked above")
                                .frames
                                .push(Frame::Loop { branches });
                            continue;
                        }
                        CompiledStmt::Replicate(branches) => {
                            self.advance_seq(pid);
                            self.procs
                                .get_mut(&pid)
                                .expect("checked above")
                                .frames
                                .push(Frame::Repl {
                                    branches,
                                    active: 0,
                                });
                            continue;
                        }
                    }
                }
                Some(Frame::Loop { branches }) => {
                    return self.attempt_guards(pid, &branches, GuardMode::Loop)
                }
                Some(Frame::Repl { branches, .. }) => {
                    return self.attempt_guards(pid, &branches, GuardMode::Repl)
                }
            }
        }
    }

    fn step_txn(&mut self, pid: ProcId, t: &Arc<CompiledTxn>) -> Result<StepResult, RuntimeError> {
        if t.kind == TxnKind::Consensus {
            // A bare consensus transaction blocks until its community
            // fires it.
            let watch = self.txn_watch(pid, t);
            return Ok(self.block(pid, watch, true));
        }
        self.report.attempts += 1;
        self.metrics.inc(attempts_counter(t.kind));
        self.cur_trace = self.tracer.new_trace();
        let park: &[&CompiledTxn] = if t.kind == TxnKind::Delayed {
            &[t]
        } else {
            &[]
        };
        match self.evaluate_for(pid, t, None, park)? {
            Ok(p) => {
                self.advance_seq(pid);
                let changed = self.commit_single(pid, &p, t.kind)?;
                self.wake(&changed);
                self.apply_control(pid, &p)?;
                Ok(StepResult::Progressed)
            }
            Err(watch) => {
                self.metrics.inc(failed_counter(t.kind));
                match t.kind {
                    TxnKind::Immediate => {
                        // A failed immediate transaction "has no effect on
                        // the dataspace"; as a statement it acts as skip.
                        self.trace_failed(pid);
                        self.advance_seq(pid);
                        Ok(StepResult::Progressed)
                    }
                    TxnKind::Delayed => Ok(self.block(pid, watch, false)),
                    TxnKind::Consensus => unreachable!("handled above"),
                }
            }
        }
    }

    pub(crate) fn attempt_guards(
        &mut self,
        pid: ProcId,
        branches: &Arc<[CompiledBranch]>,
        mode: GuardMode,
    ) -> Result<StepResult, RuntimeError> {
        let mut order: Vec<usize> = (0..branches.len()).collect();
        order.shuffle(&mut self.rng);
        let kind_present = |k| branches.iter().any(|b| b.guard.kind == k);
        let delayed_present = kind_present(TxnKind::Delayed);
        let consensus_present = kind_present(TxnKind::Consensus);
        // A parked construct retries every branch on wake, so it listens
        // on the union of the per-guard subscriptions, each taken through
        // a failed evaluation's window — the consensus guards', which are
        // not evaluated here, through the first one's.
        let may_park = mode == GuardMode::Repl || delayed_present || consensus_present;
        let mut unsubscribed: Vec<&CompiledTxn> = branches
            .iter()
            .filter(|b| may_park && b.guard.kind == TxnKind::Consensus)
            .map(|b| &*b.guard)
            .collect();
        let mut watch = WatchSet::new();

        for &i in &order {
            let guard = &branches[i].guard;
            if guard.kind == TxnKind::Consensus {
                continue;
            }
            self.report.attempts += 1;
            self.metrics.inc(attempts_counter(guard.kind));
            self.cur_trace = self.tracer.new_trace();
            let park: Vec<&CompiledTxn> = if may_park {
                std::iter::once(&**guard)
                    .chain(unsubscribed.drain(..))
                    .collect()
            } else {
                Vec::new()
            };
            match self.evaluate_for(pid, guard, None, &park)? {
                Ok(p) => {
                    if mode == GuardMode::Select {
                        self.advance_seq(pid);
                    }
                    let changed = self.commit_single(pid, &p, guard.kind)?;
                    self.wake(&changed);
                    self.enter_branch(pid, &p, branches[i].rest.clone(), mode)?;
                    return Ok(StepResult::Progressed);
                }
                Err(w) => watch.extend(&w),
            }
            self.metrics.inc(failed_counter(guard.kind));
        }

        // No guard committed.
        let repl_active = {
            let proc = &self.procs[&pid];
            match proc.frames.last() {
                Some(Frame::Repl { active, .. }) => *active,
                _ => 0,
            }
        };
        let must_wait =
            delayed_present || consensus_present || (mode == GuardMode::Repl && repl_active > 0);
        if must_wait {
            for t in unsubscribed {
                watch.extend(&self.txn_watch(pid, t));
            }
            return Ok(self.block(pid, watch, consensus_present));
        }
        match mode {
            GuardMode::Select => {
                // "The selection is modeled as a 'skip' statement."
                self.advance_seq(pid);
            }
            GuardMode::Loop | GuardMode::Repl => {
                self.procs
                    .get_mut(&pid)
                    .expect("process is live")
                    .frames
                    .pop();
            }
        }
        Ok(StepResult::Progressed)
    }

    /// Applies a committed guard's control effects and enters the branch
    /// body according to the construct.
    pub(crate) fn enter_branch(
        &mut self,
        pid: ProcId,
        p: &Pending,
        rest: Arc<[CompiledStmt]>,
        mode: GuardMode,
    ) -> Result<(), RuntimeError> {
        if mode == GuardMode::Repl {
            // `let`s address the copy, not the parent.
            for (name, args) in &p.spawns {
                self.spawn_process(name, args.clone(), pid)?;
            }
            if p.abort {
                self.cancel_helpers(pid);
                self.terminate(pid, true);
                return Ok(());
            }
            if p.exit {
                self.exit_process(pid);
                return Ok(());
            }
            if !rest.is_empty() {
                let helper_id = self.alloc_pid();
                let parent = self.procs.get(&pid).expect("process is live");
                let mut env = parent.env.clone();
                for (name, v) in &p.lets {
                    env.insert(name.clone(), v.clone());
                }
                let helper = ProcessInstance::body_helper(helper_id, parent, rest, env);
                if let Some(Frame::Repl { active, .. }) = self
                    .procs
                    .get_mut(&pid)
                    .expect("process is live")
                    .frames
                    .last_mut()
                {
                    *active += 1;
                }
                self.adopt(helper);
            }
            return Ok(());
        }
        let terminated = self.apply_control(pid, p)?;
        if !terminated && !p.exit && !rest.is_empty() {
            self.procs
                .get_mut(&pid)
                .expect("process is live")
                .frames
                .push(Frame::Seq {
                    stmts: rest,
                    idx: 0,
                });
        }
        Ok(())
    }

    // ---------------- evaluation & commit ----------------

    /// Evaluates `t` for `pid`, building the process window over
    /// `source_ds` (defaults to the live dataspace — the rounds scheduler
    /// passes the round snapshot). `Ok(Err(watch))` is a failed query;
    /// `watch` is what a park after it listens on: the subscriptions of
    /// the transactions in `park` (`t` itself, and the unevaluated guards
    /// of its construct, or none), taken through the window the
    /// evaluation failed against.
    pub(crate) fn evaluate_for(
        &self,
        pid: ProcId,
        t: &CompiledTxn,
        source_ds: Option<&Dataspace>,
        park: &[&CompiledTxn],
    ) -> Result<Result<Pending, WatchSet>, RuntimeError> {
        let proc = &self.procs[&pid];
        let ds = source_ds.unwrap_or(&self.ds);
        let timer = self.metrics.start_timer();
        let span = self.tracer.begin();
        let mut probe = span.map(|_| EvalProbe::new());
        let source = proc.def.view.window(ds, &proc.env, &self.builtins);
        let atoms = txn::resolve_atoms(t, &proc.env, &self.builtins);
        let result = txn::evaluate_resolved(
            t,
            &atoms,
            &source,
            &proc.env,
            &self.builtins,
            SolveLimits::default(),
            probe.as_mut(),
        )
        .and_then(|query| match query {
            Some(query) => txn::build_effects(t, &query, &proc.env, &self.builtins).map(Ok),
            None => {
                let mut watch = WatchSet::new();
                for p in park {
                    let atoms = txn::resolve_atoms(p, &proc.env, &self.builtins);
                    watch.extend(&txn::watch_set_resolved(p, &atoms, &source));
                }
                Ok(Err(watch))
            }
        });
        self.metrics.observe_timer(Hist::QueryEvalSeconds, timer);
        self.tracer
            .eval_span(span, probe.as_ref(), self.cur_trace, pid);
        result
    }

    /// The watch subscription for a transaction about to park that was
    /// not just evaluated (a consensus transaction waits without one; the
    /// rounds scheduler evaluated against the round snapshot), through
    /// the process window over the live store.
    ///
    /// [`txn::watch_set_resolved`] may narrow the subscription to a
    /// single provably-empty atom. Sound here because the serial and
    /// rounds schedulers run park and probe on one thread against the
    /// same store (no commit can interleave) and the subscription is
    /// recomputed on every re-park.
    pub(crate) fn txn_watch(&self, pid: ProcId, t: &CompiledTxn) -> WatchSet {
        let proc = &self.procs[&pid];
        let source = proc.def.view.window(&self.ds, &proc.env, &self.builtins);
        let atoms = txn::resolve_atoms(t, &proc.env, &self.builtins);
        txn::watch_set_resolved(t, &atoms, &source)
    }

    /// Applies one process's pending commit: the one-contribution case
    /// of [`Runtime::commit_composite`]. Returns the changed watch keys.
    pub(crate) fn commit_single(
        &mut self,
        pid: ProcId,
        p: &Pending,
        kind: TxnKind,
    ) -> Result<WatchSet, RuntimeError> {
        let (changed, _) = self.commit_composite(&[(pid, p)], kind, || batch_desc(p))?;
        if let Some(proc) = self.procs.get_mut(&pid) {
            if proc.woken {
                proc.woken = false;
                self.metrics.inc(Counter::WakeProgress);
            }
        }
        Ok(changed)
    }

    /// Commits the contributions of one or more processes as one atomic
    /// transaction: export sets evaluated against the pre-commit
    /// configuration, then all retractions (set-union), then all
    /// assertions, one WAL record (recovery replays the whole composite
    /// or none of it) and one commit record. Returns the changed watch
    /// keys and the commit id.
    ///
    /// The whole commit goes through [`Dataspace::apply_batch`], so index
    /// maintenance is grouped per index entry and the store version bumps
    /// once — a high-fanout `forall` commit touches each `(functor,
    /// arity)` bucket a single time instead of once per tuple.
    fn commit_composite(
        &mut self,
        parts: &[(ProcId, &Pending)],
        kind: TxnKind,
        desc: impl FnOnce() -> String,
    ) -> Result<(WatchSet, u64), RuntimeError> {
        let allowed: Vec<Vec<bool>> = parts
            .iter()
            .map(|(pid, p)| {
                let proc = &self.procs[pid];
                p.asserts
                    .iter()
                    .map(|t| {
                        proc.def
                            .view
                            .exports(t, &self.ds, &proc.env, &self.builtins)
                    })
                    .collect()
            })
            .collect();
        let mut retract_by = HashMap::new();
        let mut actions: Vec<Action> = Vec::new();
        for (pid, p) in parts {
            for id in &p.retracts {
                if let std::collections::hash_map::Entry::Vacant(e) = retract_by.entry(*id) {
                    e.insert(*pid);
                    actions.push(Action::Retract(*id));
                }
            }
        }
        for ((pid, p), allow) in parts.iter().zip(&allowed) {
            actions.extend(
                p.asserts
                    .iter()
                    .zip(allow)
                    .filter(|(_, ok)| **ok)
                    .map(|(t, _)| Action::Assert(*pid, t.clone())),
            );
        }
        let apply_timer = self.metrics.start_timer();
        let commit_span = self.tracer.begin();
        let mut changed = WatchSet::new();
        let out = self.ds.apply_batch(&actions, &mut changed);
        self.communities
            .commit(&out.retracted, &out.asserted, &self.ds, &self.builtins);
        // Every assert in `parts` order with its fresh id, or `None` when
        // the issuer's export set dropped it.
        let asserted = || {
            parts
                .iter()
                .zip(&allowed)
                .flat_map(|((pid, p), allow)| {
                    p.asserts
                        .iter()
                        .zip(allow)
                        .map(move |(t, ok)| (*pid, *ok, t))
                })
                .scan(out.asserted.iter(), |ids, (pid, ok, t)| {
                    let id = ok.then(|| *ids.next().expect("one id per applied assert"));
                    Some((pid, id, t))
                })
        };
        let drops = allowed.iter().flatten().filter(|ok| !**ok).count();
        self.metrics.add(Counter::ExportDropped, drops as u64);
        self.report.commits += parts.len() as u64;
        self.metrics
            .add(committed_counter(kind), parts.len() as u64);
        if self.wal.is_some() {
            let retracts: Vec<TupleId> = out.retracted.iter().map(|(id, _)| *id).collect();
            let asserts: Vec<(TupleId, Tuple)> = asserted()
                .filter_map(|(_, id, t)| Some((id?, t.clone())))
                .collect();
            self.wal_append(&retracts, &asserts)?;
        }
        self.metrics
            .observe_timer(Hist::CommitApplySeconds, apply_timer);
        let commit_id = self.tracer.new_commit();
        if commit_id != 0 {
            self.last_commit_id = commit_id;
            self.tracer.record(|now| {
                let t0 = commit_span.unwrap_or(now);
                TraceRecord::Commit {
                    step: self.report.attempts,
                    trace: self.cur_trace,
                    parts: parts.iter().map(|(pid, _)| (*pid, kind)).collect(),
                    track: Track::current(),
                    commit: commit_id,
                    t_us: t0,
                    dur_us: now.saturating_sub(t0),
                    keys: trace::watch_labels(&changed),
                    shards: Vec::new(),
                    retracted: out
                        .retracted
                        .iter()
                        .map(|(id, t)| (retract_by[id], *id, t.clone()))
                        .collect(),
                    asserted: asserted()
                        .map(|(pid, id, t)| (pid, id, t.clone()))
                        .collect(),
                }
            });
            if let Some(stall) = &mut self.stall {
                stall.recent.push(commit_id, changed.clone(), desc());
            }
        }
        Ok((changed, commit_id))
    }

    /// Appends one committed batch to the write-ahead log (if any),
    /// makes it durable per the fsync policy, and writes a snapshot
    /// when one is due. Serially, the store after this commit *is* the
    /// state the snapshot must capture, so this is the one safe place.
    fn wal_append(
        &mut self,
        retracts: &[TupleId],
        asserts: &[(TupleId, Tuple)],
    ) -> Result<(), RuntimeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let commit = wal.append(retracts, asserts).map_err(wal_err)?;
        wal.ensure_durable(commit).map_err(wal_err)?;
        if wal.snapshot_due() {
            let (cursors, tuples) = self.ds.snapshot();
            wal.write_snapshot(&cursors, &tuples).map_err(wal_err)?;
        }
        Ok(())
    }

    /// Applies `let`s, `spawn`s, `exit`, `abort`. Returns true if the
    /// process terminated.
    pub(crate) fn apply_control(&mut self, pid: ProcId, p: &Pending) -> Result<bool, RuntimeError> {
        if let Some(proc) = self.procs.get_mut(&pid) {
            for (name, v) in &p.lets {
                proc.env.insert(name.clone(), v.clone());
            }
            if !p.lets.is_empty() {
                // The view's rules read the process constants.
                self.communities.insert(proc, &self.builtins);
            }
        }
        for (name, args) in &p.spawns {
            self.spawn_process(name, args.clone(), pid)?;
        }
        if p.abort {
            self.cancel_helpers(pid);
            self.terminate(pid, true);
            return Ok(true);
        }
        if p.exit {
            return Ok(self.exit_process(pid));
        }
        Ok(false)
    }

    /// Applies `exit`: unwind to the nearest loop/replication; terminate
    /// the process if there is none. Returns true if terminated.
    fn exit_process(&mut self, pid: ProcId) -> bool {
        let unwound = self
            .procs
            .get_mut(&pid)
            .expect("process is live")
            .unwind_exit();
        match unwound {
            None => {
                self.terminate(pid, false);
                true
            }
            Some(active_helpers) => {
                if active_helpers > 0 {
                    self.cancel_helpers(pid);
                }
                false
            }
        }
    }

    // ---------------- society management ----------------

    fn alloc_pid(&mut self) -> ProcId {
        let id = ProcId(self.next_pid);
        self.next_pid += 1;
        id
    }

    /// Creates a process from a definition name.
    pub(crate) fn spawn_process(
        &mut self,
        name: &str,
        args: Vec<Value>,
        by: ProcId,
    ) -> Result<ProcId, RuntimeError> {
        let id = ProcId(self.next_pid);
        let proc = ProcessInstance::spawn(&self.program, id, name, args)?;
        self.next_pid += 1;
        self.metrics.inc(Counter::ProcessesSpawned);
        self.tracer.record(|t_us| TraceRecord::Spawn {
            step: self.report.attempts,
            t_us,
            pid: id,
            name: name.to_owned(),
            args: proc
                .def
                .params
                .iter()
                .map(|p| proc.env[p].clone())
                .collect(),
            by,
        });
        self.adopt(proc);
        self.report.processes_created += 1;
        Ok(id)
    }

    /// Adds a process to the society, runnable.
    fn adopt(&mut self, proc: ProcessInstance) {
        self.communities.insert(&proc, &self.builtins);
        self.ready.push_back(proc.id);
        self.procs.insert(proc.id, proc);
    }

    /// Removes a process from the society, the blocked set and the
    /// community index.
    fn bury(&mut self, pid: ProcId) -> Option<ProcessInstance> {
        let proc = self.procs.remove(&pid)?;
        self.communities.remove(pid);
        self.unblock(pid);
        Some(proc)
    }

    pub(crate) fn terminate(&mut self, pid: ProcId, aborted: bool) {
        let Some(proc) = self.bury(pid) else {
            return;
        };
        self.trace_exit(pid, aborted);
        // Notify a replication parent.
        if let Some(parent_id) = proc.parent {
            if let Some(parent) = self.procs.get_mut(&parent_id) {
                for frame in parent.frames.iter_mut().rev() {
                    if let Frame::Repl { active, .. } = frame {
                        *active = active.saturating_sub(1);
                        break;
                    }
                }
            }
            self.wake_pid(parent_id);
        }
    }

    /// Terminates (transitively) all replication body helpers of `pid`.
    fn cancel_helpers(&mut self, pid: ProcId) {
        loop {
            let victim = self
                .procs
                .values()
                .find(|p| p.parent == Some(pid))
                .map(|p| p.id);
            match victim {
                Some(v) => {
                    self.cancel_helpers(v);
                    // Remove directly — no parent notification (the Repl
                    // frame is being dismantled).
                    self.bury(v);
                    self.trace_exit(v, true);
                }
                None => break,
            }
        }
    }

    // ---------------- blocking & waking ----------------

    pub(crate) fn block(
        &mut self,
        pid: ProcId,
        watch: WatchSet,
        has_consensus: bool,
    ) -> StepResult {
        self.metrics.inc(Counter::ProcessesBlocked);
        // A process that re-blocks without having committed since its
        // last wakeup was woken spuriously (the key matched, the query
        // still failed).
        if let Some(proc) = self.procs.get_mut(&pid) {
            if proc.woken {
                proc.woken = false;
                self.metrics.inc(Counter::WakeSpurious);
            }
        }
        self.tracer.record(|t_us| TraceRecord::Park {
            step: self.report.attempts,
            pid,
            t_us,
            consensus: has_consensus,
            keys: trace::watch_labels(&watch),
        });
        if let Some(old) = self.blocked.remove(&pid) {
            self.unindex_watch(pid, &old.watch);
        } else {
            self.metrics.add_gauge(Gauge::BlockedQueueDepth, 1);
        }
        for key in watch.iter() {
            self.wake_index.entry(*key).or_default().insert(pid);
        }
        self.blocked.insert(
            pid,
            BlockInfo {
                watch,
                has_consensus,
                since: self
                    .metrics
                    .start_timer()
                    .or_else(|| self.stall.as_ref().map(|_| Instant::now())),
            },
        );
        StepResult::Blocked { has_consensus }
    }

    fn unindex_watch(&mut self, pid: ProcId, watch: &WatchSet) {
        for key in watch.iter() {
            if let Some(subs) = self.wake_index.get_mut(key) {
                subs.remove(&pid);
                if subs.is_empty() {
                    self.wake_index.remove(key);
                }
            }
        }
    }

    /// Removes `pid` from the blocked set, unsubscribing its watch keys
    /// and settling the queue-depth gauge. All unparking goes through
    /// here so the wake index never holds stale subscriptions.
    pub(crate) fn unblock(&mut self, pid: ProcId) -> Option<BlockInfo> {
        let info = self.blocked.remove(&pid)?;
        self.unindex_watch(pid, &info.watch);
        self.metrics.add_gauge(Gauge::BlockedQueueDepth, -1);
        if let Some(stall) = &mut self.stall {
            if stall.flagged.remove(&pid) {
                self.metrics.add_gauge(Gauge::StalledProcesses, -1);
            }
        }
        self.tracer.record(|t_us| TraceRecord::Unpark {
            pid,
            t_us,
            outcome: ParkOutcome::Woken,
        });
        Some(info)
    }

    pub(crate) fn wake(&mut self, changed: &WatchSet) {
        if changed.is_empty() {
            return;
        }
        // Union of subscribers over the published keys — exactly the
        // blocked processes whose watch set intersects `changed`, in
        // ascending pid order (matching the old full scan). Each pid
        // remembers the first key that matched it, so the trace can say
        // *which* subscription the commit satisfied.
        let mut woken: BTreeMap<ProcId, WatchKey> = BTreeMap::new();
        for key in changed.iter() {
            if let Some(subs) = self.wake_index.get(key) {
                for pid in subs {
                    woken.entry(*pid).or_insert(*key);
                }
            }
        }
        for (pid, key) in woken {
            let commit = self.last_commit_id;
            if self.wake_one(pid, Counter::WakeupCommit, commit, || key.label()) {
                if let Some(proc) = self.procs.get_mut(&pid) {
                    proc.woken = true;
                }
            }
            self.ready.push_back(pid);
        }
    }

    /// Unparks `pid` because `commit` published `key` (or for a synthetic
    /// cause), counting the wake under `counter` and recording its edge.
    /// False when `pid` was not parked.
    fn wake_one(
        &mut self,
        pid: ProcId,
        counter: Counter,
        commit: u64,
        key: impl FnOnce() -> String,
    ) -> bool {
        let Some(info) = self.unblock(pid) else {
            return false;
        };
        self.metrics.inc(counter);
        self.metrics.observe_timer(Hist::BlockedSeconds, info.since);
        self.tracer.record(|t_us| TraceRecord::Wake {
            pid,
            commit,
            key: key(),
            t_us,
        });
        true
    }

    /// Records a validation-conflict edge: the current attempt aborted
    /// because of the most recently committed batch.
    pub(crate) fn trace_conflict(&self, pid: ProcId) {
        self.tracer.record(|t_us| TraceRecord::Conflict {
            trace: self.cur_trace,
            pid,
            track: Track::current(),
            against: self.last_commit_id,
            t_us,
        });
    }

    /// Records a failed immediate transaction.
    pub(crate) fn trace_failed(&self, pid: ProcId) {
        self.tracer.record(|t_us| TraceRecord::Failed {
            step: self.report.attempts,
            t_us,
            pid,
        });
    }

    fn trace_exit(&self, pid: ProcId, aborted: bool) {
        self.tracer.record(|t_us| TraceRecord::Exit {
            step: self.report.attempts,
            t_us,
            pid,
            aborted,
        });
    }

    fn wake_pid(&mut self, pid: ProcId) {
        // A replication parent woken by a child's exit, not by a tuple
        // commit; the attribution points at the last commit (usually the
        // child's final action).
        let commit = self.last_commit_id;
        if self.wake_one(pid, Counter::WakeupCommit, commit, || "child-exit".into()) {
            if let Some(proc) = self.procs.get_mut(&pid) {
                proc.woken = true;
            }
            self.ready.push_back(pid);
        }
    }

    // ---------------- consensus ----------------

    /// Attempts to fire one complete consensus community; true if fired.
    pub(crate) fn try_consensus_any(&mut self) -> Result<bool, RuntimeError> {
        if self.procs.is_empty() {
            return Ok(false);
        }
        for set in self.communities.partition(&self.ds, &self.builtins) {
            // Every member must be blocked with a consensus guard.
            if !set
                .iter()
                .all(|pid| self.blocked.get(pid).is_some_and(|info| info.has_consensus))
            {
                continue;
            }
            // Probe every member's contribution against the same D.
            let mut contributions = Vec::with_capacity(set.len());
            let mut complete = true;
            for pid in &set {
                self.cur_trace = self.tracer.new_trace();
                match self.probe_consensus(*pid)? {
                    Some((site, pending)) => contributions.push((*pid, site, pending)),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                self.metrics.inc(Counter::ConsensusChecksFired);
                self.fire_consensus(contributions)?;
                return Ok(true);
            }
        }
        self.metrics.inc(Counter::ConsensusChecksIncomplete);
        Ok(false)
    }

    /// Finds the blocked process's first enabled consensus transaction at
    /// its current position, evaluated against the current dataspace.
    fn probe_consensus(
        &self,
        pid: ProcId,
    ) -> Result<Option<(ConsensusSite, Pending)>, RuntimeError> {
        let proc = &self.procs[&pid];
        match proc.frames.last() {
            Some(Frame::Seq { stmts, idx }) => match stmts.get(*idx) {
                Some(CompiledStmt::Txn(t)) if t.kind == TxnKind::Consensus => {
                    self.metrics.inc(Counter::TxnAttemptsConsensus);
                    Ok(self
                        .evaluate_for(pid, t, None, &[])?
                        .ok()
                        .map(|p| (ConsensusSite::PlainTxn, p)))
                }
                Some(CompiledStmt::Select(branches)) => {
                    self.probe_guards(pid, branches, GuardMode::Select)
                }
                _ => Ok(None),
            },
            Some(Frame::Loop { branches }) => self.probe_guards(pid, branches, GuardMode::Loop),
            Some(Frame::Repl { branches, .. }) => self.probe_guards(pid, branches, GuardMode::Repl),
            None => Ok(None),
        }
    }

    fn probe_guards(
        &self,
        pid: ProcId,
        branches: &Arc<[CompiledBranch]>,
        mode: GuardMode,
    ) -> Result<Option<(ConsensusSite, Pending)>, RuntimeError> {
        for b in branches.iter() {
            if b.guard.kind != TxnKind::Consensus {
                continue;
            }
            self.metrics.inc(Counter::TxnAttemptsConsensus);
            if let Ok(p) = self.evaluate_for(pid, &b.guard, None, &[])? {
                return Ok(Some((
                    ConsensusSite::Guard {
                        mode,
                        rest: b.rest.clone(),
                    },
                    p,
                )));
            }
        }
        Ok(None)
    }

    /// Commits a complete community's contributions as one composite
    /// transaction: all retractions first, then all assertions (export
    /// sets evaluated against the pre-composite configuration), then each
    /// participant's local actions and control advance.
    fn fire_consensus(
        &mut self,
        contributions: Vec<(ProcId, ConsensusSite, Pending)>,
    ) -> Result<(), RuntimeError> {
        self.report.consensus_rounds += 1;
        self.metrics.inc(Counter::ConsensusRounds);

        let parts: Vec<(ProcId, &Pending)> =
            contributions.iter().map(|(pid, _, p)| (*pid, p)).collect();
        let (changed, commit_id) = self.commit_composite(&parts, TxnKind::Consensus, || {
            format!("consensus of {} processes", contributions.len())
        })?;

        // Per-participant control advance. Every participant's wake ends
        // in this commit, so it counts as progress.
        for (pid, site, p) in &contributions {
            if self.wake_one(*pid, Counter::WakeupConsensus, commit_id, || {
                "consensus".into()
            }) {
                self.metrics.inc(Counter::WakeProgress);
            }
            if let Some(proc) = self.procs.get_mut(pid) {
                proc.woken = false;
            }
            match site {
                ConsensusSite::PlainTxn => {
                    self.advance_seq(*pid);
                    let terminated = self.apply_control(*pid, p)?;
                    if !terminated {
                        self.ready.push_back(*pid);
                    }
                }
                ConsensusSite::Guard { mode, rest } => {
                    if *mode == GuardMode::Select {
                        self.advance_seq(*pid);
                    }
                    self.enter_branch(*pid, p, rest.clone(), *mode)?;
                    if self.procs.contains_key(pid) && !self.blocked.contains_key(pid) {
                        self.ready.push_back(*pid);
                    }
                }
            }
        }
        self.wake(&changed);
        Ok(())
    }

    // ---------------- small helpers ----------------

    pub(crate) fn advance_seq(&mut self, pid: ProcId) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            if let Some(Frame::Seq { idx, .. }) = proc.frames.last_mut() {
                *idx += 1;
            }
        }
    }

    pub(crate) fn limits_max_attempts(&self) -> u64 {
        self.limits.max_attempts
    }
}
