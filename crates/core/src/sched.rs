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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sdl_dataspace::{Action, Dataspace, ShardSet, WatchSet};
use sdl_durability::Wal;
use sdl_lang::ast::TxnKind;
use sdl_metrics::{Counter, Metrics};
use sdl_tuple::{ProcId, Tuple, TupleId, Value};

use crate::builder::{Config, RuntimeBuilder, RuntimeStore};
use crate::builtins::Builtins;
use crate::commit::{committed_counter, Runner, Slot, WakeRouter};
use crate::consensus::CommunityIndex;
use crate::error::RuntimeError;
use crate::interp::{self, Attempt, GuardMode, Parked, Site, StallWatch, Turn};
use crate::outcome::{Outcome, RunLimits, RunReport};
use crate::process::{Frame, ProcessInstance};
use crate::program::{CompiledProgram, CompiledStmt, CompiledTxn};
use crate::trace::{self, ParkOutcome, TraceRecord, Tracer, Track};
use crate::txn::{self, Pending};

/// A blocked process's enabled consensus contribution: the construct and
/// branch body its commit enters, and its pending effects.
type Contribution = (GuardMode, Arc<[CompiledStmt]>, Pending);

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
            router: WakeRouter::new(1),
            next_pid: 1,
            rng: StdRng::seed_from_u64(seed),
            builtins,
            tracer,
            cur_trace: 0,
            last_commit_id: 0,
            stall: stall_threshold.map(StallWatch::new),
            stall_scanned: Instant::now(),
            metrics,
            report: RunReport::new(),
            limits,
            wal,
            communities: CommunityIndex::default(),
            rescan: false,
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
    /// The parked processes in pid order: what the blocked report, the
    /// stall scan and the end-of-run drain walk. Each slot is also
    /// registered under its watch keys in `router`.
    pub(crate) blocked: BTreeMap<ProcId, Arc<Slot<Parked<()>>>>,
    /// Lets a commit wake only the subscribers of the keys it published
    /// instead of scanning the whole blocked set. One shard, and no
    /// epoch bump: every commit runs on this thread.
    router: WakeRouter<Parked<()>>,
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
    /// Stall watchdog, when armed, and when it last scanned.
    stall: Option<StallWatch>,
    stall_scanned: Instant,
    pub(crate) metrics: Metrics,
    pub(crate) report: RunReport,
    pub(crate) limits: RunLimits,
    /// Write-ahead log; when present, every commit appends one record
    /// before the transaction is acknowledged.
    wal: Option<Arc<Wal>>,
    /// Every process's import set, kept current by [`Runtime::adopt`],
    /// [`Runtime::bury`], `let` and the one serial commit — what
    /// consensus detection reads instead of re-deriving the partition.
    pub(crate) communities: CommunityIndex,
    /// A process left the society, which may have completed a community
    /// none of whose members parks again: consensus parks scan every
    /// community, as idle does, until such a scan fires nothing.
    rescan: bool,
}

/// True if `pid` is parked at a consensus guard.
fn at_consensus(blocked: &BTreeMap<ProcId, Arc<Slot<Parked<()>>>>, pid: ProcId) -> bool {
    let slot = blocked.get(&pid);
    slot.and_then(|s| s.peek(|e| e.consensus)).unwrap_or(false)
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
        let communities = if self
            .blocked
            .keys()
            .any(|pid| at_consensus(&self.blocked, *pid))
        {
            self.communities.clone().partition(&self.ds, &self.builtins)
        } else {
            Vec::new()
        };
        let community: HashMap<ProcId, &[ProcId]> = (communities.iter())
            .flat_map(|set| set.iter().map(move |pid| (*pid, &set[..])))
            .collect();
        let mut out = String::new();
        for (pid, slot) in &self.blocked {
            let Some((consensus, keys)) = slot.peek(|e| (e.consensus, e.watch.len())) else {
                continue;
            };
            let name = self
                .procs
                .get(pid)
                .map(|p| p.def.name.as_str())
                .unwrap_or("?");
            let kind = if consensus {
                let set = community[pid];
                let absent: Vec<ProcId> = set
                    .iter()
                    .copied()
                    .filter(|m| !at_consensus(&self.blocked, *m))
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
                if self.try_consensus(None)? {
                    continue;
                }
                self.report.outcome = self.idle_outcome();
                break;
            };
            if !self.procs.contains_key(&pid) {
                continue; // cancelled while queued
            }
            match interp::step(&mut self.exec(pid, None))? {
                Turn::Park {
                    watch, consensus, ..
                } => {
                    self.block(pid, watch, consensus);
                    // Fire as soon as a community is complete, even while
                    // unrelated processes are still running. Walk first,
                    // probe last: look only at this process's community
                    // (unless an exit may have completed another one),
                    // and probe its queries only once every member is
                    // parked at a consensus guard.
                    if consensus {
                        let fired = self.try_consensus((!self.rescan).then_some(pid))?;
                        self.rescan &= fired;
                    }
                }
                Turn::Progressed(_) | Turn::Lost | Turn::Halted => {
                    if self.procs.contains_key(&pid) && !self.blocked.contains_key(&pid) {
                        self.ready.push_back(pid);
                    }
                }
            }
        }
        self.finish_run()
    }

    /// The end of a serial or rounds run: records the final tuple count,
    /// closes the parks still open, and makes whatever the fsync policy
    /// deferred durable before the run is reported back.
    pub(crate) fn finish_run(&mut self) -> Result<RunReport, RuntimeError> {
        self.report.final_tuples = self.ds.len();
        self.drain_parks();
        if let Some(wal) = &self.wal {
            wal.sync().map_err(wal_err)?;
        }
        Ok(self.report.clone())
    }

    /// How a run that can make no more progress ended: completed, or
    /// quiescent with every live process blocked.
    pub(crate) fn idle_outcome(&self) -> Outcome {
        if self.procs.is_empty() {
            return Outcome::Completed;
        }
        let mut blocked: Vec<ProcId> = self.procs.keys().copied().collect();
        blocked.sort_unstable();
        Outcome::Quiescent { blocked }
    }

    /// Closes the park interval of every still-blocked process, so a
    /// finished run leaves no open park in the stream, and settles the
    /// wakes the run ended before.
    fn drain_parks(&mut self) {
        for proc in self.procs.values_mut() {
            interp::settle_wake(&self.metrics, &mut proc.woken, None);
        }
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
    pub(crate) fn stall_scan(&mut self) {
        let Some(stall) = &self.stall else {
            return;
        };
        // Scan at half-threshold granularity, not every iteration.
        if self.stall_scanned.elapsed() < stall.threshold / 2 {
            return;
        }
        let now = Instant::now();
        self.stall_scanned = now;
        for slot in self.blocked.values() {
            slot.peek(|e| stall.check(e, now, &self.tracer, &self.metrics));
        }
    }

    // ---------------- evaluation & commit ----------------

    /// Evaluates `t` for `pid` through its window over `source_ds`, built
    /// afresh (the rounds scheduler passes the round snapshot), or over
    /// the live dataspace, taken from the community index with the
    /// expansion it keeps (`None`), by the one read step
    /// (`Runner::read`). `Ok(Err(watch))` is a failed query; `watch` is
    /// what a park after it listens on: the subscriptions of the
    /// transactions in `park` (`t` itself, and the unevaluated guards of
    /// its construct, or none), taken through the window the evaluation
    /// failed against.
    pub(crate) fn evaluate_for(
        &self,
        pid: ProcId,
        t: &CompiledTxn,
        source_ds: Option<&Dataspace>,
        park: &[&CompiledTxn],
    ) -> Result<Result<Pending, WatchSet>, RuntimeError> {
        let proc = &self.procs[&pid];
        let source = match source_ds {
            Some(ds) => proc.def.view.window(ds, &proc.env, &self.builtins),
            None => self.communities.window(pid, &self.ds, &self.builtins),
        };
        let run = Runner {
            pid,
            view: Some(&proc.def.view),
            env: &proc.env,
            builtins: &self.builtins,
        };
        let atoms = txn::resolve_atoms(t, run.env, run.builtins);
        let obs = (&self.metrics, &self.tracer, self.cur_trace);
        Ok(match run.read(t, &atoms, &source, park, obs)? {
            Ok(query) => Ok(txn::build_effects(t, &query, run.env, run.builtins)?),
            Err(watch) => Err(watch),
        })
    }

    /// The watch subscription for transactions about to park that were
    /// not just evaluated (a consensus transaction waits without one; the
    /// rounds scheduler evaluated against the round snapshot), through
    /// the process window over the live store.
    ///
    /// [`txn::watch_set_resolved`] may narrow the subscription to a
    /// single provably-empty atom. Sound here because the serial and
    /// rounds schedulers run park and probe on one thread against the
    /// same store (no commit can interleave) and the subscription is
    /// recomputed on every re-park.
    pub(crate) fn txn_watch(&self, pid: ProcId, park: &[&CompiledTxn]) -> WatchSet {
        let proc = &self.procs[&pid];
        let source = self.communities.window(pid, &self.ds, &self.builtins);
        let mut watch = WatchSet::new();
        for t in park {
            let atoms = txn::resolve_atoms(t, &proc.env, &self.builtins);
            watch.extend(&txn::watch_set_resolved(t, &atoms, &source));
        }
        watch
    }

    /// Commits the contributions of one or more processes as one atomic
    /// transaction: export sets evaluated against the pre-commit
    /// configuration, then all retractions (set-union), then all
    /// assertions, one WAL record (recovery replays the whole composite
    /// or none of it) and one commit record. Returns the changed watch
    /// keys and the commit id.
    ///
    /// The whole commit goes through [`Dataspace::apply_batch`], so index
    /// maintenance is grouped per index entry — a high-fanout `forall`
    /// commit touches each `(functor, arity)` bucket a single time
    /// instead of once per tuple.
    pub(crate) fn commit_composite(
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
            if let Some(stall) = &self.stall {
                stall.recent.lock().push(commit_id, changed.clone(), desc());
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
    ) -> Result<(), RuntimeError> {
        let proc = ProcessInstance::spawn(&self.program, ProcId(self.next_pid), name, args)?;
        self.next_pid += 1;
        self.metrics.inc(Counter::ProcessesSpawned);
        interp::spawned(&self.tracer, self.report.attempts, &proc, by);
        self.adopt(proc);
        self.report.processes_created += 1;
        Ok(())
    }

    /// Adds a process to the society, runnable.
    fn adopt(&mut self, proc: ProcessInstance) {
        self.communities.insert(&proc, &self.builtins);
        self.ready.push_back(proc.id);
        self.procs.insert(proc.id, proc);
    }

    /// Removes a process from the society, the blocked set and the
    /// community index, settling a wake it never took a turn on.
    fn bury(&mut self, pid: ProcId) -> Option<ProcessInstance> {
        let mut proc = self.procs.remove(&pid)?;
        interp::settle_wake(&self.metrics, &mut proc.woken, None);
        self.communities.remove(pid);
        self.rescan = true;
        self.unblock(pid);
        Some(proc)
    }

    fn terminate(&mut self, pid: ProcId) {
        let Some(proc) = self.bury(pid) else {
            return;
        };
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
                    interp::exited(&self.tracer, self.report.attempts, v, true);
                }
                None => break,
            }
        }
    }

    // ---------------- blocking & waking ----------------

    /// Parks `pid` on `watch`: in the pid-ordered registry and, under
    /// each watch key, in the router.
    pub(crate) fn block(&mut self, pid: ProcId, watch: WatchSet, consensus: bool) {
        self.metrics.inc(Counter::ProcessesBlocked);
        let keys = watch.iter().copied().collect();
        let traced = (&self.tracer, self.report.attempts);
        let armed = self.stall.is_some();
        let e = Parked::new(traced, &self.metrics, pid, (), watch, consensus, armed);
        let slot = Slot::new(e);
        self.router.park(&slot, keys, self.router.epoch());
        let old = self.blocked.insert(pid, slot);
        debug_assert!(old.is_none(), "{pid} parked twice");
    }

    /// Takes `pid` out of the registry and claims its park; `None` when
    /// it was not parked. Its stubs stay in the router until their key
    /// wakes or the shard is swept.
    fn unpark(&mut self, pid: ProcId) -> Option<Parked<()>> {
        self.blocked.remove(&pid)?.claim()
    }

    /// Unparks `pid` (a rounds turn, or its removal from the society),
    /// closing its park; false when it was not parked.
    pub(crate) fn unblock(&mut self, pid: ProcId) -> bool {
        let Some(e) = self.unpark(pid) else {
            return false;
        };
        e.settle(&self.tracer, &self.metrics, ParkOutcome::Woken);
        true
    }

    /// Wakes every process parked on a key `changed` holds, in ascending
    /// pid order, each by the smallest such key.
    pub(crate) fn wake(&mut self, changed: &WatchSet) {
        let mut woken = self.router.wake(changed, ShardSet::all(1));
        woken.sort_unstable_by_key(|(_, e)| e.pid);
        for (key, e) in woken {
            self.blocked.remove(&e.pid);
            self.requeue(e, || key.label());
        }
    }

    /// Closes a park the last commit woke and queues its process, which
    /// carries the wake into its next turn.
    fn requeue(&mut self, e: Parked<()>, key: impl FnOnce() -> String) {
        let (commit, counter) = (self.last_commit_id, Counter::WakeupCommit);
        e.woken(&self.tracer, &self.metrics, counter, commit, key);
        if let Some(proc) = self.procs.get_mut(&e.pid) {
            proc.woken = true;
        }
        self.ready.push_back(e.pid);
    }

    /// Validates `p`, evaluated against a round snapshot, against the
    /// live store. A failure is a conflict: counted, and traced against
    /// the most recently committed batch.
    pub(crate) fn validate_live(&self, pid: ProcId, p: &Pending) -> bool {
        let valid = p.validate(&self.ds);
        if !valid {
            self.metrics.inc(Counter::TxnConflicts);
            self.tracer.record(|t_us| TraceRecord::Conflict {
                trace: self.cur_trace,
                pid,
                track: Track::current(),
                against: self.last_commit_id,
                t_us,
            });
        }
        valid
    }

    fn wake_pid(&mut self, pid: ProcId) {
        // A replication parent woken by a child's exit, not by a tuple
        // commit; the attribution points at the last commit (usually the
        // child's final action).
        if let Some(e) = self.unpark(pid) {
            self.requeue(e, || "child-exit".into());
        }
    }

    // ---------------- consensus ----------------

    /// Attempts to fire one complete consensus community; true if fired.
    /// With `from`, only that process's community is a candidate, found
    /// by walking from it; without, the whole society is partitioned and
    /// scanned lowest community first.
    pub(crate) fn try_consensus(&mut self, from: Option<ProcId>) -> Result<bool, RuntimeError> {
        if self.procs.is_empty() {
            return Ok(false);
        }
        let blocked = &self.blocked;
        let sets = match from {
            Some(pid) => (self.communities)
                .ready_community(pid, &self.ds, &self.builtins, |q| at_consensus(blocked, q))
                .into_iter()
                .collect(),
            None => self.communities.partition(&self.ds, &self.builtins),
        };
        'sets: for set in sets {
            // Every member must be blocked with a consensus guard.
            if !set.iter().all(|pid| at_consensus(&self.blocked, *pid)) {
                continue;
            }
            // Probe every member's contribution against the same D.
            let mut contributions = Vec::with_capacity(set.len());
            for pid in &set {
                self.cur_trace = self.tracer.new_trace();
                match self.probe_consensus(*pid)? {
                    Some(contribution) => contributions.push((*pid, contribution)),
                    None => continue 'sets,
                }
            }
            self.metrics.inc(Counter::ConsensusChecksFired);
            self.fire_consensus(contributions)?;
            return Ok(true);
        }
        self.metrics.inc(Counter::ConsensusChecksIncomplete);
        Ok(false)
    }

    /// Finds the blocked process's first enabled consensus transaction at
    /// its current site, evaluated against the current dataspace, with
    /// the construct and branch body the commit enters.
    fn probe_consensus(&self, pid: ProcId) -> Result<Option<Contribution>, RuntimeError> {
        let probe = |t: &CompiledTxn| -> Result<Option<Pending>, RuntimeError> {
            Ok(self.evaluate_for(pid, t, None, &[])?.ok())
        };
        match interp::site(&self.procs[&pid]) {
            // A bare consensus transaction enters like a one-guard
            // selection with an empty body.
            Some(Site::Txn(t)) if t.kind == TxnKind::Consensus => {
                Ok(probe(&t)?.map(|p| (GuardMode::Select, Arc::from([]), p)))
            }
            Some(Site::Guards(branches, mode)) => {
                for b in branches.iter() {
                    if b.guard.kind == TxnKind::Consensus {
                        if let Some(p) = probe(&b.guard)? {
                            return Ok(Some((mode, b.rest.clone(), p)));
                        }
                    }
                }
                Ok(None)
            }
            _ => Ok(None),
        }
    }

    /// Commits a complete community's contributions as one composite
    /// transaction: all retractions first, then all assertions (export
    /// sets evaluated against the pre-composite configuration), then each
    /// participant's local actions and control advance.
    fn fire_consensus(
        &mut self,
        contributions: Vec<(ProcId, Contribution)>,
    ) -> Result<(), RuntimeError> {
        self.report.consensus_rounds += 1;

        let parts: Vec<(ProcId, &Pending)> = contributions
            .iter()
            .map(|(pid, (_, _, p))| (*pid, p))
            .collect();
        let (changed, commit_id) = self.commit_composite(&parts, TxnKind::Consensus, || {
            format!("consensus of {} processes", contributions.len())
        })?;

        // Per-participant control advance. Every participant's wake ends
        // in this commit, so it counts as progress.
        for (pid, (mode, rest, p)) in &contributions {
            if let Some(e) = self.unpark(*pid) {
                let counter = Counter::WakeupConsensus;
                e.woken(&self.tracer, &self.metrics, counter, commit_id, || {
                    "consensus".into()
                });
                self.metrics.inc(Counter::WakeProgress);
            }
            // An earlier participant's `abort` may have cancelled this one.
            if !self.procs.contains_key(pid) {
                continue;
            }
            interp::enter_branch(&mut self.exec(*pid, None), p, rest.clone(), *mode)?;
            if self.procs.contains_key(pid) && !self.blocked.contains_key(pid) {
                self.ready.push_back(*pid);
            }
        }
        self.wake(&changed);
        Ok(())
    }

    /// The interpreter's view of process `pid`, evaluating against
    /// `snapshot` when one is given.
    pub(crate) fn exec<'a>(
        &'a mut self,
        pid: ProcId,
        snapshot: Option<&'a Dataspace>,
    ) -> SerialExec<'a> {
        SerialExec {
            rt: self,
            pid,
            snapshot,
        }
    }
}

/// A process of the serial or rounds society, as the interpreter steps
/// it. The rounds scheduler evaluates against the round's snapshot,
/// validates against the live store before committing, and leaves waking
/// to the next round, which re-examines every process.
pub(crate) struct SerialExec<'a> {
    rt: &'a mut Runtime,
    pid: ProcId,
    snapshot: Option<&'a Dataspace>,
}

impl interp::Executor for SerialExec<'_> {
    fn proc(&mut self) -> &mut ProcessInstance {
        self.rt.procs.get_mut(&self.pid).expect("process is live")
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rt.rng
    }

    fn tracer(&self) -> (&Tracer, u64) {
        (&self.rt.tracer, self.rt.report.attempts)
    }

    fn metrics(&self) -> &Metrics {
        &self.rt.metrics
    }

    fn attempt(&mut self, t: &CompiledTxn, park: &[&CompiledTxn]) -> Result<Attempt, RuntimeError> {
        let (rt, pid) = (&mut *self.rt, self.pid);
        rt.report.attempts += 1;
        rt.cur_trace = rt.tracer.new_trace();
        // A park subscribes through the failed evaluation's window, unless
        // that window is over the snapshot: a park listens to the live
        // store.
        let eval_park = if self.snapshot.is_some() { &[] } else { park };
        let p = match rt.evaluate_for(pid, t, self.snapshot, eval_park)? {
            Ok(p) => p,
            Err(watch) if self.snapshot.is_none() || park.is_empty() => {
                return Ok(Attempt::Failed(watch, 0))
            }
            Err(_) => return Ok(Attempt::Failed(rt.txn_watch(pid, park), 0)),
        };
        if self.snapshot.is_some() && !rt.validate_live(pid, &p) {
            return Ok(Attempt::Lost);
        }
        let (changed, _) = rt.commit_composite(&[(pid, &p)], t.kind, || batch_desc(&p))?;
        if self.snapshot.is_none() {
            rt.wake(&changed);
        }
        Ok(Attempt::Committed(p))
    }

    fn subscribe(&mut self, t: &CompiledTxn) -> WatchSet {
        self.rt.txn_watch(self.pid, &[t])
    }

    fn spawn(&mut self, name: &str, args: Vec<Value>) -> Result<(), RuntimeError> {
        self.rt.spawn_process(name, args, self.pid)
    }

    fn fork_helper(&mut self, body: Arc<[CompiledStmt]>, env: HashMap<String, Value>) {
        let id = self.rt.alloc_pid();
        let helper = ProcessInstance::body_helper(id, &self.rt.procs[&self.pid], body, env);
        self.rt.adopt(helper);
    }

    fn cancel_helpers(&mut self) {
        self.rt.cancel_helpers(self.pid);
    }

    fn terminate(&mut self) {
        self.rt.terminate(self.pid);
    }

    fn rebound(&mut self) {
        let rt = &mut *self.rt;
        rt.communities.insert(&rt.procs[&self.pid], &rt.builtins);
    }
}
