//! Multithreaded optimistic executor.
//!
//! Real-parallelism counterpart to [`Runtime::run_rounds`]'s logical
//! parallelism: worker threads execute processes concurrently against a
//! shared dataspace. A transaction **evaluates** under read locks
//! (windows, joins, tests — the expensive part), then **commits** under
//! write locks after re-validating its read/retract/negation/forall
//! evidence; a failed validation retries. This is classic optimistic
//! concurrency control, sound because [`crate::txn::Pending::validate`]
//! re-establishes exactly the facts the evaluation relied on.
//!
//! ## Sharding
//!
//! The store is a [`ShardedDataspace`]: tuple instances are partitioned
//! by `(functor, arity)` into independently locked shards. Each attempt
//! computes a **footprint** — the set of shards its patterns, instance
//! ids, and asserted tuples route to — and locks only those, so
//! transactions over disjoint relations evaluate *and commit* truly
//! concurrently instead of serialising on one store-wide write lock.
//! Lock acquisition is always in ascending shard order and no thread
//! holds one footprint while acquiring another, so there is no deadlock.
//! Unroutable patterns (variable heads), restricted import views, and
//! export rules fall back to the full footprint — correct, just
//! unsharded for that attempt. With one shard this executor behaves
//! bit-for-bit like the previous single-lock design.
//!
//! An attempt is [`Committer::evaluate`], then [`Committer::decide`]'s
//! closure committed through [`Committer::commit`]: the same code the
//! networked server's `Txn` runs. Blocked processes park in the
//! committer's [`crate::commit::WakeRouter`], whose per-shard reverse
//! indexes follow the same partition (a commit only looks at the shards
//! it changed) and whose commit epoch closes the park/wake race.
//!
//! ## Supported fragment
//!
//! Immediate and delayed transactions, selection, repetition, `let`,
//! `spawn`, `exit`, `abort`, and views. **Consensus transactions and
//! replication are not supported** (they need global coordination the
//! serial and rounds schedulers provide); programs using them are
//! rejected with `RuntimeError::Unsupported`. This fragment covers the
//! paper's worker-model programs, which is what the scaling experiment
//! (E5) measures.
//!
//! [`Runtime::run_rounds`]: crate::Runtime::run_rounds

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sdl_dataspace::{shard_of_pattern, Dataspace, ShardSet, ShardedDataspace, WatchKey, WatchSet};
use sdl_lang::ast::TxnKind;
use sdl_metrics::{Counter, Metrics};
use sdl_sync::{AtomicBool, AtomicUsize, Condvar, Mutex, RelaxedCounter};
use sdl_tuple::{ProcId, Value};

use crate::builder::{Config, RuntimeBuilder};
use crate::builtins::Builtins;
use crate::commit::{Committer, Runner, Slot, WakeRouter};
use crate::error::RuntimeError;
use crate::interp::{self, Attempt, Parked, StallWatch, Turn};
use crate::outcome::Outcome;
use crate::process::ProcessInstance;
use crate::program::{CompiledProgram, CompiledStmt, CompiledTxn};
use crate::sched::{batch_desc, wal_err};
use crate::trace::{self, ParkOutcome, Tracer};
use crate::txn::{self, Pending, ResolvedAtoms};

/// Outcome and statistics of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// How the run ended.
    pub outcome: Outcome,
    /// Committed transactions.
    pub commits: u64,
    /// Evaluation attempts.
    pub attempts: u64,
    /// Commits that failed validation and retried.
    pub conflicts: u64,
    /// Tuples left in the dataspace.
    pub final_tuples: usize,
}

impl RuntimeBuilder<ParallelRuntime> {
    /// Number of worker threads (default: available parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = n.max(1);
        self
    }

    /// Number of dataspace shards (default 1, which reproduces the
    /// single-lock executor bit-for-bit; clamped to
    /// [`sdl_dataspace::MAX_SHARDS`]).
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = n.clamp(1, sdl_dataspace::MAX_SHARDS);
        self
    }

    /// Test-only fault injection: disables the park-path epoch re-check,
    /// reintroducing the lost-wakeup window the protocol closes. Exists
    /// so the schedule-exploration tests can prove the explorer would
    /// catch a regression of the re-check; never set it in real runs.
    #[doc(hidden)]
    pub fn testing_skip_park_recheck(mut self, on: bool) -> Self {
        self.config.skip_park_recheck = on;
        self
    }

    /// Builds the runtime.
    ///
    /// # Errors
    ///
    /// Fails if the program uses consensus or replication, if init
    /// expressions cannot evaluate, if an initial spawn is invalid, or
    /// if the write-ahead log rejects the recovered state or genesis
    /// snapshot.
    pub fn build(mut self) -> Result<ParallelRuntime, RuntimeError> {
        for def in self.config.program.defs() {
            check_supported(&def.body)?;
        }
        // Init tuples go through the sharded store so every id is minted
        // on its shard's strided sequence — id→shard stays O(1).
        let mut ds = ShardedDataspace::new(self.config.shards);
        ds.set_metrics(self.config.metrics.clone());
        let spawns = self.seed_store(&mut ds)?;
        let mut initial = Vec::with_capacity(spawns.len());
        for (pid, (name, args)) in (1..).zip(spawns) {
            initial.push(ProcessInstance::spawn(
                &self.config.program,
                ProcId(pid),
                &name,
                args,
            )?);
        }
        Ok(ParallelRuntime {
            config: self.config,
            ds,
            initial,
        })
    }
}

fn check_supported(stmts: &[CompiledStmt]) -> Result<(), RuntimeError> {
    let unsupported = |what: &str| {
        Err(RuntimeError::Unsupported(format!(
            "{what} in the threaded executor"
        )))
    };
    for s in stmts {
        let branches = match s {
            CompiledStmt::Txn(t) if t.kind == TxnKind::Consensus => {
                return unsupported("consensus transactions")
            }
            CompiledStmt::Txn(_) => continue,
            CompiledStmt::Replicate(_) => return unsupported("replication"),
            CompiledStmt::Select(b) | CompiledStmt::Repeat(b) => b,
        };
        for br in branches.iter() {
            if br.guard.kind == TxnKind::Consensus {
                return unsupported("consensus transactions");
            }
            check_supported(&br.rest)?;
        }
    }
    Ok(())
}

/// A multithreaded SDL executor over a shared (optionally sharded)
/// dataspace.
///
/// # Examples
///
/// ```
/// use sdl_core::parallel::ParallelRuntime;
/// use sdl_core::CompiledProgram;
/// use sdl_tuple::{tuple, Value};
///
/// let program = CompiledProgram::from_source(r#"
///     process Worker() {
///         loop { exists j : <job, j>! -> <done, j> }
///     }
/// "#).unwrap();
/// let mut b = ParallelRuntime::builder(program).threads(4).shards(4);
/// for j in 0..100i64 {
///     b = b.tuple(tuple![Value::atom("job"), j]);
/// }
/// for _ in 0..4 {
///     b = b.spawn("Worker", vec![]);
/// }
/// let (report, ds) = b.build().unwrap().run().unwrap();
/// assert!(report.outcome.is_completed());
/// assert_eq!(ds.len(), 100);
/// ```
#[derive(Debug)]
pub struct ParallelRuntime {
    config: Config,
    ds: ShardedDataspace,
    initial: Vec<ProcessInstance>,
}

struct Shared {
    program: Arc<CompiledProgram>,
    builtins: Arc<Builtins>,
    sds: ShardedDataspace,
    /// The commit function and the router blocked processes park in.
    committer: Committer<Parked<ProcessInstance>>,
    queue: Mutex<VecDeque<ProcessInstance>>,
    cv: Condvar,
    /// Tasks enqueued or being processed; 0 ⇒ nothing can ever wake.
    pending: AtomicUsize,
    done: AtomicBool,
    attempts: RelaxedCounter,
    commits: RelaxedCounter,
    conflicts: RelaxedCounter,
    step_limited: AtomicBool,
    max_attempts: u64,
    next_pid: RelaxedCounter,
    error: Mutex<Option<RuntimeError>>,
    metrics: Metrics,
    tracer: Tracer,
    stall: Option<StallWatch>,
}

impl ParallelRuntime {
    /// Starts configuring a parallel runtime.
    pub fn builder(program: CompiledProgram) -> RuntimeBuilder<ParallelRuntime> {
        let cpus = std::thread::available_parallelism().map_or(4, |n| n.get());
        RuntimeBuilder::new(program).threads(cpus)
    }

    /// Runs to completion or quiescence, returning the report and the
    /// final dataspace (shards merged back into one store, ids intact).
    ///
    /// # Errors
    ///
    /// Propagates the first `RuntimeError` any worker hit.
    pub fn run(self) -> Result<(ParallelReport, Dataspace), RuntimeError> {
        let Config {
            program,
            seed,
            builtins,
            metrics,
            tracer,
            stall_threshold,
            limits,
            wal,
            threads,
            skip_park_recheck,
            ..
        } = self.config;
        let router =
            WakeRouter::new(self.ds.num_shards()).testing_skip_park_recheck(skip_park_recheck);
        let mut committer = Committer::new(router, metrics.clone(), tracer.clone());
        if let Some(wal) = wal {
            committer.attach_wal(wal);
        }
        for proc in &self.initial {
            interp::spawned(&tracer, 0, proc, ProcId::ENV);
        }
        let shared = Arc::new(Shared {
            program,
            builtins: Arc::new(builtins),
            sds: self.ds,
            committer,
            queue: Mutex::new(self.initial.clone().into()),
            cv: Condvar::new(),
            pending: AtomicUsize::new(self.initial.len()),
            done: AtomicBool::new(self.initial.is_empty()),
            attempts: RelaxedCounter::new(0),
            commits: RelaxedCounter::new(0),
            conflicts: RelaxedCounter::new(0),
            step_limited: AtomicBool::new(false),
            max_attempts: limits.max_attempts,
            next_pid: RelaxedCounter::new(self.initial.len() as u64 + 1),
            error: Mutex::new(None),
            metrics,
            tracer,
            stall: stall_threshold.map(StallWatch::new),
        });
        sdl_sync::scope(|scope| {
            for w in 0..threads {
                let shared = shared.clone();
                let seed = seed.wrapping_add(w as u64);
                scope.spawn(move || worker(&shared, seed, w));
            }
            if shared.stall.is_some() {
                let shared = shared.clone();
                scope.spawn(move || watchdog(&shared));
            }
        });
        if let Some(e) = shared.error.lock().take() {
            return Err(e);
        }
        // Wakes enqueued after the run wound down (done raced a wake)
        // are never re-run: the run ended first.
        for mut p in shared.queue.lock().drain(..) {
            interp::settle_wake(&shared.metrics, &mut p.woken, None);
        }
        let mut blocked_pids: Vec<ProcId> = Vec::new();
        for parked in shared.committer.router.drain() {
            parked.settle(&shared.tracer, &shared.metrics, ParkOutcome::Drained);
            blocked_pids.push(parked.pid);
        }
        blocked_pids.sort_unstable();
        let outcome = if shared.step_limited.load(Ordering::SeqCst) {
            Outcome::StepLimit
        } else if blocked_pids.is_empty() {
            Outcome::Completed
        } else {
            Outcome::Quiescent {
                blocked: blocked_pids,
            }
        };
        shared.committer.finish().map_err(wal_err)?;
        let ds = shared.sds.drain_into_dataspace();
        let report = ParallelReport {
            outcome,
            commits: shared.commits.load(),
            attempts: shared.attempts.load(),
            conflicts: shared.conflicts.load(),
            final_tuples: ds.len(),
        };
        Ok((report, ds))
    }
}

fn worker(shared: &Shared, seed: u64, index: usize) {
    trace::set_worker_track(index);
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let task = {
            let mut q = shared.queue.lock();
            loop {
                if shared.done.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(t) = q.pop_front() {
                    break t;
                }
                shared.cv.wait(&mut q);
            }
        };
        if let Err(e) = run_process(shared, task, &mut rng) {
            let mut slot = shared.error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
            finish_done(shared);
        }
        // This task is complete (terminated or parked in `blocked`).
        if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            finish_done(shared);
        }
    }
}

/// Checks every parked process against the stall watchdog at half its
/// threshold (at most every 20 ms) until the run is done.
fn watchdog(shared: &Shared) {
    let stall = shared.stall.as_ref().expect("watchdog spawned armed");
    let tick = stall.threshold.div_f64(2.0).min(Duration::from_millis(20));
    while !shared.done.load(Ordering::SeqCst) {
        sdl_sync::sleep(tick);
        let now = Instant::now();
        let (tracer, metrics) = (&shared.tracer, &shared.metrics);
        shared
            .committer
            .router
            .visit(|e| stall.check(e, now, tracer, metrics));
    }
}

fn finish_done(shared: &Shared) {
    shared.done.store(true, Ordering::SeqCst);
    let _q = shared.queue.lock();
    shared.cv.notify_all();
}

fn enqueue(shared: &Shared, proc: ProcessInstance) {
    shared.pending.fetch_add(1, Ordering::SeqCst);
    let mut q = shared.queue.lock();
    q.push_back(proc);
    shared.cv.notify_one();
}

/// The shards a transaction's evaluation may read over a full-store
/// view: those of its resolved atom patterns. Falls back to every shard
/// when a pattern cannot be resolved or routed.
///
/// The footprint-lock entry point every attempt's read locks go through
/// (`Committer::evaluate`, which adds the view-restriction fallback), so
/// a `read_shards` over the result covers everything the evaluation can
/// touch.
pub fn txn_read_footprint(
    sds: &ShardedDataspace,
    t: &CompiledTxn,
    env: &HashMap<String, Value>,
    builtins: &Builtins,
) -> ShardSet {
    read_footprint(sds, &txn::resolve_atoms(t, env, builtins))
}

/// [`txn_read_footprint`] over atoms the caller already resolved.
pub(crate) fn read_footprint(sds: &ShardedDataspace, atoms: &ResolvedAtoms) -> ShardSet {
    let n = sds.num_shards();
    let all = sds.all_shards();
    let Ok(atoms) = atoms else { return all };
    if n == 1 {
        return all;
    }
    let mut fp = ShardSet::new();
    for a in atoms {
        match shard_of_pattern(&a.pattern, n) {
            Some(s) => fp.insert(s),
            None => return all,
        }
    }
    fp
}

/// The shards a pending commit touches over a full-store view: those of
/// its read/retract ids, asserted tuples, and (for validation) its
/// negation and forall evidence patterns. Falls back to every shard when
/// evidence is unroutable.
///
/// Shared footprint-lock entry point (see [`txn_read_footprint`]): a
/// `write_shards` over the result covers both `Pending::validate` and
/// the commit's `apply_batch`.
pub fn pending_write_footprint(sds: &ShardedDataspace, p: &Pending) -> ShardSet {
    let n = sds.num_shards();
    let all = sds.all_shards();
    if n == 1 {
        return all;
    }
    let mut fp = ShardSet::new();
    for id in p.reads.iter().chain(&p.retracts) {
        fp.insert(sds.shard_of_id(*id));
    }
    for tu in &p.asserts {
        fp.insert(sds.shard_of_tuple(tu));
    }
    for pat in &p.neg_checks {
        match shard_of_pattern(pat, n) {
            Some(s) => fp.insert(s),
            None => return all,
        }
    }
    for ev in &p.forall_checks {
        match shard_of_pattern(&ev.pattern, n) {
            Some(s) => fp.insert(s),
            None => return all,
        }
    }
    fp
}

/// A process as a threaded worker steps it.
struct Worker<'a> {
    shared: &'a Shared,
    proc: ProcessInstance,
    rng: &'a mut StdRng,
    /// Set when the process terminated.
    ended: bool,
}

impl interp::Executor for Worker<'_> {
    fn proc(&mut self) -> &mut ProcessInstance {
        &mut self.proc
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    fn tracer(&self) -> (&Tracer, u64) {
        (&self.shared.tracer, 0)
    }

    fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Runs the shared attempt halves ([`Committer::evaluate`],
    /// [`Committer::decide`]) and re-evaluates when a concurrent commit
    /// invalidated the evaluation. A failed evaluation that is asked to
    /// subscribe probes its subscription under the read locks; `park`
    /// holds `t` alone here: its other entries would be consensus guards,
    /// rejected at build.
    fn attempt(&mut self, t: &CompiledTxn, park: &[&CompiledTxn]) -> Result<Attempt, RuntimeError> {
        let (shared, proc) = (self.shared, &self.proc);
        let (sds, committer) = (&shared.sds, &shared.committer);
        let (metrics, tracer) = (&shared.metrics, &shared.tracer);
        let run = Runner {
            pid: proc.id,
            view: Some(&proc.def.view),
            env: &proc.env,
            builtins: &shared.builtins,
        };
        // One resolution serves the footprint, the evaluation and the park
        // subscription of every retry: the environment cannot change here.
        let atoms = txn::resolve_atoms(t, run.env, run.builtins);
        loop {
            if shared.attempts.fetch_add(1) >= shared.max_attempts {
                shared.step_limited.store(true, Ordering::SeqCst);
                finish_done(shared);
                return Ok(Attempt::Halted);
            }
            // One trace id per attempt loop iteration: a retry after a
            // conflict is a fresh causal unit with its own span chain.
            let trace_id = tracer.new_trace();
            let mut p = match committer.evaluate(sds, t, &atoms, &run, park, trace_id)? {
                Ok(p) => p,
                Err((watch, epoch)) => return Ok(Attempt::Failed(watch, epoch)),
            };
            let stall = shared.stall.as_ref().map(|stall| (stall, batch_desc(&p)));
            let (fp, decide) = committer.decide(sds, &run, t.kind, &mut p);
            let committed = committer
                .commit(sds, fp, trace_id, run.pid, t.kind, decide)
                .map_err(wal_err)?;
            let Some(done) = committed else {
                shared.conflicts.fetch_add(1);
                continue; // somebody raced us; re-evaluate
            };
            shared.commits.fetch_add(1);
            if let (Some((stall, desc)), true) = (stall, done.commit_id != 0) {
                stall.recent.lock().push(done.commit_id, done.changed, desc);
            }
            for (key, mut parked) in done.woken {
                // The wake edge carries the committing transaction's id — the
                // causality arrow the exporter draws from commit slice to wake
                // point.
                parked.woken(
                    tracer,
                    metrics,
                    Counter::WakeupCommit,
                    done.commit_id,
                    || key.label(),
                );
                parked.proc.woken = true;
                enqueue(shared, parked.proc);
            }
            return Ok(Attempt::Committed(p));
        }
    }

    fn subscribe(&mut self, _: &CompiledTxn) -> WatchSet {
        unreachable!("consensus is rejected at build")
    }

    fn spawn(&mut self, name: &str, args: Vec<Value>) -> Result<(), RuntimeError> {
        let id = ProcId(self.shared.next_pid.fetch_add(1));
        let child = ProcessInstance::spawn(&self.shared.program, id, name, args)?;
        self.shared.metrics.inc(Counter::ProcessesSpawned);
        interp::spawned(&self.shared.tracer, 0, &child, self.proc.id);
        enqueue(self.shared, child);
        Ok(())
    }

    fn fork_helper(&mut self, _: Arc<[CompiledStmt]>, _: HashMap<String, Value>) {
        unreachable!("replication is rejected at build")
    }

    /// Without replication there are no helpers.
    fn cancel_helpers(&mut self) {}

    fn terminate(&mut self) {
        self.ended = true;
    }
}

/// Runs one process until it terminates or parks.
fn run_process(
    shared: &Shared,
    proc: ProcessInstance,
    rng: &mut StdRng,
) -> Result<(), RuntimeError> {
    let mut x = Worker {
        shared,
        proc,
        rng,
        ended: false,
    };
    loop {
        if shared.done.load(Ordering::SeqCst) {
            // Run wound down with this process mid-flight: a wake it
            // carries ended with the run.
            interp::settle_wake(&shared.metrics, &mut x.proc.woken, None);
            return Ok(());
        }
        match interp::step(&mut x)? {
            Turn::Progressed(_) | Turn::Lost if !x.ended => {}
            Turn::Progressed(_) | Turn::Lost | Turn::Halted => return Ok(()),
            Turn::Park { watch, epoch, .. } => {
                park(shared, watch, epoch, x.proc);
                return Ok(());
            }
        }
    }
}

/// Parks a blocked process in the router (whose module docs argue why no
/// wake-up is lost), or re-queues it when a commit raced the park.
fn park(shared: &Shared, watch: WatchSet, eval_epoch: u64, proc: ProcessInstance) {
    let keys: Vec<WatchKey> = watch.iter().copied().collect();
    // Opened before the slot is claimable: a waker that beats the epoch
    // re-check closes it on claim, and a late open would dip the depth
    // gauge negative.
    let (tracer, metrics) = (&shared.tracer, &shared.metrics);
    let armed = shared.stall.is_some();
    let slot = Slot::new(Parked::new(
        (tracer, 0),
        metrics,
        proc.id,
        proc,
        watch,
        false,
        armed,
    ));
    if let Some(parked) = shared.committer.router.park(&slot, keys, eval_epoch) {
        // A commit published while we were parking; whether or not its
        // wake saw us, re-evaluating is the safe answer. The park never
        // stuck: close it immediately so spans stay balanced (no wake
        // edge — the commit raced past before this slot was visible).
        parked.settle(tracer, metrics, ParkOutcome::Woken);
        enqueue(shared, parked.proc);
        return;
    }
    shared.metrics.inc(Counter::ProcessesBlocked);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledProgram;
    use sdl_dataspace::{shard_of_tuple, TupleSource};
    use sdl_metrics::ShardCounter;
    use sdl_tuple::tuple;

    fn job_program() -> CompiledProgram {
        CompiledProgram::from_source(
            "process Worker() {
                loop { exists j : <job, j>! -> <done, j> }
             }",
        )
        .unwrap()
    }

    #[test]
    fn workers_drain_the_job_pool() {
        let mut b = ParallelRuntime::builder(job_program()).threads(4).seed(1);
        for j in 0..200i64 {
            b = b.tuple(tuple![Value::atom("job"), j]);
        }
        for _ in 0..8 {
            b = b.spawn("Worker", vec![]);
        }
        let (report, ds) = b.build().unwrap().run().unwrap();
        assert!(report.outcome.is_completed(), "{:?}", report.outcome);
        assert_eq!(report.commits, 200);
        assert_eq!(ds.len(), 200);
        assert!(!ds.contains_match(&sdl_tuple::pattern![Value::atom("job"), any]));
    }

    #[test]
    fn workers_drain_the_job_pool_sharded() {
        for shards in [4usize, 16] {
            let mut b = ParallelRuntime::builder(job_program())
                .threads(4)
                .shards(shards)
                .seed(1);
            for j in 0..200i64 {
                b = b.tuple(tuple![Value::atom("job"), j]);
            }
            for _ in 0..8 {
                b = b.spawn("Worker", vec![]);
            }
            let (report, ds) = b.build().unwrap().run().unwrap();
            assert!(report.outcome.is_completed(), "{:?}", report.outcome);
            assert_eq!(report.commits, 200, "shards={shards}");
            assert_eq!(ds.len(), 200);
            assert!(!ds.contains_match(&sdl_tuple::pattern![Value::atom("job"), any]));
        }
    }

    #[test]
    fn delayed_consumers_wait_for_producers() {
        let program = CompiledProgram::from_source(
            "process Consumer(n) {
                exists v : <item, v>! => <got, n, v>;
             }
             process Producer(n) {
                -> <item, n>;
             }",
        )
        .unwrap();
        for shards in [1usize, 8] {
            let mut b = ParallelRuntime::builder(program.clone())
                .threads(4)
                .shards(shards)
                .seed(2);
            for n in 0..20i64 {
                b = b.spawn("Consumer", vec![Value::Int(n)]);
            }
            for n in 0..20i64 {
                b = b.spawn("Producer", vec![Value::Int(n)]);
            }
            let (report, ds) = b.build().unwrap().run().unwrap();
            assert!(report.outcome.is_completed(), "{:?}", report.outcome);
            assert_eq!(
                ds.count_matches(&sdl_tuple::pattern![Value::atom("got"), any, any]),
                20,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn quiescence_detected() {
        let program =
            CompiledProgram::from_source("process Waiter() { <never> => skip; }").unwrap();
        for shards in [1usize, 4] {
            let b = ParallelRuntime::builder(program.clone())
                .threads(2)
                .shards(shards)
                .spawn("Waiter", vec![])
                .spawn("Waiter", vec![]);
            let (report, _) = b.build().unwrap().run().unwrap();
            match report.outcome {
                Outcome::Quiescent { blocked } => assert_eq!(blocked.len(), 2),
                other => panic!("expected quiescence at shards={shards}, got {other:?}"),
            }
        }
    }

    #[test]
    fn step_limit_halts_without_advancing() {
        // Hitting the cap used to surface as a plain failure, so an
        // immediate loop guard advanced as if its query had legitimately
        // failed — the worker dropped out of its loop and the report
        // claimed completion. The cap must halt the process where it
        // stands and report a step limit.
        let mut b = ParallelRuntime::builder(job_program())
            .threads(1)
            .seed(5)
            .limits(crate::RunLimits { max_attempts: 3 });
        for j in 0..10i64 {
            b = b.tuple(tuple![Value::atom("job"), j]);
        }
        b = b.spawn("Worker", vec![]);
        let (report, ds) = b.build().unwrap().run().unwrap();
        assert!(
            matches!(report.outcome, Outcome::StepLimit),
            "{:?}",
            report.outcome
        );
        assert_eq!(report.commits, 3, "one commit per allowed attempt");
        // The capped attempt neither committed nor advanced: every
        // commit consumed exactly one job, nothing else changed.
        assert_eq!(
            ds.count_matches(&sdl_tuple::pattern![Value::atom("job"), any]),
            7
        );
        assert_eq!(
            ds.count_matches(&sdl_tuple::pattern![Value::atom("done"), any]),
            3
        );
    }

    #[test]
    fn consensus_is_rejected() {
        let program = CompiledProgram::from_source("process P() { <x> @> skip; }").unwrap();
        let r = ParallelRuntime::builder(program).spawn("P", vec![]).build();
        assert!(matches!(r, Err(RuntimeError::Unsupported(_))));
    }

    #[test]
    fn replication_is_rejected() {
        let program = CompiledProgram::from_source("process P() { par { <x>! -> skip } }").unwrap();
        let r = ParallelRuntime::builder(program).spawn("P", vec![]).build();
        assert!(matches!(r, Err(RuntimeError::Unsupported(_))));
    }

    #[test]
    fn agrees_with_serial_scheduler() {
        // Pairwise summation: any schedule leaves the same total.
        let src = "process W() {
            loop { exists a, b : <v, a>!, <v, b>! -> <v, a + b> }
        }";
        let expected: i64 = (1..=64).sum();
        let program = CompiledProgram::from_source(src).unwrap();
        for shards in [1usize, 4, 16] {
            let mut b = ParallelRuntime::builder(program.clone())
                .threads(4)
                .shards(shards)
                .seed(3);
            for k in 1..=64i64 {
                b = b.tuple(tuple![Value::atom("v"), k]);
            }
            for _ in 0..4 {
                b = b.spawn("W", vec![]);
            }
            let (report, ds) = b.build().unwrap().run().unwrap();
            assert!(report.outcome.is_completed());
            assert_eq!(ds.len(), 1, "shards={shards}");
            let (_, t) = ds.iter().next().unwrap();
            assert_eq!(t[1], Value::Int(expected), "shards={shards}");
        }
    }

    #[test]
    fn conflict_counter_sees_contention() {
        // Many workers fighting over one hot tuple.
        let src = "process W() {
            loop { exists c : <counter, c>! : c < 200 -> <counter, c + 1> }
        }";
        let program = CompiledProgram::from_source(src).unwrap();
        let mut b = ParallelRuntime::builder(program)
            .threads(4)
            .seed(4)
            .tuple(tuple![Value::atom("counter"), 0i64]);
        for _ in 0..4 {
            b = b.spawn("W", vec![]);
        }
        let (report, ds) = b.build().unwrap().run().unwrap();
        assert!(report.outcome.is_completed());
        assert!(ds.contains_match(&sdl_tuple::pattern![Value::atom("counter"), 200]));
        assert_eq!(report.commits, 200);
    }

    #[test]
    fn shard_commit_metrics_follow_the_partition() {
        // Each drain commit retracts a <job,·> and asserts a <done,·>, so
        // its write footprint is exactly {shard(job), shard(done)} and
        // the per-shard commit counters must sum accordingly.
        let shards = 4usize;
        let s_job = shard_of_tuple(&tuple![Value::atom("job"), 0], shards);
        let s_done = shard_of_tuple(&tuple![Value::atom("done"), 0], shards);
        let per_commit = if s_job == s_done { 1 } else { 2 };
        let (metrics, registry) = Metrics::registry();
        let mut b = ParallelRuntime::builder(job_program())
            .threads(4)
            .shards(shards)
            .seed(7)
            .metrics(metrics);
        for j in 0..100i64 {
            b = b.tuple(tuple![Value::atom("job"), j]);
        }
        for _ in 0..4 {
            b = b.spawn("Worker", vec![]);
        }
        let (report, _) = b.build().unwrap().run().unwrap();
        assert!(report.outcome.is_completed());
        assert_eq!(report.commits, 100);
        let total: u64 = (0..shards)
            .map(|s| registry.shard_counter(s, ShardCounter::Commits))
            .sum();
        assert_eq!(total, 100 * per_commit);
        assert!(registry.shard_counter(s_job, ShardCounter::Commits) >= 100);
        // Untouched shards stay at zero.
        for s in 0..shards {
            if s != s_job && s != s_done {
                assert_eq!(registry.shard_counter(s, ShardCounter::Commits), 0);
            }
        }
    }

    #[test]
    fn metrics_agree_with_report_and_serial_run() {
        // The hot-counter program commits exactly 200 times under ANY
        // schedule, so serial and parallel totals must agree. Whether a
        // validation conflict happens is up to timing; the exploration
        // suite (`conflict_metrics_match_the_report_under_exploration`)
        // proves the conflict case.
        let src = "process W() {
            loop { exists c : <counter, c>! : c < 200 -> <counter, c + 1> }
        }";
        let serial_commits = {
            let program = CompiledProgram::from_source(src).unwrap();
            let mut rt = crate::Runtime::builder(program)
                .tuple(tuple![Value::atom("counter"), 0i64])
                .spawn("W", vec![])
                .build()
                .unwrap();
            let report = rt.run().unwrap();
            report.commits
        };
        assert_eq!(serial_commits, 200);

        let (metrics, registry) = Metrics::registry();
        let program = CompiledProgram::from_source(src).unwrap();
        let mut b = ParallelRuntime::builder(program)
            .threads(8)
            .seed(0)
            .metrics(metrics)
            .tuple(tuple![Value::atom("counter"), 0i64]);
        for _ in 0..8 {
            b = b.spawn("W", vec![]);
        }
        let (report, _) = b.build().unwrap().run().unwrap();
        assert!(report.outcome.is_completed());
        assert_eq!(report.commits, serial_commits);
        assert_eq!(
            registry.counter(Counter::TxnCommittedImmediate),
            report.commits
        );
        assert_eq!(registry.counter(Counter::TxnConflicts), report.conflicts);
        assert!(registry.counter(Counter::TuplesAsserted) > 200);
        assert_eq!(registry.counter(Counter::ProcessesBlocked), 0);
    }
}
