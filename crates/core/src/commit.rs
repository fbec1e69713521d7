//! The one sharded commit function, the one transaction attempt over
//! shard locks, and the one park/wake router.
//!
//! The paper has one state-changing primitive — the atomic transaction —
//! and one way to wait — a delayed transaction blocks until some commit
//! enables it. Over a [`ShardedDataspace`] both are decided here and
//! nowhere else: [`Committer::commit`] is the only place a shard write
//! epoch is taken, and [`WakeRouter`] is the only place a waiter is
//! registered, re-checked, claimed or woken. The threaded executor
//! ([`crate::parallel`]), the networked server's per-loop engines and the
//! follower's apply thread each supply a footprint, a closure deciding
//! the batch under the locks, and what to do with the payloads a commit
//! wakes. A transaction attempt is two halves both the threaded executor
//! and the server run: [`Committer::evaluate`] (read locks, window, the
//! read step, then effects outside the locks) and [`Committer::decide`]
//! (the write footprint and the closure that validates, builds and
//! counts the batch); each caller keeps its own retry loop. The read
//! step — evaluation, park subscription, attempt and failure counts —
//! is `Runner::read` on every executor: the serial and rounds schedulers
//! run it through the window they keep. They park in a one-shard router
//! too, pid-ordered through their own registry: they commit in place and
//! never bump its epoch, so their parks take the re-check's quiet path.
//!
//! ## The commit sequence
//!
//! write-lock the footprint → the caller's closure decides under the
//! locks ([`Decision`]) → `apply_batch` → mint the commit id and publish
//! it on the footprint's shards → append the WAL record → drop the locks
//! → bump the epoch → claim the woken waiters → fsync and offer a
//! snapshot. The WAL append happens while the write footprint is still
//! held: any conflicting commit is ordered behind these locks, so the
//! log's append order is a valid serialisation of the run
//! (disjoint-footprint commits commute). The fsync waits until the locks
//! drop, letting concurrent committers share one (group commit).
//!
//! ## The no-lost-wakeup argument
//!
//! The race: a commit lands *after* a waiter's failed evaluation but
//! *before* the waiter is visible in the router — the commit's wake scan
//! would miss it.
//!
//! 1. A parker reads the epoch **before** its failed evaluation takes its
//!    locks, registers its [`Slot`] under every shard its watch keys
//!    route to, then re-reads the epoch. If it moved, some commit may
//!    have run entirely between the evaluation and the registration: the
//!    parker claims its own slot back and re-evaluates instead of
//!    sleeping (the registrations left behind are stale stubs).
//! 2. A committer bumps the epoch **after** its write locks drop and
//!    **before** scanning the router. A slot registered too late for the
//!    scan belongs to a parker that is guaranteed to observe the new
//!    epoch in step 1. A commit that lands after the parker's first
//!    epoch read is either serialised behind the evaluation's locks (the
//!    evaluation saw its effects) or bumps the epoch.
//! 3. A slot's payload can be taken exactly once, so a waiter is
//!    delivered to exactly one of: a waking commit, its own re-check, an
//!    explicit [`Slot::claim`] (cancel, disconnect), or the end-of-run
//!    [`WakeRouter::drain`] — never two, never none.
//!
//! [`WakeRouter::testing_skip_park_recheck`] reverts step 1's re-check,
//! seeding the lost-wakeup mutant the exploration suites must catch.
//!
//! Keys are registered shard by shard and scanned in sorted order, and
//! every index is an ordered map, so the lock-acquisition and claim
//! sequence is a function of the schedule alone — what the `sdl-sync`
//! explorer's replay needs.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sdl_dataspace::{
    shard_of_watch_key, shards_of_watch_key, Action, BatchOutcome, ShardSet, ShardWriteView,
    ShardedDataspace, SolveLimits, TupleSource, WatchKey, WatchSet,
};
use sdl_durability::{Snapshotter, Wal, WalError};
use sdl_lang::ast::TxnKind;
use sdl_metrics::{Counter, Hist, Metrics, ShardCounter};
use sdl_sync::{AtomicU64, Mutex, Ordering};
use sdl_tuple::{ProcId, Tuple, TupleId, Value};

use crate::builtins::Builtins;
use crate::error::RuntimeError;
use crate::parallel::{pending_write_footprint, read_footprint};
use crate::program::CompiledTxn;
use crate::trace::{self, SpanPhase, TraceRecord, Tracer, Track};
use crate::txn::{self, EvalProbe, Pending, QueryOutcome, ResolvedAtoms};
use crate::view::{CompiledView, QuerySource};

/// A parked payload, shared between every router list its watch keys
/// route to. Exactly one claimant takes the payload; what stays behind
/// in the lists is a stale stub, dropped when its key wakes or its
/// shard is swept.
#[derive(Debug)]
pub struct Slot<T>(Mutex<Option<T>>);

impl<T> Slot<T> {
    /// A fresh, unclaimed slot holding `payload`.
    pub fn new(payload: T) -> Arc<Slot<T>> {
        Arc::new(Slot(Mutex::new(Some(payload))))
    }

    /// Takes the payload; `Some` for exactly one claimant.
    pub fn claim(&self) -> Option<T> {
        self.0.lock().take()
    }

    /// Runs `f` on the payload under the slot's lock; `None` once it is
    /// claimed. A claimant takes the payload under the same lock, so
    /// what `f` writes is seen by whoever claims next.
    pub(crate) fn peek<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        self.0.lock().as_mut().map(f)
    }

    fn live(self: &Arc<Self>) -> bool {
        self.0.lock().is_some()
    }
}

type SlotList<T> = Vec<Arc<Slot<T>>>;

/// A shard sweeps before a park registers in it once it holds this many
/// registrations beyond twice what its last sweep kept.
const SWEEP_SLACK: usize = 64;

/// One shard's reverse index with its registration counts.
#[derive(Debug)]
struct Shard<T> {
    lists: BTreeMap<WatchKey, SlotList<T>>,
    /// Registrations held, claimed stubs included.
    stubs: usize,
    /// Registrations the last sweep kept.
    kept: usize,
}

/// The park/wake protocol over per-shard reverse indexes, generic over
/// what a wake delivers (see the module docs for the protocol argument).
#[derive(Debug)]
pub struct WakeRouter<T> {
    /// Bumped (SeqCst) after every commit's locks drop, before its wake
    /// scan.
    epoch: AtomicU64,
    /// One reverse index per shard, following the wake-routing
    /// partition: a commit that changed shard *s* looks up only its
    /// published keys in `shards[s]`. A key-indexed hit already implies
    /// the watch intersects the change, so no per-entry test remains.
    shards: Vec<Mutex<Shard<T>>>,
    /// Parks with no watch key. No commit can wake them; they are held
    /// so [`Self::visit`] and [`Self::drain`] still find them.
    keyless: Mutex<SlotList<T>>,
    skip_park_recheck: bool,
}

impl<T> WakeRouter<T> {
    /// An empty router over `n_shards` shards at epoch 0.
    pub fn new(n_shards: usize) -> WakeRouter<T> {
        WakeRouter {
            epoch: AtomicU64::new(0),
            shards: (0..n_shards)
                .map(|_| {
                    Mutex::new(Shard {
                        lists: BTreeMap::new(),
                        stubs: 0,
                        kept: 0,
                    })
                })
                .collect(),
            keyless: Mutex::default(),
            skip_park_recheck: false,
        }
    }

    /// Test-only fault injection: disables [`Self::park`]'s epoch
    /// re-check, reintroducing the lost-wakeup window the protocol
    /// closes, so the exploration suites can prove they would catch a
    /// regression of it. Never set it in real runs.
    #[doc(hidden)]
    pub fn testing_skip_park_recheck(mut self, on: bool) -> WakeRouter<T> {
        self.skip_park_recheck = on;
        self
    }

    /// Current commit epoch. Read it *before* an evaluation takes its
    /// locks and hand it to [`Self::park`] if the evaluation fails.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Publishes a commit. Must run after the commit's write locks drop
    /// and before its [`Self::wake`].
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Registers `slot` under `keys` — functor and value keys in the one
    /// shard that can publish them, arity keys in every shard — and
    /// re-checks the epoch against `eval_epoch`. Returns the payload when
    /// the epoch moved and this call claimed it back: the caller must
    /// re-evaluate instead of sleeping. `None` means parked (or already
    /// claimed by a waking commit, whose delivery is on its way).
    ///
    /// A `wake` drops only its published key's list, so a claimed slot's
    /// stubs under its other keys stay behind. Before registering in a
    /// shard that holds 64 registrations beyond twice what its last
    /// sweep kept, the park drops every claimed stub and emptied key
    /// there: the sweep's cost is paid for by the parks since the last.
    pub fn park(&self, slot: &Arc<Slot<T>>, mut keys: Vec<WatchKey>, eval_epoch: u64) -> Option<T> {
        let n = self.shards.len();
        keys.sort_unstable();
        let mut routed = ShardSet::new();
        keys.iter()
            .for_each(|k| routed.extend(shards_of_watch_key(k, n)));
        for s in routed.iter() {
            let mut shard = self.shards[s].lock();
            if shard.stubs >= 2 * shard.kept + SWEEP_SLACK {
                shard.lists.retain(|_, list| {
                    list.retain(Slot::live);
                    !list.is_empty()
                });
                shard.stubs = shard.lists.values().map(Vec::len).sum();
                shard.kept = shard.stubs;
            }
            for key in keys.iter().filter(|k| routes_to(k, n, s)) {
                shard.stubs += 1;
                shard.lists.entry(*key).or_default().push(Arc::clone(slot));
            }
        }
        if keys.is_empty() {
            let mut keyless = self.keyless.lock();
            keyless.retain(Slot::live);
            keyless.push(Arc::clone(slot));
        }
        if !self.skip_park_recheck && self.epoch() != eval_epoch {
            return slot.claim();
        }
        None
    }

    /// Claims every waiter subscribed to one of `changed`'s keys in the
    /// `changed_shards` indexes, returning each payload with the key that
    /// woke it. Must run after the commit's [`Self::bump_epoch`].
    pub fn wake(&self, changed: &WatchSet, changed_shards: ShardSet) -> Vec<(WatchKey, T)> {
        let mut woken = Vec::new();
        if changed.is_empty() {
            return woken;
        }
        let n = self.shards.len();
        for s in changed_shards.iter() {
            let mut shard = self.shards[s].lock();
            // A routable key wakes through its own shard's index; an
            // arity key is registered in every shard, so any changed
            // shard's index covers it — later shards just drop the stubs
            // the first one claimed.
            for key in changed.iter().filter(|k| routes_to(k, n, s)) {
                let Some(list) = shard.lists.remove(key) else {
                    continue;
                };
                shard.stubs -= list.len();
                woken.extend(list.iter().filter_map(|slot| Some((*key, slot.claim()?))));
            }
        }
        woken
    }

    fn for_each_slot(&self, mut f: impl FnMut(&Slot<T>)) {
        for shard in &self.shards {
            shard.lock().lists.values().flatten().for_each(|s| f(s));
        }
        self.keyless.lock().iter().for_each(|s| f(s));
    }

    /// Visits every unclaimed registration under its slot's lock, once
    /// per key and shard it sits under (a claimant takes the payload
    /// under the same lock, so what `f` writes is seen by whoever claims
    /// next).
    pub fn visit(&self, mut f: impl FnMut(&mut T)) {
        self.for_each_slot(|slot| {
            slot.peek(&mut f);
        });
    }

    /// Claims everything still parked (end of run).
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_slot(|slot| out.extend(slot.claim()));
        out
    }
}

/// True if `key`'s registrations live in shard `s` of `n`.
fn routes_to(key: &WatchKey, n: usize, s: usize) -> bool {
    shard_of_watch_key(key, n).is_none_or(|r| r == s)
}

/// What a commit closure decided under the write locks.
#[derive(Debug)]
pub enum Decision {
    /// Apply this batch.
    Apply(Vec<Action>),
    /// The evidence an earlier evaluation relied on no longer holds: a
    /// concurrent commit won. Nothing is applied; the conflict is counted
    /// and traced against the batch it lost to.
    Conflict,
    /// Nothing to do (a probe found no match). Nothing is applied.
    Skip,
}

/// A commit that went through.
#[derive(Debug)]
pub struct Committed<T> {
    /// What the batch retracted and the ids it minted.
    pub out: BatchOutcome,
    /// The watch keys the batch published.
    pub(crate) changed: WatchSet,
    /// The shards the batch actually changed.
    pub changed_shards: ShardSet,
    /// The tracer's commit id (`0` with tracing off).
    pub(crate) commit_id: u64,
    /// The waiters this commit claimed, each with the key that woke it.
    /// They belong to the caller now: deliver every one.
    pub woken: Vec<(WatchKey, T)>,
}

/// Who a transaction attempt runs for: the owner of what it asserts,
/// its constants, its view and the host functions. `view` is `None` for
/// a transaction with no process (a wire request): it reads the whole
/// store and exports everything.
#[derive(Debug)]
pub struct Runner<'a> {
    /// Owner of the asserted tuples.
    pub pid: ProcId,
    /// The process's view, if there is a process.
    pub view: Option<&'a CompiledView>,
    /// The process's constants.
    pub env: &'a HashMap<String, Value>,
    /// Host functions.
    pub builtins: &'a Builtins,
}

impl Runner<'_> {
    /// The one read step of a transaction attempt, on every executor:
    /// evaluates `t` over its resolved `atoms` through `source`, the
    /// window the caller chose (over a sharded store, under its read
    /// locks), and on failure takes the subscriptions of the transactions
    /// in `park` through the same window, reusing `atoms` for `t` itself.
    /// Counts the attempt, and a failure, by mode; `trace` attributes the
    /// eval span.
    ///
    /// `Ok(Err(watch))` is a failed query: what a park after it listens
    /// on.
    ///
    /// # Errors
    ///
    /// A pattern field that cannot evaluate.
    pub(crate) fn read(
        &self,
        t: &CompiledTxn,
        atoms: &ResolvedAtoms,
        source: &dyn TupleSource,
        park: &[&CompiledTxn],
        (metrics, tracer, trace): (&Metrics, &Tracer, u64),
    ) -> Result<Result<QueryOutcome, WatchSet>, RuntimeError> {
        metrics.inc(attempts_counter(t.kind));
        let span = tracer.begin();
        let mut probe = span.map(|_| EvalProbe::new());
        let (env, builtins) = (self.env, self.builtins);
        let limits = SolveLimits::default();
        let query =
            txn::evaluate_resolved(t, atoms, source, env, builtins, limits, probe.as_mut())?;
        let query = query.ok_or_else(|| {
            metrics.inc(failed_counter(t.kind));
            let mut watch = WatchSet::new();
            for &p in park {
                let own = (!std::ptr::eq(p, t)).then(|| txn::resolve_atoms(p, env, builtins));
                let atoms = own.as_ref().unwrap_or(atoms);
                watch.extend(&txn::watch_set_resolved(p, atoms, source));
            }
            watch
        });
        tracer.eval_span(span, probe.as_ref(), trace, self.pid);
        Ok(query)
    }
}

/// The `sdl_txn_attempts_total` series for a transaction mode.
fn attempts_counter(kind: TxnKind) -> Counter {
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
fn failed_counter(kind: TxnKind) -> Counter {
    match kind {
        TxnKind::Immediate => Counter::TxnFailedImmediate,
        TxnKind::Delayed => Counter::TxnFailedDelayed,
        TxnKind::Consensus => Counter::TxnFailedConsensus,
    }
}

/// Everything a sharded commit touches besides the store itself: the
/// wake router it publishes to, the write-ahead log with its background
/// snapshot writer, and the instrumentation.
pub struct Committer<T> {
    /// The park/wake router commits publish to.
    pub router: WakeRouter<T>,
    wal: Option<Arc<Wal>>,
    /// Commit threads capture the store and hand it off here instead of
    /// serialising the snapshot inline.
    snapshotter: Mutex<Option<Snapshotter>>,
    metrics: Metrics,
    tracer: Tracer,
}

impl<T> Committer<T> {
    /// A committer without a write-ahead log.
    pub fn new(router: WakeRouter<T>, metrics: Metrics, tracer: Tracer) -> Committer<T> {
        Committer {
            router,
            wal: None,
            snapshotter: Mutex::new(None),
            metrics,
            tracer,
        }
    }

    /// Attaches a write-ahead log and its background snapshot writer.
    /// Must run before the first commit, so every commit is logged.
    pub fn attach_wal(&mut self, wal: Arc<Wal>) {
        *self.snapshotter.lock() = Some(Snapshotter::new(Arc::clone(&wal)));
        self.wal = Some(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Commits one batch over `sds` under the `fp` write footprint (the
    /// sequence in the module docs). `decide` runs under the locks, so
    /// what it validates or probes is exactly the state the batch applies
    /// to. `trace`, `pid` and `kind` attribute the trace records.
    ///
    /// Returns `None` when `decide` did not return [`Decision::Apply`].
    ///
    /// # Errors
    ///
    /// A WAL append or fsync failure. The store has already applied the
    /// batch by then, so callers must stop acknowledging.
    pub fn commit(
        &self,
        sds: &ShardedDataspace,
        fp: ShardSet,
        trace: u64,
        pid: ProcId,
        kind: TxnKind,
        decide: impl FnOnce(&ShardWriteView<'_>) -> Decision,
    ) -> Result<Option<Committed<T>>, WalError> {
        let commit_span = self.tracer.begin();
        let lock_timer = self.metrics.start_timer();
        let mut view = sds.write_shards(fp);
        self.metrics
            .observe_timer(Hist::ShardLockWaitSeconds, lock_timer);
        self.tracer
            .span(commit_span, trace, pid, SpanPhase::LockWaitWrite);
        let actions = match decide(&view) {
            Decision::Apply(actions) => actions,
            Decision::Skip => return Ok(None),
            Decision::Conflict => {
                self.metrics.inc(Counter::TxnConflicts);
                for s in fp.iter() {
                    self.metrics.add_shard(s, ShardCounter::Conflicts, 1);
                }
                // Still under the write locks, so the per-shard last-commit
                // markers name a commit serialised before us — the batch
                // this abort lost to.
                self.tracer.record(|t_us| TraceRecord::Conflict {
                    trace,
                    pid,
                    track: Track::current(),
                    against: sds.latest_commit_over(fp),
                    t_us,
                });
                return Ok(None);
            }
        };
        let mut changed = WatchSet::new();
        let (out, changed_shards) = view.apply_batch(actions, &mut changed);
        // Mint the commit id inside the lock scope and publish it on the
        // footprint: any attempt that later aborts against this batch
        // holds an overlapping write lock, so it reads a marker
        // serialised after this store.
        let commit_id = self.tracer.new_commit();
        if commit_id != 0 {
            sds.note_commit(fp, commit_id);
        }
        let asserted = || {
            out.asserted
                .iter()
                .map(|&id| (id, view.tuple(id).expect("just asserted").clone()))
        };
        let wal_commit = match &self.wal {
            Some(wal) => {
                let retracts: Vec<TupleId> = out.retracted.iter().map(|(id, _)| *id).collect();
                let asserts: Vec<(TupleId, Tuple)> = asserted().collect();
                Some(wal.append(&retracts, &asserts)?)
            }
            None => None,
        };
        // The commit record's tuples, read while the view still holds them.
        let traced: Vec<_> = match commit_id {
            0 => Vec::new(),
            _ => asserted().map(|(id, t)| (pid, Some(id), t)).collect(),
        };
        drop(view);
        self.router.bump_epoch();
        for s in fp.iter() {
            self.metrics.add_shard(s, ShardCounter::Commits, 1);
        }
        self.tracer.record(|now| {
            let t0 = commit_span.unwrap_or(now);
            TraceRecord::Commit {
                step: 0,
                trace,
                parts: vec![(pid, kind)],
                track: Track::current(),
                commit: commit_id,
                t_us: t0,
                dur_us: now.saturating_sub(t0),
                keys: trace::watch_labels(&changed),
                shards: fp.iter().collect(),
                retracted: out
                    .retracted
                    .iter()
                    .map(|(id, t)| (pid, *id, t.clone()))
                    .collect(),
                asserted: traced,
            }
        });
        let woken = self.router.wake(&changed, changed_shards);
        if let (Some(wal), Some(commit)) = (&self.wal, wal_commit) {
            // Group commit: if another thread's fsync already covered
            // this commit number, this returns without syncing.
            wal.ensure_durable(commit)?;
            if wal.snapshot_due() {
                self.offer_snapshot(sds, wal);
            }
        }
        Ok(Some(Committed {
            out,
            changed,
            changed_shards,
            commit_id,
            woken,
        }))
    }

    /// The read half of one optimistic attempt of `t` over atoms resolved
    /// once per attempt loop: reads the epoch, read-locks the footprint
    /// (every shard for a restricted import, whose admission tests query
    /// patterns outside the atom list) and runs `Runner::read` through
    /// `run`'s window while the locks are held. Effects (which may run
    /// expensive host functions) are built after the locks drop. `trace`
    /// attributes the spans.
    ///
    /// `Ok(Err((watch, epoch)))` is a failed query: what a park listens
    /// on (the subscriptions of `park`) and the epoch read before the
    /// evaluation, for [`WakeRouter::park`].
    ///
    /// # Errors
    ///
    /// A pattern field or an action argument that cannot evaluate.
    pub fn evaluate(
        &self,
        sds: &ShardedDataspace,
        t: &CompiledTxn,
        atoms: &ResolvedAtoms,
        run: &Runner<'_>,
        park: &[&CompiledTxn],
        trace: u64,
    ) -> Result<Result<Pending, (WatchSet, u64)>, RuntimeError> {
        // The epoch is read before the locks: a commit that lands after
        // this point is either serialised behind our locks (we see its
        // effects) or bumps the epoch (a parker re-checks). Either way no
        // wake-up is lost.
        let epoch = self.router.epoch();
        let fp = match run.view {
            Some(v) if !v.imports_everything() => sds.all_shards(),
            _ => read_footprint(sds, atoms),
        };
        let lock_timer = self.metrics.start_timer();
        let lock_span = self.tracer.begin();
        let view = sds.read_shards(fp);
        self.metrics
            .observe_timer(Hist::ShardLockWaitSeconds, lock_timer);
        self.tracer
            .span(lock_span, trace, run.pid, SpanPhase::LockWaitRead);
        let source = match run.view {
            Some(v) => v.window(&view, run.env, run.builtins),
            None => QuerySource::Full(&view),
        };
        // Probed while the read locks are still held, the emptiness
        // evidence is sound for the state the evaluation just failed
        // against; anything that commits after these locks drop bumps the
        // epoch, so the park re-check retries instead of trusting a stale
        // probe.
        let obs = (&self.metrics, &self.tracer, trace);
        let query = match run.read(t, atoms, &source, park, obs)? {
            Ok(query) => query,
            Err(watch) => return Ok(Err((watch, epoch))),
        };
        drop(view);
        let effects_span = self.tracer.begin();
        let p = txn::build_effects(t, &query, run.env, run.builtins)?;
        self.tracer
            .span(effects_span, trace, run.pid, SpanPhase::Effects);
        Ok(Ok(p))
    }

    /// The write half of an attempt: the footprint `p` commits under
    /// (every shard when a restricted export must filter assertions: its
    /// condition queries range over the whole store) and the closure
    /// [`Self::commit`] runs under those locks. The closure validates
    /// `p` — by the routing invariant the footprint answers as the whole
    /// store would — then retracts, then asserts the tuples `run`'s
    /// export rules admit, owned by `run.pid`. The asserted tuples move
    /// out of `p`. A batch the closure applies counts as one commit of
    /// `kind`.
    pub fn decide<'a>(
        &'a self,
        sds: &ShardedDataspace,
        run: &'a Runner<'a>,
        kind: TxnKind,
        p: &'a mut Pending,
    ) -> (ShardSet, impl FnOnce(&ShardWriteView<'_>) -> Decision + 'a) {
        let filter = run.view.filter(|v| !v.exports_everything());
        let fp = match filter {
            Some(_) if !p.asserts.is_empty() => sds.all_shards(),
            _ => pending_write_footprint(sds, p),
        };
        let asserts = std::mem::take(&mut p.asserts);
        let p = &*p;
        let decide = move |ds: &ShardWriteView<'_>| {
            if !p.validate(ds) {
                return Decision::Conflict;
            }
            let mut actions = Vec::with_capacity(p.retracts.len() + asserts.len());
            actions.extend(p.retracts.iter().map(|&id| Action::Retract(id)));
            // Export filtering runs against the pre-retraction store, so
            // a commit's own retractions cannot disable its exports.
            for tu in asserts {
                if filter.is_none_or(|v| v.exports(&tu, ds, run.env, run.builtins)) {
                    actions.push(Action::Assert(run.pid, tu));
                } else {
                    self.metrics.inc(Counter::ExportDropped);
                }
            }
            self.metrics.inc(committed_counter(kind));
            Decision::Apply(actions)
        };
        (fp, decide)
    }

    /// Hands a due snapshot to the background writer, paying for the
    /// store copy only when the writer would accept it (a declined
    /// snapshot just means the next due point offers again).
    fn offer_snapshot(&self, sds: &ShardedDataspace, wal: &Wal) {
        let snapshotter = self.snapshotter.lock();
        let Some(snap) = snapshotter.as_ref().filter(|s| s.idle()) else {
            return;
        };
        // Appends happen under shard write locks, so under a
        // full-footprint read view the store is exactly the state after
        // the highest appended commit — read `last_appended` while the
        // view is held.
        let view = sds.read_shards(sds.all_shards());
        let commit = wal.last_appended();
        let (cursors, tuples) = view.snapshot_state();
        drop(view);
        snap.offer(commit, cursors, tuples);
    }

    /// Drains the background snapshot writer, then makes whatever the
    /// fsync policy deferred durable — the sync runs even when the
    /// snapshot failed. Call once, after the last commit.
    ///
    /// # Errors
    ///
    /// The first of a snapshot write or fsync failure.
    pub fn finish(&self) -> Result<(), WalError> {
        let snapshotter = self.snapshotter.lock().take();
        let snapshot = snapshotter.map_or(Ok(0), Snapshotter::finish);
        let sync = self.wal.as_ref().map_or(Ok(()), |wal| wal.sync());
        snapshot.and(sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::Atom;

    /// Each slot parks on `<a, i>` and `<b, i>` and is woken through
    /// `<a, i>`, which leaves a claimed stub under `<b, i>` that no
    /// commit will ever clear.
    #[test]
    fn stubs_of_woken_slots_are_swept() {
        let key = |f: &str, i| WatchKey::Value(Atom::new(f), 2, 1, i);
        for shards in [1, 4] {
            let router = WakeRouter::<u64>::new(shards);
            for i in 0..10_000 {
                let slot = Slot::new(i);
                let keys = vec![key("a", i), key("b", i)];
                assert!(router.park(&slot, keys, router.epoch()).is_none());
                let mut changed = WatchSet::new();
                changed.add_key(key("a", i));
                let woken = router.wake(&changed, ShardSet::all(shards));
                assert_eq!(woken, vec![(key("a", i), i)]);
            }
            let mut live = 0;
            router.visit(|_| live += 1);
            let held: usize = router.shards.iter().map(|s| s.lock().stubs).sum();
            let listed: usize = (router.shards.iter())
                .map(|s| s.lock().lists.values().map(Vec::len).sum::<usize>())
                .sum();
            assert_eq!(held, listed, "the count follows the lists");
            assert!(
                held <= 2 * live + SWEEP_SLACK,
                "{shards} shards hold {held}"
            );
        }
    }
}
