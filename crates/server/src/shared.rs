//! State shared by every event-loop worker: the sharded store, the
//! commit function with its wake router, and the per-loop mailboxes that
//! carry cross-loop wakes.
//!
//! This module is the server's *protocol core*: it is built exclusively
//! on [`sdl_sync`] primitives so the whole cross-loop handoff — park,
//! commit, claim, mailbox push, epoch re-check — is explorable under the
//! deterministic scheduler. The park/wake protocol itself (and the
//! argument that it loses no wakeup) is [`sdl_core::commit`]'s; what
//! this module adds is *delivery*: a claimed wake goes to its owner
//! inline or through exactly one mailbox. File descriptors never appear
//! here; the event loop layers the wake-fd kick on top of the kick mask
//! this module returns, and the exploration tests drive the mailboxes
//! directly.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sdl_core::commit::{Committed, Committer, Decision, Slot, WakeRouter};
use sdl_core::{Builtins, Tracer};
use sdl_dataspace::{ShardSet, ShardWriteView, ShardedDataspace, WatchKey, WatchSet};
use sdl_durability::{Wal, WalError};
use sdl_lang::ast::TxnKind;
use sdl_metrics::{LoopCounter, Metrics};
use sdl_sync::{AtomicUsize, Mutex};
use sdl_tuple::ProcId;

/// Connection identifier, unique across all loops.
pub(crate) type ConnId = u64;

/// What the wake router holds for a parked request: the loop whose
/// mailbox a cross-loop wake must go to, and the wake itself.
type Target = (usize, Wake);

/// A parked request's claimable stub in the wake router. The owning
/// loop's engine keeps the op itself; the stub only carries the address
/// a wake must be delivered to, and taking it is what makes delivery
/// exactly-once.
#[derive(Debug)]
pub struct Waiter(Arc<Slot<Target>>);

impl Waiter {
    /// A fresh, unclaimed stub for request `req_id` of `conn`, owned by
    /// loop `loop_id`. `seq` is the park order across loops (local seq
    /// interleaved by loop id), for FIFO retry fairness within one
    /// commit's wake set.
    pub fn new(loop_id: usize, conn: ConnId, req_id: u64, seq: u64) -> Waiter {
        Waiter(Slot::new((loop_id, Wake { conn, req_id, seq })))
    }

    /// Claims the stub; true exactly once across all claimants.
    pub(crate) fn claim(&self) -> bool {
        self.0.claim().is_some()
    }
}

/// A claimed wake addressed to one loop's engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wake {
    /// Connection the parked request belongs to.
    pub(crate) conn: ConnId,
    /// The parked request id.
    pub(crate) req_id: u64,
    /// The waiter's park seq (FIFO retry order).
    pub(crate) seq: u64,
}

/// Everything the event-loop workers share. One instance per server.
pub struct NetShared {
    /// The sharded store.
    pub sds: ShardedDataspace,
    /// Shared metrics handle.
    pub(crate) metrics: Metrics,
    /// The commit function, its wake router and (on a durable leader)
    /// the write-ahead log. A follower's state is the shipped log, so it
    /// runs without one.
    pub(crate) committer: Committer<Target>,
    /// The host functions wire transactions call.
    pub(crate) builtins: Builtins,
    /// Per-loop mailboxes of cross-loop wakes.
    mailboxes: Vec<Mutex<Vec<Wake>>>,
    /// Requests parked across every loop.
    parked_total: AtomicUsize,
    /// At or above this many parked requests, a fresh park is refused.
    pub(crate) max_parked: usize,
    /// Open connections per loop (least-connections placement input).
    conns: Vec<AtomicUsize>,
    /// Round-robin cursor among equally loaded loops.
    rr: AtomicUsize,
    n_loops: usize,
    /// Follower mode: the leader's client address. When set, engines
    /// answer every mutating request with `Response::NotLeader` carrying
    /// this address instead of touching the store.
    pub(crate) redirect: Option<String>,
}

impl NetShared {
    /// Creates shared state for `n_loops` event loops over `shards`
    /// store shards.
    pub fn new(shards: usize, n_loops: usize, metrics: Metrics) -> NetShared {
        NetShared::with_mutant(shards, n_loops, metrics, false)
    }

    /// [`NetShared::new`] with the router's lost-wakeup mutant toggled
    /// ([`WakeRouter::testing_skip_park_recheck`]). Test-only by
    /// convention.
    pub fn with_mutant(
        shards: usize,
        n_loops: usize,
        metrics: Metrics,
        skip_park_recheck: bool,
    ) -> NetShared {
        let shards = shards.clamp(1, sdl_dataspace::MAX_SHARDS);
        let n_loops = n_loops.max(1);
        let mut sds = ShardedDataspace::new(shards);
        sds.set_metrics(metrics.clone());
        let router = WakeRouter::new(shards).testing_skip_park_recheck(skip_park_recheck);
        NetShared {
            sds,
            committer: Committer::new(router, metrics.clone(), Tracer::disabled()),
            builtins: Builtins::standard(),
            metrics,
            mailboxes: (0..n_loops).map(|_| Mutex::new(Vec::new())).collect(),
            parked_total: AtomicUsize::new(0),
            max_parked: usize::MAX,
            conns: (0..n_loops).map(|_| AtomicUsize::new(0)).collect(),
            rr: AtomicUsize::new(0),
            n_loops,
            redirect: None,
        }
    }

    /// Attaches a write-ahead log (and its background snapshot writer).
    /// Must run before the state is shared — i.e. before any engine
    /// commits — so every commit is logged.
    pub(crate) fn attach_wal(&mut self, wal: Arc<Wal>) {
        self.committer.attach_wal(wal);
    }

    /// The attached write-ahead log (leader durability), if any.
    pub(crate) fn wal(&self) -> Option<&Arc<Wal>> {
        self.committer.wal()
    }

    /// Drains the background snapshot writer and syncs the WAL (server
    /// shutdown).
    ///
    /// # Errors
    ///
    /// The first snapshot-write or fsync failure.
    pub(crate) fn finish_durable(&self) -> Result<(), WalError> {
        self.committer.finish()
    }

    /// Marks this state read-only (follower mode): mutating requests
    /// are redirected to the leader at `leader_addr`.
    pub(crate) fn set_redirect(&mut self, leader_addr: String) {
        self.redirect = Some(leader_addr);
    }

    /// Limits the requests parked across every loop: at or above `n`, a
    /// fresh park is answered with an error.
    pub(crate) fn set_max_parked(&mut self, n: usize) {
        self.max_parked = n;
    }

    /// Number of event loops sharing this state.
    pub(crate) fn n_loops(&self) -> usize {
        self.n_loops
    }

    /// Current commit epoch.
    pub fn epoch(&self) -> u64 {
        self.committer.router.epoch()
    }

    /// Bumps the epoch (see [`WakeRouter::bump_epoch`]).
    pub fn bump_epoch(&self) {
        self.committer.router.bump_epoch();
    }

    /// Commits one batch through the shared commit function; the caller
    /// owns the returned wakes and must [`Self::route`] them.
    ///
    /// # Errors
    ///
    /// A WAL append or fsync failure (see [`Committer::commit`]).
    pub(crate) fn commit(
        &self,
        fp: ShardSet,
        decide: impl FnOnce(&ShardWriteView<'_>) -> Decision,
    ) -> Result<Option<Committed<Target>>, WalError> {
        self.committer
            .commit(&self.sds, fp, 0, ProcId::ENV, TxnKind::Immediate, decide)
    }

    // -- park / wake ------------------------------------------------------

    /// Parks `waiter` on `keys` (see [`WakeRouter::park`]). Returns
    /// `true` when the request is parked; `false` when the epoch moved
    /// since `eval_epoch` and this call claimed the waiter back — the
    /// caller must retry the op inline instead of sleeping.
    ///
    /// An empty `keys` parks unwakeably (no store change can ever
    /// satisfy the op); such requests complete only via cancel or
    /// disconnect.
    pub fn park(&self, waiter: &Arc<Waiter>, keys: &[WatchKey], eval_epoch: u64) -> bool {
        self.committer
            .router
            .park(&waiter.0, keys.to_vec(), eval_epoch)
            .is_none()
    }

    /// Wake scan for a commit by `my_loop` that changed `changed_shards`
    /// and published `changed`, routed as `Self::route` does. Must run
    /// after [`Self::bump_epoch`].
    pub fn wake(
        &self,
        my_loop: usize,
        changed: &WatchSet,
        changed_shards: ShardSet,
    ) -> (Vec<Wake>, u64) {
        self.route(my_loop, self.committer.router.wake(changed, changed_shards))
    }

    /// Delivers claimed wakes: returns those owned by `my_loop` (sorted
    /// by park seq) and pushes the rest into their loops' mailboxes,
    /// returning a bitmask of the loops that must be kicked.
    pub(crate) fn route(
        &self,
        my_loop: usize,
        mut woken: Vec<(WatchKey, Target)>,
    ) -> (Vec<Wake>, u64) {
        // FIFO fairness within this commit's wake set.
        woken.sort_by_key(|(_, (_, wake))| wake.seq);
        let mut local = Vec::new();
        let mut kick_mask = 0u64;
        for (_, (loop_id, wake)) in woken {
            if loop_id == my_loop {
                local.push(wake);
            } else {
                self.mailboxes[loop_id].lock().push(wake);
                kick_mask |= 1u64 << (loop_id % 64);
                self.metrics.add_loop(loop_id, LoopCounter::WakeHandoffs, 1);
            }
        }
        (local, kick_mask)
    }

    /// Drains `loop_id`'s mailbox: the cross-loop wakes other loops'
    /// commits claimed on its behalf since the last drain.
    pub fn drain_mailbox(&self, loop_id: usize) -> Vec<Wake> {
        std::mem::take(&mut *self.mailboxes[loop_id].lock())
    }

    /// Unclaimed waiter stubs across the router (leak check in tests;
    /// claimed stubs are logically dead and dropped lazily).
    pub fn live_stubs(&self) -> usize {
        let mut n = 0;
        self.committer.router.visit(|_| n += 1);
        n
    }

    // -- parked-request limit ---------------------------------------------

    /// Notes one more locally parked request.
    pub(crate) fn parked_add(&self) {
        self.parked_total.fetch_add(1, Ordering::SeqCst);
    }

    /// Notes one fewer locally parked request.
    pub(crate) fn parked_sub(&self) {
        self.parked_total.fetch_sub(1, Ordering::SeqCst);
    }

    /// Requests parked across every loop.
    pub fn parked_total(&self) -> usize {
        self.parked_total.load(Ordering::SeqCst)
    }

    // -- placement --------------------------------------------------------

    /// Picks the loop for a new connection: the one with the fewest open
    /// connections, round-robin among ties.
    pub(crate) fn pick_loop(&self) -> usize {
        if self.n_loops == 1 {
            return 0;
        }
        let rr = self.rr.fetch_add(1, Ordering::SeqCst);
        let min = (0..self.n_loops)
            .map(|l| self.conns[l].load(Ordering::SeqCst))
            .min()
            .unwrap_or(0);
        let tied: Vec<usize> = (0..self.n_loops)
            .filter(|&l| self.conns[l].load(Ordering::SeqCst) == min)
            .collect();
        tied[rr % tied.len()]
    }

    /// Notes a connection opened on `loop_id`.
    pub(crate) fn conn_opened(&self, loop_id: usize) {
        self.conns[loop_id].fetch_add(1, Ordering::SeqCst);
    }

    /// Notes a connection closed on `loop_id`.
    pub(crate) fn conn_closed(&self, loop_id: usize) {
        self.conns[loop_id].fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_dataspace::shards_of_watch_key;
    use sdl_tuple::{pattern, Value};

    fn waiter(loop_id: usize, conn: ConnId, req: u64, seq: u64) -> Arc<Waiter> {
        Arc::new(Waiter::new(loop_id, conn, req, seq))
    }

    fn keys_of(p: &sdl_tuple::Pattern) -> Vec<WatchKey> {
        let mut w = WatchSet::new();
        w.add_pattern_exact(p);
        w.iter().copied().collect()
    }

    #[test]
    fn cross_loop_wake_lands_in_target_mailbox() {
        let sh = NetShared::new(4, 2, Metrics::disabled());
        let p = pattern![Value::atom("job"), any];
        let keys = keys_of(&p);
        let w = waiter(1, 7, 3, 1);
        let epoch = sh.epoch();
        assert!(sh.park(&w, &keys, epoch));
        assert_eq!(sh.live_stubs(), keys.len());

        // A commit on loop 0 publishing the key hands the wake to loop 1.
        let mut watch = WatchSet::new();
        watch.add_pattern_exact(&p);
        let mut shards = ShardSet::new();
        for k in &keys {
            shards.extend(shards_of_watch_key(k, 4));
        }
        sh.bump_epoch();
        let (local, kicks) = sh.wake(0, &watch, shards);
        assert!(local.is_empty());
        assert_eq!(kicks, 1u64 << 1);
        let delivered = sh.drain_mailbox(1);
        assert_eq!(
            delivered,
            vec![Wake {
                conn: 7,
                req_id: 3,
                seq: 1
            }]
        );
        assert_eq!(sh.live_stubs(), 0, "claimed stubs are dead");
    }

    #[test]
    fn park_recheck_catches_racing_commit() {
        let sh = NetShared::new(4, 1, Metrics::disabled());
        let p = pattern![Value::atom("job"), any];
        let keys = keys_of(&p);
        let epoch = sh.epoch();
        sh.bump_epoch(); // a commit lands between probe and park
        let w = waiter(0, 1, 1, 1);
        assert!(!sh.park(&w, &keys, epoch), "parker must retry inline");
        assert!(!w.claim(), "the re-check took the stub");
        // The mutant reverts the re-check: the same race parks.
        let sh = NetShared::with_mutant(4, 1, Metrics::disabled(), true);
        let epoch = sh.epoch();
        sh.bump_epoch();
        let w = waiter(0, 1, 1, 1);
        assert!(sh.park(&w, &keys, epoch), "mutant sleeps through the race");
    }

    #[test]
    fn placement_takes_the_least_loaded_loop() {
        let sh = NetShared::new(8, 4, Metrics::disabled());
        sh.conn_opened(0);
        sh.conn_opened(1);
        let l = sh.pick_loop();
        assert!(l == 2 || l == 3, "least-connections wins: got {l}");
        // Ties go round-robin: eight placements fill the loops evenly.
        sh.conn_opened(2);
        sh.conn_opened(3);
        let mut placed = [0; 4];
        for _ in 0..8 {
            let l = sh.pick_loop();
            sh.conn_opened(l);
            placed[l] += 1;
        }
        assert_eq!(placed, [2; 4]);
    }
}
