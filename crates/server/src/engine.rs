//! The per-loop request engine: maps decoded wire requests onto the
//! shared [`sdl_dataspace::ShardedDataspace`] through footprint locking.
//!
//! Each event loop owns one `Engine`. Connection state (the parked-op
//! table, the assert buffer, reply routing) is loop-local and
//! lock-free; the store itself is shared, and every op acquires exactly
//! the shard locks its footprint routes to, so ops over disjoint
//! relations on different loops evaluate and commit truly in parallel:
//!
//! * **Batched commits** — consecutive `out` requests buffer into one
//!   `apply_batch` under one write footprint, flushed before the first
//!   read-type op needs to observe them (per-connection program order).
//! * **Zero-polling parks** — blocking ops register claimable
//!   [`Waiter`] stubs in the shared wake router ([`NetShared`]) under
//!   the commit-epoch park protocol ([`sdl_core::commit`]), so a parked
//!   request costs nothing until a commit publishes one of its keys —
//!   no matter which loop commits it.
//! * **Cross-loop wakes** — a commit's wake scan claims waiters
//!   exactly once; wakes for this loop retry inline in [`Engine::finish`],
//!   wakes for other loops travel through their mailboxes and surface
//!   here via [`Engine::deliver_wakes`]. The engine never touches an
//!   fd: it accumulates a kick mask the event loop turns into wake-fd
//!   writes, keeping the whole protocol explorable.
//! * **Eager disconnect cleanup** — parked requests are indexed by
//!   connection; closing one removes its blocked entries immediately
//!   (stubs in the routers are claimed, so remote wake scans drop them
//!   lazily), and `sdl_blocked_queue_depth` returns to baseline.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use sdl_core::commit::{Decision, Runner};
use sdl_core::program::{compile_txn, CompiledTxn};
use sdl_core::txn::resolve_atoms;
use sdl_dataspace::{
    first_match, Action, BatchOutcome, ShardSet, ShardWriteView, TupleSource, WatchKey, WatchSet,
};
use sdl_lang::ast::TxnKind;
use sdl_lang::parse_transaction;
use sdl_metrics::{Counter, Gauge, Hist, LoopCounter, Metrics};
use sdl_tuple::{Pattern, ProcId, Tuple, Value};

use crate::shared::{NetShared, Waiter, Wake};
use crate::wire::{Request, Response};

pub(crate) use crate::shared::ConnId;

/// A reply destined for `(conn, req_id)`.
pub type Reply = (ConnId, u64, Response);

// Client-owned tuples get ProcIds in a reserved high range so they can
// never collide with in-process society pids.
const CONN_PID_BASE: u64 = 1 << 62;

/// Most compiled transactions one engine keeps. Source text is client
/// input — one that inlines its constants sends a new text per request —
/// so the cache must not grow with it; a real client's statement
/// vocabulary is a handful.
const TXN_CACHE_MAX: usize = 1024;

#[derive(Debug)]
enum ParkedOp {
    In(Pattern),
    Rd(Pattern),
    Txn {
        txn: Arc<CompiledTxn>,
        env: HashMap<String, Value>,
    },
}

struct ParkedLocal {
    op: ParkedOp,
    /// The claimable stub registered in the shared wake routers.
    waiter: Arc<Waiter>,
}

/// One op attempt's verdict.
enum Attempt {
    Done(Response),
    /// Query does not (currently) hold; park on these keys, re-checking
    /// the epoch read before the probe that failed ([`NetShared::park`]).
    /// For transactions the set was probed inside the read-lock scope.
    Park(Vec<WatchKey>, u64),
}

/// The per-loop request engine over the shared sharded store.
pub struct Engine {
    shared: Arc<NetShared>,
    loop_id: usize,
    metrics: Metrics,
    // Buffered `out` asserts awaiting the next flush, plus their acks.
    pending: Vec<Action>,
    pending_acks: Vec<(ConnId, u64)>,
    parked: HashMap<(ConnId, u64), ParkedLocal>,
    by_conn: HashMap<ConnId, HashSet<u64>>,
    // Compiled-transaction cache keyed by source text, at most
    // TXN_CACHE_MAX entries.
    txn_cache: HashMap<String, Arc<CompiledTxn>>,
    // Local park counter; waiter seqs interleave it across loops.
    park_seq: u64,
    // Wakes claimed for this loop (by its own commits or delivered via
    // the mailbox), pending retry in finish().
    wake_queue: VecDeque<Wake>,
    // Loops whose mailboxes this engine's commits filled since the last
    // take_kicks(); the event loop turns bits into wake-fd kicks.
    kick_mask: u64,
}

impl Engine {
    /// Creates a standalone single-loop engine over a fresh sharded
    /// store (the embedded/test configuration).
    pub fn new(metrics: Metrics) -> Engine {
        Engine::over(Arc::new(NetShared::new(4, 1, metrics)), 0)
    }

    /// Creates the engine for event loop `loop_id` over shared state.
    pub fn over(shared: Arc<NetShared>, loop_id: usize) -> Engine {
        let metrics = shared.metrics.clone();
        Engine {
            shared,
            loop_id,
            metrics,
            pending: Vec::new(),
            pending_acks: Vec::new(),
            parked: HashMap::new(),
            by_conn: HashMap::new(),
            txn_cache: HashMap::new(),
            park_seq: 0,
            wake_queue: VecDeque::new(),
            kick_mask: 0,
        }
    }

    /// Requests parked on blocking ops *on this loop*.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Live tuples in the (shared) store.
    pub fn store_len(&self) -> usize {
        self.shared.sds.len()
    }

    /// Unclaimed waiter stubs in the shared wake routers (leak check in
    /// tests).
    pub fn wake_index_len(&self) -> usize {
        self.shared.live_stubs()
    }

    /// Loops whose wake fds must be kicked for mailbox handoffs this
    /// engine produced since the last call (bitmask by loop id).
    pub(crate) fn take_kicks(&mut self) -> u64 {
        std::mem::take(&mut self.kick_mask)
    }

    /// Handles one decoded request. `out` buffers; read-type ops flush
    /// the buffer first so a pipelined `out … inp` sequence observes
    /// program order. Replies append to `replies` in completion order.
    ///
    /// On a follower (read-only) engine, mutating requests never reach
    /// the store: they answer `NotLeader` with the leader's address.
    /// `rd`/`rdp` serve (and park) normally — the replication apply
    /// thread's commits wake parked readers like any other commit.
    pub fn submit(&mut self, conn: ConnId, req_id: u64, req: Request, replies: &mut Vec<Reply>) {
        self.metrics.inc(op_counter(&req));
        self.metrics
            .add_loop(self.loop_id, LoopCounter::Requests, 1);
        if self.shared.redirect.is_some() && mutates(&req) {
            let leader = self.shared.redirect.clone().unwrap_or_default();
            self.metrics.inc(Counter::ReplNotLeaderRedirects);
            replies.push((conn, req_id, Response::NotLeader(leader)));
            return;
        }
        match req {
            Request::Ping => replies.push((conn, req_id, Response::Ok)),
            Request::Out(t) => {
                self.pending.push(Action::Assert(conn_pid(conn), t));
                self.pending_acks.push((conn, req_id));
            }
            Request::Inp(p) => {
                self.flush(replies);
                let resp = match self.take_match(&p) {
                    Some(t) => Response::Tuple(t),
                    None => Response::Failed,
                };
                replies.push((conn, req_id, resp));
            }
            Request::Rdp(p) => {
                self.flush(replies);
                let resp = match self.read_match(&p) {
                    Some(t) => Response::Tuple(t),
                    None => Response::Failed,
                };
                replies.push((conn, req_id, resp));
            }
            Request::In(p) => {
                self.flush(replies);
                self.run_blocking(conn, req_id, ParkedOp::In(p), true, replies);
            }
            Request::Rd(p) => {
                self.flush(replies);
                self.run_blocking(conn, req_id, ParkedOp::Rd(p), true, replies);
            }
            Request::Txn { source, env } => {
                self.flush(replies);
                let env: HashMap<String, Value> = env.into_iter().collect();
                match self.compile(&source) {
                    Err(msg) => replies.push((conn, req_id, Response::Error(msg))),
                    Ok(txn) => {
                        self.run_blocking(conn, req_id, ParkedOp::Txn { txn, env }, true, replies);
                    }
                }
            }
            Request::Cancel(target) => {
                if self.unpark(conn, target).is_some() {
                    replies.push((conn, target, Response::Cancelled));
                    replies.push((conn, req_id, Response::Ok));
                } else {
                    replies.push((conn, req_id, Response::Failed));
                }
            }
        }
    }

    /// Ends a batch: flushes buffered asserts and retries every wake
    /// claimed for this loop to a fixpoint (a woken transaction's
    /// effects may wake further parks, here or on other loops).
    pub fn finish(&mut self, replies: &mut Vec<Reply>) {
        self.flush(replies);
        while let Some(w) = self.wake_queue.pop_front() {
            // May have been cancelled/disconnected since the claim; the
            // local table is authoritative.
            let Some(op) = self.unpark(w.conn, w.req_id) else {
                continue;
            };
            self.metrics.inc(Counter::WakeupCommit);
            let progressed = self.run_blocking(w.conn, w.req_id, op, false, replies);
            self.metrics.inc(if progressed {
                Counter::WakeProgress
            } else {
                Counter::WakeSpurious
            });
        }
    }

    /// Feeds cross-loop wakes drained from this loop's mailbox and runs
    /// them (plus anything they cascade into) to completion.
    pub fn deliver_wakes(&mut self, wakes: Vec<Wake>, replies: &mut Vec<Reply>) {
        self.wake_queue.extend(wakes);
        self.finish(replies);
    }

    /// Drops every parked request belonging to `conn` (client went
    /// away); returns how many were cancelled.
    pub fn disconnect(&mut self, conn: ConnId) -> usize {
        let Some(reqs) = self.by_conn.remove(&conn) else {
            return 0;
        };
        let n = reqs.len();
        for req_id in reqs {
            if let Some(pl) = self.parked.remove(&(conn, req_id)) {
                pl.waiter.claim();
                self.shared.parked_sub();
                self.metrics.add_gauge(Gauge::BlockedQueueDepth, -1);
            }
        }
        n
    }

    // -- commit path ------------------------------------------------------

    /// The engine's one way to change the store: the shared commit
    /// function under the `fp` write footprint, then wake delivery (this
    /// loop's wake queue, or the owner's mailbox plus the kick mask).
    /// `None` when `decide` applied nothing.
    ///
    /// A WAL failure is fatal: the store has already applied the batch,
    /// so a leader that cannot log it must not stay up and acknowledge.
    fn commit(
        &mut self,
        fp: ShardSet,
        decide: impl FnOnce(&ShardWriteView<'_>) -> Decision,
    ) -> Option<BatchOutcome> {
        let done = self.shared.commit(fp, decide).unwrap_or_else(|e| {
            panic!("wal write failed; cannot acknowledge unlogged commits: {e}")
        })?;
        let (local, kicks) = self.shared.route(self.loop_id, done.woken);
        self.wake_queue.extend(local);
        self.kick_mask |= kicks;
        Some(done.out)
    }

    fn flush(&mut self, replies: &mut Vec<Reply>) {
        if self.pending.is_empty() {
            return;
        }
        self.metrics
            .observe(Hist::NetBatchSize, self.pending.len() as f64);
        let actions = std::mem::take(&mut self.pending);
        let mut fp = ShardSet::new();
        for a in &actions {
            match a {
                Action::Assert(_, t) => fp.insert(self.shared.sds.shard_of_tuple(t)),
                Action::Retract(id) => fp.insert(self.shared.sds.shard_of_id(*id)),
            }
        }
        self.commit(fp, |_| Decision::Apply(actions));
        for (conn, req_id) in std::mem::take(&mut self.pending_acks) {
            replies.push((conn, req_id, Response::Ok));
        }
    }

    /// The write footprint of everything `p` could match.
    fn pattern_footprint(&self, p: &Pattern) -> ShardSet {
        match self.shared.sds.shard_of_pattern(p) {
            Some(s) => {
                let mut fp = ShardSet::new();
                fp.insert(s);
                fp
            }
            None => self.shared.sds.all_shards(),
        }
    }

    /// Probe-and-retract under one write footprint, so no concurrent
    /// loop can take the same instance.
    fn take_match(&mut self, p: &Pattern) -> Option<Tuple> {
        let out = self.commit(self.pattern_footprint(p), |view| {
            match first_match(view, p) {
                Some(id) => Decision::Apply(vec![Action::Retract(id)]),
                None => Decision::Skip,
            }
        })?;
        out.retracted.into_iter().next().map(|(_, t)| t)
    }

    fn read_match(&self, p: &Pattern) -> Option<Tuple> {
        let fp = self.pattern_footprint(p);
        let view = self.shared.sds.read_shards(fp);
        let id = first_match(&view, p)?;
        view.tuple(id).cloned()
    }

    // -- transactions -----------------------------------------------------

    fn compile(&mut self, source: &str) -> Result<Arc<CompiledTxn>, String> {
        if let Some(txn) = self.txn_cache.get(source) {
            return Ok(Arc::clone(txn));
        }
        let parsed = parse_transaction(source).map_err(|e| format!("parse error: {e}"))?;
        // No process signatures: a wire transaction cannot spawn.
        let txn =
            compile_txn(&parsed, &HashMap::new()).map_err(|e| format!("compile error: {e}"))?;
        let txn = Arc::new(txn);
        // Full: start over. Parked transactions hold their own `Arc`, and
        // a live statement is back after one more compilation.
        if self.txn_cache.len() >= TXN_CACHE_MAX {
            self.txn_cache.clear();
        }
        self.txn_cache.insert(source.to_owned(), Arc::clone(&txn));
        Ok(txn)
    }

    /// One transaction to its verdict through the shared attempt halves
    /// ([`sdl_core::commit::Committer::evaluate`] and `decide`), retrying
    /// on conflict. A wire transaction has no process: it reads the whole
    /// store, exports everything, and an `abort` applies nothing.
    fn attempt_txn(
        &mut self,
        conn: ConnId,
        txn: &CompiledTxn,
        env: &HashMap<String, Value>,
    ) -> Attempt {
        // Held apart from `self`: the closure `decide` returns borrows it
        // across `self.commit`.
        let shared = Arc::clone(&self.shared);
        let run = Runner {
            pid: conn_pid(conn),
            view: None,
            env,
            builtins: &shared.builtins,
        };
        // Resolved once: footprint, evaluation and park subscription of
        // every retry read the same patterns.
        let atoms = resolve_atoms(txn, env, run.builtins);
        let delayed = txn.kind == TxnKind::Delayed;
        let park: &[&CompiledTxn] = if delayed { &[txn] } else { &[] };
        let (sds, committer) = (&shared.sds, &shared.committer);
        loop {
            let mut p = match committer.evaluate(sds, txn, &atoms, &run, park, 0) {
                Err(e) => return Attempt::Done(Response::Error(format!("eval error: {e}"))),
                Ok(Err((watch, epoch))) if delayed => {
                    return Attempt::Park(watch.iter().copied().collect(), epoch)
                }
                Ok(Err(_)) => return Attempt::Done(Response::Failed),
                Ok(Ok(p)) => p,
            };
            if p.abort {
                return Attempt::Done(Response::Failed);
            }
            let (fp, decide) = committer.decide(sds, &run, txn.kind, &mut p);
            if self.commit(fp, decide).is_some() {
                return Attempt::Done(Response::Ok);
            }
        }
    }

    // -- park / wake ------------------------------------------------------

    fn attempt_op(&mut self, conn: ConnId, op: &ParkedOp) -> Attempt {
        // The epoch is read before the probe's locks (tuple fields
        // evaluate left to right): a commit landing after this read either
        // serialises behind them (the probe sees its effects) or bumps the
        // epoch (the park re-check retries). Either way no wakeup is lost.
        let (epoch, found, p) = match op {
            ParkedOp::Txn { txn, env } => return self.attempt_txn(conn, txn, env),
            ParkedOp::In(p) => (self.shared.epoch(), self.take_match(p), p),
            ParkedOp::Rd(p) => (self.shared.epoch(), self.read_match(p), p),
        };
        match found {
            Some(t) => Attempt::Done(Response::Tuple(t)),
            None => Attempt::Park(exact_keys(p), epoch),
        }
    }

    /// Runs a blocking-capable op to its verdict: a final reply, or a
    /// park under the commit-epoch protocol (retrying inline whenever
    /// the epoch re-check says a commit raced the registration).
    /// `notify_park` marks a fresh request: it pushes the interim
    /// `Parked` response, and at the shared parked-request limit it is
    /// refused with an error instead. Wake retries pass `false` (the
    /// client already has its `Parked`) and always re-park.
    /// Returns whether the op completed with a final response.
    fn run_blocking(
        &mut self,
        conn: ConnId,
        req_id: u64,
        op: ParkedOp,
        notify_park: bool,
        replies: &mut Vec<Reply>,
    ) -> bool {
        loop {
            match self.attempt_op(conn, &op) {
                Attempt::Done(resp) => {
                    replies.push((conn, req_id, resp));
                    return true;
                }
                Attempt::Park(..)
                    if notify_park && self.shared.parked_total() >= self.shared.max_parked =>
                {
                    self.metrics.inc(Counter::NetBackpressureStalls);
                    let msg = "parked-request limit reached".to_owned();
                    replies.push((conn, req_id, Response::Error(msg)));
                    return true;
                }
                Attempt::Park(keys, eval_epoch) => {
                    self.park_seq += 1;
                    let seq = self.park_seq * self.shared.n_loops() as u64 + self.loop_id as u64;
                    let waiter = Arc::new(Waiter::new(self.loop_id, conn, req_id, seq));
                    if self.shared.park(&waiter, &keys, eval_epoch) {
                        self.parked
                            .insert((conn, req_id), ParkedLocal { op, waiter });
                        self.by_conn.entry(conn).or_default().insert(req_id);
                        self.shared.parked_add();
                        self.metrics.inc(Counter::ProcessesBlocked);
                        self.metrics.add_gauge(Gauge::BlockedQueueDepth, 1);
                        if notify_park {
                            replies.push((conn, req_id, Response::Parked));
                        }
                        return false;
                    }
                    // Epoch moved and we claimed our own stub: retry.
                }
            }
        }
    }

    fn unpark(&mut self, conn: ConnId, req_id: u64) -> Option<ParkedOp> {
        let pl = self.parked.remove(&(conn, req_id))?;
        // Mark the router stubs stale; if a committer claimed first its
        // wake is in flight and will miss the (now empty) table — fine.
        pl.waiter.claim();
        if let Some(reqs) = self.by_conn.get_mut(&conn) {
            reqs.remove(&req_id);
            if reqs.is_empty() {
                self.by_conn.remove(&conn);
            }
        }
        self.shared.parked_sub();
        self.metrics.add_gauge(Gauge::BlockedQueueDepth, -1);
        Some(pl.op)
    }
}

/// The exact-wake subscription for a plain `in`/`rd` pattern.
fn exact_keys(p: &Pattern) -> Vec<WatchKey> {
    let mut watch = WatchSet::new();
    watch.add_pattern_exact(p);
    watch.iter().copied().collect()
}

fn conn_pid(conn: ConnId) -> ProcId {
    ProcId(CONN_PID_BASE | conn)
}

/// Whether a request can change the store. Transactions count even when
/// their body happens to be read-only: classifying one would need
/// compilation, and a follower must never run anything that could
/// retract or assert.
fn mutates(req: &Request) -> bool {
    matches!(
        req,
        Request::Out(_) | Request::In(_) | Request::Inp(_) | Request::Txn { .. }
    )
}

fn op_counter(req: &Request) -> Counter {
    match req {
        Request::Out(_) => Counter::NetReqOut,
        Request::In(_) => Counter::NetReqIn,
        Request::Rd(_) => Counter::NetReqRd,
        Request::Inp(_) => Counter::NetReqInp,
        Request::Rdp(_) => Counter::NetReqRdp,
        Request::Txn { .. } => Counter::NetReqTxn,
        Request::Ping | Request::Cancel(_) => Counter::NetReqOther,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_metrics::ShardCounter;
    use sdl_tuple::{pattern, tuple};

    fn engine() -> Engine {
        Engine::new(Metrics::disabled())
    }

    fn drain(replies: &mut Vec<Reply>) -> Vec<Reply> {
        std::mem::take(replies)
    }

    #[test]
    fn out_batches_and_inp_flushes() {
        let (metrics, registry) = Metrics::registry();
        let mut e = Engine::new(metrics);
        let mut r = Vec::new();
        e.submit(1, 1, Request::Out(tuple![Value::atom("m"), 1]), &mut r);
        e.submit(1, 2, Request::Out(tuple![Value::atom("m"), 2]), &mut r);
        assert!(r.is_empty(), "outs buffer until a flush point");
        e.submit(1, 3, Request::Inp(pattern![Value::atom("m"), 1]), &mut r);
        let got = drain(&mut r);
        // Out acks first (commit order), then the inp result.
        assert_eq!(got[0], (1, 1, Response::Ok));
        assert_eq!(got[1], (1, 2, Response::Ok));
        assert_eq!(got[2], (1, 3, Response::Tuple(tuple![Value::atom("m"), 1])));
        e.finish(&mut r);
        assert_eq!(e.store_len(), 1);
        // The flush and the take went through the instrumented commit
        // function: one shard's commit counter and the lock-wait timer
        // moved, once per commit.
        let shard_commits: u64 = (0..4)
            .map(|s| registry.shard_counter(s, ShardCounter::Commits))
            .sum();
        assert_eq!(shard_commits, 2);
        assert_eq!(registry.hist_count(Hist::ShardLockWaitSeconds), 2);
    }

    #[test]
    fn parked_in_served_by_later_out() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(1, 1, Request::In(pattern![Value::atom("job"), any]), &mut r);
        e.finish(&mut r);
        assert_eq!(drain(&mut r), vec![(1, 1, Response::Parked)]);
        assert_eq!(e.parked_len(), 1);

        e.submit(2, 1, Request::Out(tuple![Value::atom("job"), 9]), &mut r);
        e.finish(&mut r);
        let got = drain(&mut r);
        assert!(got.contains(&(2, 1, Response::Ok)));
        assert!(got.contains(&(1, 1, Response::Tuple(tuple![Value::atom("job"), 9]))));
        assert_eq!(e.parked_len(), 0);
        assert_eq!(e.wake_index_len(), 0, "subscription cleaned on wake");
        assert_eq!(e.store_len(), 0, "in retracts");
    }

    #[test]
    fn one_tuple_wakes_exactly_one_of_two_waiters() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(1, 1, Request::In(pattern![Value::atom("t"), any]), &mut r);
        e.submit(2, 1, Request::In(pattern![Value::atom("t"), any]), &mut r);
        e.finish(&mut r);
        drain(&mut r);
        e.submit(3, 1, Request::Out(tuple![Value::atom("t"), 0]), &mut r);
        e.finish(&mut r);
        let got = drain(&mut r);
        let tuples: Vec<_> = got
            .iter()
            .filter(|(_, _, resp)| matches!(resp, Response::Tuple(_)))
            .collect();
        assert_eq!(tuples.len(), 1, "{got:?}");
        // FIFO: the first parker wins.
        assert_eq!(tuples[0].0, 1);
        assert_eq!(e.parked_len(), 1, "second waiter stays parked");
    }

    #[test]
    fn disconnect_clears_parked_state() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(5, 1, Request::In(pattern![Value::atom("x"), any]), &mut r);
        e.submit(5, 2, Request::Rd(pattern![Value::atom("y"), any]), &mut r);
        e.finish(&mut r);
        assert_eq!(e.parked_len(), 2);
        assert_eq!(e.disconnect(5), 2);
        assert_eq!(e.parked_len(), 0);
        assert_eq!(e.wake_index_len(), 0);
        // A later matching out wakes nothing and leaves the tuple.
        drain(&mut r);
        e.submit(6, 1, Request::Out(tuple![Value::atom("x"), 1]), &mut r);
        e.finish(&mut r);
        assert_eq!(e.store_len(), 1);
    }

    #[test]
    fn txn_roundtrip_and_delayed_park() {
        let mut e = engine();
        let mut r = Vec::new();
        // Immediate txn against an empty store fails cleanly.
        e.submit(
            1,
            1,
            Request::Txn {
                source: "exists a : <year, a>! : a > 87 -> <found, a>".to_owned(),
                env: vec![],
            },
            &mut r,
        );
        e.finish(&mut r);
        assert_eq!(drain(&mut r), vec![(1, 1, Response::Failed)]);

        // Delayed txn parks, then a matching out completes it.
        e.submit(
            1,
            2,
            Request::Txn {
                source: "exists a : <year, a>! : a > 87 => <found, a>".to_owned(),
                env: vec![],
            },
            &mut r,
        );
        e.finish(&mut r);
        assert_eq!(drain(&mut r), vec![(1, 2, Response::Parked)]);

        e.submit(2, 1, Request::Out(tuple![Value::atom("year"), 90]), &mut r);
        e.finish(&mut r);
        let got = drain(&mut r);
        assert!(got.contains(&(1, 2, Response::Ok)), "{got:?}");
        assert_eq!(e.parked_len(), 0);
        // year retracted, found asserted.
        e.submit(
            3,
            1,
            Request::Rdp(pattern![Value::atom("found"), 90]),
            &mut r,
        );
        e.finish(&mut r);
        assert!(matches!(r[0].2, Response::Tuple(_)));
    }

    /// Wire transactions count their attempts, commits and failures by
    /// mode, as every executor does.
    #[test]
    fn txn_counts_attempts_commits_and_failures() {
        let (metrics, registry) = Metrics::registry();
        let mut e = Engine::new(metrics);
        let mut r = Vec::new();
        e.submit(1, 1, Request::Out(tuple![Value::atom("year"), 80]), &mut r);
        e.submit(
            1,
            2,
            txn("exists a : <year, a>! -> <found, a>", &[]),
            &mut r,
        );
        e.submit(
            1,
            3,
            txn("exists a : <year, a>! -> <found, a>", &[]),
            &mut r,
        );
        e.submit(
            1,
            4,
            txn("exists a : <year, a>! => <found, a>", &[]),
            &mut r,
        );
        e.finish(&mut r);
        e.submit(2, 1, Request::Out(tuple![Value::atom("year"), 90]), &mut r);
        e.finish(&mut r);
        let got = drain(&mut r);
        for reply in [
            (1, 2, Response::Ok),
            (1, 3, Response::Failed),
            (1, 4, Response::Ok),
        ] {
            assert!(got.contains(&reply), "{got:?}");
        }
        let counts = [
            (Counter::TxnAttemptsImmediate, 2),
            (Counter::TxnCommittedImmediate, 1),
            (Counter::TxnFailedImmediate, 1),
            (Counter::TxnAttemptsDelayed, 2),
            (Counter::TxnCommittedDelayed, 1),
            (Counter::TxnFailedDelayed, 1),
        ];
        for (c, n) in counts {
            assert_eq!(registry.counter(c), n, "{c:?}");
        }
    }

    fn txn(source: &str, env: &[(&str, i64)]) -> Request {
        Request::Txn {
            source: source.to_owned(),
            env: env
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Value::Int(*v)))
                .collect(),
        }
    }

    #[test]
    fn exists_txn_visits_the_tuples_it_uses() {
        let (metrics, registry) = Metrics::registry();
        let mut e = Engine::new(metrics);
        let mut r = Vec::new();
        for j in 0..1000 {
            e.submit(
                1,
                j,
                Request::Out(tuple![Value::atom("job"), 7, j as i64]),
                &mut r,
            );
        }
        e.submit(
            1,
            1000,
            Request::Out(tuple![Value::atom("worker"), 7]),
            &mut r,
        );
        e.finish(&mut r);
        drain(&mut r);
        let lookups = || -> u64 {
            [
                Counter::IndexHitArg1,
                Counter::IndexHitFunctor,
                Counter::IndexHitArity,
                Counter::IndexHitValue,
                Counter::IndexHitIntersect,
            ]
            .into_iter()
            .map(|c| registry.counter(c))
            .sum()
        };
        let (lookups0, visited0) = (lookups(), registry.counter(Counter::MatchCandidates));

        let claim = "exists j : <job, w, j>!, <worker, w> -> <done, w, j>";
        e.submit(2, 1, txn(claim, &[("w", 7)]), &mut r);
        e.finish(&mut r);
        assert_eq!(drain(&mut r), vec![(2, 1, Response::Ok)]);
        // One lookup per atom, and of the 1 000-entry posting the one
        // candidate that was taken.
        assert_eq!(lookups() - lookups0, 2);
        assert!(registry.counter(Counter::MatchCandidates) - visited0 <= 2);
        // First match is the smallest id: the job asserted first.
        e.submit(
            2,
            2,
            Request::Rdp(pattern![Value::atom("done"), 7, any]),
            &mut r,
        );
        e.submit(
            2,
            3,
            Request::Rdp(pattern![Value::atom("job"), 7, 0]),
            &mut r,
        );
        assert_eq!(
            drain(&mut r),
            vec![
                (2, 2, Response::Tuple(tuple![Value::atom("done"), 7, 0])),
                (2, 3, Response::Failed),
            ]
        );
    }

    #[test]
    fn retract_pair_takes_distinct_instances() {
        let mut e = engine();
        let mut r = Vec::new();
        for i in 0..3 {
            e.submit(
                1,
                i,
                Request::Out(tuple![Value::atom("t"), i as i64]),
                &mut r,
            );
        }
        e.submit(
            1,
            9,
            txn("exists a, b : <t, a>!, <t, b>! -> <pair, a, b>", &[]),
            &mut r,
        );
        e.submit(
            1,
            10,
            Request::Rdp(pattern![Value::atom("pair"), any, any]),
            &mut r,
        );
        let got = drain(&mut r);
        // Both atoms stream the same posting from its start; the second
        // skips the instance the first one holds.
        assert_eq!(got[3], (1, 9, Response::Ok));
        assert_eq!(
            got[4],
            (1, 10, Response::Tuple(tuple![Value::atom("pair"), 0, 1]))
        );
        assert_eq!(
            e.store_len(),
            2,
            "two of three <t, _> taken, one pair asserted"
        );
    }

    #[test]
    fn txn_cache_is_bounded_and_parked_txns_survive_its_reset() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(1, 1, txn("exists a : <late, a>! => <got, a>", &[]), &mut r);
        assert_eq!(drain(&mut r), vec![(1, 1, Response::Parked)]);
        // A client that inlines its constants: every request a new text.
        for i in 0..10 * TXN_CACHE_MAX {
            let source = format!("exists j : <job, {i}, j>! -> <done, {i}, j>");
            e.submit(2, i as u64, txn(&source, &[]), &mut r);
            assert!(e.txn_cache.len() <= TXN_CACHE_MAX);
        }
        assert!(drain(&mut r)
            .iter()
            .all(|(_, _, resp)| *resp == Response::Failed));
        // The parked transaction's source left the cache long ago.
        e.submit(3, 1, Request::Out(tuple![Value::atom("late"), 5]), &mut r);
        e.finish(&mut r);
        assert!(drain(&mut r).contains(&(1, 1, Response::Ok)));
        e.submit(3, 2, Request::Rdp(pattern![Value::atom("got"), 5]), &mut r);
        assert!(matches!(r[0].2, Response::Tuple(_)));
    }

    #[test]
    fn cancel_releases_parked_op() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(
            1,
            1,
            Request::In(pattern![Value::atom("never"), any]),
            &mut r,
        );
        e.finish(&mut r);
        drain(&mut r);
        e.submit(1, 2, Request::Cancel(1), &mut r);
        e.finish(&mut r);
        let got = drain(&mut r);
        assert!(got.contains(&(1, 1, Response::Cancelled)));
        assert!(got.contains(&(1, 2, Response::Ok)));
        assert_eq!(e.parked_len(), 0);
        assert_eq!(e.wake_index_len(), 0);
        // Cancelling a non-parked id fails cleanly.
        e.submit(1, 3, Request::Cancel(77), &mut r);
        assert_eq!(r[0], (1, 3, Response::Failed));
    }

    #[test]
    fn spawn_rejected_over_wire() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(
            1,
            1,
            Request::Txn {
                source: "-> spawn W(1)".to_owned(),
                env: vec![],
            },
            &mut r,
        );
        e.finish(&mut r);
        assert!(
            matches!(&r[0].2, Response::Error(_)),
            "spawn must be rejected: {r:?}"
        );
    }

    // A wire transaction has no process: `abort` applies nothing and
    // answers Failed, `exit` and `let` have nothing to act on.

    #[test]
    fn abort_over_wire_fails_and_applies_nothing() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(1, 1, Request::Out(tuple![Value::atom("poison")]), &mut r);
        e.submit(1, 2, txn("<poison>! -> abort", &[]), &mut r);
        e.submit(1, 3, Request::Rdp(pattern![Value::atom("poison")]), &mut r);
        assert_eq!(
            drain(&mut r),
            vec![
                (1, 1, Response::Ok),
                (1, 2, Response::Failed),
                (1, 3, Response::Tuple(tuple![Value::atom("poison")])),
            ]
        );
    }

    #[test]
    fn exit_over_wire_commits_the_actions() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(1, 1, Request::Out(tuple![Value::atom("a")]), &mut r);
        e.submit(1, 2, txn("<a>! -> <b>, exit", &[]), &mut r);
        e.submit(1, 3, Request::Rdp(pattern![Value::atom("a")]), &mut r);
        e.submit(1, 4, Request::Rdp(pattern![Value::atom("b")]), &mut r);
        assert_eq!(
            drain(&mut r),
            vec![
                (1, 1, Response::Ok),
                (1, 2, Response::Ok),
                (1, 3, Response::Failed),
                (1, 4, Response::Tuple(tuple![Value::atom("b")])),
            ]
        );
        assert_eq!(e.store_len(), 1);
    }

    #[test]
    fn let_over_wire_changes_nothing() {
        let mut e = engine();
        let mut r = Vec::new();
        e.submit(1, 1, txn("-> let N = 1", &[]), &mut r);
        e.finish(&mut r);
        assert_eq!(drain(&mut r), vec![(1, 1, Response::Ok)]);
        assert_eq!(e.store_len(), 0);
    }

    #[test]
    fn a_fresh_park_at_the_limit_is_refused_and_wake_retries_are_not() {
        let (metrics, registry) = Metrics::registry();
        let mut shared = NetShared::new(4, 1, metrics);
        shared.set_max_parked(1);
        let mut e = Engine::over(Arc::new(shared), 0);
        let mut r = Vec::new();
        e.submit(
            1,
            1,
            txn("exists a : <t, a>! : a > 1 => <got, a>", &[]),
            &mut r,
        );
        e.submit(1, 2, Request::In(pattern![Value::atom("t"), any]), &mut r);
        let refused = Response::Error("parked-request limit reached".to_owned());
        assert_eq!(
            drain(&mut r),
            vec![(1, 1, Response::Parked), (1, 2, refused)]
        );
        // The woken txn finds no match and re-parks although at the limit.
        e.submit(2, 1, Request::Out(tuple![Value::atom("t"), 0]), &mut r);
        e.finish(&mut r);
        assert_eq!(drain(&mut r), vec![(2, 1, Response::Ok)]);
        assert_eq!(registry.counter(Counter::WakeSpurious), 1);
        assert_eq!(e.parked_len(), 1);
        assert_eq!(registry.counter(Counter::NetBackpressureStalls), 1);
    }

    #[test]
    fn two_engines_hand_wakes_across_loops() {
        // Two engines over one NetShared, as two event loops would own
        // them: a park on loop 1 is woken by a commit on loop 0 through
        // the mailbox + kick mask.
        let shared = Arc::new(NetShared::new(4, 2, Metrics::disabled()));
        let mut e0 = Engine::over(Arc::clone(&shared), 0);
        let mut e1 = Engine::over(Arc::clone(&shared), 1);
        let mut r = Vec::new();

        e1.submit(
            10,
            1,
            Request::In(pattern![Value::atom("job"), any]),
            &mut r,
        );
        e1.finish(&mut r);
        assert_eq!(drain(&mut r), vec![(10, 1, Response::Parked)]);

        e0.submit(20, 1, Request::Out(tuple![Value::atom("job"), 5]), &mut r);
        e0.finish(&mut r);
        assert_eq!(drain(&mut r), vec![(20, 1, Response::Ok)]);
        assert_eq!(e0.take_kicks(), 1 << 1, "loop 1 must be kicked");

        let wakes = shared.drain_mailbox(1);
        assert_eq!(wakes.len(), 1);
        e1.deliver_wakes(wakes, &mut r);
        assert_eq!(
            drain(&mut r),
            vec![(10, 1, Response::Tuple(tuple![Value::atom("job"), 5]))]
        );
        assert_eq!(e1.parked_len(), 0);
        assert_eq!(shared.parked_total(), 0);
        assert_eq!(shared.live_stubs(), 0);
    }

    #[test]
    fn disconnect_while_wake_in_flight_drops_the_wake() {
        let shared = Arc::new(NetShared::new(4, 2, Metrics::disabled()));
        let mut e0 = Engine::over(Arc::clone(&shared), 0);
        let mut e1 = Engine::over(Arc::clone(&shared), 1);
        let mut r = Vec::new();

        e1.submit(
            10,
            1,
            Request::In(pattern![Value::atom("job"), any]),
            &mut r,
        );
        e1.finish(&mut r);
        e0.submit(20, 1, Request::Out(tuple![Value::atom("job"), 5]), &mut r);
        e0.finish(&mut r);
        // The wake sits in loop 1's mailbox; the client disconnects
        // before delivery.
        e1.disconnect(10);
        assert_eq!(shared.parked_total(), 0);
        drain(&mut r);
        e1.deliver_wakes(shared.drain_mailbox(1), &mut r);
        assert_eq!(drain(&mut r), vec![], "stale wake is dropped");
        // The tuple stays for someone else.
        e1.submit(
            11,
            1,
            Request::Inp(pattern![Value::atom("job"), any]),
            &mut r,
        );
        assert!(matches!(r[0].2, Response::Tuple(_)));
    }
}
