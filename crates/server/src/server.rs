//! The non-blocking TCP front-end: an acceptor thread plus N
//! independent event-loop workers over one shared sharded store.
//!
//! Each worker owns its connections end to end — poller registration,
//! socket reads, frame decoding, its [`Engine`], and reply writes — so
//! the only cross-loop contact points are the store's shard locks and
//! the wake mailboxes in [`NetShared`]. Ops over disjoint relations on
//! different loops execute truly in parallel; a commit whose wake
//! belongs to another loop pushes it into that loop's mailbox and kicks
//! its [`WakeFd`], preserving the zero-polling guarantee across loops.
//!
//! The acceptor only accepts: it places each new connection on the
//! least-loaded loop (round-robin among ties) and hands it over with a
//! vector push plus a wake-fd kick. Every socket read and write happens
//! in `event_loop`, the `SDLNET01` handshake included: a connection's
//! first 8 bytes must be the magic, which is echoed in the same pass
//! that decodes whatever frames followed it.
//!
//! Each loop is shaped for pipelined load: each readiness pass reads
//! what the socket holds straight into the connection's buffer, decodes
//! *every* complete frame where it lies, runs the lot through the
//! engine as one batch, frames the replies in place, and writes them
//! with one `write` per connection. A client that stops draining
//! replies pauses that connection's reads until its write buffer falls
//! below half of [`ServerConfig::write_buf_limit`]; a fresh park at
//! [`ServerConfig::max_parked`] (across all loops) is refused with an
//! error. Both count `sdl_net_backpressure_stalls_total`.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sdl_core::commit::Decision;
use sdl_dataspace::{Action, ShardSet};
use sdl_durability::{recover, CommitRecord, FsyncPolicy, Wal, WalConfig, WalError};
use sdl_metrics::{Counter, Gauge, Hist, Metrics};
use sdl_replication::{serve_ship, FollowEvent, FollowerConn, ShipConfig, ShipServer};
use sdl_tuple::TupleId;

use crate::conn::{FillOutcome, ReadBuf, WriteBuf};
use crate::engine::{Engine, Reply};
use crate::poll::{Interest, PollEvent, Poller};
use crate::shared::NetShared;
use crate::wakefd::WakeFd;
use crate::wire::{self, Request, MAGIC};

const LISTENER_TOKEN: u64 = 0;
/// Poll timeout between passes: loops are kicked through their wake fd,
/// so this only paces shutdown checks.
const POLL_TIMEOUT_MS: i32 = 25;
/// Every loop's wake fd lives at token 0 in that loop's poller;
/// connection tokens start at 1 and are globally unique.
const WAKE_TOKEN: u64 = 0;

/// Tuning knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7401` (port 0 for ephemeral).
    pub addr: String,
    /// Per-frame payload cap; larger frames drop the connection.
    pub max_frame: usize,
    /// Parked-request limit across all loops: at or above, a request
    /// that would park is answered with an error instead.
    pub max_parked: usize,
    /// Per-connection write-buffer cap: at or above, that connection's
    /// reads pause until the client drains replies below half.
    pub write_buf_limit: usize,
    /// Event-loop worker threads (clamped to 1..=64).
    pub loops: usize,
    /// Store shards (clamped to the dataspace maximum).
    pub shards: usize,
    /// Durability: log every commit to a WAL in this directory (created
    /// if missing; existing history is recovered and the store seeded
    /// from it). `None` runs in-memory.
    pub wal_dir: Option<PathBuf>,
    /// Fsync policy for `wal_dir`.
    pub fsync: FsyncPolicy,
    /// Snapshot (and prune) every `n` commits; `None` keeps the full log.
    pub snapshot_every: Option<u64>,
    /// Keep at least the newest `n` commits through pruning so a
    /// briefly-detached follower resumes from the log instead of
    /// re-bootstrapping (attached followers are always protected by
    /// retention pins).
    pub wal_retain: Option<u64>,
    /// Leader: also serve the `SDLREPL1` replication protocol at this
    /// address, shipping the WAL to followers. Requires `wal_dir`.
    pub repl_addr: Option<String>,
    /// Client address handed to followers for `NotLeader` redirects;
    /// defaults to the bound listener address (override when clients
    /// reach this host through a different name).
    pub advertise: Option<String>,
    /// Follower: bootstrap from — and stay attached to — the leader's
    /// replication listener at this address, serving read-only.
    pub follow: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_frame: wire::DEFAULT_MAX_FRAME,
            max_parked: 100_000,
            write_buf_limit: 4 * 1024 * 1024,
            loops: 1,
            shards: 8,
            wal_dir: None,
            fsync: FsyncPolicy::default(),
            snapshot_every: None,
            wal_retain: None,
            repl_addr: None,
            advertise: None,
            follow: None,
        }
    }
}

/// A running server; [`Server::shutdown`] stops every thread and joins
/// them.
pub struct Server {
    addr: SocketAddr,
    repl_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    wakefds: Vec<Arc<WakeFd>>,
    handles: Vec<JoinHandle<io::Result<()>>>,
    ship: Option<ShipServer>,
    shared: Arc<NetShared>,
}

impl Server {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication listener's bound address, when this server is a
    /// leader with [`ServerConfig::repl_addr`] set.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// Signals every thread to stop and joins them, propagating the
    /// first error. On a leader this also drains the background
    /// snapshot writer and makes the WAL durable.
    ///
    /// # Errors
    ///
    /// A loop's terminal I/O error, if one died before shutdown.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        for wf in &self.wakefds {
            wf.kick();
        }
        let mut result = Ok(());
        for h in self.handles.drain(..) {
            let r = h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")));
            if result.is_ok() {
                result = r;
            }
        }
        if let Some(mut ship) = self.ship.take() {
            ship.shutdown();
        }
        // Whatever the fsync policy deferred becomes durable before the
        // server reports itself down.
        if let Err(e) = self.shared.finish_durable() {
            if result.is_ok() {
                result = Err(io::Error::other(e.to_string()));
            }
        }
        result
    }
}

/// An accepted connection in flight from the acceptor to its loop.
struct NewConn {
    token: u64,
    stream: TcpStream,
}

struct ConnState {
    stream: TcpStream,
    rbuf: ReadBuf,
    wbuf: WriteBuf,
    // The client's magic has arrived and its echo is queued.
    handshaken: bool,
    // Reads paused because this connection's write buffer is over cap.
    write_paused: bool,
}

/// Binds the listener and spawns the acceptor plus
/// [`ServerConfig::loops`] event-loop workers.
///
/// # Errors
///
/// Bind/poller/wake-fd creation failure.
pub fn serve(cfg: ServerConfig, metrics: Metrics) -> io::Result<Server> {
    if cfg.repl_addr.is_some() && cfg.wal_dir.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "replication (--repl-addr) ships the WAL; it requires --wal-dir",
        ));
    }
    if cfg.follow.is_some() && (cfg.wal_dir.is_some() || cfg.repl_addr.is_some()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a follower's state is the shipped log; --follow excludes --wal-dir/--repl-addr",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // The kick mask is a u64 by loop id; clamp accordingly.
    let n_loops = cfg.loops.clamp(1, 64);

    // Durability and replication decide the store's shard count and
    // seed contents, so they run before the state is shared.
    let mut follower: Option<(FollowerConn, Option<FollowEvent>, u64)> = None;
    let mut shared = if let Some(leader) = &cfg.follow {
        let mut conn = FollowerConn::connect(leader, 0, 0)?;
        let mut shared = NetShared::new(conn.n_shards() as usize, n_loops, metrics.clone());
        shared.set_redirect(conn.leader_client_addr().to_owned());
        // The bootstrap (if the leader decided one is needed) follows
        // the handshake immediately; load it before serving so a
        // follower never answers from a state older than its base.
        let mut applied = 0;
        let mut pending = None;
        match conn.next_event()? {
            Some(FollowEvent::Snapshot(base)) => {
                for (id, t) in base.tuples {
                    shared.sds.insert_instance(id, t);
                }
                shared.sds.advance_cursors(&base.cursors);
                applied = base.commit;
                conn.ack(applied)?;
            }
            Some(ev) => pending = Some(ev),
            None => {}
        }
        follower = Some((conn, pending, applied));
        shared
    } else {
        let mut shared = NetShared::new(cfg.shards, n_loops, metrics.clone());
        if cfg.wal_dir.is_some() {
            let wal = open_wal(&cfg, &mut shared, &metrics)?;
            shared.attach_wal(wal);
        }
        shared
    };
    shared.set_max_parked(cfg.max_parked);
    let shared = Arc::new(shared);
    metrics.add_gauge(Gauge::NetLoops, n_loops as i64);
    let stop = Arc::new(AtomicBool::new(false));

    // Leader-side replication listener, shipping the WAL just attached.
    let ship = match &cfg.repl_addr {
        Some(repl_addr) => {
            let wal = Arc::clone(shared.wal().expect("validated above"));
            let client_addr = cfg.advertise.clone().unwrap_or_else(|| addr.to_string());
            Some(serve_ship(
                ShipConfig::new(repl_addr.clone(), client_addr),
                wal,
                metrics.clone(),
            )?)
        }
        None => None,
    };
    let repl_addr = ship.as_ref().map(ShipServer::local_addr);

    let mut wakefds = Vec::with_capacity(n_loops);
    let mut intakes = Vec::with_capacity(n_loops);
    for _ in 0..n_loops {
        wakefds.push(Arc::new(WakeFd::new()?));
        intakes.push(Arc::new(Mutex::new(Vec::<NewConn>::new())));
    }
    let wakefds = Arc::new(wakefds);

    let mut handles = Vec::with_capacity(n_loops + 1);
    for (loop_id, loop_intake) in intakes.iter().enumerate() {
        let cfg = cfg.clone();
        let shared = Arc::clone(&shared);
        let wakefds = Arc::clone(&wakefds);
        let intake = Arc::clone(loop_intake);
        let stop = Arc::clone(&stop);
        let metrics = metrics.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("sdl-loop-{loop_id}"))
                .spawn(move || {
                    event_loop(loop_id, shared, cfg, metrics, &wakefds, &intake, &stop)
                })?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        let wakefds = Arc::clone(&wakefds);
        let stop = Arc::clone(&stop);
        let metrics = metrics.clone();
        handles.push(
            std::thread::Builder::new()
                .name("sdl-accept".to_owned())
                .spawn(move || acceptor(listener, &shared, &metrics, &wakefds, &intakes, &stop))?,
        );
    }
    if let Some((conn, pending, applied)) = follower {
        let leader = cfg.follow.clone().expect("follower implies --follow");
        let shared = Arc::clone(&shared);
        let wakefds = Arc::clone(&wakefds);
        let stop = Arc::clone(&stop);
        let metrics = metrics.clone();
        handles.push(
            std::thread::Builder::new()
                .name("sdl-repl-apply".to_owned())
                .spawn(move || {
                    follower_apply(
                        &shared, &wakefds, &metrics, &leader, conn, pending, applied, &stop,
                    )
                })?,
        );
    }
    Ok(Server {
        addr,
        repl_addr,
        stop,
        wakefds: wakefds.to_vec(),
        handles,
        ship,
        shared: Arc::clone(&shared),
    })
}

// -- durability ----------------------------------------------------------

/// Opens (creating or recovering) the WAL at `cfg.wal_dir`, seeding
/// `shared`'s store from recovered history when there is any.
fn open_wal(cfg: &ServerConfig, shared: &mut NetShared, metrics: &Metrics) -> io::Result<Arc<Wal>> {
    let dir = cfg.wal_dir.clone().expect("caller checked wal_dir");
    std::fs::create_dir_all(&dir)?;
    let mut wal_cfg = WalConfig::new(dir);
    wal_cfg.fsync = cfg.fsync;
    wal_cfg.snapshot_every = cfg.snapshot_every;
    wal_cfg.retain_commits = cfg.wal_retain;
    let wal_err = |e: WalError| io::Error::other(e.to_string());
    match recover(&wal_cfg.dir, metrics) {
        Ok(state) => {
            state
                .check_shards(shared.sds.num_shards() as u64)
                .map_err(wal_err)?;
            for (id, t) in &state.tuples {
                shared.sds.insert_instance(*id, t.clone());
            }
            shared.sds.advance_cursors(&state.cursors);
            let wal = Wal::resume(wal_cfg, &state, metrics.clone()).map_err(wal_err)?;
            Ok(Arc::new(wal))
        }
        Err(WalError::Empty(_)) => {
            let wal = Wal::create(wal_cfg, shared.sds.num_shards() as u64, metrics.clone())
                .map_err(wal_err)?;
            Ok(Arc::new(wal))
        }
        Err(e) => Err(wal_err(e)),
    }
}

// -- follower apply ------------------------------------------------------

/// The follower's replication thread: applies the leader's shipped
/// commit stream to the live store, reconnecting (from the last applied
/// commit) whenever the link drops.
#[allow(clippy::too_many_arguments)]
fn follower_apply(
    shared: &Arc<NetShared>,
    wakefds: &[Arc<WakeFd>],
    metrics: &Metrics,
    leader: &str,
    conn: FollowerConn,
    pending: Option<FollowEvent>,
    mut applied: u64,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut session = Some((conn, pending));
    while !stop.load(Ordering::SeqCst) {
        let (conn, pending) = match session.take() {
            Some(s) => s,
            None => match FollowerConn::connect(leader, applied, shared.sds.num_shards() as u64) {
                Ok(c) => (c, None),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(500));
                    continue;
                }
            },
        };
        // The follower's own gauge mirrors the upstream link state: 1
        // while attached, 0 while reconnecting.
        metrics.set_gauge(Gauge::ReplFollowers, 1);
        let outcome = follow_stream(shared, wakefds, metrics, conn, pending, &mut applied, stop);
        metrics.set_gauge(Gauge::ReplFollowers, 0);
        match outcome {
            Ok(()) => return Ok(()), // stop requested
            // A fatal divergence (leader pruned past us, shard mismatch,
            // id mismatch) can't be healed by reconnecting.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
            // Link errors: reconnect and resume from `applied`.
            Err(_) => {}
        }
    }
    Ok(())
}

/// Applies one connection's event stream until `stop`, EOF, or error.
fn follow_stream(
    shared: &Arc<NetShared>,
    wakefds: &[Arc<WakeFd>],
    metrics: &Metrics,
    mut conn: FollowerConn,
    pending: Option<FollowEvent>,
    applied: &mut u64,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut next = pending;
    loop {
        let ev = match next.take() {
            Some(ev) => Some(ev),
            None => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                conn.next_event()?
            }
        };
        let Some(ev) = ev else { continue };
        match ev {
            FollowEvent::Commit(rec) => {
                let timer = metrics.start_timer();
                let commit = rec.commit;
                apply_shipped(shared, wakefds, rec)?;
                metrics.observe_timer(Hist::ReplApplySeconds, timer);
                metrics.inc(Counter::ReplRecordsApplied);
                *applied = commit;
                metrics.set_gauge(
                    Gauge::ReplLagCommits,
                    conn.watermark().saturating_sub(*applied) as i64,
                );
                conn.ack(*applied)?;
            }
            FollowEvent::Watermark(w) => {
                metrics.set_gauge(Gauge::ReplLagCommits, w.saturating_sub(*applied) as i64);
            }
            FollowEvent::Snapshot(_) => {
                // A bootstrap snapshot mid-life means the leader pruned
                // past our position while we were detached; a live store
                // can't adopt a new base without breaking readers.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "leader pruned past this follower's position; restart the \
                     follower to re-bootstrap (or raise the leader's --wal-retain)",
                ));
            }
        }
    }
}

/// Applies one shipped commit record to the live store through the same
/// commit function the leader's engines use. Minted ids are verified
/// against the record — any divergence from the leader's byte-for-byte
/// state is an error, not a warning.
fn apply_shipped(
    shared: &Arc<NetShared>,
    wakefds: &[Arc<WakeFd>],
    rec: CommitRecord,
) -> io::Result<()> {
    let mut actions = Vec::with_capacity(rec.retracts.len() + rec.asserts.len());
    let mut fp = ShardSet::default();
    for id in &rec.retracts {
        fp.insert(shared.sds.shard_of_id(*id));
        actions.push(Action::Retract(*id));
    }
    for (id, t) in &rec.asserts {
        fp.insert(shared.sds.shard_of_tuple(t));
        actions.push(Action::Assert(id.owner, t.clone()));
    }
    let done = shared
        .commit(fp, |_| Decision::Apply(actions))
        .map_err(|e| io::Error::other(e.to_string()))?
        .expect("Decision::Apply always commits");
    // Waiters on this follower are all read-only (`rd`/`rdp`); the
    // shipped commit may satisfy them. No loop is "ours" — route every
    // wake through the mailboxes and kick each loop the mask names.
    let (wakes, mut kicks) = shared.route(usize::MAX, done.woken);
    debug_assert!(wakes.is_empty());
    while kicks != 0 {
        let l = kicks.trailing_zeros() as usize;
        kicks &= kicks - 1;
        if l < wakefds.len() {
            wakefds[l].kick();
        }
    }
    let expected: Vec<TupleId> = rec.asserts.iter().map(|(id, _)| *id).collect();
    if done.out.asserted != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "replica id divergence at commit {}: minted {:?}, leader had {expected:?}",
                rec.commit, done.out.asserted
            ),
        ));
    }
    Ok(())
}

// -- acceptor ------------------------------------------------------------

/// Accepts connections and places each on the least-loaded loop. The
/// acceptor never reads or writes a socket: the handshake is the owning
/// loop's first read.
fn acceptor(
    listener: TcpListener,
    shared: &NetShared,
    metrics: &Metrics,
    wakefds: &[Arc<WakeFd>],
    intakes: &[Arc<Mutex<Vec<NewConn>>>],
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    // Connection tokens are minted here only, so they are unique across
    // every loop.
    let mut next_token: u64 = 1;
    let mut events: Vec<PollEvent> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        poller.wait(&mut events, POLL_TIMEOUT_MS)?;
        if events.is_empty() {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let loop_id = shared.pick_loop();
                    shared.conn_opened(loop_id);
                    metrics.add_gauge(Gauge::NetConnections, 1);
                    let token = next_token;
                    next_token += 1;
                    intakes[loop_id]
                        .lock()
                        .unwrap()
                        .push(NewConn { token, stream });
                    wakefds[loop_id].kick();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock: drained until the next readiness event.
                Err(_) => break,
            }
        }
    }
    Ok(())
}

// -- event-loop workers --------------------------------------------------

fn event_loop(
    loop_id: usize,
    shared: Arc<NetShared>,
    cfg: ServerConfig,
    metrics: Metrics,
    wakefds: &[Arc<WakeFd>],
    intake: &Mutex<Vec<NewConn>>,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut poller = Poller::new()?;
    poller.register(wakefds[loop_id].poll_fd(), WAKE_TOKEN, Interest::READ)?;

    let mut engine = Engine::over(Arc::clone(&shared), loop_id);
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut batch: Vec<(u64, u64, Request)> = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    let mut to_close: Vec<u64> = Vec::new();

    while !stop.load(Ordering::SeqCst) {
        poller.wait(&mut events, POLL_TIMEOUT_MS)?;

        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            wakefds[loop_id].drain();
        }

        // Adopt connections the acceptor handed over. The intake and the
        // mailbox are both kick-signalled, but drain unconditionally —
        // a kick between our drain and our sleep leaves the fd readable
        // (level-triggered), so nothing is lost either way.
        for nc in intake.lock().unwrap().drain(..) {
            if poller
                .register(nc.stream.as_raw_fd(), nc.token, Interest::READ)
                .is_err()
            {
                shared.conn_closed(loop_id);
                metrics.add_gauge(Gauge::NetConnections, -1);
                continue;
            }
            conns.insert(
                nc.token,
                ConnState {
                    stream: nc.stream,
                    rbuf: ReadBuf::default(),
                    wbuf: WriteBuf::default(),
                    handshaken: false,
                    write_paused: false,
                },
            );
        }

        // Cross-loop wakes other loops' commits queued for us.
        let wakes = shared.drain_mailbox(loop_id);
        if !wakes.is_empty() {
            engine.deliver_wakes(wakes, &mut replies);
        }

        for &ev in &events {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            if !ev.readable || conn.write_paused {
                continue;
            }
            // Frames read before an EOF still run; a read error, a wrong
            // magic or a bad frame closes the connection.
            let open = match conn.rbuf.fill(&mut conn.stream) {
                Ok(outcome) => {
                    decode_pending(ev.token, conn, &cfg, &mut batch, &metrics).is_ok()
                        && outcome == FillOutcome::Open
                }
                Err(_) => false,
            };
            if !open {
                to_close.push(ev.token);
            }
        }

        if !batch.is_empty() {
            for (token, req_id, req) in batch.drain(..) {
                engine.submit(token, req_id, req, &mut replies);
            }
            engine.finish(&mut replies);
        }

        // Kick every loop whose mailbox our commits (batch or delivered
        // wakes) filled this pass.
        let mut kicks = engine.take_kicks();
        while kicks != 0 {
            let l = kicks.trailing_zeros() as usize;
            kicks &= kicks - 1;
            if l != loop_id && l < wakefds.len() {
                wakefds[l].kick();
            }
        }

        for (token, req_id, resp) in replies.drain(..) {
            if let Some(conn) = conns.get_mut(&token) {
                conn.wbuf.push_response(req_id, &resp);
            }
        }

        // Flush pending writes, update per-conn pause state + interest.
        for (&token, conn) in conns.iter_mut() {
            if !conn.wbuf.is_empty() {
                match conn.wbuf.flush(&mut conn.stream) {
                    Ok(_) => {}
                    Err(_) => {
                        to_close.push(token);
                        continue;
                    }
                }
            }
            let over = conn.wbuf.len() >= cfg.write_buf_limit;
            let under = conn.wbuf.len() < cfg.write_buf_limit / 2;
            if over && !conn.write_paused {
                conn.write_paused = true;
                metrics.inc(Counter::NetBackpressureStalls);
            } else if under && conn.write_paused {
                conn.write_paused = false;
            }
            let interest = Interest {
                readable: !conn.write_paused,
                writable: !conn.wbuf.is_empty(),
            };
            let _ = poller.modify(token, interest);
        }

        if !to_close.is_empty() {
            to_close.sort_unstable();
            to_close.dedup();
            for token in to_close.drain(..) {
                if let Some(conn) = conns.remove(&token) {
                    poller.deregister(token);
                    drop(conn);
                    engine.disconnect(token);
                    shared.conn_closed(loop_id);
                    metrics.add_gauge(Gauge::NetConnections, -1);
                }
            }
        }
    }

    // Clean shutdown: cancel every parked request and drop connections.
    for (&token, _) in conns.iter() {
        engine.disconnect(token);
        shared.conn_closed(loop_id);
    }
    metrics.add_gauge(Gauge::NetConnections, -(conns.len() as i64));
    Ok(())
}

/// Completes the handshake once the client's first 8 bytes are in
/// (queueing the echo), then decodes every complete buffered frame into
/// `batch`. A wrong magic is a protocol error.
fn decode_pending(
    token: u64,
    conn: &mut ConnState,
    cfg: &ServerConfig,
    batch: &mut Vec<(u64, u64, Request)>,
    metrics: &Metrics,
) -> Result<(), ()> {
    if !conn.handshaken {
        let pending = conn.rbuf.pending();
        if pending.len() < MAGIC.len() {
            return Ok(());
        }
        if &pending[..MAGIC.len()] != MAGIC {
            metrics.inc(Counter::NetProtocolErrors);
            return Err(());
        }
        conn.rbuf.consume(MAGIC.len());
        conn.wbuf.push(MAGIC);
        conn.handshaken = true;
    }
    loop {
        match conn.rbuf.next_frame(cfg.max_frame) {
            Ok(Some(payload)) => match wire::decode_request(payload) {
                Ok((req_id, req)) => batch.push((token, req_id, req)),
                Err(_) => {
                    metrics.inc(Counter::NetProtocolErrors);
                    return Err(());
                }
            },
            Ok(None) => return Ok(()),
            Err(_) => {
                metrics.inc(Counter::NetProtocolErrors);
                return Err(());
            }
        }
    }
}
