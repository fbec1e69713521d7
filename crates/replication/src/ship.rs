//! Leader side of log-shipping replication: the `SDLREPL1` listener
//! that bootstraps followers and tail-streams committed WAL records to
//! them.
//!
//! The shipper uses one blocking thread per attached follower (plus one
//! accept thread). Follower counts are small — a handful of warm
//! replicas, not a client fleet — so the thread-per-connection model
//! buys simple sequential code (snapshot transfer, then a tail loop)
//! without an event-loop's worth of state machine. Each follower thread:
//!
//! 1. exchanges magic and `Hello`/`HelloAck`,
//! 2. calls [`Wal::pin_for_bootstrap`] — atomically choosing snapshot
//!    vs. log-resume and pinning retention so pruning cannot outrun the
//!    stream,
//! 3. ships the snapshot (if the plan needs one) in bounded chunks,
//! 4. loops: poll the [`SegmentTailer`] up to the shippable watermark,
//!    ship commit frames, drain acks (moving the retention pin and the
//!    lag gauge), heartbeat when idle.
//!
//! The retention pin is released when the follower disconnects; history
//! it was holding becomes prunable at the next snapshot.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sdl_durability::codec::{frame, split_frame, FRAME_HEADER};
use sdl_durability::{read_snapshot, SegmentTailer, Wal};
use sdl_metrics::{Counter, Gauge, Metrics};

use crate::proto::{self, Msg, MAGIC, MAX_FRAME, VERSION};

/// How long the tail loop sleeps when the log has nothing new.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Send a heartbeat after this many idle polls (~250 ms), so follower
/// lag gauges stay fresh on an idle leader.
const HEARTBEAT_EVERY_IDLE: u32 = 50;

/// Leader-side replication configuration.
#[derive(Clone, Debug)]
pub struct ShipConfig {
    /// Address the replication listener binds.
    pub(crate) addr: String,
    /// Client-protocol address carried in `HelloAck`, which followers
    /// embed in their `NotLeader` redirects.
    pub(crate) client_addr: String,
    /// Instances per snapshot chunk frame.
    pub(crate) snapshot_chunk: usize,
    /// Max commit records pulled from the tailer per poll.
    pub(crate) max_batch: usize,
}

impl ShipConfig {
    /// Configuration with default chunk and batch sizes.
    pub fn new(addr: impl Into<String>, client_addr: impl Into<String>) -> ShipConfig {
        ShipConfig {
            addr: addr.into(),
            client_addr: client_addr.into(),
            snapshot_chunk: 4096,
            max_batch: 256,
        }
    }
}

/// Handle on a running replication listener.
pub struct ShipServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ShipServer {
    /// Address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting followers and joins the accept thread. Follower
    /// threads notice the flag at their next poll and unwind.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ShipServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the replication listener on `cfg.addr`, shipping from `wal`.
///
/// # Errors
///
/// Propagates the bind failure; per-follower errors after that only
/// drop the one connection.
pub fn serve_ship(cfg: ShipConfig, wal: Arc<Wal>, metrics: Metrics) -> io::Result<ShipServer> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(Mutex::new(HashMap::new()));
    let accept = {
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("sdl-repl-accept".into())
            .spawn(move || {
                let mut follower_seq = 0u64;
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    follower_seq = follower_seq.saturating_add(1);
                    let follower = Follower {
                        id: follower_seq,
                        cfg: cfg.clone(),
                        wal: Arc::clone(&wal),
                        metrics: metrics.clone(),
                        stop: Arc::clone(&stop),
                        acked: Arc::clone(&acked),
                    };
                    let name = format!("sdl-repl-ship-{follower_seq}");
                    let _ = thread::Builder::new()
                        .name(name)
                        .spawn(move || follower.run(stream));
                }
            })?
    };
    Ok(ShipServer {
        local_addr,
        stop,
        accept: Some(accept),
    })
}

/// Per-follower shipping state handed to its thread.
struct Follower {
    id: u64,
    cfg: ShipConfig,
    wal: Arc<Wal>,
    metrics: Metrics,
    stop: Arc<AtomicBool>,
    /// Highest commit each attached follower has acknowledged; the lag
    /// gauge reports watermark minus the minimum of these.
    acked: Arc<Mutex<HashMap<u64, u64>>>,
}

impl Follower {
    fn run(self, stream: TcpStream) {
        self.metrics.add_gauge(Gauge::ReplFollowers, 1);
        let outcome = self.ship(stream);
        self.metrics.add_gauge(Gauge::ReplFollowers, -1);
        self.acked.lock().unwrap().remove(&self.id);
        if let Err(e) = outcome {
            // Follower disconnects are routine; anything else is worth a
            // line on stderr but never takes the leader down.
            if e.kind() != ErrorKind::UnexpectedEof && e.kind() != ErrorKind::ConnectionReset {
                eprintln!("sdl-repl: follower {} detached: {e}", self.id);
            }
        }
    }

    fn ship(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut magic = [0u8; 8];
        stream.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad_proto("bad replication magic"));
        }
        stream.write_all(MAGIC)?;
        let mut conn = Conn::new(stream);
        let hello = match conn.read_msg_blocking()? {
            Msg::Hello {
                version,
                last_commit,
                n_shards,
            } => {
                if version != VERSION {
                    conn.send(&Msg::Error(format!(
                        "leader speaks SDLREPL version {VERSION}, follower {version}"
                    )))?;
                    return Err(bad_proto("version mismatch"));
                }
                if n_shards != 0 && n_shards != self.wal.n_shards() {
                    conn.send(&Msg::Error(format!(
                        "leader has {} shard(s), follower store has {n_shards}",
                        self.wal.n_shards()
                    )))?;
                    return Err(bad_proto("shard mismatch"));
                }
                last_commit
            }
            other => return Err(bad_proto(&format!("expected Hello, got {other:?}"))),
        };

        let plan = self.wal.pin_for_bootstrap(hello).map_err(wal_err)?;
        let pin = PinGuard {
            wal: &self.wal,
            pin: plan.pin,
        };
        let watermark = self.wal.shippable_watermark().map_err(wal_err)?;
        conn.send(&Msg::HelloAck {
            version: VERSION,
            n_shards: self.wal.n_shards(),
            watermark,
            leader_addr: self.cfg.client_addr.clone(),
        })?;

        if let Some((commit, path)) = &plan.snapshot {
            self.metrics.inc(Counter::ReplSnapshotBootstraps);
            let snap = read_snapshot(path, *commit).map_err(wal_err)?;
            conn.send(&Msg::SnapBegin {
                commit: snap.commit,
                n_shards: snap.n_shards,
                cursors: snap.cursors.clone(),
                n_tuples: snap.tuples.len() as u64,
            })?;
            for chunk in snap.tuples.chunks(self.cfg.snapshot_chunk.max(1)) {
                conn.send(&Msg::SnapChunk(chunk.to_vec()))?;
            }
            conn.send(&Msg::SnapEnd)?;
        }

        // The snapshot (or resume point) is the follower's implied ack.
        self.note_ack(plan.start_after, pin.pin);

        let mut tailer = SegmentTailer::new(self.wal.dir(), plan.start_after).map_err(wal_err)?;

        let mut idle_polls = 0u32;
        while !self.stop.load(Ordering::SeqCst) {
            let watermark = self.wal.shippable_watermark().map_err(wal_err)?;
            let mut shipped = false;
            if tailer.next_commit() <= watermark {
                self.wal.flush_os().map_err(wal_err)?;
                let records = tailer
                    .poll(watermark, self.cfg.max_batch)
                    .map_err(wal_err)?;
                // One write for the whole batch: per-frame writes cost a
                // syscall (and a TCP segment, with NODELAY) per commit.
                let mut out = Vec::new();
                let n_records = records.len() as u64;
                for rec in records {
                    out.extend_from_slice(&frame(&proto::encode_msg(&Msg::Commit(rec))));
                }
                if n_records > 0 {
                    conn.stream.write_all(&out)?;
                    self.metrics.add(Counter::ReplShippedRecords, n_records);
                    self.metrics
                        .add(Counter::ReplShippedBytes, out.len() as u64);
                    shipped = true;
                }
            }
            // Acks arrive interleaved with our shipping; drain whatever
            // is already buffered without ever blocking the batch loop.
            conn.stream.set_nonblocking(true)?;
            let drained = loop {
                match conn.try_read_msg() {
                    Ok(Some(Msg::Ack(applied))) => self.note_ack(applied, pin.pin),
                    Ok(Some(Msg::Error(reason))) => break Err(bad_proto(&reason)),
                    Ok(Some(other)) => {
                        break Err(bad_proto(&format!("unexpected follower msg {other:?}")))
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            conn.stream.set_nonblocking(false)?;
            drained?;
            if shipped {
                idle_polls = 0;
            } else {
                idle_polls = idle_polls.saturating_add(1);
                if idle_polls >= HEARTBEAT_EVERY_IDLE {
                    conn.send(&Msg::Heartbeat(watermark))?;
                    idle_polls = 0;
                }
                thread::sleep(IDLE_POLL);
            }
        }
        Ok(())
    }

    /// Records a follower ack: moves its retention pin forward and
    /// refreshes the leader-side lag gauge (watermark minus the
    /// slowest attached follower).
    fn note_ack(&self, applied: u64, pin: u64) {
        self.wal.move_retention(pin, applied);
        let mut acked = self.acked.lock().unwrap();
        let entry = acked.entry(self.id).or_insert(applied);
        *entry = (*entry).max(applied);
        let slowest = acked.values().copied().min().unwrap_or(applied);
        drop(acked);
        let tip = self.wal.last_appended();
        self.metrics
            .set_gauge(Gauge::ReplLagCommits, tip.saturating_sub(slowest) as i64);
    }
}

/// Releases the WAL retention pin when the follower thread unwinds.
struct PinGuard<'a> {
    wal: &'a Wal,
    pin: u64,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.wal.release_retention(self.pin);
    }
}

/// A framed `SDLREPL1` connection (post-handshake), either end.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    inbuf: Vec<u8>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
        }
    }

    /// Sends one message, returning the framed byte count.
    pub(crate) fn send(&mut self, msg: &Msg) -> io::Result<usize> {
        let framed = frame(&proto::encode_msg(msg));
        self.stream.write_all(&framed)?;
        Ok(framed.len())
    }

    /// Reads one message, waiting through read timeouts.
    pub(crate) fn read_msg_blocking(&mut self) -> io::Result<Msg> {
        loop {
            if let Some(msg) = self.try_read_msg()? {
                return Ok(msg);
            }
        }
    }

    /// Reads one message if the socket has one buffered; `None` when
    /// the read would block past the socket timeout.
    pub(crate) fn try_read_msg(&mut self) -> io::Result<Option<Msg>> {
        loop {
            match split_frame(&self.inbuf, MAX_FRAME).map_err(|e| bad_proto(&e.to_string()))? {
                Some(used) => {
                    let msg = proto::decode_msg(&self.inbuf[FRAME_HEADER..used]);
                    self.inbuf.drain(..used);
                    return Ok(Some(msg.map_err(|e| bad_proto(&e.to_string()))?));
                }
                None => {
                    let mut chunk = [0u8; 64 * 1024];
                    match self.stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                ErrorKind::UnexpectedEof,
                                "replication peer closed",
                            ))
                        }
                        Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut =>
                        {
                            return Ok(None)
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
}

pub(crate) fn bad_proto(what: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, what.to_string())
}

fn wal_err(e: sdl_durability::WalError) -> io::Error {
    io::Error::other(e.to_string())
}
