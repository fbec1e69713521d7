//! The five networked workloads: a batching `SDLNET01` connection, the
//! seeded request streams, and the closed loops that drive them.
//!
//! The load generator is one thread over at most two connections. Each
//! connection keeps `depth` requests in flight: it writes every request
//! it may send in one `write`, then blocks reading replies, and sends
//! the next request only when a reply frees a slot — a closed loop, so a
//! slower server is offered less load. Every reply is compared with the
//! reply the generator expects; a mismatch counts as a failed operation.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sdl::server::wire::{self, Request, Response, DEFAULT_MAX_FRAME, MAGIC};
use sdl::tuple::{Field, Pattern, Tuple, Value};

use crate::host::{CpuOf, Server, WAL_FSYNC};
use crate::measure::{Outcome, Recorder, Window};

/// A reply that takes longer than this counts as failed (and ends the
/// run: a closed loop cannot continue past a lost reply).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One `SDLNET01` connection with explicit batching: requests are queued
/// into one buffer and leave in a single write.
pub struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    /// Received bytes not yet decoded live in `rbuf[start..end]`.
    rbuf: Vec<u8>,
    start: usize,
    end: usize,
    next_id: u64,
}

const READ_BUF: usize = 256 * 1024;

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.write_all(MAGIC)?;
        let mut echo = [0u8; 8];
        stream.read_exact(&mut echo)?;
        if &echo != MAGIC {
            return Err(io::Error::other("server is not speaking SDLNET01"));
        }
        Ok(Conn {
            stream,
            wbuf: Vec::with_capacity(16 * 1024),
            rbuf: vec![0; READ_BUF],
            start: 0,
            end: 0,
            next_id: 1,
        })
    }

    /// Queues `req` for the next [`Conn::flush`]; returns its request id.
    pub fn queue(&mut self, req: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.wbuf
            .extend_from_slice(&wire::frame(&wire::encode_request(id, req)));
        id
    }

    pub fn flush(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Blocks for at least one reply frame and appends every complete
    /// frame received to `out`. Interim `Parked` notices are dropped.
    pub fn recv(&mut self, out: &mut Vec<(u64, Response)>) -> io::Result<()> {
        let before = out.len();
        loop {
            while let Some((payload, n)) =
                wire::try_frame(&self.rbuf[self.start..self.end], DEFAULT_MAX_FRAME)
                    .map_err(io::Error::other)?
            {
                self.start += n;
                let (id, resp) = wire::decode_response(&payload).map_err(io::Error::other)?;
                if resp != Response::Parked {
                    out.push((id, resp));
                }
            }
            if out.len() > before {
                return Ok(());
            }
            if self.start == self.end {
                (self.start, self.end) = (0, 0);
            } else if self.end == self.rbuf.len() {
                // A partial frame at the very end: move it to the front.
                self.rbuf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            let n = self.stream.read(&mut self.rbuf[self.end..])?;
            if n == 0 {
                return Err(io::Error::other("server closed the connection"));
            }
            self.end += n;
        }
    }

    /// Sends `reqs` in batches and waits for every reply, which must be
    /// `Ok` (store pre-seeding).
    pub fn send_all_expect_ok(&mut self, reqs: impl Iterator<Item = Request>) -> io::Result<()> {
        let mut inflight = 0usize;
        for req in reqs {
            self.queue(&req);
            inflight += 1;
            if inflight == 512 {
                self.settle_ok(&mut inflight)?;
            }
        }
        self.settle_ok(&mut inflight)
    }

    /// Flushes and waits until `inflight` queued requests answered `Ok`.
    fn settle_ok(&mut self, inflight: &mut usize) -> io::Result<()> {
        let mut replies = Vec::new();
        self.flush()?;
        while *inflight > 0 {
            replies.clear();
            self.recv(&mut replies)?;
            if let Some((id, r)) = replies.iter().find(|(_, r)| *r != Response::Ok) {
                return Err(io::Error::other(format!("request {id} answered {r:?}")));
            }
            *inflight -= replies.len();
        }
        Ok(())
    }
}

/// splitmix64: the value generator behind every seeded input.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn ground(t: &Tuple) -> Pattern {
    Pattern::new(t.iter().cloned().map(Field::Const).collect())
}

/// A seeded, endless request stream: each item is a request and the
/// reply a correct server must give.
pub trait Stream {
    /// The next request for connection `conn` of `conns`.
    fn next(&mut self, conn: usize) -> (Request, Response);
    /// Tuples to assert before the run.
    fn preseed(&self) -> Vec<Tuple>;
    /// After the run is drained: tuples that must be present and
    /// patterns that must match nothing (the `net_wal` restart check).
    fn residual(&self) -> (Vec<Tuple>, Vec<Pattern>);
}

/// First resident key; mailbox client ids stay below it.
const RESIDENT_BASE: i64 = 1_000_000;

/// `net_rtt` / `net_pipelined` / `net_wal`: simulated clients cycling
/// `out <mbox,c,s>` → `rdp <mbox,R,*>` → `inp <mbox,c,s>` in one
/// relation that also holds `resident` tuples nobody takes. With no
/// resident set the read step is skipped.
pub struct Mailbox {
    seed: u64,
    mbox: Value,
    resident: u64,
    /// Per connection: its clients in seeded order, and a cursor.
    order: Vec<Vec<u32>>,
    cursor: Vec<usize>,
    /// Per client: (step within the cycle, cycles completed).
    state: Vec<(u8, u32)>,
    reads: u64,
}

impl Mailbox {
    pub fn new(seed: u64, clients: usize, resident: u64, conns: usize) -> Mailbox {
        let mut ids: Vec<u32> = (0..clients as u32).collect();
        // Seeded visiting order (Fisher–Yates over `mix`).
        for i in (1..ids.len()).rev() {
            ids.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
        }
        let mut order = vec![Vec::new(); conns];
        for c in ids {
            order[c as usize % conns].push(c);
        }
        Mailbox {
            seed,
            mbox: Value::atom("mbox"),
            resident,
            order,
            cursor: vec![0; conns],
            state: vec![(0, 0); clients],
            reads: 0,
        }
    }

    fn mail(&self, client: u32, cycle: u32) -> Tuple {
        let s = (mix(self.seed, u64::from(client)) % 1_000_000) as i64 + i64::from(cycle);
        Tuple::new(vec![
            self.mbox.clone(),
            Value::Int(i64::from(client)),
            Value::Int(s),
        ])
    }

    fn resident_tuple(&self, r: u64) -> Tuple {
        Tuple::new(vec![
            self.mbox.clone(),
            Value::Int(RESIDENT_BASE + r as i64),
            Value::Int((mix(self.seed ^ 0x5eed, r) >> 1) as i64),
        ])
    }
}

impl Stream for Mailbox {
    fn next(&mut self, conn: usize) -> (Request, Response) {
        let conn = conn % self.order.len();
        let client = self.order[conn][self.cursor[conn]];
        self.cursor[conn] = (self.cursor[conn] + 1) % self.order[conn].len();
        let (step, cycle) = self.state[client as usize];
        let mail = self.mail(client, cycle);
        let (next_step, out) = match step {
            0 => (1, (Request::Out(mail), Response::Ok)),
            1 if self.resident > 0 => {
                let r = mix(self.seed ^ 0xbeef, self.reads) % self.resident;
                self.reads += 1;
                let t = self.resident_tuple(r);
                let p = Pattern::new(vec![
                    Field::Const(t[0].clone()),
                    Field::Const(t[1].clone()),
                    Field::Any,
                ]);
                (2, (Request::Rdp(p), Response::Tuple(t)))
            }
            _ => (0, (Request::Inp(ground(&mail)), Response::Tuple(mail))),
        };
        self.state[client as usize] = (next_step, cycle + u32::from(next_step == 0));
        out
    }

    fn preseed(&self) -> Vec<Tuple> {
        (0..self.resident).map(|r| self.resident_tuple(r)).collect()
    }

    fn residual(&self) -> (Vec<Tuple>, Vec<Pattern>) {
        let mut present = self.preseed();
        let mut absent = Vec::new();
        for (c, &(step, cycle)) in self.state.iter().enumerate() {
            let mail = self.mail(c as u32, cycle);
            if step == 0 {
                absent.push(Pattern::new(vec![
                    Field::Const(mail[0].clone()),
                    Field::Const(mail[1].clone()),
                    Field::Any,
                ]));
            } else {
                present.push(mail);
            }
        }
        (present, absent)
    }
}

/// `net_txn`: two constant-source SDL transactions alternating per
/// worker — claim a job (`job → done`) and its inverse — so the store
/// keeps its size and every transaction can commit.
pub struct Txns {
    seed: u64,
    workers: u64,
    jobs_per_worker: u64,
    /// Per worker: whether its next transaction is the inverse.
    inverse: Vec<bool>,
    issued: u64,
}

pub const TXN_CLAIM: &str = "exists j : <job, w, j>!, <worker, w> -> <done, w, j>";
pub const TXN_UNCLAIM: &str = "exists j : <done, w, j>!, <worker, w> -> <job, w, j>";

impl Txns {
    pub fn new(seed: u64, workers: u64, jobs_per_worker: u64) -> Txns {
        Txns {
            seed,
            workers,
            jobs_per_worker,
            inverse: vec![false; workers as usize],
            issued: 0,
        }
    }
}

impl Stream for Txns {
    fn next(&mut self, _conn: usize) -> (Request, Response) {
        let w = mix(self.seed, self.issued) % self.workers;
        self.issued += 1;
        let inverse = self.inverse[w as usize];
        self.inverse[w as usize] = !inverse;
        let source = if inverse { TXN_UNCLAIM } else { TXN_CLAIM };
        let req = Request::Txn {
            source: source.to_owned(),
            env: vec![("w".to_owned(), Value::Int(w as i64))],
        };
        (req, Response::Ok)
    }

    fn preseed(&self) -> Vec<Tuple> {
        let (job, worker) = (Value::atom("job"), Value::atom("worker"));
        let mut out = Vec::new();
        for w in 0..self.workers {
            out.push(Tuple::new(vec![worker.clone(), Value::Int(w as i64)]));
            for j in 0..self.jobs_per_worker {
                let id = (mix(self.seed ^ 0x10b, w * self.jobs_per_worker + j) >> 1) as i64;
                out.push(Tuple::new(vec![
                    job.clone(),
                    Value::Int(w as i64),
                    Value::Int(id),
                ]));
            }
        }
        out
    }

    fn residual(&self) -> (Vec<Tuple>, Vec<Pattern>) {
        (Vec::new(), Vec::new())
    }
}

/// How a networked workload is set up.
pub struct NetSpec {
    pub conns: usize,
    pub depth: usize,
    /// Server started with a WAL in this directory.
    pub wal_dir: Option<PathBuf>,
    /// Server started with a Prometheus endpoint (traced runs only).
    pub metrics: bool,
}

impl NetSpec {
    pub fn server_flags(&self) -> Vec<String> {
        let mut flags = Vec::new();
        if let Some(dir) = &self.wal_dir {
            flags.extend([
                "--wal-dir".to_owned(),
                dir.display().to_string(),
                "--fsync".to_owned(),
                WAL_FSYNC.to_owned(),
            ]);
        }
        if self.metrics {
            flags.extend(["--metrics-addr".to_owned(), "127.0.0.1:0".to_owned()]);
        }
        flags
    }
}

/// A server with its store pre-seeded and its connections open.
pub struct Ready {
    pub server: Server,
    pub conns: Vec<Conn>,
    /// Process spawn → pre-seeded and a first request answered.
    pub setup_s: f64,
}

/// Spawns the server, pre-seeds the store through the wire, parks
/// `ballast` blocking `in`s nothing will ever match (so the wake index
/// is as large as a busy server's), opens the run's connections and
/// answers one ping on each.
pub fn set_up(
    server_bin: &Path,
    spec: &NetSpec,
    preseed: Vec<Tuple>,
    ballast: usize,
) -> io::Result<Ready> {
    if let Some(dir) = &spec.wal_dir {
        // A stale log would be recovered into the store.
        let _ = std::fs::remove_dir_all(dir);
    }
    let server = Server::spawn(server_bin, &spec.server_flags())?;
    let mut conns = Vec::new();
    for _ in 0..spec.conns {
        conns.push(Conn::connect(&server.addr)?);
    }
    conns[0].send_all_expect_ok(preseed.into_iter().map(Request::Out))?;
    for k in 0..ballast {
        conns[0].queue(&Request::In(ballast_pattern(k)));
    }
    // The ping is answered behind the parks: they are all registered.
    for c in &mut conns {
        c.send_all_expect_ok(std::iter::once(Request::Ping))?;
    }
    let setup_s = server.spawned_at.elapsed().as_secs_f64();
    Ok(Ready {
        server,
        conns,
        setup_s,
    })
}

/// Drives `stream` over `ready`'s connections at `depth` until the
/// window closes, then drains what is in flight.
pub fn closed_loop(
    ready: &mut Ready,
    depth: usize,
    stream: &mut dyn Stream,
    window: Window,
    mut each_slice: impl FnMut(usize),
) -> io::Result<Outcome> {
    let serving = CpuOf::Pid(ready.server.pid());
    let n = ready.conns.len();
    // Per connection: request id → (send time, expected reply).
    let mut flights: Vec<HashMap<u64, (Instant, Response)>> =
        (0..n).map(|_| HashMap::with_capacity(depth)).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut replies = Vec::with_capacity(depth);
    let mut rec = Recorder::start(serving, window);
    let mut done = false;
    while !done || flights.iter().any(|f| !f.is_empty()) {
        for (i, conn) in ready.conns.iter_mut().enumerate() {
            let pending = &mut flights[i];
            if !done && pending.is_empty() {
                let sent_at = Instant::now();
                while pending.len() < depth {
                    let (req, expect) = stream.next(i);
                    let id = conn.queue(&req);
                    pending.insert(id, (sent_at, expect));
                    attempted += 1;
                }
                conn.flush()?;
            }
            if pending.is_empty() {
                continue;
            }
            replies.clear();
            conn.recv(&mut replies)?;
            let now = Instant::now();
            for (id, resp) in replies.drain(..) {
                match pending.remove(&id) {
                    Some((sent_at, expect)) => {
                        if resp != expect {
                            failed += 1;
                        }
                        rec.record(now.duration_since(sent_at).as_nanos() as u64, 1);
                    }
                    None => failed += 1,
                }
            }
            let before = rec.slices.len();
            done = rec.roll(now) || done;
            if rec.slices.len() > before {
                each_slice(rec.slices.len());
            }
        }
    }
    Ok(Outcome::new(rec, serving, attempted, failed))
}

const HANDOFF_CHANNEL: &str = "chan";

/// Round `round` of `net_handoff`: `depth` seeded keys, each as the
/// consumer's pattern `<chan, k, *>` and the producer's tuple.
pub fn handoff_round(seed: u64, round: u64, depth: usize) -> Vec<(Pattern, Tuple)> {
    let chan = Value::atom(HANDOFF_CHANNEL);
    (0..depth as u64)
        .map(|i| {
            let n = round * depth as u64 + i;
            let key = Value::Int((mix(seed, n) >> 2) as i64);
            let pattern = Pattern::new(vec![
                Field::Const(chan.clone()),
                Field::Const(key.clone()),
                Field::Any,
            ]);
            (
                pattern,
                Tuple::new(vec![chan.clone(), key, Value::Int(n as i64)]),
            )
        })
        .collect()
}

/// A parked `in` of the ballast: a key no producer ever sends.
pub fn ballast_pattern(k: usize) -> Pattern {
    Pattern::new(vec![
        Field::Const(Value::atom(HANDOFF_CHANNEL)),
        Field::Const(Value::Int(-1 - k as i64)),
        Field::Any,
    ])
}

/// `net_handoff`: connection A keeps `depth` blocking `in <chan,k,*>`
/// parked, connection B sends the matching `out`s in one batch; a
/// handoff's latency runs from B's send to A receiving the tuple.
pub fn handoff_loop(
    ready: &mut Ready,
    seed: u64,
    depth: usize,
    window: Window,
    mut each_slice: impl FnMut(usize),
) -> io::Result<Outcome> {
    let serving = CpuOf::Pid(ready.server.pid());
    let [a, b] = &mut ready.conns[..] else {
        return Err(io::Error::other("net_handoff needs two connections"));
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut round = 0u64;
    let mut replies = Vec::with_capacity(depth);
    let mut rec = Recorder::start(serving, window);
    let mut done = false;
    while !done {
        // Park this round's consumers and wait until the server has
        // answered a ping queued behind them: all `depth` are parked.
        let mut want: HashMap<u64, Tuple> = HashMap::with_capacity(depth);
        for (pattern, tuple) in handoff_round(seed, round, depth) {
            want.insert(a.queue(&Request::In(pattern)), tuple);
        }
        let ping = a.queue(&Request::Ping);
        a.flush()?;
        replies.clear();
        while !replies.iter().any(|(id, _)| *id == ping) {
            a.recv(&mut replies)?;
        }
        // Nothing but the ping may have answered: no tuple exists yet.
        failed += replies.len() as u64 - 1;

        let mut acks: HashMap<u64, ()> = HashMap::with_capacity(depth);
        for t in want.values() {
            acks.insert(b.queue(&Request::Out(t.clone())), ());
        }
        attempted += 2 * depth as u64;
        let sent_at = Instant::now();
        b.flush()?;
        while !want.is_empty() {
            replies.clear();
            a.recv(&mut replies)?;
            let now = Instant::now();
            for (id, resp) in replies.drain(..) {
                match want.remove(&id) {
                    Some(t) if resp == Response::Tuple(t.clone()) => {}
                    _ => failed += 1,
                }
                rec.record(now.duration_since(sent_at).as_nanos() as u64, 2);
            }
        }
        while !acks.is_empty() {
            replies.clear();
            b.recv(&mut replies)?;
            for (id, resp) in replies.drain(..) {
                if acks.remove(&id).is_none() || resp != Response::Ok {
                    failed += 1;
                }
            }
        }
        round += 1;
        let before = rec.slices.len();
        done = rec.roll(Instant::now());
        if rec.slices.len() > before {
            each_slice(rec.slices.len());
        }
    }
    Ok(Outcome::new(rec, serving, attempted, failed))
}

/// The `net_wal` durability check. Makes the log durable the way a
/// client can (wait out the fsync interval, then commit once more),
/// kills the server, restarts it on the same directory and asks for
/// every tuple that must be there and every key that must not.
/// Returns `(checked, wrong, restart_s)`.
pub fn restart_and_verify(
    server_bin: &Path,
    ready: Ready,
    spec: &NetSpec,
    stream: &dyn Stream,
) -> io::Result<(u64, u64, f64)> {
    let Ready {
        server, mut conns, ..
    } = ready;
    std::thread::sleep(Duration::from_millis(150));
    let marker = Tuple::new(vec![Value::atom("wal_marker"), Value::Int(1)]);
    conns[0].send_all_expect_ok(std::iter::once(Request::Out(marker.clone())))?;
    drop(conns);
    drop(server);

    let server = Server::spawn(server_bin, &spec.server_flags())?;
    let mut conn = Conn::connect(&server.addr)?;
    conn.send_all_expect_ok(std::iter::once(Request::Ping))?;
    let restart_s = server.spawned_at.elapsed().as_secs_f64();

    let (mut present, absent) = stream.residual();
    present.push(marker);
    let mut expect: HashMap<u64, Response> = HashMap::new();
    let mut replies = Vec::new();
    let (mut checked, mut wrong) = (0u64, 0u64);
    let checks = present
        .into_iter()
        .map(|t| (Request::Rdp(ground(&t)), Response::Tuple(t)))
        .chain(
            absent
                .into_iter()
                .map(|p| (Request::Rdp(p), Response::Failed)),
        );
    let mut settle = |conn: &mut Conn, expect: &mut HashMap<u64, Response>| -> io::Result<()> {
        conn.flush()?;
        while !expect.is_empty() {
            replies.clear();
            conn.recv(&mut replies)?;
            for (id, resp) in replies.drain(..) {
                checked += 1;
                if expect.remove(&id) != Some(resp) {
                    wrong += 1;
                }
            }
        }
        Ok(())
    };
    for (req, want) in checks {
        expect.insert(conn.queue(&req), want);
        if expect.len() == 512 {
            settle(&mut conn, &mut expect)?;
        }
    }
    settle(&mut conn, &mut expect)?;
    drop(conn);
    drop(server);
    Ok((checked, wrong, restart_s))
}
