//! Log-shipping replication: the retention floor that keeps attached
//! followers gap-free through snapshot pruning, and the catchup
//! property — a follower attaching mid-stream, killed and re-attached
//! at arbitrary commit cuts, converges bit-for-bit (ids included) with
//! the leader's log.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use sdl_durability::{
    crc32, read_log, CommitRecord, FsyncPolicy, SegmentTailer, Wal, WalConfig, WalError,
};
use sdl_metrics::Metrics;
use sdl_replication::{serve_ship, FollowEvent, FollowerConn, ShipConfig};
use sdl_server::wire::{encode_request, Request};
use sdl_tuple::{tuple, ProcId, Tuple, TupleId, Value};

/// A fresh, unique scratch directory for one test case.
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "sdl-replication-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config(dir: &Path) -> WalConfig {
    let mut c = WalConfig::new(dir);
    c.fsync = FsyncPolicy::Never;
    c.segment_bytes = 256; // rotate often so pruning has segments to drop
    c
}

/// A hand-driven single-shard leader: sequential ids (the strided mint
/// for one shard), a live-tuple model, and snapshot-when-due, exactly
/// the discipline the runtimes follow.
struct Leader {
    wal: Arc<Wal>,
    next_seq: u64,
    live: BTreeMap<TupleId, Tuple>,
}

impl Leader {
    fn new(wal: Arc<Wal>) -> Leader {
        Leader {
            wal,
            next_seq: 1,
            live: BTreeMap::new(),
        }
    }

    /// One commit: optionally retract the oldest live tuple, then
    /// assert `n_assert` fresh ones.
    fn commit(&mut self, retract_oldest: bool, n_assert: usize) {
        let mut retracts = Vec::new();
        if retract_oldest {
            if let Some((&id, _)) = self.live.iter().next() {
                retracts.push(id);
                self.live.remove(&id);
            }
        }
        let mut asserts = Vec::new();
        for _ in 0..n_assert {
            let id = TupleId {
                owner: ProcId(3),
                seq: self.next_seq,
            };
            let t = tuple![Value::atom("k"), self.next_seq as i64];
            self.next_seq += 1;
            self.live.insert(id, t.clone());
            asserts.push((id, t));
        }
        self.wal.append(&retracts, &asserts).expect("append");
        if self.wal.snapshot_due() {
            let tuples: Vec<(TupleId, Tuple)> =
                self.live.iter().map(|(id, t)| (*id, t.clone())).collect();
            self.wal
                .write_snapshot(&[self.next_seq], &tuples)
                .expect("snapshot");
        }
    }
}

/// Reads every record after `after` up to `up_to` through the tailer
/// and asserts the commit numbers are gapless.
fn tail_contiguous(dir: &Path, after: u64, up_to: u64) -> Vec<CommitRecord> {
    let mut tailer = SegmentTailer::new(dir, after).expect("tailer positions");
    let mut records = Vec::new();
    loop {
        let batch = tailer.poll(up_to, 64).expect("poll");
        if batch.is_empty() {
            break;
        }
        records.extend(batch);
    }
    let commits: Vec<u64> = records.iter().map(|r| r.commit).collect();
    let expected: Vec<u64> = (after + 1..=up_to).collect();
    assert_eq!(commits, expected, "tailer saw a gap after commit {after}");
    records
}

/// Splits one `[u32 len][u32 crc32][payload]` frame off the front of
/// `bytes`, checking its CRC: `(payload, rest)`.
fn split_checked(bytes: &[u8]) -> (&[u8], &[u8]) {
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let (payload, rest) = bytes[8..].split_at(len);
    assert_eq!(crc32(payload), crc, "frame CRC");
    (payload, rest)
}

/// Reads one frame's payload off a socket.
fn read_frame(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut header = [0u8; 8];
    stream.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let mut framed = header.to_vec();
    framed.resize(8 + len, 0);
    stream.read_exact(&mut framed[8..]).expect("frame payload");
    split_checked(&framed).0.to_vec()
}

/// One tuple holding every value variant is the same bytes in an
/// `SDLNET01` `Out`, a WAL commit record and an `SDLREPL1` `Commit`,
/// and those bytes are the layout logs have been written in.
#[test]
fn one_tuple_is_the_same_bytes_in_all_three_protocols() {
    use std::io::Write;
    let t = Tuple::new(vec![
        Value::Bool(true),
        Value::Int(-2),
        Value::Float(1.5),
        Value::atom("a"),
        Value::Str("s".into()),
        Value::Pid(ProcId(3)),
        Value::Tid(TupleId {
            owner: ProcId(4),
            seq: 5,
        }),
    ]);
    #[rustfmt::skip]
    let pinned: &[u8] = &[
        7, 0, 0, 0, // arity
        0, 1, // Bool true
        1, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // Int -2
        2, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F, // Float 1.5 (bits)
        3, 1, 0, 0, 0, b'a', // Atom "a"
        4, 1, 0, 0, 0, b's', // Str "s"
        5, 3, 0, 0, 0, 0, 0, 0, 0, // Pid 3
        6, 4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, // Tid (4, 5)
    ];
    // A commit record's one assert: tag, commit, 0 retracts, 1 assert,
    // id (owner, seq), then the tuple.
    let record_prefix = 1 + 8 + 4 + 4 + 16;

    // SDLNET01: req id, opcode, tuple.
    let net = encode_request(9, &Request::Out(t.clone()));
    assert_eq!(&net[9..], pinned, "SDLNET01 Out");

    // WAL: the commit frame after the magic and the header frame.
    let dir = temp_dir("layout");
    let wal = Arc::new(Wal::create(config(&dir), 1, Metrics::disabled()).expect("create"));
    let id = TupleId {
        owner: ProcId(3),
        seq: 1,
    };
    wal.append(&[], &[(id, t)]).expect("append");
    wal.sync().expect("sync");
    let segment = fs::read(dir.join(format!("wal-{:020}.log", 1))).expect("segment");
    assert_eq!(&segment[..8], b"SDLWAL01");
    let (_header, rest) = split_checked(&segment[8..]);
    let (record, rest) = split_checked(rest);
    assert!(rest.is_empty());
    assert_eq!(&record[record_prefix..], pinned, "WAL commit record");

    // SDLREPL1: a fresh follower resumes from the log; after `HelloAck`
    // comes the `Commit` (tag 5, then the record).
    let mut ship = serve_ship(
        ShipConfig::new("127.0.0.1:0", "unused"),
        Arc::clone(&wal),
        Metrics::disabled(),
    )
    .expect("ship server");
    let mut stream = std::net::TcpStream::connect(ship.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(b"SDLREPL1").expect("magic");
    let mut hello = vec![0, 1, 0, 0, 0]; // Hello, version 1
    hello.extend_from_slice(&0u64.to_le_bytes()); // last commit
    hello.extend_from_slice(&0u64.to_le_bytes()); // no store yet
    let mut framed = (hello.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&crc32(&hello).to_le_bytes());
    framed.extend_from_slice(&hello);
    stream.write_all(&framed).expect("hello");
    let mut magic = [0u8; 8];
    std::io::Read::read_exact(&mut stream, &mut magic).expect("magic echo");
    assert_eq!(&magic, b"SDLREPL1");
    assert_eq!(read_frame(&mut stream)[0], 1, "HelloAck");
    let commit = read_frame(&mut stream);
    assert_eq!(commit[0], 5, "Commit");
    assert_eq!(
        &commit[1..],
        record,
        "Commit carries the log frame's payload"
    );
    assert_eq!(&commit[1 + record_prefix..], pinned, "SDLREPL1 Commit");

    drop(stream);
    ship.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn pruning_never_drops_segments_an_attached_follower_needs() {
    let dir = temp_dir("floor");
    let mut cfg = config(&dir);
    cfg.snapshot_every = Some(6);
    let wal = Arc::new(Wal::create(cfg, 1, Metrics::disabled()).expect("create"));
    let mut leader = Leader::new(Arc::clone(&wal));

    // A slow follower attaches before any history and never acks: its
    // pin holds the whole log at commit 0.
    let plan = wal.pin_for_bootstrap(0).expect("plan");
    assert!(plan.snapshot.is_none(), "fresh log resumes from the log");
    assert_eq!(plan.start_after, 0);

    // Plenty of snapshot-due commits: without the pin these would prune.
    for k in 0..30 {
        leader.commit(k % 3 == 0, 1 + k % 2);
    }
    let last = wal.last_appended();
    wal.flush_os().expect("flush");

    // Every commit is still tailable with no gap — the floor held.
    tail_contiguous(&dir, 0, last);

    // The follower crawls to the midpoint; history behind it may go,
    // history ahead of it must not.
    let mid = last / 2;
    wal.move_retention(plan.pin, mid);
    for k in 0..12 {
        leader.commit(k % 4 == 0, 1);
    }
    let last = wal.last_appended();
    wal.flush_os().expect("flush");
    tail_contiguous(&dir, mid, last);

    // Detach: the pin releases and the next snapshot prunes freely.
    wal.release_retention(plan.pin);
    for _ in 0..8 {
        leader.commit(false, 1);
    }
    let log = read_log(&dir).expect("readable");
    assert!(
        log.records.first().is_none_or(|r| r.commit > mid),
        "released pin should let pruning advance past commit {mid}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_retain_keeps_a_log_tail_for_detached_followers() {
    let dir = temp_dir("retain");
    let mut cfg = config(&dir);
    cfg.snapshot_every = Some(5);
    cfg.retain_commits = Some(8);
    let wal = Arc::new(Wal::create(cfg, 1, Metrics::disabled()).expect("create"));
    let mut leader = Leader::new(Arc::clone(&wal));
    for k in 0..30 {
        leader.commit(k % 3 == 1, 1);
    }
    let last = wal.last_appended();
    wal.flush_os().expect("flush");

    // No follower is attached, yet the newest 8 commits survive every
    // snapshot prune, so a briefly-detached follower resumes from the
    // log instead of re-bootstrapping.
    tail_contiguous(&dir, last - 8, last);
    let plan = wal.pin_for_bootstrap(last - 8).expect("plan");
    assert!(
        plan.snapshot.is_none(),
        "a follower inside the retained tail resumes from the log"
    );
    assert_eq!(plan.start_after, last - 8);
    wal.release_retention(plan.pin);

    // A follower further back than the retained tail re-bootstraps.
    let plan = wal.pin_for_bootstrap(2).expect("plan");
    assert!(
        plan.snapshot.is_some(),
        "history at commit 2 was pruned; bootstrap must use a snapshot"
    );
    wal.release_retention(plan.pin);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_follower_claiming_the_last_commit_number_leaves_the_wal_usable() {
    let dir = temp_dir("claim-max");
    let mut cfg = config(&dir);
    cfg.snapshot_every = Some(4);
    let wal = Arc::new(Wal::create(cfg, 1, Metrics::disabled()).expect("create"));
    let mut leader = Leader::new(Arc::clone(&wal));
    for _ in 0..6 {
        leader.commit(false, 1);
    }
    // A `Hello` may claim any position; one past the end of history
    // gets the snapshot, never a resume from the log.
    match wal.pin_for_bootstrap(u64::MAX) {
        Ok(plan) => {
            assert!(plan.snapshot.is_some(), "bootstraps from the snapshot");
            wal.release_retention(plan.pin);
        }
        Err(e) => assert!(matches!(e, WalError::Corrupt(_)), "{e}"),
    }
    leader.commit(false, 1);
    assert_eq!(wal.last_appended(), 7);
    fs::remove_dir_all(&dir).ok();
}

/// Applies one shipped record to a replica map, asserting the same
/// invariants recovery enforces: retracts hit, asserts are fresh.
fn apply_record(replica: &mut BTreeMap<TupleId, Tuple>, rec: &CommitRecord) {
    for id in &rec.retracts {
        assert!(replica.remove(id).is_some(), "retract of unknown id {id:?}");
    }
    for (id, t) in &rec.asserts {
        assert!(
            replica.insert(*id, t.clone()).is_none(),
            "assert of duplicate id {id:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Follower catchup: random leader workload, the follower attaching
    /// only after `pre` commits exist, killed and re-attached at random
    /// commit cuts while the leader keeps committing — and the replica
    /// must end bit-for-bit identical to the leader's live store.
    #[test]
    fn follower_catchup_is_bit_for_bit(
        seed in 0u64..1_000,
        pre in 4usize..16,
        post in 8usize..40,
        cut_fracs in proptest::collection::vec(0.05f64..0.95, 0..3),
        snapshot_every in prop_oneof![Just(None), Just(Some(5u64))],
    ) {
        let dir = temp_dir("catchup");
        let mut cfg = config(&dir);
        cfg.snapshot_every = snapshot_every;
        let wal = Arc::new(Wal::create(cfg, 1, Metrics::disabled()).expect("create"));
        let mut leader = Leader::new(Arc::clone(&wal));

        // Deterministic op mix from the proptest seed.
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..pre {
            let r = next();
            leader.commit(r % 3 == 0, 1 + (r % 2) as usize);
        }

        let ship = serve_ship(
            ShipConfig::new("127.0.0.1:0", "unused"),
            Arc::clone(&wal),
            Metrics::disabled(),
        )
        .expect("ship server");
        let addr = ship.local_addr().to_string();

        // The leader keeps committing while the follower replays.
        let total = (pre + post) as u64 * 3; // upper bound, exact below
        let done = Arc::new(AtomicBool::new(false));
        let appender = {
            let done = Arc::clone(&done);
            let mut ops: Vec<(bool, usize)> = Vec::new();
            for _ in 0..post {
                let r = next();
                ops.push((r % 3 == 0, 1 + (r % 2) as usize));
            }
            std::thread::spawn(move || {
                for (retract, n) in ops {
                    leader.commit(retract, n);
                    std::thread::sleep(Duration::from_micros(300));
                }
                let last = leader.wal.last_appended();
                let model = leader.live.clone();
                done.store(true, Ordering::SeqCst);
                (last, model)
            })
        };
        prop_assert!(total > 0);

        // Kill points in commit space, relative to the final count.
        let final_commits = (pre + post) as u64;
        let mut kills: Vec<u64> = cut_fracs
            .iter()
            .map(|f| ((final_commits as f64) * f) as u64)
            .filter(|&c| c > 0)
            .collect();
        kills.sort_unstable();

        let mut replica: BTreeMap<TupleId, Tuple> = BTreeMap::new();
        let mut applied = 0u64;
        let mut conn = FollowerConn::connect(&addr, applied, 0).expect("attach");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            prop_assert!(Instant::now() < deadline, "catchup stalled at {applied}");
            // Killed at this cut: drop the link and re-attach from the
            // replica's own position (the leader may have pruned past
            // it, in which case the bootstrap snapshot resets us).
            if kills.first().is_some_and(|&k| applied >= k) {
                kills.remove(0);
                drop(conn);
                conn = FollowerConn::connect(&addr, applied, 1).expect("re-attach");
            }
            match conn.next_event().expect("event") {
                Some(FollowEvent::Snapshot(base)) => {
                    replica = base.tuples.into_iter().collect();
                    applied = base.commit;
                    conn.ack(applied).expect("ack");
                }
                Some(FollowEvent::Commit(rec)) => {
                    prop_assert_eq!(rec.commit, applied + 1, "commit gap");
                    apply_record(&mut replica, &rec);
                    applied = rec.commit;
                    conn.ack(applied).expect("ack");
                }
                Some(FollowEvent::Watermark(_)) | None => {}
            }
            if done.load(Ordering::SeqCst) && applied == wal.last_appended() {
                break;
            }
        }
        drop(conn);

        let (last, model) = appender.join().expect("appender");
        prop_assert_eq!(applied, last);
        // Bit-for-bit: ids, owners, and values all match the leader.
        prop_assert_eq!(replica, model);

        let mut ship = ship;
        ship.shutdown();
        fs::remove_dir_all(&dir).ok();
    }
}
