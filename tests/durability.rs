//! End-to-end durability: WAL round-trip, segment rotation, snapshot
//! pruning, torn-tail tolerance, and crash-point recovery.
//!
//! The crash tests cut a *copy* of a finished run's log at an arbitrary
//! byte and require recovery to land exactly on a commit boundary: the
//! recovered store must be bit-for-bit identical — tuple ids, owners,
//! and values — to replaying the clean run's history up to the commit
//! the cut preserved.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use sdl_core::parallel::ParallelRuntime;
use sdl_core::{CompiledProgram, Runtime};
use sdl_durability::{
    crc32, read_log, recover, FsyncPolicy, SegmentTailer, Wal, WalConfig, WalError,
};
use sdl_metrics::{Counter, Metrics};
use sdl_tuple::{tuple, ProcId, Tuple, TupleId, Value};

/// A fresh, unique scratch directory for one test case.
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "sdl-durability-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config(dir: &Path, fsync: FsyncPolicy, snapshot_every: Option<u64>) -> WalConfig {
    let mut c = WalConfig::new(dir);
    c.fsync = fsync;
    c.snapshot_every = snapshot_every;
    c
}

/// Pairwise summation: plenty of commits, each both retracting and
/// asserting, and confluent under any scheduler. Works threaded too.
const SUM: &str = "process W() { loop { exists a, b : <v, a>!, <v, b>! -> <v, a + b> } }";

fn sum_tuples(n: i64) -> Vec<Tuple> {
    (1..=n).map(|k| tuple![Value::atom("v"), k]).collect()
}

fn sorted(mut pairs: Vec<(TupleId, Tuple)>) -> Vec<(TupleId, Tuple)> {
    pairs.sort();
    pairs
}

/// Runs the summation workload serially with a WAL attached and returns
/// the final store as sorted `(id, tuple)` pairs.
fn run_serial_with_wal(seed: u64, n: i64, cfg: WalConfig) -> Vec<(TupleId, Tuple)> {
    let program = CompiledProgram::from_source(SUM).expect("compiles");
    let wal = Arc::new(Wal::create(cfg, 1, Metrics::disabled()).expect("wal creates"));
    let mut rt = Runtime::builder(program)
        .seed(seed)
        .tuples(sum_tuples(n))
        .spawn("W", vec![])
        .wal(wal)
        .build()
        .expect("builds");
    rt.run().expect("runs");
    sorted(
        rt.dataspace()
            .iter()
            .map(|(id, t)| (id, t.clone()))
            .collect(),
    )
}

/// Threaded flavour of [`run_serial_with_wal`].
fn run_threaded_with_wal(
    seed: u64,
    shards: usize,
    n: i64,
    cfg: WalConfig,
) -> Vec<(TupleId, Tuple)> {
    let program = CompiledProgram::from_source(SUM).expect("compiles");
    let wal = Arc::new(Wal::create(cfg, shards as u64, Metrics::disabled()).expect("wal creates"));
    let rt = ParallelRuntime::builder(program)
        .seed(seed)
        .threads(4)
        .shards(shards)
        .tuples(sum_tuples(n))
        .spawn("W", vec![])
        .spawn("W", vec![])
        .wal(wal)
        .build()
        .expect("builds");
    let (_, ds) = rt.run().expect("runs");
    sorted(ds.iter().map(|(id, t)| (id, t.clone())).collect())
}

#[test]
fn serial_full_log_recovery_matches_the_live_store() {
    for fsync in [
        FsyncPolicy::Always,
        FsyncPolicy::Interval(Duration::from_millis(5)),
    ] {
        for seed in 0..8 {
            let dir = temp_dir("serial");
            let live = run_serial_with_wal(seed, 16, config(&dir, fsync, None));
            let state = recover(&dir, &Metrics::disabled()).expect("recovers");
            assert!(!state.torn_tail, "clean log has no torn tail");
            assert_eq!(
                sorted(state.tuples.clone()),
                live,
                "fsync={fsync} seed={seed}: recovered store diverged"
            );
            fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn threaded_full_log_recovery_matches_the_live_store() {
    for shards in [1usize, 4] {
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::Interval(Duration::from_millis(5)),
        ] {
            for seed in 0..8 {
                let dir = temp_dir("threaded");
                let live = run_threaded_with_wal(seed, shards, 16, config(&dir, fsync, None));
                let state = recover(&dir, &Metrics::disabled()).expect("recovers");
                assert_eq!(state.n_shards, shards as u64);
                assert_eq!(
                    sorted(state.tuples.clone()),
                    live,
                    "shards={shards} fsync={fsync} seed={seed}: recovered store diverged"
                );
                fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// A rounds run ends with the same sync as a serial one: what the fsync
/// policy deferred is on disk before the run returns, so recovery with
/// the runtime (and its buffered log) still alive sees every commit.
#[test]
fn rounds_run_syncs_the_log_at_its_end() {
    for fsync in [
        FsyncPolicy::Interval(Duration::from_secs(60)),
        FsyncPolicy::Never,
    ] {
        let dir = temp_dir("rounds");
        let program = CompiledProgram::from_source(SUM).expect("compiles");
        let cfg = config(&dir, fsync, None);
        let wal = Arc::new(Wal::create(cfg, 1, Metrics::disabled()).expect("wal creates"));
        let mut rt = Runtime::builder(program)
            .tuples(sum_tuples(16))
            .spawn("W", vec![])
            .wal(wal)
            .build()
            .expect("builds");
        let report = rt.run_rounds().expect("runs");
        assert_eq!(report.commits, 15);
        let state = recover(&dir, &Metrics::disabled()).expect("recovers");
        assert_eq!(state.last_commit, 15, "fsync={fsync}");
        let live: Vec<_> = rt
            .dataspace()
            .iter()
            .map(|(id, t)| (id, t.clone()))
            .collect();
        assert_eq!(sorted(state.tuples), sorted(live), "fsync={fsync}");
        drop(rt);
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn rotation_spreads_history_over_segments_and_recovery_reads_them_all() {
    let dir = temp_dir("rotate");
    let mut cfg = config(&dir, FsyncPolicy::Never, None);
    cfg.segment_bytes = 256; // force frequent rotation
    let live = run_serial_with_wal(0, 24, cfg);
    let segments = fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .count();
    assert!(
        segments >= 2,
        "expected rotation, got {segments} segment(s)"
    );
    let state = recover(&dir, &Metrics::disabled()).expect("recovers");
    assert_eq!(sorted(state.tuples.clone()), live);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshots_prune_covered_segments_and_recovery_starts_from_the_snapshot() {
    let dir = temp_dir("snap");
    let mut cfg = config(&dir, FsyncPolicy::Never, Some(4));
    cfg.segment_bytes = 256;
    let live = run_serial_with_wal(0, 24, cfg);
    let state = recover(&dir, &Metrics::disabled()).expect("recovers");
    assert!(
        state.snapshot_commit > 0,
        "periodic snapshots should supersede genesis"
    );
    assert_eq!(sorted(state.tuples.clone()), live);
    // Pruning must have dropped the history the snapshot covers: no
    // surviving segment may start at commit 1.
    let log = read_log(&dir).expect("readable");
    assert!(
        log.records.iter().all(|r| r.commit > state.snapshot_commit) || log.records.is_empty(),
        "records at or below the snapshot commit should have been pruned"
    );
    fs::remove_dir_all(&dir).ok();
}

/// Builds a tiny log by hand: n_shards=1, ids seq 1..=n, no snapshot.
fn hand_log(dir: &Path, n: u64) -> Vec<(TupleId, Tuple)> {
    let wal = Wal::create(
        config(dir, FsyncPolicy::Never, None),
        1,
        Metrics::disabled(),
    )
    .expect("creates");
    let mut asserts = Vec::new();
    for seq in 1..=n {
        let id = TupleId {
            owner: ProcId(7),
            seq,
        };
        let t = tuple![Value::atom("k"), seq as i64];
        wal.append(&[], &[(id, t.clone())]).expect("appends");
        asserts.push((id, t));
    }
    wal.sync().expect("syncs");
    asserts
}

#[test]
fn torn_tail_is_truncated_counted_and_heals() {
    let dir = temp_dir("torn");
    let all = hand_log(&dir, 5);

    // Corrupt the last byte of the only segment: the final record's CRC
    // no longer matches, so recovery must drop exactly that record.
    let seg = fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .expect("segment exists")
        .path();
    let mut bytes = fs::read(&seg).expect("readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&seg, &bytes).expect("writable");

    let (metrics, registry) = Metrics::registry();
    let state = recover(&dir, &metrics).expect("recovers despite torn tail");
    assert!(state.torn_tail);
    assert_eq!(state.last_commit, 4, "final record dropped");
    assert_eq!(sorted(state.tuples.clone()), sorted(all[..4].to_vec()));
    assert_eq!(registry.counter(Counter::WalTornTailTruncations), 1);
    assert_eq!(registry.counter(Counter::RecoveryRecordsReplayed), 4);

    // The truncation is physical: a second recovery sees a clean log.
    let healed = recover(&dir, &Metrics::disabled()).expect("recovers clean");
    assert!(
        !healed.torn_tail,
        "torn tail was truncated on first recovery"
    );
    assert_eq!(healed.last_commit, 4);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn half_written_frame_is_a_torn_tail_not_corruption() {
    let dir = temp_dir("half");
    hand_log(&dir, 3);
    let seg = fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .expect("segment exists")
        .path();
    // Append 5 junk bytes — shorter than a frame header, as if the
    // process died mid-write.
    let mut bytes = fs::read(&seg).expect("readable");
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
    fs::write(&seg, &bytes).expect("writable");

    let state = recover(&dir, &Metrics::disabled()).expect("recovers");
    assert!(state.torn_tail);
    assert_eq!(state.last_commit, 3, "all complete records survive");
    fs::remove_dir_all(&dir).ok();
}

/// Writes segment `wal-<first>` holding `payloads`, each framed by hand
/// (`[u32 len][u32 crc32][payload]`), so the test pins the format.
fn hand_segment(dir: &Path, first: u64, payloads: &[Vec<u8>]) -> PathBuf {
    fs::create_dir_all(dir).expect("mkdir");
    let mut bytes = b"SDLWAL01".to_vec();
    for p in payloads {
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(p).to_le_bytes());
        bytes.extend_from_slice(p);
    }
    let path = dir.join(format!("wal-{first:020}.log"));
    fs::write(&path, bytes).expect("writes");
    path
}

/// A segment header payload: tag 0, format version 1, shard count,
/// first commit.
fn header_payload(n_shards: u64, first: u64) -> Vec<u8> {
    let mut p = vec![0, 1, 0, 0, 0];
    p.extend_from_slice(&n_shards.to_le_bytes());
    p.extend_from_slice(&first.to_le_bytes());
    p
}

/// Frame length of an [`empty_commit`]: 8 header bytes, tag, commit,
/// two zero counts.
const EMPTY_COMMIT_FRAME: u64 = 8 + 1 + 8 + 4 + 4;

/// A commit record payload that retracts and asserts nothing.
fn empty_commit(commit: u64) -> Vec<u8> {
    let mut p = vec![1];
    p.extend_from_slice(&commit.to_le_bytes());
    p.extend_from_slice(&[0; 8]);
    p
}

/// A one-shard segment `wal-<first>` holding empty commits `first..=last`.
fn commits_segment(dir: &Path, first: u64, last: u64) -> PathBuf {
    let mut payloads = vec![header_payload(1, first)];
    payloads.extend((first..=last).map(empty_commit));
    hand_segment(dir, first, &payloads)
}

/// Flips the last byte of record `commit`'s payload in segment `path`,
/// whose first commit is `first`.
fn flip_record(path: &Path, first: u64, commit: u64) {
    let mut bytes = fs::read(path).expect("readable");
    let end = 37 + (commit - first + 1) * EMPTY_COMMIT_FRAME; // magic + header frame
    bytes[end as usize - 1] ^= 0xFF;
    fs::write(path, bytes).expect("writable");
}

/// Appends `junk` to the file at `path`.
fn append_bytes(path: &Path, junk: &[u8]) {
    let mut bytes = fs::read(path).expect("readable");
    bytes.extend_from_slice(junk);
    fs::write(path, bytes).expect("writable");
}

/// Commit numbers of everything one tailer poll returns.
fn poll_commits(tailer: &mut SegmentTailer, up_to: u64) -> Result<Vec<u64>, WalError> {
    Ok(tailer.poll(up_to, 64)?.iter().map(|r| r.commit).collect())
}

fn is_corrupt<T>(r: Result<T, WalError>) -> bool {
    matches!(r, Err(WalError::Corrupt(_)))
}

#[test]
fn a_header_claiming_too_many_shards_is_corrupt() {
    let dir = temp_dir("shards");
    hand_segment(&dir, 1, &[header_payload(u64::MAX, 1)]);
    assert!(matches!(read_log(&dir), Err(WalError::Corrupt(_))));
    assert!(matches!(
        recover(&dir, &Metrics::disabled()),
        Err(WalError::Corrupt(_))
    ));
    let mut tailer = SegmentTailer::new(&dir, 0).expect("opens");
    assert!(matches!(
        tailer.poll(u64::MAX, 16),
        Err(WalError::Corrupt(_))
    ));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_asserted_id_with_seq_zero_is_corrupt() {
    let dir = temp_dir("seq0");
    // Commit 1: no retracts, one assert of id (owner 7, seq 0) = <5>.
    let mut commit = vec![1];
    commit.extend_from_slice(&1u64.to_le_bytes());
    commit.extend_from_slice(&0u32.to_le_bytes());
    commit.extend_from_slice(&1u32.to_le_bytes());
    commit.extend_from_slice(&7u64.to_le_bytes());
    commit.extend_from_slice(&0u64.to_le_bytes());
    commit.extend_from_slice(&[1, 0, 0, 0, 1]); // arity 1, Int tag
    commit.extend_from_slice(&5i64.to_le_bytes());
    hand_segment(&dir, 1, &[header_payload(1, 1), commit]);
    assert!(matches!(
        recover(&dir, &Metrics::disabled()),
        Err(WalError::Corrupt(_))
    ));
    fs::remove_dir_all(&dir).ok();
}

// Where a segment's clean prefix ends, recovery and the tailer each
// apply their own policy: the tests below pin every case.

#[test]
fn recovery_truncates_a_partial_frame_in_the_newest_segment() {
    let dir = temp_dir("partial-newest");
    let seg = commits_segment(&dir, 1, 3);
    let clean_len = fs::metadata(&seg).expect("meta").len();
    append_bytes(&seg, &[0x40, 0, 0, 0, 1, 2]);
    let state = recover(&dir, &Metrics::disabled()).expect("recovers");
    assert!(state.torn_tail);
    assert_eq!(state.last_commit, 3);
    assert_eq!(fs::metadata(&seg).expect("meta").len(), clean_len);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_refuses_a_partial_frame_before_a_successor() {
    let dir = temp_dir("partial-older");
    let seg = commits_segment(&dir, 1, 3);
    append_bytes(&seg, &[0x40, 0, 0, 0, 1, 2]);
    commits_segment(&dir, 4, 5);
    assert!(is_corrupt(read_log(&dir)));
    assert!(is_corrupt(recover(&dir, &Metrics::disabled())));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_truncates_a_damaged_frame_in_the_newest_segment() {
    let dir = temp_dir("damaged-newest");
    let two = fs::metadata(commits_segment(&dir, 1, 2))
        .expect("meta")
        .len();
    let seg = commits_segment(&dir, 1, 3);
    flip_record(&seg, 1, 3);
    let state = recover(&dir, &Metrics::disabled()).expect("recovers");
    assert!(state.torn_tail);
    assert_eq!(state.last_commit, 2);
    assert_eq!(fs::metadata(&seg).expect("meta").len(), two);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_refuses_a_damaged_older_segment() {
    let dir = temp_dir("damaged-older");
    let seg = commits_segment(&dir, 1, 3);
    flip_record(&seg, 1, 2);
    commits_segment(&dir, 4, 5);
    assert!(is_corrupt(read_log(&dir)));
    assert!(is_corrupt(recover(&dir, &Metrics::disabled())));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_refuses_a_missing_middle_segment() {
    let dir = temp_dir("missing");
    commits_segment(&dir, 1, 3);
    commits_segment(&dir, 7, 8);
    assert!(is_corrupt(read_log(&dir)));
    assert!(is_corrupt(recover(&dir, &Metrics::disabled())));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_refuses_a_history_gap_after_the_snapshot() {
    let dir = temp_dir("gap");
    // Snapshot of commit 3: format version 1, commit, one shard whose
    // cursor is 1, no tuples. The log resumes at commit 6.
    let mut snap = vec![1, 0, 0, 0];
    for v in [3u64, 1, 1, 0] {
        snap.extend_from_slice(&v.to_le_bytes());
    }
    let mut bytes = b"SDLSNAP1".to_vec();
    bytes.extend_from_slice(&(snap.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&snap).to_le_bytes());
    bytes.extend_from_slice(&snap);
    commits_segment(&dir, 6, 7);
    fs::write(dir.join(format!("snap-{:020}.snap", 3)), bytes).expect("writes");
    assert!(is_corrupt(read_log(&dir)));
    assert!(is_corrupt(recover(&dir, &Metrics::disabled())));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_magic_in_the_newest_segment_is_a_torn_tail_and_goes() {
    let dir = temp_dir("magic");
    commits_segment(&dir, 1, 3);
    let seg = commits_segment(&dir, 4, 5);
    let mut bytes = fs::read(&seg).expect("readable");
    bytes[0] ^= 0xFF;
    fs::write(&seg, bytes).expect("writable");
    let state = recover(&dir, &Metrics::disabled()).expect("recovers");
    assert!(state.torn_tail);
    assert_eq!(state.last_commit, 3);
    assert!(!seg.exists(), "a segment torn before its first record goes");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn tailer_waits_on_a_half_written_frame_then_ships_it() {
    let dir = temp_dir("tail-half");
    let seg = commits_segment(&dir, 1, 1);
    let mut frame = Vec::new();
    let payload = empty_commit(2);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    append_bytes(&seg, &frame[..11]);
    let mut tailer = SegmentTailer::new(&dir, 0).expect("opens");
    assert_eq!(poll_commits(&mut tailer, u64::MAX).expect("polls"), [1]);
    assert!(poll_commits(&mut tailer, u64::MAX)
        .expect("polls")
        .is_empty());
    append_bytes(&seg, &frame[11..]);
    assert_eq!(poll_commits(&mut tailer, u64::MAX).expect("polls"), [2]);
    assert_eq!(tailer.next_commit(), 3);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn tailer_refuses_a_crc_flip_behind_the_watermark() {
    for older in [false, true] {
        let dir = temp_dir("tail-crc");
        let seg = commits_segment(&dir, 1, 3);
        flip_record(&seg, 1, 2);
        if older {
            commits_segment(&dir, 4, 5);
        }
        let mut tailer = SegmentTailer::new(&dir, 0).expect("opens");
        assert!(is_corrupt(tailer.poll(3, 64)), "older={older}");
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn tailer_refuses_trailing_bytes_before_a_successor() {
    let dir = temp_dir("tail-trailing");
    let seg = commits_segment(&dir, 1, 3);
    append_bytes(&seg, &[0x40, 0, 0, 0, 1]);
    commits_segment(&dir, 4, 5);
    let mut tailer = SegmentTailer::new(&dir, 0).expect("opens");
    assert!(is_corrupt(tailer.poll(u64::MAX, 64)));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn tailer_crosses_into_the_successor_segment() {
    let dir = temp_dir("tail-cross");
    commits_segment(&dir, 1, 2);
    commits_segment(&dir, 3, 4);
    let mut tailer = SegmentTailer::new(&dir, 0).expect("opens");
    assert_eq!(
        poll_commits(&mut tailer, u64::MAX).expect("polls"),
        [1, 2, 3, 4]
    );
    assert_eq!(tailer.next_commit(), 5);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn tailer_skips_records_below_its_start() {
    let dir = temp_dir("tail-skip");
    commits_segment(&dir, 1, 5);
    let mut tailer = SegmentTailer::new(&dir, 3).expect("opens");
    assert_eq!(tailer.next_commit(), 4);
    assert_eq!(poll_commits(&mut tailer, u64::MAX).expect("polls"), [4, 5]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn id_minting_continues_after_recovery() {
    let dir = temp_dir("resume");
    hand_log(&dir, 3);
    let state = recover(&dir, &Metrics::disabled()).expect("recovers");
    assert_eq!(state.cursors, vec![4], "next seq follows the log");
    let wal = Wal::resume(
        config(&dir, FsyncPolicy::Never, None),
        &state,
        Metrics::disabled(),
    )
    .expect("resumes");
    let id = TupleId {
        owner: ProcId(9),
        seq: 4,
    };
    let commit = wal
        .append(&[], &[(id, tuple![Value::atom("k"), 99])])
        .expect("appends");
    assert_eq!(commit, 4, "commit numbers continue unbroken");
    wal.sync().expect("syncs");
    let again = recover(&dir, &Metrics::disabled()).expect("recovers");
    assert_eq!(again.last_commit, 4);
    assert_eq!(again.cursors, vec![5]);
    fs::remove_dir_all(&dir).ok();
}

/// Copies a WAL directory, then truncates its global byte stream at
/// `offset` (segments in commit order): the segment holding the offset
/// is cut there and every later segment is deleted, exactly as if the
/// process had been killed at that point of its append stream.
fn cut_log_at(src: &Path, dst: &Path, offset: u64) {
    fs::create_dir_all(dst).expect("mkdir");
    let mut segments: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(src).expect("dir").filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("wal-") {
            segments.push(entry.path());
        } else {
            fs::copy(entry.path(), dst.join(&name)).expect("copy snapshot");
        }
    }
    segments.sort();
    let mut remaining = offset;
    for seg in segments {
        let bytes = fs::read(&seg).expect("readable");
        let name = seg.file_name().expect("name");
        if remaining >= bytes.len() as u64 {
            fs::write(dst.join(name), &bytes).expect("copy");
            remaining -= bytes.len() as u64;
        } else {
            fs::write(dst.join(name), &bytes[..remaining as usize]).expect("cut");
            return; // later segments were never written
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill-anywhere crash consistency: cut the log at an arbitrary
    /// byte, recover, and the result must equal replaying the clean
    /// run's history up to whatever commit survived the cut — ids and
    /// owners included.
    #[test]
    fn recovery_from_any_cut_point_is_a_commit_prefix(
        seed in 0u64..8,
        cut in 0.0f64..1.0,
        threaded in any::<bool>(),
        wide in any::<bool>(),
    ) {
        let dir = temp_dir("cut-src");
        let cfg = config(&dir, FsyncPolicy::Never, None);
        if threaded {
            run_threaded_with_wal(seed, if wide { 4 } else { 1 }, 12, cfg);
        } else {
            run_serial_with_wal(seed, 12, cfg);
        }
        let full = read_log(&dir).expect("clean log reads");
        prop_assert!(!full.records.is_empty());

        let total: u64 = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .map(|e| e.metadata().expect("meta").len())
            .sum();
        let offset = (total as f64 * cut) as u64;
        let cut_dir = temp_dir("cut-dst");
        cut_log_at(&dir, &cut_dir, offset);

        let state = recover(&cut_dir, &Metrics::disabled()).expect("recovery never fails on a cut");
        let k = state.last_commit;
        prop_assert!(k <= full.records.last().expect("nonempty").commit);

        // Oracle: genesis snapshot + the first records up to commit k.
        let mut expected: BTreeMap<TupleId, Tuple> =
            full.snapshot_tuples.iter().cloned().collect();
        for rec in full.records.iter().filter(|r| r.commit <= k) {
            for id in &rec.retracts {
                prop_assert!(expected.remove(id).is_some());
            }
            for (id, t) in &rec.asserts {
                prop_assert!(expected.insert(*id, t.clone()).is_none());
            }
        }
        let expected: Vec<(TupleId, Tuple)> = expected.into_iter().collect();
        prop_assert_eq!(sorted(state.tuples.clone()), expected);

        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&cut_dir).ok();
    }
}
