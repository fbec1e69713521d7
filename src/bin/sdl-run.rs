//! `sdl-run` — run an SDL program from a `.sdl` source file.
//!
//! ```text
//! sdl-run <file.sdl> [--seed N] [--rounds] [--threaded] [--trace] [--stats]
//!         [--metrics] [--metrics-addr HOST:PORT] [--serve-for-ms N]
//!         [--trace-out FILE] [--stall-ms N] [--events-out FILE]
//!         [--trace-cap N] [--threads N] [--shards N] [--max-attempts N]
//!         [--grid WxH] [--wal DIR] [--fsync POLICY]
//!         [--snapshot-every N] [--recover]
//! sdl-run --replay DIR [<file.sdl> ...]
//! ```
//!
//! * `--rounds`          use the maximal-parallel-rounds scheduler
//! * `--threaded`        use the multithreaded optimistic executor
//! * `--threads N`       worker threads for `--threaded` (default: CPUs)
//! * `--shards N`        dataspace shards for `--threaded` (default:
//!   CPUs; `1` reproduces the single-lock executor bit-for-bit); the
//!   other schedulers run on one shard and reject both flags
//! * `--trace`           print the event timeline after the run
//! * `--trace-cap N`     buffer at most N trace records; the timeline and
//!   the `--trace-out` export keep the first N, the rest are counted as
//!   dropped
//! * `--stats`           print per-process statistics (streams; does not
//!   retain the records)
//! * `--metrics`         print a Prometheus text-format metrics snapshot
//! * `--metrics-addr A`  serve live metrics over HTTP at `A` (e.g.
//!   `127.0.0.1:9464`; port `0` picks an ephemeral port, printed to
//!   stderr) — works with every scheduler
//! * `--serve-for-ms N`  keep the metrics endpoint up N ms after the
//!   run finishes, so scrapers can collect the final counters
//! * `--trace-out FILE`  record causal transaction traces (span chain,
//!   wake/conflict attribution) and write Chrome/Perfetto trace-event
//!   JSON to FILE; open it at <https://ui.perfetto.dev>. Works with
//!   every scheduler; a per-phase summary and the causal critical path
//!   are printed after the run
//!
//! `--trace`, `--stats`, `--events-out` and `--trace-out` all read the one
//! record stream: while the run executes, a second thread drains it and
//! feeds each batch to the views asked for.
//! * `--stall-ms N`      arm the stall watchdog: processes parked
//!   longer than N ms are flagged in the `sdl_stalled_processes` gauge
//!   and annotated in the trace with watch keys and near-miss commits
//! * `--events-out FILE` stream the event view to FILE as JSON Lines
//! * `--grid WxH`        register the `neighbor` predicate for a W×H grid
//! * `--seed N`          scheduler seed (default 0)
//! * `--wal DIR`         log every committed batch to a write-ahead log
//!   in DIR (works with every scheduler)
//! * `--fsync POLICY`    WAL durability: `always`, `interval[:<ms>]`
//!   (default, 100 ms), or `never`
//! * `--snapshot-every N` snapshot the store every N commits and prune
//!   the log history the snapshot covers
//! * `--recover`         rebuild the store from the WAL in `--wal DIR`
//!   before running (tolerates a torn tail in the newest segment)
//! * `--replay DIR`      reconstruct the final store from the WAL in DIR
//!   without running anything; with a `.sdl` file as well, run it live
//!   and diff the two stores bit-for-bit (exit 1 on mismatch)

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sdl::core::parallel::ParallelRuntime;
use sdl::core::{
    Builtins, CompiledProgram, RunLimits, Runtime, RuntimeBuilder, TraceRecord, Tracer,
};
use sdl::dataspace::{Dataspace, MAX_SHARDS};
use sdl::durability::{apply_log, read_log, recover, FsyncPolicy, RecoveredState, Wal, WalConfig};
use sdl::metrics::Metrics;
use sdl::metrics_http::MetricsServer;
use sdl::trace::{analysis, events, perfetto, render_dataspace, Stats};
use sdl::tuple::{Tuple, TupleId};

struct Args {
    file: String,
    seed: u64,
    rounds: bool,
    threaded: bool,
    threads: Option<usize>,
    shards: Option<usize>,
    trace: bool,
    trace_cap: Option<usize>,
    stats: bool,
    metrics: bool,
    metrics_addr: Option<String>,
    serve_for_ms: u64,
    trace_out: Option<String>,
    stall_ms: Option<u64>,
    events_out: Option<String>,
    max_attempts: u64,
    grid: Option<(i64, i64)>,
    wal: Option<PathBuf>,
    fsync: FsyncPolicy,
    snapshot_every: Option<u64>,
    recover: bool,
    replay: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sdl-run <file.sdl> [--seed N] [--rounds] [--threaded] [--trace] \
         [--stats] [--metrics] [--metrics-addr HOST:PORT] [--serve-for-ms N] \
         [--trace-out FILE] [--stall-ms N] [--events-out FILE] [--trace-cap N] \
         [--threads N] [--shards N] [--max-attempts N] [--grid WxH] [--wal DIR] \
         [--fsync always|interval[:<ms>]|never] [--snapshot-every N] [--recover]\n\
         \x20      sdl-run --replay DIR [<file.sdl> ...]"
    );
    std::process::exit(2)
}

/// The next argument as a flag's value; a missing or malformed one
/// prints the usage.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
    it.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// A flag's value that must be a positive count.
fn positive(it: &mut impl Iterator<Item = String>) -> u64 {
    Some(value(it))
        .filter(|&n| n > 0)
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args {
        file: String::new(),
        seed: 0,
        rounds: false,
        threaded: false,
        threads: None,
        shards: None,
        trace: false,
        trace_cap: None,
        stats: false,
        metrics: false,
        metrics_addr: None,
        serve_for_ms: 0,
        trace_out: None,
        stall_ms: None,
        events_out: None,
        max_attempts: RunLimits::default().max_attempts,
        grid: None,
        wal: None,
        fsync: FsyncPolicy::default(),
        snapshot_every: None,
        recover: false,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => args.seed = value(&mut it),
            "--rounds" => args.rounds = true,
            "--threaded" => args.threaded = true,
            "--threads" => args.threads = Some(value(&mut it)),
            "--shards" => args.shards = Some(value(&mut it)),
            "--trace" => args.trace = true,
            "--trace-cap" => args.trace_cap = Some(value(&mut it)),
            "--stats" => args.stats = true,
            "--metrics" => args.metrics = true,
            "--metrics-addr" => args.metrics_addr = Some(value(&mut it)),
            "--serve-for-ms" => args.serve_for_ms = value(&mut it),
            "--trace-out" => args.trace_out = Some(value(&mut it)),
            "--stall-ms" => args.stall_ms = Some(positive(&mut it)),
            "--events-out" => args.events_out = Some(value(&mut it)),
            "--max-attempts" => args.max_attempts = value(&mut it),
            "--grid" => {
                let spec: String = value(&mut it);
                let (w, h) = spec.split_once('x').unwrap_or_else(|| usage());
                args.grid = Some((
                    w.parse().unwrap_or_else(|_| usage()),
                    h.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--wal" => args.wal = Some(value(&mut it)),
            "--fsync" => {
                let spec: String = value(&mut it);
                args.fsync = spec.parse().unwrap_or_else(|e| {
                    eprintln!("sdl-run: {e}");
                    std::process::exit(2)
                })
            }
            "--snapshot-every" => args.snapshot_every = Some(positive(&mut it)),
            "--recover" => args.recover = true,
            "--replay" => args.replay = Some(value(&mut it)),
            "--help" | "-h" => usage(),
            f if args.file.is_empty() && !f.starts_with('-') => args.file = f.to_owned(),
            _ => usage(),
        }
    }
    if args.file.is_empty() && args.replay.is_none() {
        usage();
    }
    if args.recover && args.wal.is_none() {
        eprintln!("sdl-run: --recover needs --wal DIR");
        std::process::exit(2)
    }
    if args.replay.is_some() && args.wal.is_some() {
        eprintln!("sdl-run: --replay is read-only; it cannot be combined with --wal");
        std::process::exit(2)
    }
    // The serial and rounds schedulers run on one shard; --replay takes
    // its shard count from the log.
    if !args.threaded && args.replay.is_none() && (args.threads.is_some() || args.shards.is_some())
    {
        eprintln!("sdl-run: --threads and --shards need --threaded");
        std::process::exit(2)
    }
    args
}

/// The write-ahead log to attach to a runtime: none, a fresh log, or a
/// resumed log plus the state recovered from it.
enum WalSetup {
    None,
    Fresh(Arc<Wal>),
    Recovered(Arc<Wal>, RecoveredState),
}

/// Opens (or recovers) the WAL named by `--wal` for a runtime with
/// `n_shards` id-mint shards.
fn open_wal(args: &Args, n_shards: u64, metrics: &Metrics) -> Result<WalSetup, String> {
    let Some(dir) = &args.wal else {
        return Ok(WalSetup::None);
    };
    let mut config = WalConfig::new(dir);
    config.fsync = args.fsync;
    config.snapshot_every = args.snapshot_every;
    if args.recover {
        let state = recover(dir, metrics).map_err(|e| e.to_string())?;
        state.check_shards(n_shards).map_err(|e| e.to_string())?;
        if state.torn_tail {
            eprintln!("sdl-run: wal had a torn tail; truncated to the last durable commit");
        }
        eprintln!(
            "sdl-run: recovered {} tuple(s) at commit {} ({} record(s) replayed)",
            state.tuples.len(),
            state.last_commit,
            state.records_replayed
        );
        let wal = Wal::resume(config, &state, metrics.clone()).map_err(|e| e.to_string())?;
        Ok(WalSetup::Recovered(Arc::new(wal), state))
    } else {
        let wal = Wal::create(config, n_shards, metrics.clone()).map_err(|e| e.to_string())?;
        Ok(WalSetup::Fresh(Arc::new(wal)))
    }
}

/// Applies the flags every runtime shares, plus its metrics, tracer and
/// write-ahead log.
fn configure<R>(
    b: RuntimeBuilder<R>,
    args: &Args,
    builtins: Builtins,
    metrics: Metrics,
    tracer: Tracer,
    wal: WalSetup,
) -> RuntimeBuilder<R> {
    let mut b = b
        .seed(args.seed)
        .builtins(builtins)
        .metrics(metrics)
        .tracer(tracer)
        .limits(RunLimits {
            max_attempts: args.max_attempts,
        });
    if let Some(ms) = args.stall_ms {
        b = b.stall_threshold(Duration::from_millis(ms));
    }
    match wal {
        WalSetup::None => b,
        WalSetup::Fresh(wal) => b.wal(wal),
        WalSetup::Recovered(wal, state) => b.wal(wal).recover_from(state),
    }
}

/// A threaded-executor builder over `shards` shards, with `--threads`.
fn threaded(
    args: &Args,
    program: CompiledProgram,
    shards: usize,
) -> RuntimeBuilder<ParallelRuntime> {
    let b = ParallelRuntime::builder(program).shards(shards);
    match args.threads {
        Some(n) => b.threads(n),
        None => b,
    }
}

/// What the drained trace records feed: the `--events-out` file, the
/// `--stats` table, and the records the `--trace` timeline and the
/// `--trace-out` export keep.
struct Observers {
    /// The `--events-out` file and the lines written to it so far, or the
    /// first write error.
    events: Option<(BufWriter<File>, io::Result<u64>)>,
    stats: Option<Stats>,
    /// Kept records, at most `keep` when a view keeps any; `over` counts
    /// the ones past it.
    kept: Vec<TraceRecord>,
    keep: Option<usize>,
    over: u64,
}

impl Observers {
    fn new(args: &Args, cap: usize) -> Result<Observers, String> {
        let events = match &args.events_out {
            Some(path) => {
                let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
                Some((BufWriter::new(file), Ok(0)))
            }
            None => None,
        };
        Ok(Observers {
            events,
            stats: args.stats.then(Stats::default),
            kept: Vec::new(),
            keep: (args.trace || args.trace_out.is_some()).then_some(cap),
            over: 0,
        })
    }

    fn feed(&mut self, batch: Vec<TraceRecord>) {
        if let Some((out, written)) = &mut self.events {
            if let Ok(n) = written {
                match events::write_jsonl(&batch, out) {
                    Ok(k) => *n += k,
                    Err(e) => *written = Err(e),
                }
            }
        }
        if let Some(stats) = &mut self.stats {
            stats.add(&batch);
        }
        if let Some(cap) = self.keep {
            let room = cap - self.kept.len();
            self.over += batch.len().saturating_sub(room) as u64;
            self.kept.extend(batch.into_iter().take(room));
        }
    }
}

/// Runs `run` while a second thread drains `tracer` into `obs`, so the
/// buffer only ever holds the records of one drain interval.
fn observed<T>(tracer: &Tracer, obs: &mut Observers, run: impl FnOnce() -> T) -> T {
    if !tracer.enabled() {
        return run();
    }
    // Publishes nothing: the last batch is drained after the join.
    let done = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        let drain = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                obs.feed(tracer.take());
                std::thread::park_timeout(Duration::from_millis(10));
            }
        });
        let out = run();
        done.store(true, Ordering::Relaxed);
        drain.thread().unpark();
        out
    });
    obs.feed(tracer.take());
    let dropped = tracer.dropped() + obs.over;
    if dropped > 0 {
        eprintln!("sdl-run: trace buffer full; {dropped} record(s) dropped");
    }
    out
}

/// Writes the kept records as a Chrome trace (when `--trace-out` is set)
/// and prints the per-phase and critical-path summary.
fn finish_trace(args: &Args, records: &[TraceRecord]) -> bool {
    let Some(path) = &args.trace_out else {
        return true;
    };
    let mut file = match File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sdl-run: cannot create {path}: {e}");
            return false;
        }
    };
    if let Err(e) = perfetto::write_chrome_trace(records, &mut file) {
        eprintln!("sdl-run: cannot write {path}: {e}");
        return false;
    }
    eprintln!("sdl-run: wrote {} trace record(s) to {path}", records.len());
    print!("{}", analysis::analyze(records));
    true
}

/// Honors `--serve-for-ms`, then stops the metrics endpoint.
fn finish_metrics(args: &Args, server: Option<MetricsServer>) {
    if let Some(server) = server {
        if args.serve_for_ms > 0 {
            std::thread::sleep(Duration::from_millis(args.serve_for_ms));
        }
        server.shutdown();
    }
}

/// Runs the threaded executor and prints its report; false on failure.
fn run_threaded(
    args: &Args,
    program: CompiledProgram,
    builtins: Builtins,
    metrics: Metrics,
    tracer: &Tracer,
    obs: &mut Observers,
) -> bool {
    let cpus = std::thread::available_parallelism().map_or(4, |n| n.get());
    // Mirror the builder's clamp so the WAL header records the shard
    // count the runtime actually uses.
    let shards = args.shards.unwrap_or(cpus).clamp(1, MAX_SHARDS);
    let wal_setup = match open_wal(args, shards as u64, &metrics) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("sdl-run: {e}");
            return false;
        }
    };
    let b = threaded(args, program, shards);
    let rt = match configure(b, args, builtins, metrics, tracer.clone(), wal_setup).build() {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("sdl-run: init failed: {e}");
            return false;
        }
    };
    let (report, ds) = match observed(tracer, obs, || rt.run()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sdl-run: runtime error: {e}");
            return false;
        }
    };
    println!("outcome: {}", report.outcome);
    println!(
        "commits: {}  attempts: {}  conflicts: {}  tuples: {}",
        report.commits, report.attempts, report.conflicts, report.final_tuples
    );
    println!("{}", render_dataspace(&ds, 20));
    true
}

/// Runs the serial or rounds scheduler and prints its report and the
/// event views asked for; false on failure.
fn run_serial(
    args: &Args,
    program: CompiledProgram,
    builtins: Builtins,
    metrics: Metrics,
    tracer: &Tracer,
    obs: &mut Observers,
) -> bool {
    let wal_setup = match open_wal(args, 1, &metrics) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("sdl-run: {e}");
            return false;
        }
    };
    let b = Runtime::builder(program);
    let mut rt = match configure(b, args, builtins, metrics, tracer.clone(), wal_setup).build() {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("sdl-run: init failed: {e}");
            return false;
        }
    };
    let result = observed(tracer, obs, || {
        if args.rounds {
            rt.run_rounds()
        } else {
            rt.run()
        }
    });
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sdl-run: runtime error: {e}");
            return false;
        }
    };
    println!("{report}");
    if matches!(report.outcome, sdl::core::Outcome::Quiescent { .. }) {
        print!("{}", rt.blocked_report());
    }
    println!("{}", render_dataspace(rt.dataspace(), 20));
    if let Some(stats) = &obs.stats {
        println!("{stats}");
    }
    if args.trace {
        println!("timeline:");
        print!("{}", sdl::trace::timeline::render(&obs.kept));
    }
    if let (Some(path), Some((mut out, written))) = (&args.events_out, obs.events.take()) {
        match written.and_then(|n| out.flush().map(|()| n)) {
            Ok(n) => eprintln!("sdl-run: {path}: {n} event(s) written"),
            Err(e) => {
                eprintln!("sdl-run: cannot write {path}: {e}");
                return false;
            }
        }
    }
    true
}

/// Runs the program with the current flags (minus any WAL) and returns
/// the final store as sorted `(id, tuple)` pairs, for `--replay` diffs.
/// The scheduler family comes from the log, not the flags: a log
/// written with more than one shard can only have minted its strided
/// ids under the threaded executor.
fn live_final_store(
    args: &Args,
    program: CompiledProgram,
    builtins: Builtins,
    n_shards: u64,
) -> Result<Vec<(TupleId, Tuple)>, String> {
    let (metrics, tracer) = (Metrics::disabled(), Tracer::disabled());
    let mut pairs: Vec<(TupleId, Tuple)> = if args.threaded || n_shards > 1 {
        let b = threaded(args, program, n_shards as usize);
        let b = configure(b, args, builtins, metrics, tracer, WalSetup::None);
        let (_, ds) = b
            .build()
            .and_then(|rt| rt.run())
            .map_err(|e| e.to_string())?;
        ds.iter().map(|(id, t)| (id, t.clone())).collect()
    } else {
        let b = Runtime::builder(program);
        let b = configure(b, args, builtins, metrics, tracer, WalSetup::None);
        let mut rt = b.build().map_err(|e| e.to_string())?;
        if args.rounds {
            rt.run_rounds().map_err(|e| e.to_string())?;
        } else {
            rt.run().map_err(|e| e.to_string())?;
        }
        rt.dataspace()
            .iter()
            .map(|(id, t)| (id, t.clone()))
            .collect()
    };
    pairs.sort();
    Ok(pairs)
}

/// `--replay DIR`: reconstruct the final store from the log alone and,
/// when a program file was also given, diff it against a live run.
fn run_replay(args: &Args) -> ExitCode {
    let dir = args.replay.as_ref().expect("replay mode");
    let log = match read_log(dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sdl-run: cannot read wal {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let state = match apply_log(&log) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sdl-run: replay of {} failed: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if state.torn_tail {
        eprintln!("sdl-run: wal has a torn tail; replayed up to the last durable commit");
    }
    println!(
        "replay: {} record(s) over {} shard(s), snapshot at commit {}, last commit {}",
        state.records_replayed, state.n_shards, state.snapshot_commit, state.last_commit
    );
    let mut ds = Dataspace::new();
    for (id, t) in &state.tuples {
        ds.insert_instance(*id, t.clone());
    }
    println!("{}", render_dataspace(&ds, 20));

    if args.file.is_empty() {
        return ExitCode::SUCCESS;
    }
    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sdl-run: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let program = match CompiledProgram::from_source(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sdl-run: {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let mut builtins = Builtins::standard();
    if let Some((w, h)) = args.grid {
        builtins.register_grid_neighbor(w, h);
    }
    let live = match live_final_store(args, program, builtins, state.n_shards) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sdl-run: live run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut replayed = state.tuples.clone();
    replayed.sort();
    if live == replayed {
        println!(
            "replay: live run matches the log bit-for-bit ({} tuple(s))",
            live.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "replay: MISMATCH — log has {} tuple(s), live run has {}",
            replayed.len(),
            live.len()
        );
        for (id, t) in replayed.iter().filter(|p| !live.contains(p)).take(5) {
            eprintln!("  only in log:  {id} {t}");
        }
        for (id, t) in live.iter().filter(|p| !replayed.contains(p)).take(5) {
            eprintln!("  only in live: {id} {t}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.replay.is_some() {
        return run_replay(&args);
    }
    if args.threaded && (args.rounds || args.trace || args.stats || args.events_out.is_some()) {
        eprintln!(
            "sdl-run: --threaded does not support --rounds, --trace, --stats, or --events-out"
        );
        return ExitCode::FAILURE;
    }
    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sdl-run: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let program = match CompiledProgram::from_source(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sdl-run: {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let mut builtins = Builtins::standard();
    if let Some((w, h)) = args.grid {
        builtins.register_grid_neighbor(w, h);
    }

    let (metrics, registry) = if args.metrics || args.metrics_addr.is_some() {
        let (m, r) = Metrics::registry();
        (m, Some(r))
    } else {
        (Metrics::disabled(), None)
    };
    let server = match &args.metrics_addr {
        Some(addr) => {
            let registry = Arc::clone(registry.as_ref().expect("registry enabled above"));
            match sdl::metrics_http::serve(addr, registry) {
                Ok(s) => {
                    eprintln!("sdl-run: serving metrics on http://{}/metrics", s.addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("sdl-run: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let observing =
        args.trace || args.stats || args.events_out.is_some() || args.trace_out.is_some();
    let tracer = match (observing, args.trace_cap) {
        (false, _) => Tracer::disabled(),
        (true, None) => Tracer::new(),
        (true, Some(cap)) => Tracer::with_capacity(cap),
    };
    let mut obs = match Observers::new(&args, tracer.capacity()) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("sdl-run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ran = if args.threaded {
        run_threaded(&args, program, builtins, metrics, &tracer, &mut obs)
    } else {
        run_serial(&args, program, builtins, metrics, &tracer, &mut obs)
    };
    let ok = ran && finish_trace(&args, &obs.kept);
    if let (true, Some(registry)) = (ran && args.metrics, &registry) {
        print!("{}", registry.render_prometheus());
    }
    finish_metrics(&args, server);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
