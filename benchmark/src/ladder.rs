//! The traced run: per-layer metrics, measured from outside.
//!
//! Three sources, none of them inside the program:
//!
//! * a **ladder** — the first [`LADDER_OPS`] operations of the
//!   workload's own generated stream replayed in-process through each
//!   crate's public functions, a span around every call;
//! * **counters** — the Prometheus text the program already renders
//!   (the server's `--metrics-addr`, a society's `Metrics` registry),
//!   read before and after a closed-loop run;
//! * the **closed loop itself**, run once with that endpoint off and
//!   once with it on; the difference is the tracing overhead.
//!
//! Every workload reports every metric of [`LAYERS`]; a layer the
//! workload does not reach reports 0.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use sdl::core::program::compile_txn;
use sdl::core::txn::{build_effects, evaluate_query, PlanConfig};
use sdl::core::{consensus, parallel, Builtins, RunLimits};
use sdl::dataspace::{
    plan_query, Action, Dataspace, QueryAtom, ShardSet, ShardedDataspace, SolveLimits, Solver,
    TupleSource, WatchSet,
};
use sdl::durability::{recover, FsyncPolicy, Wal, WalConfig};
use sdl::lang::parse_transaction;
use sdl::metrics::Metrics;
use sdl::server::shared::{NetShared, Waiter};
use sdl::server::wire::{self, Request, Response, DEFAULT_MAX_FRAME};
use sdl::server::Engine;
use sdl::tuple::{Bindings, Field, Pattern, ProcId, Tuple, TupleId, Value, VarId};

use crate::host::{rss_bytes, CpuOf};
use crate::measure::{Better, Metric, Outcome, Stat, Window};
use crate::net::{self, ballast_pattern, handoff_round, Conn};
use crate::society::{society_loop, Labeling, Pairs, Society};
use crate::spans::{Scrape, Spans, ROOT};
use crate::stats::median;
use crate::workloads::{drive, net_shape, set_up_repeatedly, Config, NetShape};

/// Operations of the generated stream the ladder replays.
const LADDER_OPS: usize = 20_000;
/// Pings behind `loop.ping_rtt_us`.
const PINGS: usize = 2_000;

/// Every per-layer metric, by layer (crate or module), with its unit.
pub const LAYERS: &[(&str, &str)] = &[
    ("tuple.match_ns", "ns"),
    ("store.assert_retract_ns", "ns"),
    ("store.apply_batch_ns_per_action", "ns"),
    ("store.point_lookup_ns", "ns"),
    ("store.bytes_per_tuple", "B"),
    ("store.index_lookups_per_op", "count"),
    ("store.match_candidates_per_result", "count"),
    ("shard.commit_ns", "ns"),
    ("shard.lock_wait_us_per_op", "us"),
    ("shard.conflicts_per_commit", "ratio"),
    ("plan.plan_query_ns", "ns"),
    ("plan.cache_hit_ratio", "ratio"),
    ("solve.first_ns", "ns"),
    ("solve.backtracks_per_op", "count"),
    ("watch.keys_per_commit", "count"),
    ("watch.set_build_ns", "ns"),
    ("lang.parse_txn_ns", "ns"),
    ("program.compile_txn_ns", "ns"),
    ("txn.evaluate_ns", "ns"),
    ("txn.build_effects_ns", "ns"),
    ("txn.attempts_per_commit", "ratio"),
    ("parallel.commits", "count"),
    ("parallel.conflict_ratio", "ratio"),
    ("parallel.spurious_wake_ratio", "ratio"),
    ("parallel.blocked_per_run", "count"),
    ("sched.commits", "count"),
    ("consensus.sets_ns", "ns"),
    ("consensus.rounds", "count"),
    ("view.windows_built_per_commit", "count"),
    ("view.admit_checks_per_commit", "count"),
    ("wal.append_ns", "ns"),
    ("wal.sync_ms", "ms"),
    ("wal.bytes_per_commit", "B"),
    ("wal.fsyncs_per_kop", "count"),
    ("recover.records_per_ms", "1/ms"),
    ("recover.restart_s", "s"),
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("wire.frame_ns", "ns"),
    ("wire.bytes_per_op", "B"),
    ("engine.submit_ns_per_op", "ns"),
    ("engine.self_ns_per_op", "ns"),
    ("engine.batch_size_mean", "count"),
    ("engine.parked_peak", "count"),
    ("shared.park_wake_ns", "ns"),
    ("shared.wakes_per_op", "count"),
    ("loop.ping_rtt_us", "us"),
    ("loop.residual_us_per_op", "us"),
    ("load.client_cpu_us_per_op", "us"),
    ("load.ops_per_s_traced", "1/s"),
    ("load.op_p99_us", "us"),
    ("load.op_max_us", "us"),
    ("load.ladder_coverage", "ratio"),
    ("load.trace_overhead_frac", "ratio"),
    ("load.span_clock_ns", "ns"),
];

/// The values of one traced run, all 0 until measured.
struct Layers(Vec<f64>);

impl Layers {
    fn new() -> Layers {
        Layers(vec![0.0; LAYERS.len()])
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = LAYERS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.0[i] = if value.is_finite() { value } else { 0.0 };
    }

    fn get(&self, name: &str) -> f64 {
        LAYERS
            .iter()
            .position(|(n, _)| *n == name)
            .map_or(0.0, |i| self.0[i])
    }

    fn into_metrics(self) -> Vec<Metric> {
        LAYERS
            .iter()
            .zip(self.0)
            .map(|(&(name, unit), v)| Metric {
                name,
                unit,
                // One value: both quartiles are the value itself.
                better: Better::Lower,
                stat: Stat::single(v),
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer metrics that are differences of the program's own counters
/// over a run of `ops` completed operations.
fn counter_layers(layers: &mut Layers, d: &Scrape, ops: f64) {
    let total = |family: &str| d.sum(family, "");
    layers.set(
        "store.index_lookups_per_op",
        ratio(total("sdl_index_lookups_total"), ops),
    );
    layers.set(
        "store.match_candidates_per_result",
        ratio(total("sdl_match_candidates_total"), ops),
    );
    layers.set(
        "shard.lock_wait_us_per_op",
        ratio(total("sdl_shard_lock_wait_seconds_sum") * 1e6, ops),
    );
    layers.set(
        "shard.conflicts_per_commit",
        ratio(
            total("sdl_shard_conflicts_total"),
            total("sdl_shard_commits_total"),
        ),
    );
    layers.set(
        "plan.cache_hit_ratio",
        ratio(
            d.sum("sdl_plan_cache_total", "event=\"hit\""),
            total("sdl_plan_cache_total"),
        ),
    );
    layers.set(
        "solve.backtracks_per_op",
        ratio(total("sdl_solver_backtracks_total"), ops),
    );
    layers.set(
        "txn.attempts_per_commit",
        ratio(
            total("sdl_txn_attempts_total"),
            total("sdl_txn_committed_total"),
        ),
    );
    layers.set(
        "parallel.spurious_wake_ratio",
        ratio(
            d.sum("sdl_wakes_total", "spurious"),
            total("sdl_wakes_total"),
        ),
    );
    layers.set(
        "view.windows_built_per_commit",
        ratio(total("sdl_windows_built_total"), ops),
    );
    layers.set(
        "view.admit_checks_per_commit",
        ratio(total("sdl_window_admit_checks_total"), ops),
    );
    layers.set(
        "wal.bytes_per_commit",
        ratio(total("sdl_wal_bytes_total"), total("sdl_wal_records_total")),
    );
    let fsyncs = total("sdl_wal_fsync_seconds_count");
    layers.set("wal.fsyncs_per_kop", ratio(fsyncs * 1e3, ops));
    layers.set(
        "wal.sync_ms",
        ratio(total("sdl_wal_fsync_seconds_sum") * 1e3, fsyncs),
    );
    layers.set(
        "engine.batch_size_mean",
        ratio(
            total("sdl_net_batch_size_sum"),
            total("sdl_net_batch_size_count"),
        ),
    );
    layers.set(
        "shared.wakes_per_op",
        ratio(d.sum("sdl_wakeups_total", "commit"), ops),
    );
}

/// Layer metrics the closed loop itself yields.
fn load_layers(layers: &mut Layers, untraced: &Outcome, traced: &Outcome) {
    layers.set(
        "load.client_cpu_us_per_op",
        traced.client_cpu_us_per_op().median,
    );
    layers.set("load.ops_per_s_traced", traced.ops_per_s().median);
    layers.set("load.op_p99_us", traced.op_p99_us().median);
    layers.set("load.op_max_us", traced.op_max_us());
    layers.set(
        "load.trace_overhead_frac",
        1.0 - ratio(traced.ops_per_s().median, untraced.ops_per_s().median),
    );
}

/// A lookup pattern for `t`: functor and first argument fixed, the rest
/// open — the point lookup every workload's reads and takes make.
fn lookup_pattern(t: &Tuple) -> Pattern {
    Pattern::new(
        t.iter()
            .enumerate()
            .map(|(i, v)| {
                if i < 2 {
                    Field::Const(v.clone())
                } else {
                    Field::Any
                }
            })
            .collect(),
    )
}

/// Primitive costs of `dataspace::{store, shard, watch}` and `tuple` at
/// the workload's resident-set size: `resident` is loaded, then every
/// probe tuple is asserted, looked up, matched and retracted.
fn store_rungs(
    layers: &mut Layers,
    spans: &mut Spans,
    resident: &[Tuple],
    probes: &[Tuple],
    batch: usize,
) {
    let rss0 = rss_bytes(CpuOf::Me);
    let mut ds = Dataspace::new();
    for t in resident {
        ds.assert_tuple(ProcId::ENV, t.clone());
    }
    let mut ids: Vec<TupleId> = Vec::with_capacity(probes.len());
    for (i, t) in probes.iter().enumerate() {
        let t = t.clone();
        ids.push(
            spans
                .time("store.assert", ROOT, i, || ds.assert_tuple(ProcId::ENV, t))
                .1,
        );
    }
    layers.set(
        "store.bytes_per_tuple",
        ratio(
            rss_bytes(CpuOf::Me) - rss0,
            (resident.len() + probes.len()) as f64,
        ),
    );
    for (i, t) in probes.iter().enumerate() {
        let p = lookup_pattern(t);
        let (_, found) = spans.time("store.point_lookup", ROOT, i, || ds.candidate_ids(&p));
        let mut b = Bindings::new(0);
        let stored = ds.tuple(found[0]).expect("candidate is live");
        spans.time("tuple.match", ROOT, i, || p.matches(stored, &mut b));
        spans.time("watch.set_build", ROOT, i, || {
            let mut w = WatchSet::new();
            w.add_tuple(t);
            w.add_pattern_exact(&p);
            w
        });
    }
    for (i, id) in ids.iter().enumerate() {
        spans.time("store.retract", ROOT, i, || ds.retract(*id));
    }
    layers.set(
        "store.assert_retract_ns",
        spans.mean_ns("store.assert") + spans.mean_ns("store.retract"),
    );
    layers.set("store.point_lookup_ns", spans.mean_ns("store.point_lookup"));
    layers.set("tuple.match_ns", spans.mean_ns("tuple.match"));
    layers.set("watch.set_build_ns", spans.mean_ns("watch.set_build"));

    // The same asserts and retracts as batches of the pipeline depth.
    let mut actions = 0usize;
    for (b, chunk) in probes.chunks(batch).enumerate() {
        let asserts: Vec<Action> = chunk
            .iter()
            .map(|t| Action::Assert(ProcId::ENV, t.clone()))
            .collect();
        let mut watch = WatchSet::new();
        let (_, out) = spans.time("store.apply_batch", ROOT, b * batch, || {
            ds.apply_batch(&asserts, &mut watch)
        });
        let retracts: Vec<Action> = out.asserted.iter().map(|id| Action::Retract(*id)).collect();
        spans.time("store.apply_batch", ROOT, b * batch, || {
            ds.apply_batch(&retracts, &mut watch)
        });
        actions += 2 * chunk.len();
    }
    layers.set(
        "store.apply_batch_ns_per_action",
        ratio(spans.total_ns("store.apply_batch"), actions as f64),
    );
}

/// `shard.commit_ns`: one commit the way every executor does it —
/// write-lock a one-shard footprint, `apply_batch`, `note_commit`.
fn shard_rung(layers: &mut Layers, spans: &mut Spans, sds: &ShardedDataspace, probes: &[Tuple]) {
    let mut keys = 0usize;
    let mut commit_no = 1u64 << 40;
    let mut commit = |spans: &mut Spans, i: usize, fp: ShardSet, action: Action| {
        commit_no += 1;
        spans
            .time("shard.commit", ROOT, i, || {
                let mut watch = WatchSet::new();
                let mut view = sds.write_shards(fp);
                let (out, changed) = view.apply_batch(vec![action], &mut watch);
                sds.note_commit(changed, commit_no);
                (out, watch.len())
            })
            .1
    };
    for (i, t) in probes.iter().enumerate() {
        let mut fp = ShardSet::new();
        fp.insert(sds.shard_of_tuple(t));
        let (out, n) = commit(spans, i, fp, Action::Assert(ProcId::ENV, t.clone()));
        keys += n;
        let (_, n) = commit(spans, i, fp, Action::Retract(out.asserted[0]));
        keys += n;
    }
    layers.set("shard.commit_ns", spans.mean_ns("shard.commit"));
    layers.set(
        "watch.keys_per_commit",
        ratio(keys as f64, spans.count("shard.commit") as f64),
    );
}

/// One batch of the replay: `(connection, request, expected reply)`.
type Op = (u64, Request, Response);

/// The first [`LADDER_OPS`] operations of `name`'s stream, grouped the
/// way the closed loop sends them: `depth` requests per connection.
fn replay_ops(cfg: &Config, shape: &mut NetShape, n: usize) -> Vec<Op> {
    let depth = shape.spec.depth;
    let mut ops = Vec::with_capacity(n);
    let mut batch = 0u64;
    while ops.len() < n {
        if shape.ballast > 0 {
            let round = handoff_round(cfg.seed, batch, depth);
            for (p, t) in &round {
                ops.push((1, Request::In(p.clone()), Response::Tuple(t.clone())));
            }
            for (_, t) in round {
                ops.push((2, Request::Out(t), Response::Ok));
            }
        } else {
            let conn = batch as usize % shape.spec.conns;
            for _ in 0..depth {
                let (req, want) = shape.stream.next(conn);
                ops.push((conn as u64 + 1, req, want));
            }
        }
        batch += 1;
    }
    ops
}

/// One payload across the wire: framed by the sender, unframed by the
/// receiver. Returns the received payload and the bytes it took.
fn across_wire(spans: &mut Spans, root: u32, op: usize, payload: &[u8]) -> (Vec<u8>, usize) {
    let framed = spans
        .time("wire.frame", root, op, || wire::frame(payload))
        .1;
    let unframed = spans
        .time("wire.try_frame", root, op, || {
            wire::try_frame(&framed, DEFAULT_MAX_FRAME)
        })
        .1;
    let (received, _) = unframed.expect("own frame is valid").expect("complete");
    (received, framed.len())
}

/// The wire and engine rungs: every operation goes through
/// encode → frame → unframe → decode, then `Engine::submit` in batches
/// closed by `finish`, and every reply back through the same four wire
/// calls. Replies are checked like the closed loop checks them.
/// Returns `(failed, shared state, commits per operation)`.
fn engine_rungs(
    layers: &mut Layers,
    spans: &mut Spans,
    ops: &[Op],
    depth: usize,
    preseed: &[Tuple],
    ballast: usize,
) -> (u64, Arc<NetShared>, f64) {
    let shared = Arc::new(NetShared::new(8, 1, Metrics::disabled()));
    for t in preseed {
        shared.sds.assert_tuple(ProcId::ENV, t.clone());
    }
    let mut engine = Engine::over(Arc::clone(&shared), 0);
    let mut replies = Vec::new();
    for k in 0..ballast {
        engine.submit(
            1,
            u64::MAX - k as u64,
            Request::In(ballast_pattern(k)),
            &mut replies,
        );
    }
    engine.finish(&mut replies);
    replies.clear();

    let mut expected: HashMap<(u64, u64), &Response> = HashMap::new();
    let (mut failed, mut bytes, mut commits) = (0u64, 0usize, 0usize);
    for (b, batch) in ops.chunks(depth).enumerate() {
        let first = b * depth;
        let root = spans.open("batch", ROOT, first);
        let mut decoded = Vec::with_capacity(depth);
        for (k, (conn, req, want)) in batch.iter().enumerate() {
            let (op, id) = (first + k, (first + k) as u64 + 1);
            let payload = spans
                .time("wire.encode_request", root, op, || {
                    wire::encode_request(id, req)
                })
                .1;
            let (payload, n) = across_wire(spans, root, op, &payload);
            bytes += n;
            let (id, req) = spans
                .time("wire.decode_request", root, op, || {
                    wire::decode_request(&payload)
                })
                .1
                .expect("own request decodes");
            commits += usize::from(!matches!(req, Request::Rdp(_) | Request::Rd(_)));
            expected.insert((*conn, id), want);
            decoded.push((*conn, id, req));
        }
        for (conn, id, req) in decoded {
            spans.time("engine.submit", root, id as usize - 1, || {
                engine.submit(conn, id, req, &mut replies)
            });
        }
        spans.time("engine.finish", root, first, || engine.finish(&mut replies));
        for (conn, id, resp) in replies.drain(..) {
            let op = id as usize - 1;
            let payload = spans
                .time("wire.encode_response", root, op, || {
                    wire::encode_response(id, &resp)
                })
                .1;
            let (payload, n) = across_wire(spans, root, op, &payload);
            bytes += n;
            let (id, back) = spans
                .time("wire.decode_response", root, op, || {
                    wire::decode_response(&payload)
                })
                .1
                .expect("own response decodes");
            if back != Response::Parked && expected.remove(&(conn, id)) != Some(&back) {
                failed += 1;
            }
        }
        spans.close(root);
    }
    failed += expected.len() as u64;

    let n = ops.len() as f64;
    layers.set(
        "wire.encode_request_ns",
        spans.mean_ns("wire.encode_request"),
    );
    layers.set(
        "wire.decode_request_ns",
        spans.mean_ns("wire.decode_request"),
    );
    layers.set(
        "wire.encode_response_ns",
        spans.mean_ns("wire.encode_response"),
    );
    layers.set(
        "wire.decode_response_ns",
        spans.mean_ns("wire.decode_response"),
    );
    // Framing per operation: both directions, both ends.
    layers.set(
        "wire.frame_ns",
        ratio(
            spans.total_ns("wire.frame") + spans.total_ns("wire.try_frame"),
            n,
        ),
    );
    layers.set("wire.bytes_per_op", ratio(bytes as f64, n));
    layers.set(
        "engine.submit_ns_per_op",
        ratio(
            spans.total_ns("engine.submit") + spans.total_ns("engine.finish"),
            n,
        ),
    );
    (failed, shared, ratio(commits as f64, n))
}

/// The `net_txn` path below the engine, call by call: parse, compile,
/// plan, solve, evaluate, build effects — on the stream's own
/// transactions against `sds`.
fn txn_rungs(layers: &mut Layers, spans: &mut Spans, sds: &ShardedDataspace, ops: &[Op]) {
    let builtins = Builtins::standard();
    let mut compiled = HashMap::new();
    for (i, (_, req, _)) in ops.iter().enumerate() {
        let Request::Txn { source, env } = req else {
            continue;
        };
        let parsed = spans
            .time("lang.parse_txn", ROOT, i, || parse_transaction(source))
            .1
            .expect("benchmark transaction parses");
        let txn = spans
            .time("program.compile_txn", ROOT, i, || {
                compile_txn(&parsed, &HashMap::new())
            })
            .1
            .expect("benchmark transaction compiles");
        // The engine compiles each source once; evaluate with that one.
        let txn = compiled.entry(source.as_str()).or_insert(txn);
        let env: HashMap<String, Value> = env.iter().cloned().collect();

        // The transaction's two atoms, resolved by hand: the benchmark
        // knows its own transactions (`net::TXN_CLAIM` and its inverse).
        let w = env["w"].clone();
        let from = if source == net::TXN_CLAIM {
            "job"
        } else {
            "done"
        };
        let atoms = [
            QueryAtom::retract(Pattern::new(vec![
                Field::Const(Value::atom(from)),
                Field::Const(w.clone()),
                Field::Var(VarId(0)),
            ])),
            QueryAtom::read(Pattern::new(vec![
                Field::Const(Value::atom("worker")),
                Field::Const(w),
            ])),
        ];
        let fp = parallel::txn_read_footprint(sds, txn, &env, &builtins);
        let view = sds.read_shards(fp);
        let plan = spans
            .time("plan.plan_query", ROOT, i, || plan_query(&atoms, 1, &view))
            .1;
        spans.time("solve.first", ROOT, i, || {
            Solver::with_plan(&view, &atoms, 1, Some(&plan)).first(&mut |_| true)
        });
        let query = spans
            .time("txn.evaluate", ROOT, i, || {
                evaluate_query(
                    txn,
                    &view,
                    &env,
                    &builtins,
                    SolveLimits::default(),
                    PlanConfig::default(),
                )
            })
            .1
            .expect("evaluates")
            .expect("every benchmark transaction is enabled");
        drop(view);
        let pending = spans
            .time("txn.build_effects", ROOT, i, || {
                build_effects(txn, &query, &env, &builtins)
            })
            .1
            .expect("effects build");
        // Apply, so the next transaction of this worker is enabled.
        let mut view = sds.write_shards(parallel::pending_write_footprint(sds, &pending));
        let retracts = pending.retracts.into_iter().map(Action::Retract);
        let asserts = pending
            .asserts
            .into_iter()
            .map(|t| Action::Assert(ProcId::ENV, t));
        view.apply_batch(retracts.chain(asserts).collect(), &mut WatchSet::new());
    }
    layers.set("lang.parse_txn_ns", spans.mean_ns("lang.parse_txn"));
    layers.set(
        "program.compile_txn_ns",
        spans.mean_ns("program.compile_txn"),
    );
    layers.set("plan.plan_query_ns", spans.mean_ns("plan.plan_query"));
    layers.set("solve.first_ns", spans.mean_ns("solve.first"));
    layers.set("txn.evaluate_ns", spans.mean_ns("txn.evaluate"));
    layers.set("txn.build_effects_ns", spans.mean_ns("txn.build_effects"));
}

/// `shared.park_wake_ns`: one park (register a waiter, epoch re-check)
/// plus the wake scan of the commit that serves it plus the mailbox
/// drain, with the ballast registered.
fn park_wake_rung(layers: &mut Layers, spans: &mut Spans, shared: &NetShared, probes: &[Tuple]) {
    for (i, t) in probes.iter().enumerate() {
        let mut keys = WatchSet::new();
        keys.add_pattern_exact(&lookup_pattern(t));
        let keys: Vec<_> = keys.iter().copied().collect();
        let waiter = Arc::new(Waiter::new(0, 1, i as u64, i as u64));
        let epoch = shared.epoch();
        spans.time("shared.park", ROOT, i, || {
            shared.park(&waiter, &keys, epoch)
        });
        let mut published = WatchSet::new();
        published.add_tuple(t);
        let mut changed = ShardSet::new();
        changed.insert(shared.sds.shard_of_tuple(t));
        shared.bump_epoch();
        spans.time("shared.wake", ROOT, i, || {
            shared.wake(0, &published, changed)
        });
        spans.time("shared.drain_mailbox", ROOT, i, || shared.drain_mailbox(0));
    }
    layers.set(
        "shared.park_wake_ns",
        spans.mean_ns("shared.park")
            + spans.mean_ns("shared.wake")
            + spans.mean_ns("shared.drain_mailbox"),
    );
}

/// `wal.append_ns` and `recover.records_per_ms`: the probes appended
/// one commit each to a log of their own, synced, and recovered.
fn wal_rungs(
    layers: &mut Layers,
    spans: &mut Spans,
    cfg: &Config,
    probes: &[Tuple],
) -> io::Result<()> {
    let dir = cfg.out_dir.join(format!("wal-ladder-{}", cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_cfg = WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::new(&dir)
    };
    let wal = Wal::create(wal_cfg, 1, Metrics::disabled()).map_err(io::Error::other)?;
    for (i, t) in probes.iter().enumerate() {
        let asserts = [(
            TupleId {
                owner: ProcId::ENV,
                seq: i as u64 + 1,
            },
            t.clone(),
        )];
        spans
            .time("wal.append", ROOT, i, || wal.append(&[], &asserts))
            .1
            .map_err(io::Error::other)?;
    }
    wal.sync().map_err(io::Error::other)?;
    drop(wal);
    let t0 = Instant::now();
    let state = recover(&dir, &Metrics::disabled()).map_err(io::Error::other)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir);
    if state.tuples.len() != probes.len() {
        return Err(io::Error::other("the ladder's log did not recover whole"));
    }
    layers.set("wal.append_ns", spans.mean_ns("wal.append"));
    layers.set(
        "recover.records_per_ms",
        ratio(state.records_replayed as f64, ms),
    );
    Ok(())
}

/// Median round trip of a `Ping` on an otherwise idle connection: the
/// syscalls and the event loop with no store behind them.
fn ping_rtt_us(conn: &mut Conn) -> io::Result<f64> {
    let mut replies = Vec::new();
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        conn.queue(&Request::Ping);
        conn.flush()?;
        replies.clear();
        conn.recv(&mut replies)?;
        rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&rtts))
}

fn traced_net(name: &str, cfg: &Config) -> io::Result<(Layers, u64, u64)> {
    let mut layers = Layers::new();
    let half = Window {
        seconds: cfg.window.seconds / 2.0,
        slices: (cfg.window.slices / 2).max(1),
    };
    let shape_of = |metrics| net_shape(name, cfg, metrics).expect("a networked workload");

    // Tracing off, then on: the same loop, two fresh servers.
    let mut shape = shape_of(false);
    let (mut ready, _) = set_up_repeatedly(cfg, &shape, 1)?;
    let untraced = drive(cfg, &mut shape, &mut ready, half, |_| {})?;
    drop(ready);

    let mut shape = shape_of(true);
    let (mut ready, _) = set_up_repeatedly(cfg, &shape, 1)?;
    let endpoint = ready
        .server
        .metrics_addr
        .clone()
        .ok_or_else(|| io::Error::other("server did not announce its metrics endpoint"))?;
    let before = Scrape::http(&endpoint)?;
    let mut parked_peak = 0.0f64;
    let traced = drive(cfg, &mut shape, &mut ready, half, |_| {
        if let Ok(s) = Scrape::http(&endpoint) {
            parked_peak = parked_peak.max(s.sum("sdl_blocked_queue_depth", ""));
        }
    })?;
    let counters = Scrape::http(&endpoint)?.since(&before);
    // Counters cover the warm-up slice too; so must the divisor.
    let served = counters.sum("sdl_net_requests_total", "{op=");
    counter_layers(&mut layers, &counters, served);
    layers.set("engine.parked_peak", parked_peak);
    load_layers(&mut layers, &untraced, &traced);
    layers.set("loop.ping_rtt_us", ping_rtt_us(&mut ready.conns[0])?);
    let (mut attempted, mut failed) = (
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
    );
    if let Some(dir) = &shape.spec.wal_dir {
        let (checked, wrong, restart_s) =
            net::restart_and_verify(&cfg.server_bin, ready, &shape.spec, shape.stream.as_ref())?;
        attempted += checked;
        failed += wrong;
        layers.set("recover.restart_s", restart_s);
        let _ = std::fs::remove_dir_all(dir);
    } else {
        drop(ready);
    }

    // The ladder, on a fresh copy of the same generated stream.
    let mut spans = Spans::new();
    layers.set("load.span_clock_ns", spans.clock_ns);
    let mut shape = shape_of(false);
    let n = if cfg.quick {
        LADDER_OPS / 10
    } else {
        LADDER_OPS
    };
    let ops = replay_ops(cfg, &mut shape, n);
    let preseed = shape.stream.preseed();
    let depth = shape.spec.depth;
    let (wrong, shared, commits_per_op) = engine_rungs(
        &mut layers,
        &mut spans,
        &ops,
        depth,
        &preseed,
        shape.ballast,
    );
    attempted += ops.len() as u64;
    failed += wrong;

    // Probes: the tuples the stream itself asserts, else resident ones.
    let mut probes: Vec<Tuple> = ops
        .iter()
        .filter_map(|(_, req, _)| match req {
            Request::Out(t) => Some(t.clone()),
            _ => None,
        })
        .collect();
    if probes.is_empty() {
        probes = preseed.iter().take(n / 4).cloned().collect();
    }
    if name == "net_txn" {
        txn_rungs(&mut layers, &mut spans, &shared.sds, &ops);
    }
    shard_rung(&mut layers, &mut spans, &shared.sds, &probes);
    if shape.ballast > 0 {
        park_wake_rung(&mut layers, &mut spans, &shared, &probes);
    }
    drop(shared);
    if shape.spec.wal_dir.is_some() {
        wal_rungs(&mut layers, &mut spans, cfg, &probes)?;
    }
    store_rungs(&mut layers, &mut spans, &preseed, &probes, depth);

    // `engine.self`: what `submit`+`finish` cost beyond the commits
    // they make (the rung below), per operation.
    layers.set(
        "engine.self_ns_per_op",
        layers.get("engine.submit_ns_per_op") - commits_per_op * layers.get("shard.commit_ns"),
    );
    // Do the rungs add up to the latency measured end to end? The ping
    // carries the syscalls and the loop; the wire rungs are paid once
    // per end; the engine rung carries everything below it.
    let rungs_us = layers.get("loop.ping_rtt_us")
        + (layers.get("wire.encode_request_ns")
            + layers.get("wire.decode_request_ns")
            + layers.get("wire.encode_response_ns")
            + layers.get("wire.decode_response_ns")
            + layers.get("wire.frame_ns")
            + layers.get("engine.submit_ns_per_op"))
            / 1e3;
    let p50 = traced.op_p50_us().median;
    layers.set("load.ladder_coverage", ratio(rungs_us, p50));
    layers.set("loop.residual_us_per_op", p50 - rungs_us);
    spans.write_json(&cfg.out_dir.join(format!("trace-{name}.json")))?;
    Ok((layers, attempted, failed))
}

fn traced_society<S: Society>(
    name: &str,
    cfg: &Config,
    probes: impl Fn(&S) -> (Vec<Tuple>, Vec<Tuple>),
    extra: impl Fn(&S, &mut Layers, &mut Spans),
) -> io::Result<(Layers, u64, u64)> {
    let mut layers = Layers::new();
    let half = Window {
        seconds: cfg.window.seconds / 2.0,
        slices: (cfg.window.slices / 2).max(1),
    };
    let society = S::prepare(cfg.seed);
    let untraced = society_loop(&society, half, &Metrics::disabled(), |_| {});

    let (metrics, registry) = Metrics::registry();
    let before = Scrape::parse(&registry.render_prometheus());
    let (mut runs, mut commits, mut conflicts, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    let traced = society_loop(&society, half, &metrics, |run| {
        runs += 1;
        commits += run.commits;
        conflicts += run.conflicts;
        rounds += run.consensus_rounds;
    });
    let counters = Scrape::parse(&registry.render_prometheus()).since(&before);
    counter_layers(&mut layers, &counters, commits as f64);
    load_layers(&mut layers, &untraced, &traced);
    let per_run = |v: f64| ratio(v, runs as f64);
    if name == "society_pairs" {
        layers.set("parallel.commits", per_run(commits as f64));
        layers.set(
            "parallel.conflict_ratio",
            ratio(conflicts as f64, commits as f64),
        );
        layers.set(
            "parallel.blocked_per_run",
            per_run(counters.sum("sdl_process_blocked_total", "")),
        );
    } else {
        layers.set("sched.commits", per_run(commits as f64));
        layers.set("consensus.rounds", per_run(rounds as f64));
    }

    let mut spans = Spans::new();
    layers.set("load.span_clock_ns", spans.clock_ns);
    let (resident, probe_tuples) = probes(&society);
    let sds = ShardedDataspace::new(8);
    for t in &resident {
        sds.assert_tuple(ProcId::ENV, t.clone());
    }
    shard_rung(&mut layers, &mut spans, &sds, &probe_tuples);
    store_rungs(&mut layers, &mut spans, &resident, &probe_tuples, 64);
    extra(&society, &mut layers, &mut spans);
    spans.write_json(&cfg.out_dir.join(format!("trace-{name}.json")))?;
    Ok((
        layers,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
    ))
}

/// `consensus.sets_ns`: `consensus_sets` over the labeling society as
/// it stands half-way through a run — stopped there by a step limit.
fn consensus_rung(society: &Labeling, layers: &mut Layers, spans: &mut Spans) {
    let half = society.run(Metrics::disabled()).attempts / 2;
    let mut rt = society
        .builder(Metrics::disabled())
        .limits(RunLimits { max_attempts: half })
        .build()
        .expect("labeling builds");
    rt.run().expect("labeling runs to its step limit");
    let procs = rt.processes();
    assert!(
        procs.len() > 1,
        "half-way through, the Label society is alive"
    );
    for i in 0..200 {
        spans
            .time("consensus.sets", ROOT, i, || {
                consensus::consensus_sets(&procs, rt.dataspace(), rt.builtins())
            })
            .1
            .expect("consensus sets evaluate");
    }
    layers.set("consensus.sets_ns", spans.mean_ns("consensus.sets"));
}

/// The traced run of `name`: every per-layer metric, plus the
/// operations attempted and failed along the way.
pub fn run_traced(name: &str, cfg: &Config) -> io::Result<(Vec<Metric>, u64, u64)> {
    let (layers, attempted, failed) = match name {
        "society_pairs" => {
            traced_society::<Pairs>(name, cfg, |s| (Vec::new(), s.items()), |_, _, _| {})?
        }
        "society_labeling" => traced_society::<Labeling>(
            name,
            cfg,
            |s| (s.image_tuples(), s.label_tuples()),
            consensus_rung,
        )?,
        _ => traced_net(name, cfg)?,
    };
    Ok((layers.into_metrics(), attempted, failed))
}
