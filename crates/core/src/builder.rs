//! One builder for both in-process runtimes.
//!
//! [`RuntimeBuilder<R>`] configures the serial [`Runtime`] (`R =
//! Runtime`, the default) and the threaded
//! [`ParallelRuntime`](crate::parallel::ParallelRuntime). Every setting
//! both read has one setter here; `threads` and `shards`, which only the
//! threaded executor reads, are set only on its builder. Both fill their
//! store through [`RuntimeBuilder::seed_store`].

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use sdl_dataspace::{Dataspace, ShardedDataspace};
use sdl_durability::{RecoveredState, Wal};
use sdl_lang::ast::Expr;
use sdl_lang::expr::eval;
use sdl_metrics::Metrics;
use sdl_tuple::{ProcId, Tuple, TupleId, Value};

use crate::builtins::Builtins;
use crate::error::RuntimeError;
use crate::outcome::RunLimits;
use crate::program::CompiledProgram;
use crate::sched::{wal_err, Runtime};
use crate::trace::Tracer;
use crate::view::EnvCtx;

/// What a built runtime keeps of its builder's settings.
#[derive(Debug)]
pub(crate) struct Config {
    pub(crate) program: Arc<CompiledProgram>,
    pub(crate) seed: u64,
    pub(crate) builtins: Builtins,
    pub(crate) metrics: Metrics,
    pub(crate) tracer: Tracer,
    pub(crate) stall_threshold: Option<Duration>,
    pub(crate) limits: RunLimits,
    pub(crate) wal: Option<Arc<Wal>>,
    /// Threaded executor only: worker threads, store shards, and the
    /// park re-check mutant switch.
    pub(crate) threads: usize,
    pub(crate) shards: usize,
    pub(crate) skip_park_recheck: bool,
}

/// Configures and creates a [`Runtime`] or, as
/// `RuntimeBuilder<ParallelRuntime>`, a
/// [`ParallelRuntime`](crate::parallel::ParallelRuntime).
#[derive(Debug)]
pub struct RuntimeBuilder<R = Runtime> {
    pub(crate) config: Config,
    tuples: Vec<Tuple>,
    spawns: Vec<(String, Vec<Value>)>,
    recovered: Option<RecoveredState>,
    runtime: PhantomData<fn() -> R>,
}

impl<R> RuntimeBuilder<R> {
    /// A builder with every setting at its default.
    pub(crate) fn new(program: CompiledProgram) -> RuntimeBuilder<R> {
        RuntimeBuilder {
            config: Config {
                program: Arc::new(program),
                seed: 0,
                builtins: Builtins::standard(),
                metrics: Metrics::disabled(),
                tracer: Tracer::disabled(),
                stall_threshold: None,
                limits: RunLimits::default(),
                wal: None,
                threads: 1,
                shards: 1,
                skip_park_recheck: false,
            },
            tuples: Vec::new(),
            spawns: Vec::new(),
            recovered: None,
            runtime: PhantomData,
        }
    }

    /// Sets the scheduler seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the built-in registry (default: [`Builtins::standard`]).
    pub fn builtins(mut self, builtins: Builtins) -> Self {
        self.config.builtins = builtins;
        self
    }

    /// Attaches a metrics handle; counters and histograms from the
    /// scheduler, dataspace, and solver are recorded into it. The default
    /// ([`Metrics::disabled`]) makes every recording site a single branch.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.config.metrics = metrics;
        self
    }

    /// Attaches the observation stream: spawns, exits, commits with their
    /// tuples, parks, a span chain per transaction attempt and a
    /// causality edge per wake or conflict go to `tracer`; read them with
    /// [`Tracer::take`]. The default ([`Tracer::disabled`]) makes every
    /// site a single branch.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.config.tracer = tracer;
        self
    }

    /// Arms the stall watchdog: processes parked beyond `threshold` are
    /// flagged in the `sdl_stalled_processes` gauge and annotated in the
    /// trace with their watch keys and nearest-miss commits.
    pub fn stall_threshold(mut self, threshold: Duration) -> Self {
        self.config.stall_threshold = Some(threshold);
        self
    }

    /// Sets run limits (default [`RunLimits::default`]).
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Adds an initial tuple programmatically (alongside the program's
    /// `init` block) — how examples seed large workloads.
    pub fn tuple(mut self, t: Tuple) -> Self {
        self.tuples.push(t);
        self
    }

    /// Adds initial tuples programmatically.
    pub fn tuples<I: IntoIterator<Item = Tuple>>(mut self, ts: I) -> Self {
        self.tuples.extend(ts);
        self
    }

    /// Adds an initial process programmatically.
    pub fn spawn(mut self, name: &str, args: Vec<Value>) -> Self {
        self.spawns.push((name.to_owned(), args));
        self
    }

    /// Attaches a write-ahead log: every commit is appended as one
    /// durable record (the threaded executor appends inside its
    /// write-footprint lock scope and syncs after the locks drop, so
    /// concurrent committers share one fsync). On a fresh log, `build`
    /// writes a genesis snapshot of the initial tuples so recovery can
    /// replay from an exact base.
    pub fn wal(mut self, wal: Arc<Wal>) -> Self {
        self.config.wal = Some(wal);
        self
    }

    /// Seeds the store from recovered state instead of the initial
    /// tuples (the recovered store already contains them, including any
    /// added with [`RuntimeBuilder::tuple`]). Tuple ids, owners, and the
    /// id-mint cursors are restored bit-for-bit; the process society
    /// restarts fresh. The log must have been written under the shard
    /// count the runtime uses — one for the serial runtime — so each id
    /// lands back on the shard whose strided sequence minted it.
    pub fn recover_from(mut self, state: RecoveredState) -> Self {
        self.recovered = Some(state);
        self
    }

    /// Fills `store` — from the recovered state, or else with the
    /// program's `init` tuples and the added ones, which a fresh log
    /// gets as its genesis snapshot — and returns the initial society:
    /// the program's `init` spawns, arguments evaluated, then the added
    /// ones.
    pub(crate) fn seed_store(
        &mut self,
        store: &mut impl RuntimeStore,
    ) -> Result<Vec<(String, Vec<Value>)>, RuntimeError> {
        let env = HashMap::new();
        let ctx = EnvCtx {
            env: &env,
            vars: &[],
            builtins: &self.config.builtins,
        };
        let eval_all = |exprs: &[Expr], context: &str| -> Result<Vec<Value>, RuntimeError> {
            exprs
                .iter()
                .map(|e| {
                    eval(e, &ctx).map_err(|source| RuntimeError::Eval {
                        source,
                        context: context.to_owned(),
                    })
                })
                .collect()
        };
        if let Some(state) = self.recovered.take() {
            state.check_shards(store.shard_count()).map_err(wal_err)?;
            store.restore(&state);
        } else {
            for fields in &self.config.program.init_tuples {
                store.assert_initial(Tuple::new(eval_all(fields, "init tuple")?));
            }
            for t in std::mem::take(&mut self.tuples) {
                store.assert_initial(t);
            }
            // Builder-time asserts bypass the commit path, so a fresh
            // log gets them as a genesis snapshot: recovery always has
            // an exact base to replay from.
            if let Some(wal) = self.config.wal.as_ref().filter(|w| w.last_appended() == 0) {
                let (cursors, tuples) = store.snapshot();
                wal.write_snapshot(&cursors, &tuples).map_err(wal_err)?;
            }
        }
        let mut spawns = Vec::with_capacity(self.config.program.init_spawns.len());
        for (name, args) in &self.config.program.init_spawns {
            spawns.push((name.clone(), eval_all(args, "init spawn argument")?));
        }
        spawns.append(&mut self.spawns);
        Ok(spawns)
    }
}

/// The store a runtime keeps, as its builder fills it and its log
/// snapshots it.
pub(crate) trait RuntimeStore {
    /// How many id-mint shards the store has.
    fn shard_count(&self) -> u64;
    /// Asserts an initial tuple on behalf of the environment.
    fn assert_initial(&mut self, t: Tuple);
    /// Rebuilds the store from recovered state, ids and cursors intact.
    fn restore(&mut self, state: &RecoveredState);
    /// Per-shard mint cursors and the live instances, in id order.
    fn snapshot(&self) -> (Vec<u64>, Vec<(TupleId, Tuple)>);
}

impl RuntimeStore for Dataspace {
    fn shard_count(&self) -> u64 {
        1
    }

    fn assert_initial(&mut self, t: Tuple) {
        self.assert_tuple(ProcId::ENV, t);
    }

    fn restore(&mut self, state: &RecoveredState) {
        for (id, t) in &state.tuples {
            self.insert_instance(*id, t.clone());
        }
        self.advance_seq_to(state.cursors[0]);
    }

    fn snapshot(&self) -> (Vec<u64>, Vec<(TupleId, Tuple)>) {
        let tuples = self.iter().map(|(id, t)| (id, t.clone())).collect();
        (vec![self.next_seq()], tuples)
    }
}

impl RuntimeStore for ShardedDataspace {
    fn shard_count(&self) -> u64 {
        self.num_shards() as u64
    }

    fn assert_initial(&mut self, t: Tuple) {
        self.assert_tuple(ProcId::ENV, t);
    }

    fn restore(&mut self, state: &RecoveredState) {
        for (id, t) in &state.tuples {
            self.insert_instance(*id, t.clone());
        }
        self.advance_cursors(&state.cursors);
    }

    fn snapshot(&self) -> (Vec<u64>, Vec<(TupleId, Tuple)>) {
        self.read_shards(self.all_shards()).snapshot_state()
    }
}
