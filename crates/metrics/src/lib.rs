//! Runtime metrics for the SDL schedulers and dataspace.
//!
//! The design goal is *near-zero cost when disabled*: every instrumentation
//! site goes through a [`Metrics`] handle, which is a single
//! `Option<Arc<MetricsRegistry>>`. Disabled metrics are one branch on a
//! `None`; enabled metrics are a relaxed atomic increment in
//! [`MetricsRegistry`]. Nothing here allocates on the hot path.
//!
//! Metric identity is a closed enum rather than string names:
//! [`Counter`] flattens the Prometheus (name, labels) pair into one
//! discriminant (e.g. [`Counter::TxnCommittedConsensus`] renders as
//! `sdl_txn_committed_total{mode="consensus"}`), so recording a metric is
//! an array index, not a hash lookup. [`Hist`] does the same for the
//! fixed-bucket histograms. Time spent in a transaction's phases (guard
//! evaluation, effects, commit, parking) is the trace stream's to
//! report, not a histogram's: each observation is recorded once.
//!
//! [`MetricsRegistry::render_prometheus`] produces the standard text
//! exposition format (`# HELP` / `# TYPE` + one line per series), which
//! `sdl-run --metrics` prints after a run.
//!
//! This crate is std-only and sits below `sdl-dataspace` in the dependency
//! graph so the store and solver can count without cycles.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every counter the runtime records, flattened over its label values.
///
/// Order is the exposition order; keep families (same metric name)
/// contiguous so `render_prometheus` emits one `# HELP`/`# TYPE` header per
/// family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// `sdl_txn_attempts_total{mode="immediate"}`
    TxnAttemptsImmediate,
    /// `sdl_txn_attempts_total{mode="delayed"}`
    TxnAttemptsDelayed,
    /// `sdl_txn_attempts_total{mode="consensus"}`
    TxnAttemptsConsensus,
    /// `sdl_txn_committed_total{mode="immediate"}`
    TxnCommittedImmediate,
    /// `sdl_txn_committed_total{mode="delayed"}`
    TxnCommittedDelayed,
    /// `sdl_txn_committed_total{mode="consensus"}`
    TxnCommittedConsensus,
    /// `sdl_txn_failed_total{mode="immediate"}`
    TxnFailedImmediate,
    /// `sdl_txn_failed_total{mode="delayed"}`
    TxnFailedDelayed,
    /// `sdl_txn_failed_total{mode="consensus"}`
    TxnFailedConsensus,
    /// Optimistic validation failures in the parallel runtime.
    TxnConflicts,
    /// Tuples added to the dataspace.
    TuplesAsserted,
    /// Tuples removed from the dataspace.
    TuplesRetracted,
    /// Asserts suppressed by a view's export filter.
    ExportDropped,
    /// Candidate lookups served by the (functor, arity, arg1) index.
    IndexHitArg1,
    /// Candidate lookups served by the (functor, arity) index.
    IndexHitFunctor,
    /// Candidate lookups served by the arity index.
    IndexHitArity,
    /// Candidate lookups served by a single-position value point index.
    IndexHitValue,
    /// Candidate lookups answered by intersecting two point indexes.
    IndexHitIntersect,
    /// Candidate tuples enumerated by the solver.
    MatchCandidates,
    /// Solver binding rollbacks (one per exhausted candidate).
    SolverBacktracks,
    /// `sdl_plan_cache_total{event="hit"}`
    PlanCacheHit,
    /// `sdl_plan_cache_total{event="miss"}`
    PlanCacheMiss,
    /// `sdl_plan_cache_total{event="replan"}`
    PlanReplans,
    /// Query windows (views) a query runs through, built afresh or
    /// taken from the community index.
    WindowsBuilt,
    /// Import-clause admission tests: on lazy windows, and by the
    /// consensus community index on asserted tuples a member's interest
    /// keys meet.
    WindowAdmitChecks,
    /// Processes that entered the blocked set.
    ProcessesBlocked,
    /// `sdl_wakeups_total{cause="commit"}`
    WakeupCommit,
    /// `sdl_wakeups_total{cause="consensus"}`
    WakeupConsensus,
    /// `sdl_wakes_total{result="progress"}` — a woken process's next turn
    /// moved it on: a commit, a skip, a completed construct or its end.
    WakeProgress,
    /// `sdl_wakes_total{result="spurious"}` — a woken process parked
    /// again (the wake key matched but the query still failed), or the
    /// run ended before its turn.
    WakeSpurious,
    /// `sdl_consensus_checks_total{result="fired"}` — a community check
    /// that found a complete community and fired it.
    ConsensusChecksFired,
    /// `sdl_consensus_checks_total{result="incomplete"}` — a community
    /// check that found no community ready to fire.
    ConsensusChecksIncomplete,
    /// Import sets the community index recomputed from the store (a new
    /// process, a `let`, or a commit that touched a rule condition).
    ConsensusImportRecomputes,
    /// Processes spawned.
    ProcessesSpawned,
    /// Commit records appended to the write-ahead log.
    WalRecords,
    /// Bytes appended to the write-ahead log (frame headers included).
    WalBytes,
    /// Commit records replayed during crash recovery.
    RecoveryRecordsReplayed,
    /// Torn WAL tails truncated at the first bad CRC during recovery.
    WalTornTailTruncations,
    /// `sdl_net_requests_total{op="out"}`
    NetReqOut,
    /// `sdl_net_requests_total{op="in"}`
    NetReqIn,
    /// `sdl_net_requests_total{op="rd"}`
    NetReqRd,
    /// `sdl_net_requests_total{op="inp"}`
    NetReqInp,
    /// `sdl_net_requests_total{op="rdp"}`
    NetReqRdp,
    /// `sdl_net_requests_total{op="txn"}`
    NetReqTxn,
    /// `sdl_net_requests_total{op="other"}` — pings, cancels, and any
    /// other housekeeping frame.
    NetReqOther,
    /// Backpressure events: a connection's reads paused on a full write
    /// buffer, or a fresh park was refused at the parked-request limit.
    NetBackpressureStalls,
    /// Frames rejected by the wire decoder (bad magic, CRC mismatch,
    /// over-limit length, malformed payload).
    NetProtocolErrors,
    /// Commit records shipped to replication followers.
    ReplShippedRecords,
    /// Bytes shipped to replication followers (frame headers included).
    ReplShippedBytes,
    /// Shipped commit records applied by this follower.
    ReplRecordsApplied,
    /// Snapshot bootstraps served to (leader) or performed by
    /// (follower) replication peers.
    ReplSnapshotBootstraps,
    /// Write requests rejected by a follower with a `NotLeader`
    /// redirect.
    ReplNotLeaderRedirects,
}

impl Counter {
    /// All counters in exposition order.
    pub(crate) const ALL: [Counter; 52] = [
        Counter::TxnAttemptsImmediate,
        Counter::TxnAttemptsDelayed,
        Counter::TxnAttemptsConsensus,
        Counter::TxnCommittedImmediate,
        Counter::TxnCommittedDelayed,
        Counter::TxnCommittedConsensus,
        Counter::TxnFailedImmediate,
        Counter::TxnFailedDelayed,
        Counter::TxnFailedConsensus,
        Counter::TxnConflicts,
        Counter::TuplesAsserted,
        Counter::TuplesRetracted,
        Counter::ExportDropped,
        Counter::IndexHitArg1,
        Counter::IndexHitFunctor,
        Counter::IndexHitArity,
        Counter::IndexHitValue,
        Counter::IndexHitIntersect,
        Counter::MatchCandidates,
        Counter::SolverBacktracks,
        Counter::PlanCacheHit,
        Counter::PlanCacheMiss,
        Counter::PlanReplans,
        Counter::WindowsBuilt,
        Counter::WindowAdmitChecks,
        Counter::ProcessesBlocked,
        Counter::WakeupCommit,
        Counter::WakeupConsensus,
        Counter::WakeProgress,
        Counter::WakeSpurious,
        Counter::ConsensusChecksFired,
        Counter::ConsensusChecksIncomplete,
        Counter::ConsensusImportRecomputes,
        Counter::ProcessesSpawned,
        Counter::WalRecords,
        Counter::WalBytes,
        Counter::RecoveryRecordsReplayed,
        Counter::WalTornTailTruncations,
        Counter::NetReqOut,
        Counter::NetReqIn,
        Counter::NetReqRd,
        Counter::NetReqInp,
        Counter::NetReqRdp,
        Counter::NetReqTxn,
        Counter::NetReqOther,
        Counter::NetBackpressureStalls,
        Counter::NetProtocolErrors,
        Counter::ReplShippedRecords,
        Counter::ReplShippedBytes,
        Counter::ReplRecordsApplied,
        Counter::ReplSnapshotBootstraps,
        Counter::ReplNotLeaderRedirects,
    ];

    /// Number of distinct counters.
    pub(crate) const COUNT: usize = Counter::ALL.len();

    /// The Prometheus metric name (family).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Counter::TxnAttemptsImmediate
            | Counter::TxnAttemptsDelayed
            | Counter::TxnAttemptsConsensus => "sdl_txn_attempts_total",
            Counter::TxnCommittedImmediate
            | Counter::TxnCommittedDelayed
            | Counter::TxnCommittedConsensus => "sdl_txn_committed_total",
            Counter::TxnFailedImmediate
            | Counter::TxnFailedDelayed
            | Counter::TxnFailedConsensus => "sdl_txn_failed_total",
            Counter::TxnConflicts => "sdl_txn_conflicts_total",
            Counter::TuplesAsserted => "sdl_tuples_asserted_total",
            Counter::TuplesRetracted => "sdl_tuples_retracted_total",
            Counter::ExportDropped => "sdl_export_dropped_total",
            Counter::IndexHitArg1
            | Counter::IndexHitFunctor
            | Counter::IndexHitArity
            | Counter::IndexHitValue
            | Counter::IndexHitIntersect => "sdl_index_lookups_total",
            Counter::MatchCandidates => "sdl_match_candidates_total",
            Counter::SolverBacktracks => "sdl_solver_backtracks_total",
            Counter::PlanCacheHit | Counter::PlanCacheMiss | Counter::PlanReplans => {
                "sdl_plan_cache_total"
            }
            Counter::WindowsBuilt => "sdl_windows_built_total",
            Counter::WindowAdmitChecks => "sdl_window_admit_checks_total",
            Counter::ProcessesBlocked => "sdl_process_blocked_total",
            Counter::WakeupCommit | Counter::WakeupConsensus => "sdl_wakeups_total",
            Counter::WakeProgress | Counter::WakeSpurious => "sdl_wakes_total",
            Counter::ConsensusChecksFired | Counter::ConsensusChecksIncomplete => {
                "sdl_consensus_checks_total"
            }
            Counter::ConsensusImportRecomputes => "sdl_consensus_import_recomputes_total",
            Counter::ProcessesSpawned => "sdl_processes_spawned_total",
            Counter::WalRecords => "sdl_wal_records_total",
            Counter::WalBytes => "sdl_wal_bytes_total",
            Counter::RecoveryRecordsReplayed => "sdl_recovery_records_replayed_total",
            Counter::WalTornTailTruncations => "sdl_wal_torn_tail_truncations_total",
            Counter::NetReqOut
            | Counter::NetReqIn
            | Counter::NetReqRd
            | Counter::NetReqInp
            | Counter::NetReqRdp
            | Counter::NetReqTxn
            | Counter::NetReqOther => "sdl_net_requests_total",
            Counter::NetBackpressureStalls => "sdl_net_backpressure_stalls_total",
            Counter::NetProtocolErrors => "sdl_net_protocol_errors_total",
            Counter::ReplShippedRecords => "sdl_repl_shipped_records_total",
            Counter::ReplShippedBytes => "sdl_repl_shipped_bytes_total",
            Counter::ReplRecordsApplied => "sdl_repl_records_applied_total",
            Counter::ReplSnapshotBootstraps => "sdl_repl_snapshot_bootstraps_total",
            Counter::ReplNotLeaderRedirects => "sdl_repl_not_leader_redirects_total",
        }
    }

    /// The label set rendered inside `{...}`, or `""` for unlabeled series.
    pub(crate) fn labels(self) -> &'static str {
        match self {
            Counter::TxnAttemptsImmediate
            | Counter::TxnCommittedImmediate
            | Counter::TxnFailedImmediate => "mode=\"immediate\"",
            Counter::TxnAttemptsDelayed
            | Counter::TxnCommittedDelayed
            | Counter::TxnFailedDelayed => "mode=\"delayed\"",
            Counter::TxnAttemptsConsensus
            | Counter::TxnCommittedConsensus
            | Counter::TxnFailedConsensus => "mode=\"consensus\"",
            Counter::IndexHitArg1 => "index=\"arg1\"",
            Counter::IndexHitFunctor => "index=\"functor\"",
            Counter::IndexHitArity => "index=\"arity\"",
            Counter::IndexHitValue => "index=\"value\"",
            Counter::IndexHitIntersect => "index=\"intersect\"",
            Counter::PlanCacheHit => "event=\"hit\"",
            Counter::PlanCacheMiss => "event=\"miss\"",
            Counter::PlanReplans => "event=\"replan\"",
            Counter::WakeupCommit => "cause=\"commit\"",
            Counter::WakeupConsensus => "cause=\"consensus\"",
            Counter::WakeProgress => "result=\"progress\"",
            Counter::WakeSpurious => "result=\"spurious\"",
            Counter::ConsensusChecksFired => "result=\"fired\"",
            Counter::ConsensusChecksIncomplete => "result=\"incomplete\"",
            Counter::NetReqOut => "op=\"out\"",
            Counter::NetReqIn => "op=\"in\"",
            Counter::NetReqRd => "op=\"rd\"",
            Counter::NetReqInp => "op=\"inp\"",
            Counter::NetReqRdp => "op=\"rdp\"",
            Counter::NetReqTxn => "op=\"txn\"",
            Counter::NetReqOther => "op=\"other\"",
            _ => "",
        }
    }

    /// Help text for the metric family.
    pub(crate) fn help(self) -> &'static str {
        match self {
            Counter::TxnAttemptsImmediate
            | Counter::TxnAttemptsDelayed
            | Counter::TxnAttemptsConsensus => "Transaction guard evaluations, by mode.",
            Counter::TxnCommittedImmediate
            | Counter::TxnCommittedDelayed
            | Counter::TxnCommittedConsensus => "Transactions committed, by mode.",
            Counter::TxnFailedImmediate
            | Counter::TxnFailedDelayed
            | Counter::TxnFailedConsensus => "Transaction attempts whose guard failed, by mode.",
            Counter::TxnConflicts => {
                "Optimistic transactions rolled back after validation failure."
            }
            Counter::TuplesAsserted => "Tuples asserted into the dataspace.",
            Counter::TuplesRetracted => "Tuples retracted from the dataspace.",
            Counter::ExportDropped => "Asserts suppressed by a view's export filter.",
            Counter::IndexHitArg1
            | Counter::IndexHitFunctor
            | Counter::IndexHitArity
            | Counter::IndexHitValue
            | Counter::IndexHitIntersect => "Candidate lookups, by index used.",
            Counter::MatchCandidates => "Candidate tuples enumerated by the solver.",
            Counter::SolverBacktracks => "Solver binding rollbacks during search.",
            Counter::PlanCacheHit | Counter::PlanCacheMiss | Counter::PlanReplans => {
                "Query-plan cache lookups, by event."
            }
            Counter::WindowsBuilt => {
                "Query windows (view intersections) queried through, built or kept."
            }
            Counter::WindowAdmitChecks => {
                "Import-clause admission tests (lazy windows, and the consensus community index on the members a commit's keys reach)."
            }
            Counter::ProcessesBlocked => "Processes that entered the blocked set.",
            Counter::WakeupCommit | Counter::WakeupConsensus => {
                "Blocked-process wakeups, by cause."
            }
            Counter::WakeProgress | Counter::WakeSpurious => {
                "Wake outcomes: the woken process moved on (progress) or parked again (spurious)."
            }
            Counter::ConsensusChecksFired | Counter::ConsensusChecksIncomplete => {
                "Consensus community checks, by whether one fired."
            }
            Counter::ConsensusImportRecomputes => {
                "Import sets the community index recomputed from the store."
            }
            Counter::ProcessesSpawned => "Processes spawned.",
            Counter::WalRecords => "Commit records appended to the write-ahead log.",
            Counter::WalBytes => "Bytes appended to the write-ahead log.",
            Counter::RecoveryRecordsReplayed => "Commit records replayed during crash recovery.",
            Counter::WalTornTailTruncations => {
                "Torn WAL tails truncated at the first bad CRC during recovery."
            }
            Counter::NetReqOut
            | Counter::NetReqIn
            | Counter::NetReqRd
            | Counter::NetReqInp
            | Counter::NetReqRdp
            | Counter::NetReqTxn
            | Counter::NetReqOther => "Wire-protocol requests decoded, by operation.",
            Counter::NetBackpressureStalls => {
                "Backpressure events (reads paused on a full write buffer, or a park refused at the limit)."
            }
            Counter::NetProtocolErrors => "Frames rejected by the wire decoder.",
            Counter::ReplShippedRecords => "Commit records shipped to replication followers.",
            Counter::ReplShippedBytes => "Bytes shipped to replication followers.",
            Counter::ReplRecordsApplied => "Shipped commit records applied by this follower.",
            Counter::ReplSnapshotBootstraps => {
                "Snapshot bootstraps served to or performed by replication peers."
            }
            Counter::ReplNotLeaderRedirects => {
                "Write requests a follower rejected with a NotLeader redirect."
            }
        }
    }
}

/// The runtime's fixed-bucket histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Wall-clock seconds spent acquiring shard locks (per footprint
    /// acquisition, summed over the shards in the footprint).
    ShardLockWaitSeconds,
    /// Wall-clock seconds per write-ahead-log fsync.
    WalFsyncSeconds,
    /// Requests committed per engine batch by the networked server (one
    /// observation per `apply_batch` flush).
    NetBatchSize,
    /// Wall-clock seconds a follower spent applying one shipped commit
    /// record (store mutation + wake scan, under the write footprint).
    ReplApplySeconds,
}

const LATENCY_BUCKETS: &[f64] = &[
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1e-3, 4e-3, 1.6e-2, 6.4e-2, 0.25, 1.0,
];
const SIZE_BUCKETS: &[f64] = &[
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0,
];

impl Hist {
    /// All histograms in exposition order.
    pub(crate) const ALL: [Hist; 4] = [
        Hist::ShardLockWaitSeconds,
        Hist::WalFsyncSeconds,
        Hist::NetBatchSize,
        Hist::ReplApplySeconds,
    ];

    /// The Prometheus metric name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Hist::ShardLockWaitSeconds => "sdl_shard_lock_wait_seconds",
            Hist::WalFsyncSeconds => "sdl_wal_fsync_seconds",
            Hist::NetBatchSize => "sdl_net_batch_size",
            Hist::ReplApplySeconds => "sdl_repl_apply_seconds",
        }
    }

    /// Help text.
    pub(crate) fn help(self) -> &'static str {
        match self {
            Hist::ShardLockWaitSeconds => "Time spent acquiring shard-lock footprints.",
            Hist::WalFsyncSeconds => "Latency of write-ahead-log fsyncs.",
            Hist::NetBatchSize => "Requests committed per networked-server engine batch.",
            Hist::ReplApplySeconds => "Time a follower spent applying one shipped commit record.",
        }
    }

    /// Upper bounds of the cumulative buckets (exclusive of `+Inf`).
    pub(crate) fn buckets(self) -> &'static [f64] {
        match self {
            Hist::ShardLockWaitSeconds | Hist::WalFsyncSeconds | Hist::ReplApplySeconds => {
                LATENCY_BUCKETS
            }
            Hist::NetBatchSize => SIZE_BUCKETS,
        }
    }
}

/// Per-shard counters recorded by the sharded dataspace executor. Unlike
/// [`Counter`], these carry a dynamic `shard` label, so they get their own
/// channel instead of one enum discriminant per (kind, shard) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ShardCounter {
    /// `sdl_shard_commits_total{shard="i"}` — transactions whose write
    /// footprint included shard *i* and that committed.
    Commits,
    /// `sdl_shard_conflicts_total{shard="i"}` — validation failures whose
    /// read footprint included shard *i*.
    Conflicts,
}

impl ShardCounter {
    /// Both per-shard counters, exposition order.
    pub(crate) const ALL: [ShardCounter; 2] = [ShardCounter::Commits, ShardCounter::Conflicts];

    /// Number of per-shard counter kinds.
    pub(crate) const COUNT: usize = ShardCounter::ALL.len();

    /// The Prometheus metric name (family).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ShardCounter::Commits => "sdl_shard_commits_total",
            ShardCounter::Conflicts => "sdl_shard_conflicts_total",
        }
    }

    /// Help text for the metric family.
    pub(crate) fn help(self) -> &'static str {
        match self {
            ShardCounter::Commits => "Committed transactions whose footprint touched the shard.",
            ShardCounter::Conflicts => "Validation conflicts whose footprint touched the shard.",
        }
    }
}

/// Per-event-loop counters recorded by the networked server. Like
/// [`ShardCounter`] these carry a dynamic `loop` label and get their own
/// channel, clamped at `MAX_LOOP_SERIES` with an overflow aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum LoopCounter {
    /// `sdl_net_loop_requests_total{loop="i"}` — wire requests decoded
    /// and executed by event loop *i*; summed over loops, the same total
    /// as `sdl_net_requests_total` over `op`.
    Requests,
    /// `sdl_net_loop_wake_handoffs_total{loop="i"}` — wakes claimed by a
    /// commit on another loop and handed to loop *i* through its mailbox
    /// + wake fd.
    WakeHandoffs,
}

impl LoopCounter {
    /// Both per-loop counters, exposition order.
    pub(crate) const ALL: [LoopCounter; 2] = [LoopCounter::Requests, LoopCounter::WakeHandoffs];

    /// Number of per-loop counter kinds.
    pub(crate) const COUNT: usize = LoopCounter::ALL.len();

    /// The Prometheus metric name (family).
    pub(crate) fn name(self) -> &'static str {
        match self {
            LoopCounter::Requests => "sdl_net_loop_requests_total",
            LoopCounter::WakeHandoffs => "sdl_net_loop_wake_handoffs_total",
        }
    }

    /// Help text for the metric family.
    pub(crate) fn help(self) -> &'static str {
        match self {
            LoopCounter::Requests => "Wire-protocol requests decoded, by event loop.",
            LoopCounter::WakeHandoffs => {
                "Cross-loop wakes delivered to the loop via its mailbox and wake fd."
            }
        }
    }
}

/// Instantaneous levels (up/down), as opposed to the monotone [`Counter`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// `sdl_blocked_queue_depth` — processes currently parked in a
    /// blocked set waiting for a watch-key wakeup.
    BlockedQueueDepth,
    /// `sdl_stalled_processes` — parked processes the stall watchdog has
    /// flagged as waiting beyond the configured threshold.
    StalledProcesses,
    /// `sdl_net_connections` — client connections currently open on the
    /// networked server.
    NetConnections,
    /// `sdl_net_loops` — event-loop worker threads the networked server
    /// is running (static for a server's lifetime).
    NetLoops,
    /// `sdl_repl_lag_commits` — commits the slowest attached follower
    /// trails the leader's shippable watermark by (on a leader), or
    /// commits this follower trails the leader by (on a follower).
    ReplLagCommits,
    /// `sdl_repl_followers` — replication followers currently attached
    /// to this leader.
    ReplFollowers,
}

impl Gauge {
    /// All gauges in exposition order.
    pub(crate) const ALL: [Gauge; 6] = [
        Gauge::BlockedQueueDepth,
        Gauge::StalledProcesses,
        Gauge::NetConnections,
        Gauge::NetLoops,
        Gauge::ReplLagCommits,
        Gauge::ReplFollowers,
    ];

    /// Number of distinct gauges.
    pub(crate) const COUNT: usize = Gauge::ALL.len();

    /// The Prometheus metric name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Gauge::BlockedQueueDepth => "sdl_blocked_queue_depth",
            Gauge::StalledProcesses => "sdl_stalled_processes",
            Gauge::NetConnections => "sdl_net_connections",
            Gauge::NetLoops => "sdl_net_loops",
            Gauge::ReplLagCommits => "sdl_repl_lag_commits",
            Gauge::ReplFollowers => "sdl_repl_followers",
        }
    }

    /// Help text.
    pub(crate) fn help(self) -> &'static str {
        match self {
            Gauge::BlockedQueueDepth => "Processes currently parked waiting for a wakeup.",
            Gauge::StalledProcesses => {
                "Parked processes flagged by the stall watchdog (beyond --stall-ms)."
            }
            Gauge::NetConnections => "Client connections currently open on the networked server.",
            Gauge::NetLoops => "Event-loop worker threads serving the networked dataspace.",
            Gauge::ReplLagCommits => {
                "Replication lag in commits (slowest follower behind the leader watermark)."
            }
            Gauge::ReplFollowers => "Replication followers currently attached.",
        }
    }
}

/// Cheap cloneable handle threaded through the runtime.
///
/// Disabled (the default) it holds no registry and every call is a single
/// branch. Cloning shares the underlying registry.
#[derive(Clone, Default)]
pub struct Metrics {
    sink: Option<Arc<MetricsRegistry>>,
}

/// A disabled handle with a `'static` lifetime, for default trait methods
/// that hand out `&Metrics`.
pub static DISABLED: Metrics = Metrics::disabled();

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Metrics {
    /// A handle that records nothing.
    pub const fn disabled() -> Metrics {
        Metrics { sink: None }
    }

    /// Convenience: a fresh registry plus a handle recording into it.
    pub fn registry() -> (Metrics, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        (
            Metrics {
                sink: Some(registry.clone()),
            },
            registry,
        )
    }

    /// Whether updates are being recorded.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(sink) = &self.sink {
            sink.add(counter, n);
        }
    }

    /// Adds 1 to `counter`.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Records `value` into `hist`.
    #[inline]
    pub fn observe(&self, hist: Hist, value: f64) {
        if let Some(sink) = &self.sink {
            sink.observe(hist, value);
        }
    }

    /// Adds `n` to the per-shard counter for `shard`.
    #[inline]
    pub fn add_shard(&self, shard: usize, counter: ShardCounter, n: u64) {
        if let Some(sink) = &self.sink {
            sink.add_shard(shard, counter, n);
        }
    }

    /// Adds `n` to the per-event-loop counter for `event_loop`.
    #[inline]
    pub fn add_loop(&self, event_loop: usize, counter: LoopCounter, n: u64) {
        if let Some(sink) = &self.sink {
            sink.add_loop(event_loop, counter, n);
        }
    }

    /// Moves `gauge` by `delta` (negative to decrement).
    #[inline]
    pub fn add_gauge(&self, gauge: Gauge, delta: i64) {
        if let Some(sink) = &self.sink {
            sink.add_gauge(gauge, delta);
        }
    }

    /// Sets `gauge` to an absolute level.
    #[inline]
    pub fn set_gauge(&self, gauge: Gauge, value: i64) {
        if let Some(sink) = &self.sink {
            sink.set_gauge(gauge, value);
        }
    }

    /// Starts a wall-clock timer, or `None` when disabled (so the disabled
    /// path never reads the clock).
    #[inline]
    pub fn start_timer(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the elapsed time of a timer from [`Metrics::start_timer`].
    #[inline]
    pub fn observe_timer(&self, hist: Hist, start: Option<Instant>) {
        if let Some(start) = start {
            self.observe(hist, start.elapsed().as_secs_f64());
        }
    }
}

struct HistStore {
    /// One cumulative-count slot per bucket bound, plus `+Inf` at the end.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, stored as `f64::to_bits` and updated by CAS.
    sum_bits: AtomicU64,
}

impl HistStore {
    fn new(hist: Hist) -> HistStore {
        HistStore {
            buckets: (0..=hist.buckets().len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, bounds: &[f64], value: f64) {
        let idx = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// Fixed shard-label capacity of the registry: matches the dataspace's
/// 64-shard maximum, so per-shard storage stays a flat atomic array.
/// Updates for shards at index ≥ `MAX_SHARD_SERIES` are folded into one
/// aggregate slot rendered as `shard="overflow"`, so counts are never
/// silently dropped when an executor outgrows the per-shard series.
pub(crate) const MAX_SHARD_SERIES: usize = 64;

/// Per-kind shard slots: one per addressable shard plus the overflow
/// aggregate at index `MAX_SHARD_SERIES`.
const SHARD_SLOTS: usize = MAX_SHARD_SERIES + 1;

/// Fixed event-loop-label capacity, clamped exactly like the shard
/// series: loops at index ≥ `MAX_LOOP_SERIES` fold into one aggregate
/// slot rendered as `loop="overflow"`.
pub(crate) const MAX_LOOP_SERIES: usize = 64;

/// Per-kind loop slots: one per addressable loop plus the overflow
/// aggregate at index `MAX_LOOP_SERIES`.
const LOOP_SLOTS: usize = MAX_LOOP_SERIES + 1;

/// Lock-free metric storage: one atomic per [`Counter`], fixed-bucket
/// atomics per [`Hist`]. Shared via `Arc` between the runtime and whoever
/// reads the snapshot at the end.
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicI64; Gauge::COUNT],
    /// Low watermark per gauge: the smallest level ever observed after
    /// an update. A correctly accounted depth gauge never dips below
    /// zero; the schedule-exploration tests assert exactly that. The
    /// watermark is exact when updates are serialised (as they are
    /// under the explorer) and approximate under true concurrency.
    gauge_mins: [AtomicI64; Gauge::COUNT],
    hists: Vec<HistStore>,
    /// `[kind][shard]`, flattened: `kind * SHARD_SLOTS + shard`, with the
    /// overflow aggregate in the last slot of each kind.
    shard_counters: Vec<AtomicU64>,
    /// `[kind][loop]`, flattened like `shard_counters`.
    loop_counters: Vec<AtomicU64>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            gauge_mins: std::array::from_fn(|_| AtomicI64::new(0)),
            hists: Hist::ALL.iter().map(|&h| HistStore::new(h)).collect(),
            shard_counters: (0..ShardCounter::COUNT * SHARD_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            loop_counters: (0..LoopCounter::COUNT * LOOP_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Current level of `gauge`.
    pub fn gauge(&self, gauge: Gauge) -> i64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    /// Lowest level `gauge` ever reached (0 if it never moved). Depth
    /// gauges going negative — even transiently — indicate a decrement
    /// racing ahead of its matching increment.
    pub fn gauge_min(&self, gauge: Gauge) -> i64 {
        self.gauge_mins[gauge as usize].load(Ordering::Relaxed)
    }

    /// Current value of a per-shard counter. Shards at index
    /// ≥ `MAX_SHARD_SERIES` share one aggregate slot, so querying any
    /// out-of-range shard returns the overflow total.
    pub fn shard_counter(&self, shard: usize, counter: ShardCounter) -> u64 {
        let slot = shard.min(MAX_SHARD_SERIES);
        self.shard_counters[counter as usize * SHARD_SLOTS + slot].load(Ordering::Relaxed)
    }

    /// Current value of a per-event-loop counter. Loops at index
    /// ≥ `MAX_LOOP_SERIES` share one aggregate slot, so querying any
    /// out-of-range loop returns the overflow total.
    pub fn loop_counter(&self, event_loop: usize, counter: LoopCounter) -> u64 {
        let slot = event_loop.min(MAX_LOOP_SERIES);
        self.loop_counters[counter as usize * LOOP_SLOTS + slot].load(Ordering::Relaxed)
    }

    /// Total observations recorded into `hist`.
    pub fn hist_count(&self, hist: Hist) -> u64 {
        self.hists[hist as usize].count.load(Ordering::Relaxed)
    }

    /// Renders the whole registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;

        let mut out = String::with_capacity(4096);
        let mut last_family = "";
        for &c in &Counter::ALL {
            if c.name() != last_family {
                last_family = c.name();
                let _ = writeln!(out, "# HELP {} {}", c.name(), c.help());
                let _ = writeln!(out, "# TYPE {} counter", c.name());
            }
            let labels = c.labels();
            if labels.is_empty() {
                let _ = writeln!(out, "{} {}", c.name(), self.counter(c));
            } else {
                let _ = writeln!(out, "{}{{{}}} {}", c.name(), labels, self.counter(c));
            }
        }
        for &g in &Gauge::ALL {
            let _ = writeln!(out, "# HELP {} {}", g.name(), g.help());
            let _ = writeln!(out, "# TYPE {} gauge", g.name());
            let _ = writeln!(out, "{} {}", g.name(), self.gauge(g));
        }
        for &sc in &ShardCounter::ALL {
            let slots = &self.shard_counters[sc as usize * SHARD_SLOTS..][..SHARD_SLOTS];
            render_slots(&mut out, sc.name(), sc.help(), "shard", slots);
        }
        for &lc in &LoopCounter::ALL {
            let slots = &self.loop_counters[lc as usize * LOOP_SLOTS..][..LOOP_SLOTS];
            render_slots(&mut out, lc.name(), lc.help(), "loop", slots);
        }
        for &h in &Hist::ALL {
            let store = &self.hists[h as usize];
            let _ = writeln!(out, "# HELP {} {}", h.name(), h.help());
            let _ = writeln!(out, "# TYPE {} histogram", h.name());
            let mut cumulative = 0u64;
            for (i, bound) in h.buckets().iter().enumerate() {
                cumulative += store.buckets[i].load(Ordering::Relaxed);
                let _ = writeln!(
                    out,
                    "{}_bucket{{le=\"{}\"}} {}",
                    h.name(),
                    bound,
                    cumulative
                );
            }
            cumulative += store.buckets[h.buckets().len()].load(Ordering::Relaxed);
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name(), cumulative);
            let _ = writeln!(out, "{}_sum {}", h.name(), store.sum());
            let _ = writeln!(
                out,
                "{}_count {}",
                h.name(),
                store.count.load(Ordering::Relaxed)
            );
        }
        out
    }
}

/// Renders one family with a dynamic `label` (one slot per index, the
/// last one the `"overflow"` aggregate). Only slots the run touched get
/// a series, and an untouched family none: an idle 64-shard tail would
/// drown the exposition in zeros.
fn render_slots(out: &mut String, name: &str, help: &str, label: &str, slots: &[AtomicU64]) {
    use std::fmt::Write;
    let touched: Vec<(usize, u64)> = slots
        .iter()
        .map(|v| v.load(Ordering::Relaxed))
        .enumerate()
        .filter(|&(_, v)| v != 0)
        .collect();
    if touched.is_empty() {
        return;
    }
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for (i, v) in touched {
        if i == slots.len() - 1 {
            let _ = writeln!(out, "{name}{{{label}=\"overflow\"}} {v}");
        } else {
            let _ = writeln!(out, "{name}{{{label}=\"{i}\"}} {v}");
        }
    }
}

impl MetricsRegistry {
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, hist: Hist, value: f64) {
        self.hists[hist as usize].observe(hist.buckets(), value);
    }

    fn add_shard(&self, shard: usize, counter: ShardCounter, n: u64) {
        let slot = shard.min(MAX_SHARD_SERIES);
        self.shard_counters[counter as usize * SHARD_SLOTS + slot].fetch_add(n, Ordering::Relaxed);
    }

    fn add_loop(&self, event_loop: usize, counter: LoopCounter, n: u64) {
        let slot = event_loop.min(MAX_LOOP_SERIES);
        self.loop_counters[counter as usize * LOOP_SLOTS + slot].fetch_add(n, Ordering::Relaxed);
    }

    fn add_gauge(&self, gauge: Gauge, delta: i64) {
        let new = self.gauges[gauge as usize].fetch_add(delta, Ordering::Relaxed) + delta;
        self.gauge_mins[gauge as usize].fetch_min(new, Ordering::Relaxed);
    }

    fn set_gauge(&self, gauge: Gauge, value: i64) {
        self.gauges[gauge as usize].store(value, Ordering::Relaxed);
        self.gauge_mins[gauge as usize].fetch_min(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_never_reads_the_clock() {
        let m = Metrics::disabled();
        assert!(!m.enabled());
        m.inc(Counter::TuplesAsserted);
        m.observe(Hist::NetBatchSize, 3.0);
        assert!(m.start_timer().is_none());
        m.observe_timer(Hist::WalFsyncSeconds, None);
    }

    #[test]
    fn counters_accumulate_per_series() {
        let (m, reg) = Metrics::registry();
        m.inc(Counter::TxnCommittedImmediate);
        m.add(Counter::TxnCommittedImmediate, 2);
        m.inc(Counter::TxnCommittedConsensus);
        assert_eq!(reg.counter(Counter::TxnCommittedImmediate), 3);
        assert_eq!(reg.counter(Counter::TxnCommittedConsensus), 1);
        assert_eq!(reg.counter(Counter::TxnCommittedDelayed), 0);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let (m, reg) = Metrics::registry();
        m.observe(Hist::NetBatchSize, 0.0);
        m.observe(Hist::NetBatchSize, 3.0);
        m.observe(Hist::NetBatchSize, 1e9); // lands in +Inf
        assert_eq!(reg.hist_count(Hist::NetBatchSize), 3);
        let text = reg.render_prometheus();
        assert!(text.contains("sdl_net_batch_size_bucket{le=\"0\"} 1"));
        assert!(text.contains("sdl_net_batch_size_bucket{le=\"4\"} 2"));
        assert!(text.contains("sdl_net_batch_size_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("sdl_net_batch_size_sum 1000000003"));
        assert!(text.contains("sdl_net_batch_size_count 3"));
    }

    #[test]
    fn prometheus_rendering_has_headers_and_labels() {
        let (m, reg) = Metrics::registry();
        m.inc(Counter::TxnCommittedConsensus);
        m.inc(Counter::IndexHitArg1);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sdl_txn_committed_total counter"));
        assert!(text.contains("sdl_txn_committed_total{mode=\"consensus\"} 1"));
        assert!(text.contains("sdl_index_lookups_total{index=\"arg1\"} 1"));
        // Exactly one header per family.
        assert_eq!(
            text.matches("# TYPE sdl_txn_committed_total counter")
                .count(),
            1
        );
    }

    #[test]
    fn shard_counters_render_only_touched_shards() {
        let (m, reg) = Metrics::registry();
        let text = reg.render_prometheus();
        assert!(
            !text.contains("sdl_shard_commits_total"),
            "untouched shard families are omitted entirely"
        );
        m.add_shard(0, ShardCounter::Commits, 3);
        m.add_shard(5, ShardCounter::Commits, 1);
        m.add_shard(5, ShardCounter::Conflicts, 2);
        assert_eq!(reg.shard_counter(0, ShardCounter::Commits), 3);
        assert_eq!(reg.shard_counter(5, ShardCounter::Conflicts), 2);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sdl_shard_commits_total counter"));
        assert!(text.contains("sdl_shard_commits_total{shard=\"0\"} 3"));
        assert!(text.contains("sdl_shard_commits_total{shard=\"5\"} 1"));
        assert!(text.contains("sdl_shard_conflicts_total{shard=\"5\"} 2"));
        assert!(!text.contains("shard=\"1\"}"), "idle shards get no series");
        assert!(
            !text.contains("shard=\"overflow\""),
            "no overflow series until an out-of-range shard records"
        );
    }

    #[test]
    fn out_of_range_shards_fold_into_the_overflow_series() {
        // Regression: shards at index >= MAX_SHARD_SERIES used to be
        // silently unrecorded. A 128-shard executor must still account
        // for every commit, aggregated under shard="overflow".
        let (m, reg) = Metrics::registry();
        for shard in 0..128 {
            m.add_shard(shard, ShardCounter::Commits, 1);
        }
        m.add_shard(127, ShardCounter::Conflicts, 5);
        let in_range: u64 = (0..MAX_SHARD_SERIES)
            .map(|s| reg.shard_counter(s, ShardCounter::Commits))
            .sum();
        assert_eq!(in_range, MAX_SHARD_SERIES as u64);
        assert_eq!(
            reg.shard_counter(MAX_SHARD_SERIES, ShardCounter::Commits),
            (128 - MAX_SHARD_SERIES) as u64,
            "shards 64..128 all land in the aggregate slot"
        );
        // Querying any out-of-range shard reads the aggregate.
        assert_eq!(
            reg.shard_counter(999, ShardCounter::Conflicts),
            5,
            "out-of-range reads return the overflow total"
        );
        let text = reg.render_prometheus();
        assert!(text.contains("sdl_shard_commits_total{shard=\"63\"} 1"));
        assert!(text.contains("sdl_shard_commits_total{shard=\"overflow\"} 64"));
        assert!(text.contains("sdl_shard_conflicts_total{shard=\"overflow\"} 5"));
        assert!(
            !text.contains("shard=\"64\""),
            "no per-shard series past the cap"
        );
    }

    #[test]
    fn loop_counters_clamp_and_render_their_own_families() {
        let (m, reg) = Metrics::registry();
        m.inc(Counter::NetReqOut);
        m.add_loop(0, LoopCounter::Requests, 5);
        m.add_loop(3, LoopCounter::Requests, 2);
        m.add_loop(1, LoopCounter::WakeHandoffs, 4);
        m.add_loop(MAX_LOOP_SERIES + 10, LoopCounter::WakeHandoffs, 1);
        assert_eq!(reg.loop_counter(0, LoopCounter::Requests), 5);
        assert_eq!(
            reg.loop_counter(MAX_LOOP_SERIES, LoopCounter::WakeHandoffs),
            1
        );
        let text = reg.render_prometheus();
        // The per-loop request series are a family of their own, so
        // summing sdl_net_requests_total counts each request once.
        assert!(text.contains("sdl_net_requests_total{op=\"out\"} 1"));
        assert!(
            text.lines()
                .filter(|l| l.starts_with("sdl_net_requests_total{"))
                .all(|l| l.starts_with("sdl_net_requests_total{op=")),
            "no loop= sample inside the op family"
        );
        assert!(text.contains("# TYPE sdl_net_loop_requests_total counter"));
        assert!(text.contains("sdl_net_loop_requests_total{loop=\"0\"} 5"));
        assert!(text.contains("sdl_net_loop_requests_total{loop=\"3\"} 2"));
        assert!(text.contains("# TYPE sdl_net_loop_wake_handoffs_total counter"));
        assert!(text.contains("sdl_net_loop_wake_handoffs_total{loop=\"1\"} 4"));
        assert!(text.contains("sdl_net_loop_wake_handoffs_total{loop=\"overflow\"} 1"));
        // sdl_net_loops renders as a plain gauge.
        m.add_gauge(Gauge::NetLoops, 4);
        assert!(reg.render_prometheus().contains("sdl_net_loops 4"));
    }

    #[test]
    fn stalled_process_gauge_and_phase_histograms_render() {
        let (m, reg) = Metrics::registry();
        m.add_gauge(Gauge::StalledProcesses, 2);
        m.add_gauge(Gauge::StalledProcesses, -1);
        m.observe(Hist::ReplApplySeconds, 3e-6);
        m.observe(Hist::WalFsyncSeconds, 2e-6);
        assert_eq!(reg.gauge(Gauge::StalledProcesses), 1);
        assert_eq!(reg.hist_count(Hist::ReplApplySeconds), 1);
        assert_eq!(reg.hist_count(Hist::WalFsyncSeconds), 1);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sdl_stalled_processes gauge"));
        assert!(text.contains("sdl_stalled_processes 1"));
        assert!(text.contains("# TYPE sdl_repl_apply_seconds histogram"));
        assert!(text.contains("sdl_wal_fsync_seconds_count 1"));
    }

    #[test]
    fn shard_lock_wait_histogram_is_exposed() {
        let (m, reg) = Metrics::registry();
        m.observe(Hist::ShardLockWaitSeconds, 2e-6);
        assert_eq!(reg.hist_count(Hist::ShardLockWaitSeconds), 1);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sdl_shard_lock_wait_seconds histogram"));
        assert!(text.contains("sdl_shard_lock_wait_seconds_count 1"));
    }

    #[test]
    fn wake_precision_counters_share_one_family() {
        let (m, reg) = Metrics::registry();
        m.inc(Counter::WakeProgress);
        m.add(Counter::WakeSpurious, 4);
        assert_eq!(reg.counter(Counter::WakeProgress), 1);
        assert_eq!(reg.counter(Counter::WakeSpurious), 4);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE sdl_wakes_total counter").count(), 1);
        assert!(text.contains("sdl_wakes_total{result=\"progress\"} 1"));
        assert!(text.contains("sdl_wakes_total{result=\"spurious\"} 4"));
    }

    #[test]
    fn gauges_move_both_ways_and_render_as_gauge() {
        let (m, reg) = Metrics::registry();
        m.add_gauge(Gauge::BlockedQueueDepth, 3);
        m.add_gauge(Gauge::BlockedQueueDepth, -1);
        assert_eq!(reg.gauge(Gauge::BlockedQueueDepth), 2);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sdl_blocked_queue_depth gauge"));
        assert!(text.contains("sdl_blocked_queue_depth 2"));
        // Disabled handles and the null sink discard gauge updates.
        Metrics::disabled().add_gauge(Gauge::BlockedQueueDepth, 7);
        assert_eq!(reg.gauge(Gauge::BlockedQueueDepth), 2);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let (m, reg) = Metrics::registry();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        m.inc(Counter::MatchCandidates);
                        m.observe(Hist::ShardLockWaitSeconds, 1e-5);
                    }
                });
            }
        });
        assert_eq!(reg.counter(Counter::MatchCandidates), 40_000);
        assert_eq!(reg.hist_count(Hist::ShardLockWaitSeconds), 40_000);
    }

    /// `docs/OBSERVABILITY.md`'s metric tables (rows opening with a
    /// backquoted `sdl_` name) list exactly what the registry emits.
    #[test]
    fn observability_doc_lists_exactly_the_emitted_families() {
        let (m, reg) = Metrics::registry();
        for c in Counter::ALL {
            m.inc(c);
        }
        for g in Gauge::ALL {
            m.add_gauge(g, 1);
        }
        for h in Hist::ALL {
            m.observe(h, 1.0);
        }
        for sc in ShardCounter::ALL {
            m.add_shard(0, sc, 1);
        }
        for lc in LoopCounter::ALL {
            m.add_loop(0, lc, 1);
        }
        let text = reg.render_prometheus();
        let headers: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE sdl_"))
            .filter_map(|rest| rest.split(' ').next())
            .collect();
        let emitted: std::collections::BTreeSet<&str> = headers.iter().copied().collect();
        assert_eq!(headers.len(), emitted.len(), "one block per family");
        let documented: std::collections::BTreeSet<&str> =
            include_str!("../../../docs/OBSERVABILITY.md")
                .lines()
                .filter_map(|l| l.strip_prefix("| `sdl_"))
                .filter_map(|rest| rest.split('`').next())
                .collect();
        assert_eq!(emitted, documented);
    }
}
