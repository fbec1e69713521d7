//! Per-process and aggregate execution statistics.

use std::collections::BTreeMap;
use std::fmt;

use sdl_core::TraceRecord;
use sdl_lang::ast::TxnKind;
use sdl_tuple::ProcId;

/// Statistics for one process.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ProcStats {
    /// Definition name (empty for the environment pseudo-process).
    pub(crate) name: String,
    /// Committed transactions.
    pub(crate) commits: u64,
    /// Failed immediate transactions.
    pub(crate) failures: u64,
    /// Tuples asserted.
    pub(crate) asserts: u64,
    /// Tuples retracted.
    pub(crate) retracts: u64,
    /// Assertions dropped by export filtering.
    pub(crate) export_drops: u64,
    /// Times the process blocked.
    pub(crate) blocks: u64,
    /// Consensus transactions it participated in.
    pub(crate) consensus: u64,
    /// True if it ended via `abort`.
    pub(crate) aborted: bool,
}

/// Aggregate statistics over a run, derived from its records.
///
/// # Examples
///
/// ```
/// use sdl_core::{CompiledProgram, Runtime, Tracer};
/// use sdl_trace::Stats;
///
/// let program = CompiledProgram::from_source(
///     "process P() { -> <a>; -> <b>; } init { spawn P(); }",
/// ).unwrap();
/// let tracer = Tracer::new();
/// let mut rt = Runtime::builder(program).tracer(tracer.clone()).build().unwrap();
/// rt.run().unwrap();
/// let stats = Stats::from_records(&tracer.take()).to_string();
/// assert!(stats.contains("2 asserts"));
/// assert!(stats.contains("1 process(es)"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Statistics keyed by process.
    pub(crate) per_process: BTreeMap<ProcId, ProcStats>,
    /// All commits.
    pub(crate) total_commits: u64,
    /// All assertions.
    pub(crate) total_asserts: u64,
    /// All retractions.
    pub(crate) total_retracts: u64,
    /// Consensus firings.
    pub(crate) consensus_rounds: u64,
    /// Processes created.
    pub(crate) processes_created: u64,
    /// All failed immediate transactions.
    pub(crate) total_failures: u64,
    /// All assertions dropped by export filtering.
    pub(crate) total_export_drops: u64,
}

impl Stats {
    /// Builds statistics from a record stream.
    pub fn from_records(records: &[TraceRecord]) -> Stats {
        let mut s = Stats::default();
        s.add(records);
        s
    }

    /// Folds more records in — how a reader that drains the stream as
    /// the run goes keeps a running table.
    pub fn add(&mut self, records: &[TraceRecord]) {
        for r in records {
            match r {
                TraceRecord::Commit {
                    parts,
                    retracted,
                    asserted,
                    ..
                } => {
                    for (by, _, _) in retracted {
                        self.total_retracts += 1;
                        self.proc(*by).retracts += 1;
                    }
                    for (by, id, _) in asserted {
                        if id.is_some() {
                            self.total_asserts += 1;
                            self.proc(*by).asserts += 1;
                        } else {
                            self.total_export_drops += 1;
                            self.proc(*by).export_drops += 1;
                        }
                    }
                    if parts[0].1 == TxnKind::Consensus {
                        self.consensus_rounds += 1;
                    }
                    for &(pid, kind) in parts {
                        self.total_commits += 1;
                        let p = self.proc(pid);
                        p.commits += 1;
                        p.consensus += u64::from(kind == TxnKind::Consensus);
                    }
                }
                TraceRecord::Failed { pid, .. } => {
                    self.total_failures += 1;
                    self.proc(*pid).failures += 1;
                }
                TraceRecord::Park { pid, .. } => self.proc(*pid).blocks += 1,
                TraceRecord::Spawn { pid, name, .. } => {
                    self.processes_created += 1;
                    self.proc(*pid).name = name.clone();
                }
                TraceRecord::Exit { pid, aborted, .. } => self.proc(*pid).aborted = *aborted,
                _ => {}
            }
        }
    }

    fn proc(&mut self, id: ProcId) -> &mut ProcStats {
        self.per_process.entry(id).or_default()
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:<16} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9}",
            "proc", "name", "commits", "fails", "asserts", "retracts", "blocks", "consensus"
        )?;
        for (id, p) in &self.per_process {
            writeln!(
                f,
                "{:<8} {:<16} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9}{}",
                id.to_string(),
                p.name,
                p.commits,
                p.failures,
                p.asserts,
                p.retracts,
                p.blocks,
                p.consensus,
                if p.aborted { "  (aborted)" } else { "" }
            )?;
        }
        write!(
            f,
            "total: {} commits, {} fails, {} asserts, {} retracts ({} export-dropped), \
             {} consensus round(s), {} process(es)",
            self.total_commits,
            self.total_failures,
            self.total_asserts,
            self.total_retracts,
            self.total_export_drops,
            self.consensus_rounds,
            self.processes_created
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_core::{CompiledProgram, Runtime, Tracer};

    fn records(src: &str) -> Vec<TraceRecord> {
        let program = CompiledProgram::from_source(src).unwrap();
        let tracer = Tracer::new();
        let mut rt = Runtime::builder(program)
            .tracer(tracer.clone())
            .build()
            .unwrap();
        rt.run().unwrap();
        tracer.take()
    }

    fn stats(src: &str) -> Stats {
        Stats::from_records(&records(src))
    }

    #[test]
    fn counts_commits_and_tuples() {
        let s = stats(
            "process P() { -> <a>, <b>; exists v : <a>! -> ; }
             init { spawn P(); }",
        );
        assert_eq!(s.total_commits, 2);
        assert_eq!(s.total_asserts, 2);
        assert_eq!(s.total_retracts, 1);
        assert_eq!(s.processes_created, 1);
        let p = s.per_process.values().next().unwrap();
        assert_eq!(p.name, "P");
        assert_eq!(p.commits, 2);
    }

    #[test]
    fn counts_failures_blocks_and_aborts() {
        let s = stats(
            "process P() { <nope> -> <bad>; <poison>! -> abort; }
             process Q() { <never> => skip; }
             init { <poison>; spawn P(); spawn Q(); }",
        );
        let p: Vec<&ProcStats> = s.per_process.values().collect();
        assert_eq!(p[0].failures, 1);
        assert!(p[0].aborted);
        assert!(p[1].blocks >= 1);
    }

    #[test]
    fn counts_consensus() {
        let s = stats(
            "process W(me) { <ready, 1>, <ready, 2> @> skip; }
             init { <ready, 1>; <ready, 2>; spawn W(1); spawn W(2); }",
        );
        assert_eq!(s.consensus_rounds, 1);
        for p in s.per_process.values() {
            assert_eq!(p.consensus, 1);
        }
    }

    #[test]
    fn folding_batches_matches_one_pass() {
        let records = records(
            "process P() { -> <a>, <b>; exists v : <a>! -> ; }
             init { spawn P(); }",
        );
        let mut folded = Stats::default();
        for batch in records.chunks(3) {
            folded.add(batch);
        }
        let whole = Stats::from_records(&records);
        assert_eq!(folded.per_process, whole.per_process);
        assert_eq!(folded.to_string(), whole.to_string());
    }

    #[test]
    fn display_renders_table() {
        let out = stats("process P() { -> <a>; } init { spawn P(); }").to_string();
        assert!(out.contains("commits"));
        assert!(out.contains("total:"));
        assert!(out.contains('P'));
    }
}
