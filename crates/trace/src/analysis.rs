//! Latency breakdowns and critical-path summaries over trace records.
//!
//! [`analyze`] digests the raw [`TraceRecord`] stream (straight from a
//! [`Tracer`](sdl_core::Tracer) or reconstructed from a trace file via
//! [`from_chrome`](crate::perfetto::from_chrome)) into:
//!
//! * per-phase span statistics (count / total / mean / max µs),
//! * commit, conflict, wake, park, and stall counts,
//! * the **causal critical path**: starting from the last commit, follow
//!   wake-attribution edges backwards (this commit's transaction was
//!   parked until commit *C* produced watch key *K*) to recover the
//!   chain of commits that bound the run's makespan.

use std::collections::HashMap;
use std::fmt;

use sdl_core::{ParkOutcome, TraceRecord};
use sdl_tuple::ProcId;

/// Aggregate statistics for one span phase (or the commit slices).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct PhaseStat {
    /// Phase name as it appears in the trace (`eval`, `plan`, …).
    pub(crate) name: String,
    /// Number of spans observed.
    pub(crate) count: u64,
    /// Summed duration in microseconds.
    pub(crate) total_us: u64,
    /// Longest single span in microseconds.
    pub(crate) max_us: u64,
}

impl PhaseStat {
    fn add(&mut self, dur_us: u64) {
        self.count += 1;
        self.total_us += dur_us;
        self.max_us = self.max_us.max(dur_us);
    }

    /// Mean span duration in microseconds (0 when empty).
    pub(crate) fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

/// One hop on the causal critical path, in chronological order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CriticalHop {
    /// Commit id of this hop.
    pub(crate) commit: u64,
    /// Process that committed.
    pub(crate) pid: ProcId,
    /// Commit start time (µs since run start).
    pub(crate) t_us: u64,
    /// Watch key through which this commit woke the *next* hop's
    /// process; `None` on the final hop.
    pub(crate) woke_via: Option<String>,
}

/// The digest [`analyze`] produces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Per-phase span statistics, ordered by total time descending.
    pub(crate) phases: Vec<PhaseStat>,
    /// Committed transactions.
    pub(crate) commits: u64,
    /// Footprint-validation conflicts (aborted attempts).
    pub(crate) conflicts: u64,
    /// Wake-attribution edges.
    pub(crate) wakes: u64,
    /// Park intervals that ended in a wake.
    pub(crate) parks_woken: u64,
    /// Park intervals drained at end of run (never woken).
    pub(crate) parks_drained: u64,
    /// Total parked time across all processes, µs.
    pub(crate) parked_us: u64,
    /// Stall-watchdog annotations.
    pub(crate) stalls: u64,
    /// Wall-clock extent of the trace, µs (latest event end).
    pub(crate) wall_us: u64,
    /// Wake-linked commit chain ending at the last commit, oldest first.
    pub(crate) critical_path: Vec<CriticalHop>,
}

/// Digests a record stream. Works on any ordering; records are bucketed
/// by timestamp internally.
pub fn analyze(records: &[TraceRecord]) -> Analysis {
    let mut a = Analysis::default();
    let mut phases: HashMap<&'static str, PhaseStat> = HashMap::new();
    let mut commit_stat = PhaseStat {
        name: "commit".to_owned(),
        ..PhaseStat::default()
    };
    // commit id → (pid, start).
    let mut commits: HashMap<u64, (ProcId, u64)> = HashMap::new();
    // Wake edges per woken process, in arrival order.
    let mut wakes_by_pid: HashMap<ProcId, Vec<(u64, u64, String)>> = HashMap::new();
    // Start of each process's open park.
    let mut parked_since: HashMap<ProcId, u64> = HashMap::new();
    let mut last_commit: Option<u64> = None;
    let mut last_commit_t = 0u64;

    for r in records {
        match r {
            TraceRecord::Span {
                phase,
                t_us,
                dur_us,
                ..
            } => {
                phases
                    .entry(phase.name())
                    .or_insert_with(|| PhaseStat {
                        name: phase.name().to_owned(),
                        ..PhaseStat::default()
                    })
                    .add(*dur_us);
                a.wall_us = a.wall_us.max(t_us.saturating_add(*dur_us));
            }
            TraceRecord::Commit {
                parts,
                commit,
                t_us,
                dur_us,
                ..
            } => {
                a.commits += 1;
                commit_stat.add(*dur_us);
                commits.insert(*commit, (parts[0].0, *t_us));
                if *t_us >= last_commit_t {
                    last_commit_t = *t_us;
                    last_commit = Some(*commit);
                }
                a.wall_us = a.wall_us.max(t_us.saturating_add(*dur_us));
            }
            TraceRecord::Conflict { t_us, .. } => {
                a.conflicts += 1;
                a.wall_us = a.wall_us.max(*t_us);
            }
            TraceRecord::Park { pid, t_us, .. } => {
                parked_since.insert(*pid, *t_us);
            }
            TraceRecord::Unpark { pid, t_us, outcome } => {
                match outcome {
                    ParkOutcome::Woken => a.parks_woken += 1,
                    ParkOutcome::Drained => a.parks_drained += 1,
                }
                let since = parked_since.remove(pid).unwrap_or(*t_us);
                a.parked_us += t_us.saturating_sub(since);
                a.wall_us = a.wall_us.max(*t_us);
            }
            TraceRecord::Wake {
                pid,
                commit,
                key,
                t_us,
            } => {
                a.wakes += 1;
                wakes_by_pid
                    .entry(*pid)
                    .or_default()
                    .push((*t_us, *commit, key.clone()));
                a.wall_us = a.wall_us.max(*t_us);
            }
            TraceRecord::Stall { t_us, .. } => {
                a.stalls += 1;
                a.wall_us = a.wall_us.max(*t_us);
            }
            _ => {}
        }
    }
    for v in wakes_by_pid.values_mut() {
        v.sort_unstable_by_key(|(t, _, _)| *t);
    }

    a.phases = phases.into_values().collect();
    if commit_stat.count > 0 {
        a.phases.push(commit_stat);
    }
    a.phases
        .sort_by(|x, y| y.total_us.cmp(&x.total_us).then(x.name.cmp(&y.name)));

    // Walk wake edges backwards from the last commit: who woke the
    // process that produced it, and so on. A cycle guard handles
    // re-parked processes whose ids recur.
    let mut path = Vec::new();
    let mut cur = last_commit;
    let mut woke_via: Option<String> = None;
    let mut seen: HashMap<u64, ()> = HashMap::new();
    while let Some(c) = cur {
        if seen.insert(c, ()).is_some() {
            break;
        }
        let Some(&(pid, t_us)) = commits.get(&c) else {
            break;
        };
        path.push(CriticalHop {
            commit: c,
            pid,
            t_us,
            woke_via: woke_via.take(),
        });
        // Latest wake of `pid` before this commit started.
        cur = wakes_by_pid.get(&pid).and_then(|v| {
            v.iter()
                .rev()
                .find(|(t, cause, _)| *t <= t_us && *cause != c)
                .map(|(_, cause, key)| {
                    woke_via = Some(key.clone());
                    *cause
                })
        });
    }
    path.reverse();
    a.critical_path = path;
    a
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} commits, {} conflicts, {} wakes, {} parks ({} drained), {} stalls, wall {} us",
            self.commits,
            self.conflicts,
            self.wakes,
            self.parks_woken + self.parks_drained,
            self.parks_drained,
            self.stalls,
            self.wall_us
        )?;
        writeln!(f, "phase breakdown:")?;
        writeln!(
            f,
            "  {:<16} {:>8} {:>12} {:>10} {:>10}",
            "phase", "count", "total_us", "mean_us", "max_us"
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "  {:<16} {:>8} {:>12} {:>10} {:>10}",
                p.name,
                p.count,
                p.total_us,
                p.mean_us(),
                p.max_us
            )?;
        }
        if self.parks_woken + self.parks_drained > 0 {
            writeln!(f, "parked time: {} us total", self.parked_us)?;
        }
        if !self.critical_path.is_empty() {
            writeln!(
                f,
                "critical path ({} wake-linked commits):",
                self.critical_path.len()
            )?;
            for hop in &self.critical_path {
                write!(
                    f,
                    "  commit {} by {} at {} us",
                    hop.commit, hop.pid, hop.t_us
                )?;
                match &hop.woke_via {
                    Some(key) => writeln!(f, " -> wakes next via {key}")?,
                    None => writeln!(f)?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_core::{SpanPhase, Track};
    use sdl_lang::ast::TxnKind;

    #[test]
    fn critical_path_follows_wake_edges() {
        // p1 commits c1 (key a) -> wakes p2, which commits c2 (key b)
        // -> wakes p3, which commits c3 last.
        let mk_commit = |pid: u64, commit: u64, t_us: u64| TraceRecord::Commit {
            step: 0,
            trace: commit,
            parts: vec![(ProcId(pid), TxnKind::Delayed)],
            track: Track::Main,
            commit,
            t_us,
            dur_us: 2,
            keys: vec![],
            shards: vec![],
            retracted: vec![],
            asserted: vec![],
        };
        let mk_wake = |pid: u64, commit: u64, key: &str, t_us: u64| TraceRecord::Wake {
            pid: ProcId(pid),
            commit,
            key: key.to_owned(),
            t_us,
        };
        let records = vec![
            mk_commit(1, 1, 10),
            mk_wake(2, 1, "a", 12),
            mk_commit(2, 2, 20),
            mk_wake(3, 2, "b", 22),
            mk_commit(3, 3, 30),
        ];
        let a = analyze(&records);
        assert_eq!(a.commits, 3);
        assert_eq!(a.wakes, 2);
        let ids: Vec<u64> = a.critical_path.iter().map(|h| h.commit).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(a.critical_path[0].woke_via.as_deref(), Some("a"));
        assert_eq!(a.critical_path[1].woke_via.as_deref(), Some("b"));
        assert_eq!(a.critical_path[2].woke_via, None);
    }

    #[test]
    fn phase_stats_aggregate() {
        let span = |phase, t_us, dur_us| TraceRecord::Span {
            trace: 1,
            pid: ProcId(1),
            track: Track::Main,
            phase,
            t_us,
            dur_us,
        };
        let a = analyze(&[
            span(SpanPhase::Eval, 0, 10),
            span(SpanPhase::Eval, 20, 30),
            span(SpanPhase::Plan, 1, 2),
        ]);
        let eval = a.phases.iter().find(|p| p.name == "eval").unwrap();
        assert_eq!((eval.count, eval.total_us, eval.max_us), (2, 40, 30));
        assert_eq!(eval.mean_us(), 20);
        assert_eq!(a.wall_us, 50);
    }
}
