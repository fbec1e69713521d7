//! The maximal-parallel-rounds scheduler.
//!
//! The paper targets "a highly parallel multiprocessor": the interesting
//! cost of an SDL program is not serial transaction count but *logical
//! parallel time* — how many rounds of mutually non-conflicting
//! transactions the computation needs. This scheduler measures that:
//!
//! * each round takes a **snapshot** of the dataspace; every process
//!   evaluates its next transaction against the snapshot (so effects of
//!   concurrent siblings are invisible, exactly as if they ran in
//!   parallel);
//! * commits are **validated** against the live store (all read/retracted
//!   instances still present, verified negations still empty) — a
//!   conflicting transaction simply retries next round;
//! * a replication construct commits *every* non-conflicting guard
//!   solution in the round — the paper's "unbounded number of textual
//!   copies … all executing concurrently";
//! * complete consensus communities fire at the end of each round
//!   (a consensus firing is the paper's phase barrier).
//!
//! For the array-summation programs of §3.1 this yields the expected
//! `Θ(log₂ N)` rounds; the serial scheduler would report `Θ(N)` commits
//! with no parallel structure visible.

use sdl_dataspace::Dataspace;
use sdl_lang::ast::TxnKind;
use sdl_tuple::ProcId;

use rand::seq::SliceRandom;

use std::sync::Arc;

use crate::error::RuntimeError;
use crate::outcome::Outcome;
use crate::process::Frame;
use crate::program::{CompiledBranch, CompiledStmt};
use crate::sched::{attempts_counter, failed_counter, GuardMode, Runtime};
use crate::RunReport;

use sdl_metrics::Counter;

impl Runtime {
    /// Runs with round-level parallelism and reports logical parallel
    /// time in `RunReport::rounds`.
    ///
    /// # Errors
    ///
    /// As for [`Runtime::run`].
    pub fn run_rounds(&mut self) -> Result<RunReport, RuntimeError> {
        loop {
            if self.report.attempts >= self.limits_max_attempts() {
                self.report.outcome = Outcome::StepLimit;
                break;
            }
            let snapshot = self.ds.clone();
            let mut pids: Vec<ProcId> = self.procs.keys().copied().collect();
            pids.sort_unstable();
            pids.shuffle(&mut self.rng);

            let mut commits = 0u64;
            let mut progressed = false;
            for pid in pids {
                if self.procs.contains_key(&pid) {
                    let (c, p) = self.round_step(pid, &snapshot)?;
                    commits += c;
                    progressed |= p;
                }
            }
            // End-of-round barrier: fire every complete community.
            let mut fired = false;
            while self.try_consensus_any()? {
                fired = true;
            }
            self.ready.clear(); // rounds mode iterates the society directly

            if commits > 0 || fired {
                self.report.rounds += 1;
            } else if progressed {
                // Control-only progress (frame pops, skips, terminations)
                // costs no parallel time but the computation is not done.
            } else {
                self.report.outcome = if self.procs.is_empty() {
                    Outcome::Completed
                } else {
                    Outcome::Quiescent {
                        blocked: {
                            let mut b: Vec<ProcId> = self.procs.keys().copied().collect();
                            b.sort_unstable();
                            b
                        },
                    }
                };
                break;
            }
        }
        self.report.final_tuples = self.ds.len();
        self.drain_parks();
        Ok(self.report.clone())
    }

    /// One process's turn within a round. Returns the number of commits
    /// and whether any control progress was made.
    fn round_step(&mut self, pid: ProcId, snap: &Dataspace) -> Result<(u64, bool), RuntimeError> {
        self.unblock(pid);
        loop {
            let Some(proc) = self.procs.get(&pid) else {
                return Ok((0, false));
            };
            let top = proc.frames.last().cloned();
            match top {
                None => {
                    self.terminate(pid, false);
                    return Ok((0, true));
                }
                Some(Frame::Seq { stmts, idx }) => {
                    if idx >= stmts.len() {
                        self.procs
                            .get_mut(&pid)
                            .expect("checked above")
                            .frames
                            .pop();
                        continue;
                    }
                    match stmts[idx].clone() {
                        CompiledStmt::Txn(t) => {
                            if t.kind == TxnKind::Consensus {
                                let watch = self.txn_watch(pid, &t);
                                self.block(pid, watch, true);
                                return Ok((0, false));
                            }
                            self.report.attempts += 1;
                            self.metrics.inc(attempts_counter(t.kind));
                            self.cur_trace = self.tracer.new_trace();
                            return match self.evaluate_for(pid, &t, Some(snap), &[])? {
                                Ok(p) => {
                                    if p.validate(&self.ds) {
                                        self.advance_seq(pid);
                                        self.commit_single(pid, &p, t.kind)?;
                                        self.apply_control(pid, &p)?;
                                        Ok((1, true))
                                    } else {
                                        // Conflict with a sibling in this
                                        // round; retry next round.
                                        self.metrics.inc(Counter::TxnConflicts);
                                        self.trace_conflict(pid);
                                        Ok((0, false))
                                    }
                                }
                                Err(_) => {
                                    self.metrics.inc(failed_counter(t.kind));
                                    match t.kind {
                                        TxnKind::Immediate => {
                                            self.trace_failed(pid);
                                            self.advance_seq(pid);
                                            Ok((0, true))
                                        }
                                        TxnKind::Delayed => {
                                            let watch = self.txn_watch(pid, &t);
                                            self.block(pid, watch, false);
                                            Ok((0, false))
                                        }
                                        TxnKind::Consensus => unreachable!("handled above"),
                                    }
                                }
                            };
                        }
                        CompiledStmt::Select(branches) => {
                            return self.round_guards(pid, &branches, GuardMode::Select, snap)
                        }
                        CompiledStmt::Repeat(branches) => {
                            self.advance_seq(pid);
                            self.procs
                                .get_mut(&pid)
                                .expect("checked above")
                                .frames
                                .push(Frame::Loop { branches });
                            continue;
                        }
                        CompiledStmt::Replicate(branches) => {
                            self.advance_seq(pid);
                            self.procs
                                .get_mut(&pid)
                                .expect("checked above")
                                .frames
                                .push(Frame::Repl {
                                    branches,
                                    active: 0,
                                });
                            continue;
                        }
                    }
                }
                Some(Frame::Loop { branches }) => {
                    return self.round_guards(pid, &branches, GuardMode::Loop, snap)
                }
                Some(Frame::Repl { branches, .. }) => {
                    return self.round_guards(pid, &branches, GuardMode::Repl, snap)
                }
            }
        }
    }

    fn round_guards(
        &mut self,
        pid: ProcId,
        branches: &Arc<[CompiledBranch]>,
        mode: GuardMode,
        snap: &Dataspace,
    ) -> Result<(u64, bool), RuntimeError> {
        if mode == GuardMode::Repl {
            return self.round_repl(pid, branches, snap);
        }
        let mut order: Vec<usize> = (0..branches.len()).collect();
        order.shuffle(&mut self.rng);
        let mut delayed_present = false;
        let mut consensus_present = false;

        for &i in &order {
            let guard = branches[i].guard.clone();
            match guard.kind {
                TxnKind::Consensus => {
                    consensus_present = true;
                    continue;
                }
                TxnKind::Delayed => delayed_present = true,
                TxnKind::Immediate => {}
            }
            self.report.attempts += 1;
            self.metrics.inc(attempts_counter(guard.kind));
            self.cur_trace = self.tracer.new_trace();
            if let Ok(p) = self.evaluate_for(pid, &guard, Some(snap), &[])? {
                if !p.validate(&self.ds) {
                    self.metrics.inc(Counter::TxnConflicts);
                    self.trace_conflict(pid);
                    continue; // conflict: try another guard, else next round
                }
                if mode == GuardMode::Select {
                    self.advance_seq(pid);
                }
                self.commit_single(pid, &p, guard.kind)?;
                self.enter_branch(pid, &p, branches[i].rest.clone(), mode)?;
                return Ok((1, true));
            }
            self.metrics.inc(failed_counter(guard.kind));
        }

        if delayed_present || consensus_present {
            let mut w = sdl_dataspace::WatchSet::new();
            for b in branches.iter() {
                w.extend(&self.txn_watch(pid, &b.guard));
            }
            self.block(pid, w, consensus_present);
            return Ok((0, false));
        }
        match mode {
            GuardMode::Select => self.advance_seq(pid),
            GuardMode::Loop | GuardMode::Repl => {
                self.procs
                    .get_mut(&pid)
                    .expect("process is live")
                    .frames
                    .pop();
            }
        }
        Ok((0, true))
    }

    /// Replication in a round: commit every non-conflicting guard
    /// solution, evaluating against a local copy of the snapshot from
    /// which committed retractions are removed (so each conceptual copy
    /// grabs different tuples).
    fn round_repl(
        &mut self,
        pid: ProcId,
        branches: &Arc<[CompiledBranch]>,
        snap: &Dataspace,
    ) -> Result<(u64, bool), RuntimeError> {
        let mut local = snap.clone();
        let mut commits = 0u64;
        let mut delayed_present = false;
        let mut consensus_present = false;
        let mut order: Vec<usize> = (0..branches.len()).collect();
        order.shuffle(&mut self.rng);

        for &i in &order {
            let guard = branches[i].guard.clone();
            match guard.kind {
                TxnKind::Consensus => {
                    consensus_present = true;
                    continue;
                }
                TxnKind::Delayed => delayed_present = true,
                TxnKind::Immediate => {}
            }
            loop {
                if !self.procs.contains_key(&pid) {
                    return Ok((commits, true)); // aborted mid-construct
                }
                self.report.attempts += 1;
                self.metrics.inc(attempts_counter(guard.kind));
                self.cur_trace = self.tracer.new_trace();
                let Ok(p) = self.evaluate_for(pid, &guard, Some(&local), &[])? else {
                    self.metrics.inc(failed_counter(guard.kind));
                    break;
                };
                if p.validate(&self.ds) {
                    self.commit_single(pid, &p, guard.kind)?;
                    commits += 1;
                    for id in &p.retracts {
                        local.retract(*id);
                    }
                    let exited = p.exit || p.abort;
                    self.enter_branch(pid, &p, branches[i].rest.clone(), GuardMode::Repl)?;
                    if exited {
                        return Ok((commits, true));
                    }
                    if p.retracts.is_empty() {
                        // A read-only guard matches the same solution
                        // forever; one copy per round.
                        break;
                    }
                } else {
                    // The solution used instances a sibling already took;
                    // drop them from the local view and retry.
                    self.metrics.inc(Counter::TxnConflicts);
                    self.trace_conflict(pid);
                    let mut removed = false;
                    for id in p.reads.iter().chain(p.retracts.iter()) {
                        if !self.ds.contains_id(*id) && local.retract(*id).is_some() {
                            removed = true;
                        }
                    }
                    if !removed {
                        break; // negation conflict: retry next round
                    }
                }
            }
        }

        if commits > 0 {
            return Ok((commits, true));
        }
        let repl_active = {
            match self.procs[&pid].frames.last() {
                Some(Frame::Repl { active, .. }) => *active,
                _ => 0,
            }
        };
        if delayed_present || consensus_present || repl_active > 0 {
            let mut w = sdl_dataspace::WatchSet::new();
            for b in branches.iter() {
                w.extend(&self.txn_watch(pid, &b.guard));
            }
            self.block(pid, w, consensus_present);
            return Ok((commits, false));
        }
        self.procs
            .get_mut(&pid)
            .expect("process is live")
            .frames
            .pop();
        Ok((commits, true))
    }
}
