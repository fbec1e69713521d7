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
use crate::interp::{self, GuardMode, Site, Turn};
use crate::outcome::Outcome;
use crate::process::Frame;
use crate::program::{CompiledBranch, CompiledTxn};
use crate::sched::{batch_desc, Runtime};
use crate::RunReport;

impl Runtime {
    /// Runs with round-level parallelism and reports logical parallel
    /// time in `RunReport::rounds`.
    ///
    /// # Errors
    ///
    /// As for [`Runtime::run`].
    pub fn run_rounds(&mut self) -> Result<RunReport, RuntimeError> {
        loop {
            if self.report.attempts >= self.limits.max_attempts {
                self.report.outcome = Outcome::StepLimit;
                break;
            }
            let snapshot = self.ds.clone();
            let mut pids: Vec<ProcId> = self.procs.keys().copied().collect();
            pids.sort_unstable();
            pids.shuffle(&mut self.rng);

            let mut committed = false;
            let mut progressed = false;
            for pid in pids {
                // One turn per live process: its next construct, or a
                // replication's sweep.
                let Some(proc) = self.procs.get_mut(&pid) else {
                    continue;
                };
                let site = interp::walk(proc);
                self.unblock(pid);
                let turn = match site {
                    Some(Site::Guards(branches, GuardMode::Repl)) => {
                        let proc = self.procs.get_mut(&pid).expect("process is live");
                        let mut woken = std::mem::take(&mut proc.woken);
                        let turn = self.round_repl(pid, &branches, &snapshot)?;
                        interp::settle_wake(&self.metrics, &mut woken, Some(&turn));
                        turn
                    }
                    site => interp::at(&mut self.exec(pid, Some(&snapshot)), site)?,
                };
                match turn {
                    Turn::Progressed(c) => {
                        committed |= c;
                        progressed = true;
                    }
                    Turn::Park {
                        watch, consensus, ..
                    } => self.block(pid, watch, consensus),
                    Turn::Lost | Turn::Halted => {}
                }
            }
            // End-of-round barrier: fire every complete community.
            let mut fired = false;
            while self.try_consensus(None)? {
                fired = true;
            }
            self.ready.clear(); // rounds mode iterates the society directly
            self.stall_scan();

            if committed || fired {
                self.report.rounds += 1;
            } else if progressed {
                // Control-only progress (frame pops, skips, terminations)
                // costs no parallel time but the computation is not done.
            } else {
                self.report.outcome = self.idle_outcome();
                break;
            }
        }
        self.finish_run()
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
    ) -> Result<Turn, RuntimeError> {
        let mut local = snap.clone();
        let mut committed = false;
        let mut order: Vec<usize> = (0..branches.len()).collect();
        order.shuffle(&mut self.rng);
        let kind_present = |k| branches.iter().any(|b| b.guard.kind == k);
        let consensus = kind_present(TxnKind::Consensus);

        for &i in &order {
            let guard = branches[i].guard.clone();
            if guard.kind == TxnKind::Consensus {
                continue;
            }
            loop {
                if !self.procs.contains_key(&pid) {
                    return Ok(Turn::Progressed(committed)); // aborted mid-construct
                }
                self.report.attempts += 1;
                self.cur_trace = self.tracer.new_trace();
                let Ok(p) = self.evaluate_for(pid, &guard, Some(&local), &[])? else {
                    break;
                };
                if self.validate_live(pid, &p) {
                    self.commit_composite(&[(pid, &p)], guard.kind, || batch_desc(&p))?;
                    committed = true;
                    for id in &p.retracts {
                        local.retract(*id);
                    }
                    let exited = p.exit || p.abort;
                    let rest = branches[i].rest.clone();
                    interp::enter_branch(&mut self.exec(pid, None), &p, rest, GuardMode::Repl)?;
                    if exited {
                        return Ok(Turn::Progressed(true));
                    }
                    if p.retracts.is_empty() {
                        // A read-only guard matches the same solution
                        // forever; one copy per round.
                        break;
                    }
                } else {
                    // The solution used instances a sibling already took;
                    // drop them from the local view and retry.
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

        if committed {
            return Ok(Turn::Progressed(true));
        }
        let helpers = match self.procs[&pid].frames.last() {
            Some(Frame::Repl { active, .. }) => *active,
            _ => 0,
        };
        if consensus || kind_present(TxnKind::Delayed) || helpers > 0 {
            let guards: Vec<&CompiledTxn> = branches.iter().map(|b| &*b.guard).collect();
            let watch = self.txn_watch(pid, &guards);
            return Ok(Turn::Park {
                watch,
                epoch: u64::MAX,
                consensus,
            });
        }
        self.procs
            .get_mut(&pid)
            .expect("process is live")
            .frames
            .pop();
        Ok(Turn::Progressed(false))
    }
}
