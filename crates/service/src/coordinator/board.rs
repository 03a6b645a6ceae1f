//! The shard board: the coordinator's single source of truth for which
//! trial ranges are pending, running, finished, or abandoned — and for the
//! merged per-point tallies of every trial streamed so far.
//!
//! Worker agents *claim* pending shards, *checkpoint* every streamed
//! chunk's tallies into the board, and *complete* or *requeue* their
//! shard. Tallies merge in any order, so a checkpoint is final the moment
//! it lands: a requeued shard keeps its checkpointed prefix, and its next
//! owner runs only the rest of the range. The board is a plain `Mutex` +
//! `Condvar` pair: claims block until a shard is schedulable, a backoff
//! deadline passes, or the fleet aborts.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nvpim_sweep::Tallies;

/// One contiguous shard of the plan-ordered trial list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index (its position in [`nvpim_sweep::shard_ranges`] order).
    pub index: usize,
    /// First trial (inclusive) in the plan-ordered trial list.
    pub start: u64,
    /// One past the last trial of the shard.
    pub end: u64,
}

/// A claimed shard: the range, how many of its leading trials earlier
/// attempts already checkpointed (possibly zero), and how many times the
/// shard has been re-assigned so far.
#[derive(Debug)]
pub(crate) struct Claim {
    pub spec: ShardSpec,
    pub done: u64,
    pub attempts: u32,
}

impl Claim {
    /// The trials still to run: the shard's range past its checkpointed
    /// prefix.
    pub fn remaining(&self) -> (u64, u64) {
        (self.spec.start + self.done, self.spec.end)
    }
}

/// Scheduling state of one shard.
enum Slot {
    /// Waiting for a worker, not before a deadline implementing jittered
    /// re-try backoff.
    Pending { attempts: u32, not_before: Instant },
    /// Claimed by a live worker agent.
    Running,
    /// Every trial of the shard is checkpointed.
    Done,
}

/// Why the fleet gave up before every shard completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Abort {
    /// One shard exceeded its re-assignment budget.
    ShardExhausted {
        shard: usize,
        attempts: u32,
        last_error: String,
    },
    /// Every worker died or drained while shards were still unfinished.
    WorkersExhausted { unfinished: usize },
}

struct State {
    slots: Vec<Slot>,
    /// Trials of each shard whose tallies are merged: its checkpointed
    /// prefix.
    done: Vec<u64>,
    /// Tallies of every checkpointed chunk, all shards merged.
    tallies: Tallies,
    /// Worker agents still scheduling; when this reaches zero with
    /// unfinished shards the fleet aborts rather than hanging.
    live_workers: usize,
    /// Lifetime count of shard re-assignments (requeues).
    reassigned: u64,
    abort: Option<Abort>,
}

pub(crate) struct Board {
    specs: Vec<ShardSpec>,
    seeds_per_point: u64,
    state: Mutex<State>,
    wake: Condvar,
}

impl Board {
    /// A board over `specs` of a campaign with `seeds_per_point` trials per
    /// point, served by `workers` agents.
    pub fn new(specs: Vec<ShardSpec>, workers: usize, seeds_per_point: u64) -> Self {
        let now = Instant::now();
        let slots = specs
            .iter()
            .map(|_| Slot::Pending {
                attempts: 0,
                not_before: now,
            })
            .collect();
        Self {
            state: Mutex::new(State {
                slots,
                done: vec![0; specs.len()],
                tallies: Tallies::new(),
                live_workers: workers,
                reassigned: 0,
                abort: None,
            }),
            specs,
            seeds_per_point,
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until a shard is claimable and claims it, or returns `None`
    /// when no work will ever be claimable again (all shards done, or the
    /// fleet aborted). Shards whose backoff deadline is in the future are
    /// waited out, not skipped forever.
    pub fn claim(&self) -> Option<Claim> {
        let mut state = self.lock();
        loop {
            if state.abort.is_some() {
                return None;
            }
            if state.slots.iter().all(|slot| matches!(slot, Slot::Done)) {
                return None;
            }
            let now = Instant::now();
            let mut soonest: Option<Instant> = None;
            let mut claimable = None;
            for (index, slot) in state.slots.iter().enumerate() {
                if let Slot::Pending { not_before, .. } = slot {
                    if *not_before <= now {
                        claimable = Some(index);
                        break;
                    }
                    soonest = Some(match soonest {
                        None => *not_before,
                        Some(t) => t.min(*not_before),
                    });
                }
            }
            if let Some(index) = claimable {
                let slot = std::mem::replace(&mut state.slots[index], Slot::Running);
                let Slot::Pending { attempts, .. } = slot else {
                    unreachable!("claimable slot is pending by construction");
                };
                return Some(Claim {
                    spec: self.specs[index],
                    done: state.done[index],
                    attempts,
                });
            }
            // Nothing claimable right now: either every unfinished shard
            // is running elsewhere (it may come back if its worker dies)
            // or the soonest backoff deadline is in the future.
            state = match soonest {
                Some(deadline) => {
                    let timeout = deadline
                        .saturating_duration_since(now)
                        .max(Duration::from_millis(1));
                    self.wake
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
                None => self
                    .wake
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            };
        }
    }

    /// Merges one streamed chunk of shard `index`: `tallies` must hold
    /// exactly the shard's next trials after its checkpointed prefix.
    ///
    /// # Errors
    ///
    /// A description of the mismatch; nothing is merged then.
    pub fn checkpoint(&self, index: usize, tallies: &Tallies) -> Result<(), String> {
        let spec = self.specs[index];
        let mut state = self.lock();
        let start = spec.start + state.done[index];
        let end = start.saturating_add(tallies.trials());
        if end > spec.end || !tallies.covers_range(start, end, self.seeds_per_point) {
            return Err(format!(
                "chunk tallies are not those of shard trials {start}..{end}"
            ));
        }
        state.tallies.merge(tallies);
        state.done[index] = end - spec.start;
        Ok(())
    }

    /// Records a finished shard: every trial of it is checkpointed.
    pub fn complete(&self, index: usize) {
        let mut state = self.lock();
        debug_assert_eq!(
            state.done[index],
            self.specs[index].end - self.specs[index].start
        );
        state.slots[index] = Slot::Done;
        drop(state);
        self.wake.notify_all();
    }

    /// Returns a claimed shard to the pending pool so another worker can
    /// pick it up; its checkpointed prefix stays merged. `attempts` is the
    /// shard's new attempt count; exceeding `max_attempts` aborts the
    /// whole fleet (the shard is failing everywhere). Every successful
    /// requeue counts as one re-assignment; returns whether the shard was
    /// requeued (`false` = budget exhausted, fleet aborting).
    pub fn requeue(
        &self,
        index: usize,
        attempts: u32,
        max_attempts: u32,
        backoff: Duration,
        last_error: &str,
    ) -> bool {
        let mut state = self.lock();
        let requeued = if attempts > max_attempts {
            if state.abort.is_none() {
                state.abort = Some(Abort::ShardExhausted {
                    shard: index,
                    attempts,
                    last_error: last_error.to_string(),
                });
            }
            false
        } else {
            state.slots[index] = Slot::Pending {
                attempts,
                not_before: Instant::now() + backoff,
            };
            state.reassigned += 1;
            true
        };
        drop(state);
        self.wake.notify_all();
        requeued
    }

    /// A worker agent is leaving the pool (dead, drained, or simply out
    /// of work). If it was the last one and shards are still unfinished,
    /// the fleet aborts instead of waiting forever.
    pub fn worker_gone(&self) {
        let mut state = self.lock();
        state.live_workers = state.live_workers.saturating_sub(1);
        if state.live_workers == 0 && state.abort.is_none() {
            let unfinished = state
                .slots
                .iter()
                .filter(|slot| !matches!(slot, Slot::Done))
                .count();
            if unfinished > 0 {
                state.abort = Some(Abort::WorkersExhausted { unfinished });
            }
        }
        drop(state);
        self.wake.notify_all();
    }

    /// Lifetime re-assignment count.
    pub fn reassigned(&self) -> u64 {
        self.lock().reassigned
    }

    /// Consumes the board: the merged tallies of every shard, or the abort
    /// reason.
    pub fn finish(self) -> Result<Tallies, Abort> {
        let state = self
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(abort) = state.abort {
            return Err(abort);
        }
        let unfinished = state
            .slots
            .iter()
            .filter(|slot| !matches!(slot, Slot::Done))
            .count();
        if unfinished > 0 {
            // Workers only exit after `claim` returns `None`, which
            // requires all-done or an abort.
            return Err(Abort::WorkersExhausted { unfinished });
        }
        Ok(state.tallies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_sweep::PointTally;

    /// Three trials per point in every test board.
    const SPP: u64 = 3;

    fn specs(ranges: &[(u64, u64)]) -> Vec<ShardSpec> {
        ranges
            .iter()
            .enumerate()
            .map(|(index, &(start, end))| ShardSpec { index, start, end })
            .collect()
    }

    /// Tallies of the plan-ordered trials `start .. end`, one fault each.
    fn range(start: u64, end: u64) -> Tallies {
        let mut tallies = Tallies::new();
        for trial in start..end {
            tallies.add(
                (trial / SPP) as usize,
                &PointTally {
                    trials: 1,
                    faults_injected: 1,
                    ..PointTally::default()
                },
            );
        }
        tallies
    }

    #[test]
    fn claims_serve_shards_once_and_finish_in_order() {
        let board = Board::new(specs(&[(0, 3), (3, 5)]), 1, SPP);
        let first = board.claim().expect("first shard claimable");
        assert_eq!(first.spec.start, 0);
        assert_eq!(first.attempts, 0);
        let second = board.claim().expect("second shard claimable");
        assert_eq!(second.spec.start, 3);
        board.checkpoint(1, &range(3, 5)).unwrap();
        board.complete(second.spec.index);
        board.checkpoint(0, &range(0, 3)).unwrap();
        board.complete(first.spec.index);
        assert!(board.claim().is_none(), "no third shard");
        let merged = board.finish().expect("no abort");
        assert_eq!(merged, range(0, 5));
        assert!(merged.covers_range(0, 5, SPP));
    }

    #[test]
    fn requeue_preserves_the_resume_prefix_and_counts_reassignments() {
        let board = Board::new(specs(&[(0, 4)]), 2, SPP);
        let claim = board.claim().expect("claimable");
        board.checkpoint(0, &range(0, 2)).unwrap();
        board.requeue(
            claim.spec.index,
            claim.attempts + 1,
            8,
            Duration::ZERO,
            "worker died",
        );
        assert_eq!(board.reassigned(), 1);
        let again = board.claim().expect("requeued shard claimable");
        assert_eq!(again.done, 2, "durable prefix survives hand-off");
        assert_eq!(again.remaining(), (2, 4));
        assert_eq!(again.attempts, 1);
        board.checkpoint(0, &range(2, 4)).unwrap();
        board.complete(0);
        assert_eq!(board.finish().unwrap(), range(0, 4));
    }

    #[test]
    fn checkpoints_out_of_sequence_are_refused() {
        let board = Board::new(specs(&[(0, 4), (4, 6)]), 1, SPP);
        board.claim().expect("claimable");
        // Skips the shard's first two trials (into the next point).
        assert!(board.checkpoint(0, &range(2, 4)).is_err());
        // Runs past the shard's end.
        assert!(board.checkpoint(0, &range(0, 5)).is_err());
        board.checkpoint(0, &range(0, 2)).unwrap();
        // A replay of the same chunk no longer lines up.
        assert!(board.checkpoint(0, &range(0, 2)).is_err());
        board.checkpoint(0, &range(2, 4)).unwrap();
    }

    #[test]
    fn exceeding_the_reassignment_budget_aborts_the_fleet() {
        let board = Board::new(specs(&[(0, 2)]), 1, SPP);
        let claim = board.claim().expect("claimable");
        board.requeue(claim.spec.index, 3, 2, Duration::ZERO, "persistent failure");
        assert!(board.claim().is_none(), "abort stops scheduling");
        match board.finish() {
            Err(Abort::ShardExhausted {
                shard,
                attempts,
                last_error,
            }) => {
                assert_eq!(shard, 0);
                assert_eq!(attempts, 3);
                assert_eq!(last_error, "persistent failure");
            }
            other => panic!("expected shard exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn last_worker_leaving_with_unfinished_shards_aborts() {
        let board = Board::new(specs(&[(0, 2), (2, 4)]), 2, SPP);
        board.checkpoint(0, &range(0, 2)).unwrap();
        board.complete(0);
        board.worker_gone();
        board.worker_gone();
        assert!(board.claim().is_none());
        match board.finish() {
            Err(Abort::WorkersExhausted { unfinished }) => assert_eq!(unfinished, 1),
            other => panic!("expected worker exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn backoff_deadline_delays_but_does_not_drop_a_shard() {
        let board = Board::new(specs(&[(0, 1)]), 1, SPP);
        let claim = board.claim().expect("claimable");
        board.requeue(
            claim.spec.index,
            1,
            8,
            Duration::from_millis(30),
            "transient",
        );
        let started = Instant::now();
        let again = board.claim().expect("shard comes back after backoff");
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "claim honored the backoff deadline"
        );
        assert_eq!(again.attempts, 1);
    }
}
