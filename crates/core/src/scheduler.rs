//! Shard-job scheduler for the sharded engine: LPT list scheduling over
//! one claim cursor.
//!
//! The engine's shard jobs are coarse, independent and of wildly uneven
//! size (one PoP can hold most of a day's sessions). Claimed in id order,
//! the largest shard can start last and finish alone while the other
//! workers idle. The [`JobQueue`] here sorts the job ids once by
//! descending cost estimate (LPT, longest processing time first) and
//! hands them out through one atomic cursor, so each idle worker takes
//! the largest job left and no job is bound to a worker in advance.
//!
//! Determinism contract: the queue only decides **which worker runs
//! which job when**. Callers write each job's result into a
//! pre-allocated slot indexed by job id, so the claim timing, which is
//! not reproducible, can never reach the output. Every job id in
//! `0..jobs` is handed out exactly once; `tests/scheduler_steal.rs`
//! drains the cursor from concurrent workers against exactly this
//! contract.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Cost floor per worker, in scheduler cost units (one unit ≈ one chunk
/// event). Below roughly this much work per worker the fixed parallel
/// overhead — thread spawn, per-shard queue setup, per-shard sink merge —
/// outweighs the event-loop work each extra worker takes on, and
/// throughput *drops* as threads are added (the measured tiny-fleet
/// regression: 77 k chunks/s at 1 thread → 58 k at 4).
/// [`effective_workers`] clamps the worker count so each worker keeps at
/// least this much estimated work.
pub const MIN_COST_PER_WORKER: u64 = 16_384;

/// The worker count the sharded engine should actually spin up: the
/// requested `threads`, capped by the job count and by the
/// [`MIN_COST_PER_WORKER`] floor on estimated per-worker work.
///
/// Purely a wall-clock decision: fewer workers claim the same jobs, but
/// results land in job-indexed slots and the merged output is
/// byte-identical at any worker count, so the clamp can never affect
/// simulation output. The clamp is recorded in the scheduler counters
/// (`workers`, `workers_clamped`) so profiles show it.
pub fn effective_workers(threads: usize, jobs: usize, costs: &[u64]) -> usize {
    let cap = threads.min(jobs).max(1);
    let total: u64 = costs.iter().sum();
    let by_cost = usize::try_from(total / MIN_COST_PER_WORKER).unwrap_or(usize::MAX);
    cap.min(by_cost.max(1))
}

/// A fixed set of jobs (ids `0..n`) in LPT order, claimed through one
/// shared cursor. Create with [`JobQueue::lpt`], drain with
/// [`JobQueue::claim`] from any number of workers.
#[derive(Debug)]
pub struct JobQueue {
    order: Vec<usize>,
    next: AtomicUsize,
}

impl JobQueue {
    /// Order jobs `0..costs.len()` by descending cost, ascending id on
    /// ties. The order is a pure function of `costs`; only which worker
    /// claims each job, and when, depends on timing.
    pub fn lpt(costs: &[u64]) -> JobQueue {
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
        JobQueue {
            order,
            next: AtomicUsize::new(0),
        }
    }

    /// Claim the largest job not yet claimed. `None` means every job has
    /// been handed out: with independent jobs (no job enqueues another)
    /// the calling worker is done.
    pub fn claim(&self) -> Option<usize> {
        // `Relaxed` suffices: the read-modify-write alone hands each
        // position out once, and the cursor publishes no other data (the
        // order is fixed before any worker starts).
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        self.order.get(k).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_order_is_largest_first_and_total() {
        let q = JobQueue::lpt(&[5, 0, 3, 3, 8, 1, 1]);
        let claimed: Vec<usize> = std::iter::from_fn(|| q.claim()).collect();
        assert_eq!(claimed, [4, 0, 2, 3, 5, 6, 1]);
    }

    #[test]
    fn every_job_claimed_exactly_once_under_concurrent_drain() {
        use std::sync::atomic::AtomicU32;
        let costs: Vec<u64> = (0..97).map(|i| (i * 37) % 11 + 1).collect();
        let claims: Vec<AtomicU32> = (0..costs.len()).map(|_| AtomicU32::new(0)).collect();
        let q = JobQueue::lpt(&costs);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (q, claims) = (&q, &claims);
                s.spawn(move || {
                    while let Some(job) = q.claim() {
                        claims[job].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i} claim count");
        }
    }

    #[test]
    fn a_drained_queue_stays_drained() {
        let q = JobQueue::lpt(&[1, 3]);
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(0));
        for _ in 0..8 {
            assert_eq!(q.claim(), None);
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let q = JobQueue::lpt(&[]);
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn effective_workers_clamps_small_fleets() {
        // A tiny fleet (total work far below one worker's floor) runs on
        // one worker no matter how many threads were requested.
        let tiny = vec![700u64; 18]; // ≈12.6k cost, the tiny preset's shape
        assert_eq!(effective_workers(4, tiny.len(), &tiny), 1);
        assert_eq!(effective_workers(1, tiny.len(), &tiny), 1);
        // A fleet with ~8 workers' worth of work keeps all 8.
        let big = vec![MIN_COST_PER_WORKER; 40];
        assert_eq!(effective_workers(8, big.len(), &big), 8);
        // Worker count still caps at the job count and stays >= 1.
        assert_eq!(effective_workers(8, 3, &[MIN_COST_PER_WORKER * 10; 3]), 3);
        assert_eq!(effective_workers(0, 0, &[]), 1);
        // The clamp bites exactly at the floor: 2 full floors of work
        // allow 2 workers, one unit less allows only 1.
        let two = vec![MIN_COST_PER_WORKER, MIN_COST_PER_WORKER];
        assert_eq!(effective_workers(4, 2, &two), 2);
        let almost = vec![MIN_COST_PER_WORKER, MIN_COST_PER_WORKER - 1];
        assert_eq!(effective_workers(4, 2, &almost), 1);
    }
}
