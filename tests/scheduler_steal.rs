//! Property tests for the shard scheduler's claim cursor.
//!
//! The engine's determinism contract says the [`JobQueue`] only decides
//! *which worker runs which job when* — results land in job-id-indexed
//! slots, so any claim interleaving must merge into the same canonical
//! output. These tests drain one cursor from concurrent workers
//! (proptest-randomized costs and worker counts) against exactly that
//! contract.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use streamlab::scheduler::JobQueue;

/// The claim order of a fresh queue over `costs`, drained by one worker.
fn claim_order(costs: &[u64]) -> Vec<usize> {
    let q = JobQueue::lpt(costs);
    std::iter::from_fn(|| q.claim()).collect()
}

/// Drain `queue` from `workers` threads at once. Returns each worker's
/// claims, in the order it made them.
fn drain_concurrently(workers: usize, queue: &JobQueue) -> Vec<Vec<usize>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| s.spawn(|| std::iter::from_fn(|| queue.claim()).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

proptest! {
    /// Every job is claimed exactly once however the workers race for
    /// the cursor — the merge slots (indexed by job id) are total and
    /// collision-free — and each worker meets its jobs in claim order,
    /// largest first.
    #[test]
    fn adversarial_interleavings_claim_every_job_exactly_once(
        workers in 1usize..9,
        costs in proptest::collection::vec(0u64..1000, 1..40),
    ) {
        let mut position = vec![0; costs.len()];
        for (k, job) in claim_order(&costs).into_iter().enumerate() {
            position[job] = k;
        }
        let mut claims = vec![0u32; costs.len()];
        for mine in drain_concurrently(workers, &JobQueue::lpt(&costs)) {
            prop_assert!(mine.windows(2).all(|w| position[w[0]] < position[w[1]]));
            for job in mine {
                claims[job] += 1;
            }
        }
        for (job, &n) in claims.iter().enumerate() {
            prop_assert_eq!(n, 1, "job {} claim count", job);
        }
    }

    /// Simulate the engine's merge: each claim writes its job id into a
    /// pre-allocated slot; reading the slots front to back must yield
    /// canonical order (0, 1, 2, ...) regardless of the interleaving —
    /// i.e. the claim order can never leak into the output.
    #[test]
    fn merge_slots_come_out_in_canonical_order(
        workers in 1usize..9,
        costs in proptest::collection::vec(0u64..1000, 1..40),
    ) {
        let q = JobQueue::lpt(&costs);
        let slots: Vec<AtomicUsize> = (0..costs.len()).map(|_| AtomicUsize::new(usize::MAX)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (q, slots) = (&q, &slots);
                s.spawn(move || {
                    while let Some(job) = q.claim() {
                        slots[job].store(job, Ordering::Relaxed);
                    }
                });
            }
        });
        let merged: Vec<usize> = slots.into_iter().map(AtomicUsize::into_inner).collect();
        let canonical: Vec<usize> = (0..costs.len()).collect();
        prop_assert_eq!(merged, canonical);
    }

    /// The claim order is a pure function of the costs: same costs, same
    /// order, descending cost with ascending id on ties, covering every
    /// job exactly once.
    #[test]
    fn deal_is_reproducible_and_total(
        costs in proptest::collection::vec(0u64..1000, 0..40),
    ) {
        let order = claim_order(&costs);
        prop_assert_eq!(&order, &claim_order(&costs));
        prop_assert!(order
            .windows(2)
            .all(|w| (costs[w[0]], w[1]) > (costs[w[1]], w[0])));
        let mut all = order;
        all.sort_unstable();
        let canonical: Vec<usize> = (0..costs.len()).collect();
        prop_assert_eq!(all, canonical);
    }

    /// Degenerate shard/worker shapes round-trip: one job among many
    /// workers, more jobs than workers, and zero-cost (zero-session)
    /// jobs all drain completely with no worker wedged.
    #[test]
    fn shard_count_need_not_match_worker_count(
        workers in 1usize..9,
        jobs in 1usize..40,
        zero_every in 1usize..5,
    ) {
        let costs: Vec<u64> = (0..jobs)
            .map(|i| if i % zero_every == 0 { 0 } else { (i as u64 * 13) % 97 + 1 })
            .collect();
        let q = JobQueue::lpt(&costs);
        let claimed: usize = drain_concurrently(workers, &q).iter().map(Vec::len).sum();
        prop_assert_eq!(claimed, jobs);
        // After a full drain the cursor stays empty for every worker.
        for _ in 0..workers {
            prop_assert_eq!(q.claim(), None);
        }
    }
}
