//! Contention stress for the work-stealing queue: many workers, wildly
//! uneven per-point costs, and the exactly-once guarantee checked under
//! real parallel contention (not just the single-threaded unit tests).

use lpm_harness::WorkStealingQueue;
use std::sync::mpsc;

/// Drain `q` with `workers` threads, spinning `cost(i)` units of fake
/// work per index, and return every `(worker, index)` delivery.
fn drain(
    q: &WorkStealingQueue,
    workers: usize,
    cost: impl Fn(usize) -> u64 + Sync,
) -> Vec<(usize, usize)> {
    let (tx, rx) = mpsc::sync_channel(q.remaining());
    std::thread::scope(|s| {
        for w in 0..workers {
            let tx = tx.clone();
            let q = &q;
            let cost = &cost;
            s.spawn(move || {
                while let Some(i) = q.pop(w) {
                    let mut x = i as u64;
                    for _ in 0..cost(i) {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(1),
                        );
                    }
                    std::hint::black_box(x);
                    if tx.send((w, i)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
    });
    rx.iter().collect()
}

/// Deal `0..n` across `shards`, as a fresh sweep does.
fn deal_range(n: usize, shards: usize) -> WorkStealingQueue {
    WorkStealingQueue::deal_indices(&(0..n).collect::<Vec<_>>(), shards)
}

fn assert_exactly_once(deliveries: &[(usize, usize)], expect: &[usize]) {
    let mut seen: Vec<usize> = deliveries.iter().map(|&(_, i)| i).collect();
    seen.sort_unstable();
    assert_eq!(seen, expect, "every index must be delivered exactly once");
}

#[test]
fn sixteen_workers_with_pathological_cost_skew_deliver_exactly_once() {
    // Every 17th point is ~4000x more expensive than its neighbours, so
    // a shard that drew several heavy points must be relieved by steals.
    let points = 512;
    let q = deal_range(points, 16);
    let deliveries = drain(&q, 16, |i| if i % 17 == 0 { 400_000 } else { 100 });
    assert_exactly_once(&deliveries, &(0..points).collect::<Vec<_>>());
    assert_eq!(q.remaining(), 0);
    // Under that skew the sweep cannot have collapsed onto one worker.
    let active = deliveries
        .iter()
        .map(|&(w, _)| w)
        .collect::<std::collections::BTreeSet<_>>();
    assert!(active.len() > 1, "only worker(s) {active:?} did any work");
}

#[test]
fn more_workers_than_points_is_safe() {
    let q = deal_range(3, 16);
    let deliveries = drain(&q, 16, |_| 1_000);
    assert_exactly_once(&deliveries, &[0, 1, 2]);
}

#[test]
fn sparse_resume_hands_survive_contention() {
    // The resume path deals an arbitrary pending subset; hammer it with
    // more workers than shards' natural share and uneven costs.
    let pending: Vec<usize> = (0..400).filter(|i| i % 3 != 0).collect();
    let q = WorkStealingQueue::deal_indices(&pending, 8);
    let deliveries = drain(&q, 8, |i| (i as u64 % 7) * 5_000);
    assert_exactly_once(&deliveries, &pending);
}

#[test]
fn repeated_contended_drains_never_duplicate_or_drop() {
    // Races are schedule-dependent; repeat to shake them out.
    for round in 0..25 {
        let q = deal_range(96, 6);
        let deliveries = drain(&q, 6, |i| u64::from(i as u32 % 5) * 200 + round);
        assert_exactly_once(&deliveries, &(0..96).collect::<Vec<_>>());
    }
}
