//! Work-stealing point queue.
//!
//! Points are dealt round-robin to one deque per worker up front — the
//! deal is a pure function of the point count and the shard count, so it
//! is deterministic. At run time each worker pops its own deque from the
//! front and, when dry, steals from the back of another worker's deque,
//! so one slow point cannot strand the rest of a shard's hand.
//!
//! The *schedule* (who runs what, in what order) is emphatically **not**
//! deterministic — stealing races are decided by the OS scheduler. The
//! sweep's determinism never depends on it: every point carries its own
//! seeds and recorder, and results are merged by point index, so the
//! schedule is invisible in the output.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A fixed set of point indices dealt across per-worker deques, drained
/// with work stealing. Indices are dealt once at construction; nothing
/// is ever re-enqueued, so an empty queue stays empty.
#[derive(Debug)]
pub struct WorkStealingQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl WorkStealingQueue {
    /// Deal an index set round-robin across `shards` deques (the `k`-th
    /// listed index lands on shard `k % shards`). A fresh sweep deals
    /// `0..points`; a resumed one deals only its *pending* indices, an
    /// arbitrary subset of them.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn deal_indices(indices: &[usize], shards: usize) -> Self {
        assert!(shards > 0, "a sweep needs at least one shard");
        let n = indices.len();
        let mut deques: Vec<VecDeque<usize>> = (0..shards)
            .map(|s| VecDeque::with_capacity(n / shards + usize::from(s < n % shards)))
            .collect();
        for (k, &i) in indices.iter().enumerate() {
            deques[k % shards].push_back(i);
        }
        WorkStealingQueue {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Number of shards the queue was dealt across.
    pub fn shards(&self) -> usize {
        self.deques.len()
    }

    /// Take the next point index for worker `me`: the front of its own
    /// deque, else the back of the first other deque that still has work
    /// (scanning from `me + 1`, wrapping). Returns `None` only when every
    /// deque is empty — i.e. the sweep is drained.
    pub fn pop(&self, me: usize) -> Option<usize> {
        if let Some(i) = self.lock(me).pop_front() {
            return Some(i);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(i) = self.lock(victim).pop_back() {
                return Some(i);
            }
        }
        None
    }

    /// Point indices not yet handed out (racy under concurrency; exact
    /// once workers stop).
    pub fn remaining(&self) -> usize {
        (0..self.deques.len()).map(|s| self.lock(s).len()).sum()
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        // Worker closures hold no guard across a panic point, so the
        // lock cannot be poisoned in practice; recover defensively.
        self.deques[shard].lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Deal `0..n` across `shards`, as a fresh sweep does.
    fn deal_range(n: usize, shards: usize) -> WorkStealingQueue {
        WorkStealingQueue::deal_indices(&(0..n).collect::<Vec<_>>(), shards)
    }

    #[test]
    fn deal_is_round_robin() {
        let q = deal_range(7, 3);
        assert_eq!(q.shards(), 3);
        assert_eq!(q.remaining(), 7);
        // Shard 0 holds 0,3,6; draining it alone pops them in order.
        assert_eq!(q.lock(0).iter().copied().collect::<Vec<_>>(), [0, 3, 6]);
        assert_eq!(q.lock(1).iter().copied().collect::<Vec<_>>(), [1, 4]);
        assert_eq!(q.lock(2).iter().copied().collect::<Vec<_>>(), [2, 5]);
    }

    #[test]
    fn single_shard_pops_in_point_order() {
        let q = deal_range(5, 1);
        let drained: Vec<usize> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(drained, [0, 1, 2, 3, 4]);
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn every_index_is_popped_exactly_once_with_stealing() {
        let q = deal_range(16, 4);
        // Worker 3 never touches its own deque first here: drain the
        // whole queue through worker 0, forcing steals.
        let mut seen = BTreeSet::new();
        while let Some(i) = q.pop(0) {
            assert!(seen.insert(i), "index {i} popped twice");
        }
        assert_eq!(seen.len(), 16);
        assert_eq!(q.remaining(), 0);
        for w in 0..4 {
            assert_eq!(q.pop(w), None);
        }
    }

    #[test]
    fn stealing_takes_from_the_back() {
        let q = deal_range(6, 2);
        // Shard 1 holds [1, 3, 5]; a thief (worker 0 with an empty own
        // deque) must take 5 first, leaving the victim's front intact.
        q.lock(0).clear();
        assert_eq!(q.pop(0), Some(5));
        assert_eq!(q.pop(1), Some(1));
    }

    #[test]
    fn deal_indices_preserves_sparse_sets() {
        // The resume path deals a non-contiguous pending set.
        let q = WorkStealingQueue::deal_indices(&[2, 5, 11, 17, 23], 2);
        assert_eq!(q.lock(0).iter().copied().collect::<Vec<_>>(), [2, 11, 23]);
        assert_eq!(q.lock(1).iter().copied().collect::<Vec<_>>(), [5, 17]);
        let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop(0)).collect();
        seen.sort_unstable();
        assert_eq!(seen, [2, 5, 11, 17, 23]);
    }

    #[test]
    fn concurrent_drain_is_exactly_once() {
        use std::sync::mpsc;
        let q = deal_range(64, 4);
        let (tx, rx) = mpsc::sync_channel(64);
        std::thread::scope(|s| {
            for w in 0..4 {
                let tx = tx.clone();
                let q = &q;
                s.spawn(move || {
                    while let Some(i) = q.pop(w) {
                        tx.send(i).unwrap();
                    }
                });
            }
        });
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }
}
