//! Miss Status Holding Registers — the non-blocking machinery.
//!
//! A primary miss allocates an entry keyed by line address and triggers a
//! request to the next level; secondary misses to the same line merge into
//! the entry's target list instead of generating duplicate traffic. The
//! number of entries bounds the miss-level parallelism the cache can
//! sustain — the `CM`-side knob of the C-AMAT model and one of the Table I
//! design-space parameters.

use crate::cache::AccessId;

/// One waiting access attached to an MSHR entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// The waiting access.
    pub id: AccessId,
    /// Whether the access is a store (sets the dirty bit on fill).
    pub is_store: bool,
    /// Pure-miss flag, set by the analyzer when a pure miss cycle passes
    /// while this access is waiting.
    pub pure: bool,
}

/// One outstanding line miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// The missing line address.
    pub line_addr: u64,
    /// Accesses waiting on this line.
    pub targets: Vec<Target>,
    /// Whether this entry is a prefetch with no demand targets yet.
    pub prefetch_only: bool,
    /// Whether a prefetch originally allocated this entry (sticky: stays
    /// true when demand later merges, which is exactly what makes the
    /// prefetch *useful*).
    pub started_as_prefetch: bool,
}

/// Why an allocation attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrReject {
    /// All entries are in use (structural hazard).
    Full,
    /// The matching entry's target list is full.
    TargetsFull,
}

/// Result of a successful allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAccept {
    /// New entry allocated: a request to the next level is required.
    Primary,
    /// Merged into an existing entry: no new downstream traffic.
    Secondary,
}

/// The MSHR file.
#[derive(Debug)]
pub struct MshrFile {
    capacity: usize,
    targets_per_entry: usize,
    /// Outstanding entries, unordered: files are small (Table I has at
    /// most 64 entries), so a linear lookup beats a tree, and no caller
    /// depends on the order.
    entries: Vec<MshrEntry>,
    /// Demand targets currently waiting, across all entries (incremental
    /// mirror of the sum the analyzer samples every cycle).
    waiting: u64,
    /// Waiting targets whose pure flag is still `false` — lets
    /// [`MshrFile::mark_all_pure`] return without touching any entry on
    /// the (common) cycles where everything is already marked.
    unpure: u64,
    /// Retired target lists kept for reuse ([`MshrFile::recycle`]): a
    /// primary miss pops one instead of allocating, so steady-state miss
    /// traffic stays off the heap.
    spare_targets: Vec<Vec<Target>>,
}

impl MshrFile {
    /// An empty file with `capacity` entries of `targets_per_entry` slots.
    pub fn new(capacity: usize, targets_per_entry: usize) -> Self {
        assert!(capacity >= 1 && targets_per_entry >= 1);
        MshrFile {
            capacity,
            targets_per_entry,
            entries: Vec::new(),
            waiting: 0,
            unpure: 0,
            spare_targets: Vec::new(),
        }
    }

    /// Entries currently in use.
    pub fn in_use(&self) -> usize {
        self.entries.len()
    }

    /// Change the entry capacity at runtime. Outstanding entries above a
    /// shrunken capacity survive; new allocations obey the new limit.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1);
        self.capacity = capacity;
    }

    /// Whether every entry is in use: only a merge can still succeed.
    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Position of the entry for `line_addr`, if outstanding.
    fn find(&self, line_addr: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.line_addr == line_addr)
    }

    /// Whether [`MshrFile::allocate`] would accept a miss on `line_addr`
    /// (a merge with target room, or a free entry).
    pub(crate) fn accepts(&self, line_addr: u64) -> bool {
        match self.find(line_addr) {
            Some(i) => self.entries[i].targets.len() < self.targets_per_entry,
            None => !self.is_full(),
        }
    }

    /// Try to register a demand miss.
    pub fn allocate(
        &mut self,
        line_addr: u64,
        id: AccessId,
        is_store: bool,
    ) -> Result<MshrAccept, MshrReject> {
        if let Some(i) = self.find(line_addr) {
            let e = &mut self.entries[i];
            if e.targets.len() >= self.targets_per_entry {
                return Err(MshrReject::TargetsFull);
            }
            e.targets.push(Target {
                id,
                is_store,
                pure: false,
            });
            e.prefetch_only = false;
            self.waiting += 1;
            self.unpure += 1;
            return Ok(MshrAccept::Secondary);
        }
        if self.is_full() {
            return Err(MshrReject::Full);
        }
        let mut targets = self.spare_targets.pop().unwrap_or_default();
        targets.push(Target {
            id,
            is_store,
            pure: false,
        });
        self.entries.push(MshrEntry {
            line_addr,
            targets,
            prefetch_only: false,
            started_as_prefetch: false,
        });
        self.waiting += 1;
        self.unpure += 1;
        Ok(MshrAccept::Primary)
    }

    /// Try to register a prefetch miss (no demand target). Returns
    /// `Ok(true)` if a new entry was allocated, `Ok(false)` if the line is
    /// already outstanding (the prefetch is redundant).
    pub fn allocate_prefetch(&mut self, line_addr: u64) -> Result<bool, MshrReject> {
        if self.find(line_addr).is_some() {
            return Ok(false);
        }
        if self.is_full() {
            return Err(MshrReject::Full);
        }
        self.entries.push(MshrEntry {
            line_addr,
            targets: self.spare_targets.pop().unwrap_or_default(),
            prefetch_only: true,
            started_as_prefetch: true,
        });
        Ok(true)
    }

    /// Complete a fill: remove and return the entry for `line_addr`.
    pub fn complete(&mut self, line_addr: u64) -> Option<MshrEntry> {
        let e = self.entries.swap_remove(self.find(line_addr)?);
        self.waiting -= e.targets.len() as u64;
        self.unpure -= e.targets.iter().filter(|t| !t.pure).count() as u64;
        Some(e)
    }

    /// Return a completed entry's target list for reuse by a future
    /// allocation (capacity retained, contents discarded). Purely an
    /// allocation optimization — dropping the list instead is equivalent.
    pub fn recycle(&mut self, mut targets: Vec<Target>) {
        if self.spare_targets.len() < self.capacity {
            targets.clear();
            self.spare_targets.push(targets);
        }
    }

    /// Mark every currently waiting access as pure; returns how many flags
    /// flipped from false to true (newly discovered pure misses).
    pub fn mark_all_pure(&mut self) -> u64 {
        if self.unpure == 0 {
            return 0;
        }
        let mut newly = 0;
        for e in &mut self.entries {
            for t in &mut e.targets {
                if !t.pure {
                    t.pure = true;
                    newly += 1;
                }
            }
        }
        debug_assert_eq!(newly, self.unpure);
        self.unpure = 0;
        newly
    }

    /// Total demand accesses currently waiting.
    pub fn waiting_count(&self) -> u64 {
        debug_assert_eq!(
            self.waiting,
            self.entries
                .iter()
                .map(|e| e.targets.len() as u64)
                .sum::<u64>()
        );
        self.waiting
    }

    /// Set the pure flag on one specific waiting access, if present.
    pub fn set_pure(&mut self, line_addr: u64, id: AccessId) {
        if let Some(i) = self.find(line_addr) {
            for t in &mut self.entries[i].targets {
                if t.id == id && !t.pure {
                    t.pure = true;
                    self.unpure -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> AccessId {
        AccessId(n)
    }

    #[test]
    fn primary_then_secondary() {
        let mut m = MshrFile::new(2, 2);
        assert_eq!(m.allocate(64, id(1), false), Ok(MshrAccept::Primary));
        assert_eq!(m.allocate(64, id(2), true), Ok(MshrAccept::Secondary));
        assert_eq!(m.in_use(), 1);
        assert_eq!(m.waiting_count(), 2);
    }

    #[test]
    fn capacity_limits_distinct_lines() {
        let mut m = MshrFile::new(2, 4);
        assert!(m.allocate(0, id(1), false).is_ok());
        assert!(m.allocate(64, id(2), false).is_ok());
        assert_eq!(m.allocate(128, id(3), false), Err(MshrReject::Full));
        // But merging still works when full.
        assert_eq!(m.allocate(0, id(4), false), Ok(MshrAccept::Secondary));
    }

    #[test]
    fn target_capacity_limits_merging() {
        let mut m = MshrFile::new(2, 2);
        m.allocate(0, id(1), false).unwrap();
        m.allocate(0, id(2), false).unwrap();
        assert_eq!(m.allocate(0, id(3), false), Err(MshrReject::TargetsFull));
    }

    #[test]
    fn complete_returns_targets_in_order() {
        let mut m = MshrFile::new(2, 4);
        m.allocate(0, id(1), false).unwrap();
        m.allocate(0, id(2), true).unwrap();
        let e = m.complete(0).unwrap();
        assert_eq!(e.targets.len(), 2);
        assert_eq!(e.targets[0].id, id(1));
        assert!(e.targets[1].is_store);
        assert!(m.complete(0).is_none());
        assert_eq!(m.in_use(), 0);
    }

    #[test]
    fn mark_all_pure_counts_new_flags_once() {
        let mut m = MshrFile::new(4, 4);
        m.allocate(0, id(1), false).unwrap();
        m.allocate(64, id(2), false).unwrap();
        assert_eq!(m.mark_all_pure(), 2);
        assert_eq!(m.mark_all_pure(), 0); // already pure
        m.allocate(0, id(3), false).unwrap();
        assert_eq!(m.mark_all_pure(), 1); // only the newcomer
        let e = m.complete(0).unwrap();
        assert!(e.targets.iter().all(|t| t.pure));
    }

    #[test]
    fn prefetch_entries() {
        let mut m = MshrFile::new(2, 2);
        assert_eq!(m.allocate_prefetch(0), Ok(true));
        assert_eq!(m.allocate_prefetch(0), Ok(false)); // redundant
        assert_eq!(m.waiting_count(), 0);
        // A demand miss merging into a prefetch clears prefetch_only.
        m.allocate(0, id(9), false).unwrap();
        let e = m.complete(0).unwrap();
        assert!(!e.prefetch_only);
        assert_eq!(e.targets.len(), 1);
    }

    #[test]
    fn prefetch_respects_capacity() {
        let mut m = MshrFile::new(1, 2);
        m.allocate(0, id(1), false).unwrap();
        assert_eq!(m.allocate_prefetch(64), Err(MshrReject::Full));
    }
}
