//! Physical page-frame database with reverse mapping.
//!
//! Tracks, for every physical frame, whether it is free, a movable
//! user page (with its owner and virtual page — the reverse map the
//! compaction daemon needs to fix page tables after migration), part of
//! a mapped 2MB superpage, or pinned (kernel/unmovable; paper Figure 3:
//! "while most user-level pages are movable, pinned and kernel pages
//! usually are not").

use crate::addr::{Asid, Pfn, Vpn};
use crate::snapshot::{Dec, Enc, SnapResult, Snapshot, SnapshotError};

/// The state of one physical page frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FrameState {
    /// The frame is on the buddy allocator's free lists.
    #[default]
    Free,
    /// A movable user page; `owner`/`vpn` form the reverse map entry.
    Movable {
        /// Owning address space.
        owner: Asid,
        /// Virtual page mapping this frame.
        vpn: Vpn,
    },
    /// Part of a mapped 2MB superpage; `base_vpn` is the first virtual
    /// page of the superpage. The compaction daemon does not migrate
    /// these (they are relocated only by splitting first).
    Huge {
        /// Owning address space.
        owner: Asid,
        /// First virtual page of the enclosing superpage.
        base_vpn: Vpn,
    },
    /// Pinned or kernel memory the compaction daemon must skip.
    Pinned,
}

impl FrameState {
    /// True for [`FrameState::Movable`].
    pub fn is_movable(&self) -> bool {
        matches!(self, FrameState::Movable { .. })
    }

    /// True for [`FrameState::Free`].
    pub fn is_free(&self) -> bool {
        matches!(self, FrameState::Free)
    }
}

/// Aggregate frame-state counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FrameCounts {
    /// Frames on the free lists.
    pub free: u64,
    /// Movable user frames.
    pub movable: u64,
    /// Frames inside mapped superpages.
    pub huge: u64,
    /// Pinned frames.
    pub pinned: u64,
}

/// The frame database over frames `0..nr_frames`.
///
/// ```
/// use colt_os_mem::frames::{FrameDb, FrameState};
/// use colt_os_mem::addr::{Asid, Pfn, Vpn};
/// let mut db = FrameDb::new(64);
/// db.set(Pfn::new(3), FrameState::Movable { owner: Asid(1), vpn: Vpn::new(100) });
/// assert!(db.state(Pfn::new(3)).is_movable());
/// assert_eq!(db.counts().movable, 1);
/// ```
#[derive(Clone, Debug)]
pub struct FrameDb {
    states: Vec<FrameState>,
    /// Non-free frames per 512-frame pageblock (kept in sync by
    /// [`FrameDb::set`]) — O(1) density checks for the compaction
    /// daemon's pageblock heuristic.
    block_occupancy: Vec<u32>,
    /// Movable frames per pageblock (kept in sync by [`FrameDb::set`]),
    /// so the migrate scanner skips blocks with nothing to migrate.
    block_movable: Vec<u32>,
}

/// Pageblock granularity (Linux pageblocks are 512 pages: one 2MB
/// superpage) of the per-block counters and the migrate scanner.
const PAGEBLOCK_PAGES: u64 = 512;

impl FrameDb {
    /// Creates a database with all frames free.
    pub fn new(nr_frames: u64) -> Self {
        let blocks = nr_frames.div_ceil(PAGEBLOCK_PAGES) as usize;
        Self {
            states: vec![FrameState::Free; nr_frames as usize],
            block_occupancy: vec![0; blocks],
            block_movable: vec![0; blocks],
        }
    }

    /// Number of frames tracked.
    pub fn nr_frames(&self) -> u64 {
        self.states.len() as u64
    }

    /// The state of `pfn`.
    ///
    /// # Panics
    /// Panics if `pfn` is out of range.
    pub fn state(&self, pfn: Pfn) -> FrameState {
        self.states[pfn.raw() as usize]
    }

    /// Sets the state of `pfn`.
    ///
    /// # Panics
    /// Panics if `pfn` is out of range.
    pub fn set(&mut self, pfn: Pfn, state: FrameState) {
        let old = &mut self.states[pfn.raw() as usize];
        let block = (pfn.raw() / PAGEBLOCK_PAGES) as usize;
        match (old.is_free(), state.is_free()) {
            (true, false) => self.block_occupancy[block] += 1,
            (false, true) => self.block_occupancy[block] -= 1,
            _ => {}
        }
        match (old.is_movable(), state.is_movable()) {
            (false, true) => self.block_movable[block] += 1,
            (true, false) => self.block_movable[block] -= 1,
            _ => {}
        }
        *old = state;
    }

    /// Fraction of the 512-frame pageblock containing `pfn` that is
    /// occupied (non-free). O(1) via the occupancy cache.
    pub fn pageblock_density(&self, pfn: Pfn) -> f64 {
        self.block_density((pfn.raw() / PAGEBLOCK_PAGES) as usize)
    }

    fn block_density(&self, block: usize) -> f64 {
        let start = block as u64 * PAGEBLOCK_PAGES;
        let span = PAGEBLOCK_PAGES.min(self.nr_frames() - start);
        f64::from(self.block_occupancy[block]) / span as f64
    }

    /// Marks a whole contiguous run starting at `start`.
    pub fn set_range(&mut self, start: Pfn, pages: u64, mut state_for: impl FnMut(u64) -> FrameState) {
        for i in 0..pages {
            self.set(start.offset(i), state_for(i));
        }
    }

    /// Reverse-map lookup: the `(owner, vpn)` mapping a movable frame.
    pub fn rmap(&self, pfn: Pfn) -> Option<(Asid, Vpn)> {
        match self.state(pfn) {
            FrameState::Movable { owner, vpn } => Some((owner, vpn)),
            _ => None,
        }
    }

    /// Lowest movable frame at or above `from` in a pageblock whose
    /// [`FrameDb::pageblock_density`] is at most `density_limit` — the
    /// compaction daemon's migrate scanner, which walks up from the
    /// bottom of memory. Pageblocks that are too dense or hold no movable
    /// frame are skipped on their counters alone, without reading their
    /// frames.
    pub fn first_movable_in_sparse_block(&self, from: Pfn, density_limit: f64) -> Option<Pfn> {
        let from = from.raw();
        let first_block = (from / PAGEBLOCK_PAGES) as usize;
        (first_block..self.block_movable.len()).find_map(|block| {
            if self.block_movable[block] == 0 || self.block_density(block) > density_limit {
                return None;
            }
            let start = block as u64 * PAGEBLOCK_PAGES;
            let lo = from.max(start) as usize;
            let hi = (start + PAGEBLOCK_PAGES).min(self.nr_frames()) as usize;
            self.states[lo..hi]
                .iter()
                .position(FrameState::is_movable)
                .map(|off| Pfn::new((lo + off) as u64))
        })
    }

    /// Aggregate counts over all frames.
    pub fn counts(&self) -> FrameCounts {
        let mut c = FrameCounts::default();
        for s in &self.states {
            match s {
                FrameState::Free => c.free += 1,
                FrameState::Movable { .. } => c.movable += 1,
                FrameState::Huge { .. } => c.huge += 1,
                FrameState::Pinned => c.pinned += 1,
            }
        }
        c
    }

    /// Iterates `(pfn, state)` over all frames.
    pub fn iter(&self) -> impl Iterator<Item = (Pfn, FrameState)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, &s)| (Pfn::new(i as u64), s))
    }
}

impl Snapshot for FrameState {
    fn encode(&self, enc: &mut Enc) {
        match self {
            FrameState::Free => enc.u8(0),
            FrameState::Movable { owner, vpn } => {
                enc.u8(1);
                owner.encode(enc);
                vpn.encode(enc);
            }
            FrameState::Huge { owner, base_vpn } => {
                enc.u8(2);
                owner.encode(enc);
                base_vpn.encode(enc);
            }
            FrameState::Pinned => enc.u8(3),
        }
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(FrameState::Free),
            1 => Ok(FrameState::Movable { owner: Asid::decode(dec)?, vpn: Vpn::decode(dec)? }),
            2 => Ok(FrameState::Huge { owner: Asid::decode(dec)?, base_vpn: Vpn::decode(dec)? }),
            3 => Ok(FrameState::Pinned),
            b => Err(SnapshotError(format!("invalid FrameState tag {b:#x}"))),
        }
    }
}

impl Snapshot for FrameDb {
    fn encode(&self, enc: &mut Enc) {
        self.states.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        // The per-block counters are derived state; rebuild them instead
        // of trusting (and having to cross-check) a stored copy.
        let states = Vec::<FrameState>::decode(dec)?;
        let per_block = |counted: fn(&FrameState) -> bool| -> Vec<u32> {
            states
                .chunks(PAGEBLOCK_PAGES as usize)
                .map(|block| block.iter().filter(|s| counted(s)).count() as u32)
                .collect()
        };
        let block_occupancy = per_block(|s| !s.is_free());
        let block_movable = per_block(FrameState::is_movable);
        Ok(Self { states, block_occupancy, block_movable })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_db_is_all_free() {
        let db = FrameDb::new(16);
        assert_eq!(db.counts(), FrameCounts { free: 16, ..Default::default() });
        assert!(db.state(Pfn::new(0)).is_free());
    }

    #[test]
    fn rmap_returns_owner_and_vpn_for_movable_only() {
        let mut db = FrameDb::new(8);
        db.set(Pfn::new(2), FrameState::Movable { owner: Asid(7), vpn: Vpn::new(99) });
        db.set(Pfn::new(3), FrameState::Pinned);
        db.set(
            Pfn::new(4),
            FrameState::Huge { owner: Asid(7), base_vpn: Vpn::new(512) },
        );
        assert_eq!(db.rmap(Pfn::new(2)), Some((Asid(7), Vpn::new(99))));
        assert_eq!(db.rmap(Pfn::new(3)), None);
        assert_eq!(db.rmap(Pfn::new(4)), None);
    }

    #[test]
    fn sparse_block_scan_skips_dense_and_movable_free_blocks() {
        // Block 0 is dense (pinned filler), block 1 holds no movable
        // frame, block 2 is sparse, and the partial last block is sparse.
        let mut db = FrameDb::new(4 * 512 + 100);
        let movable = |vpn| FrameState::Movable { owner: Asid(1), vpn: Vpn::new(vpn) };
        db.set_range(Pfn::new(0), 500, |_| FrameState::Pinned);
        db.set(Pfn::new(505), movable(0));
        db.set(Pfn::new(600), FrameState::Pinned);
        db.set(Pfn::new(1100), movable(1));
        db.set(Pfn::new(1200), movable(2));
        db.set(Pfn::new(2060), movable(3));
        let scan = |from| db.first_movable_in_sparse_block(Pfn::new(from), 0.8);
        assert_eq!(scan(0), Some(Pfn::new(1100)), "dense block 0 is skipped");
        assert_eq!(scan(1101), Some(Pfn::new(1200)));
        assert_eq!(scan(1201), Some(Pfn::new(2060)));
        assert_eq!(scan(2061), None);
        assert_eq!(db.first_movable_in_sparse_block(Pfn::new(0), 1.0), Some(Pfn::new(505)));
    }

    #[test]
    fn set_range_applies_closure_per_offset() {
        let mut db = FrameDb::new(16);
        db.set_range(Pfn::new(4), 3, |i| FrameState::Movable {
            owner: Asid(2),
            vpn: Vpn::new(100 + i),
        });
        assert_eq!(db.rmap(Pfn::new(5)), Some((Asid(2), Vpn::new(101))));
        assert_eq!(db.counts().movable, 3);
    }

    #[test]
    fn iter_covers_all_frames_in_order() {
        let db = FrameDb::new(4);
        let pfns: Vec<_> = db.iter().map(|(p, _)| p.raw()).collect();
        assert_eq!(pfns, vec![0, 1, 2, 3]);
    }
}
