//! Virtual memory areas and per-process address-space layout.
//!
//! The address space hands out virtual ranges with a bump allocator.
//! Anonymous regions of at least 2MB are aligned to 2MB boundaries when
//! requested, mirroring the alignment Linux gives THP-eligible regions
//! (a superpage must be naturally aligned in both virtual and physical
//! memory, paper §2.2).

use crate::addr::{Vpn, SUPERPAGE_PAGES};
use crate::error::{MemError, MemResult};
use crate::page_table::PteFlags;
use crate::snapshot::{Dec, Enc, SnapResult, Snapshot, SnapshotError};

/// What backs a virtual memory area.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmaKind {
    /// Anonymous memory (malloc/heap); THS-eligible (paper §6.1).
    Anonymous,
    /// File-backed memory; never a THS superpage candidate (paper §6.1).
    FileBacked,
}

/// One contiguous virtual memory area.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Vma {
    /// First virtual page.
    pub start: Vpn,
    /// Length in pages.
    pub pages: u64,
    /// Backing kind.
    pub kind: VmaKind,
    /// Page attribute bits applied to every mapping in the area.
    pub flags: PteFlags,
}

impl Vma {
    /// One-past-the-end virtual page.
    pub fn end(&self) -> Vpn {
        self.start.offset(self.pages)
    }

    /// True when `vpn` falls inside the area.
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn >= self.start && vpn < self.end()
    }
}

/// First virtual page handed out to user mappings (skip the null region).
const USER_BASE_VPN: u64 = 0x1000;

/// The per-process virtual address-space layout.
///
/// ```
/// use colt_os_mem::vma::{AddressSpace, VmaKind};
/// use colt_os_mem::page_table::PteFlags;
/// let mut space = AddressSpace::new(1 << 27);
/// let vma = space.reserve(100, VmaKind::Anonymous, PteFlags::user_data())?;
/// assert_eq!(vma.pages, 100);
/// assert!(space.find(vma.start).is_some());
/// # Ok::<(), colt_os_mem::error::MemError>(())
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    /// Areas by ascending start. Starts are bump-allocated, so a reserve
    /// is a push; a removed area stays as a tombstone (`pages == 0`)
    /// until tombstones exceed a quarter of the live areas.
    vmas: Vec<Vma>,
    /// Live (non-tombstone) areas in `vmas`.
    live: usize,
    next_vpn: u64,
    limit_vpn: u64,
}

impl AddressSpace {
    /// Creates an address space able to hold `limit_pages` mapped pages
    /// of layout (the virtual span, not a physical budget).
    pub fn new(limit_pages: u64) -> Self {
        Self {
            vmas: Vec::new(),
            live: 0,
            next_vpn: USER_BASE_VPN,
            limit_vpn: USER_BASE_VPN + limit_pages,
        }
    }

    /// Reserves a fresh area of `pages` virtual pages.
    ///
    /// Anonymous areas of at least one superpage are aligned to 512 pages
    /// so THS has a chance to back them with aligned 2MB frames.
    ///
    /// # Errors
    /// [`MemError::ZeroSizedRequest`] for empty requests and
    /// [`MemError::OutOfVirtualSpace`] when the layout region is full.
    pub fn reserve(&mut self, pages: u64, kind: VmaKind, flags: PteFlags) -> MemResult<Vma> {
        self.reserve_hinted(pages, kind, flags, kind == VmaKind::Anonymous)
    }

    /// [`AddressSpace::reserve`] with an explicit alignment hint: the
    /// memory-management policy decides whether a large area gets a
    /// superpage-aligned start (a THP-hostile policy withholds it, so the
    /// region can never be backed — or collapsed — hugely).
    ///
    /// # Errors
    /// As [`AddressSpace::reserve`].
    pub fn reserve_hinted(
        &mut self,
        pages: u64,
        kind: VmaKind,
        flags: PteFlags,
        huge_align: bool,
    ) -> MemResult<Vma> {
        if pages == 0 {
            return Err(MemError::ZeroSizedRequest);
        }
        let mut start = self.next_vpn;
        if huge_align && pages >= SUPERPAGE_PAGES {
            start = (start + SUPERPAGE_PAGES - 1) & !(SUPERPAGE_PAGES - 1);
        }
        let end = start
            .checked_add(pages)
            .ok_or(MemError::OutOfVirtualSpace { requested_pages: pages })?;
        if end > self.limit_vpn {
            return Err(MemError::OutOfVirtualSpace { requested_pages: pages });
        }
        let vma = Vma { start: Vpn::new(start), pages, kind, flags };
        debug_assert!(
            self.vmas.last().is_none_or(|last| last.start < vma.start),
            "bump-allocated starts must increase"
        );
        self.vmas.push(vma);
        self.live += 1;
        // Leave a one-page guard gap between areas: distinct mappings are
        // not virtually adjacent in practice, so contiguity runs cannot
        // span separate allocations.
        self.next_vpn = end + 1;
        Ok(vma)
    }

    /// Removes the area starting exactly at `start`.
    ///
    /// # Errors
    /// [`MemError::NotAllocationStart`] when no area starts there.
    pub fn remove(&mut self, start: Vpn) -> MemResult<Vma> {
        let slot = self
            .vmas
            .binary_search_by_key(&start, |v| v.start)
            .ok()
            .filter(|&i| self.vmas[i].pages != 0)
            .ok_or(MemError::NotAllocationStart { vpn: start })?;
        let vma = self.vmas[slot];
        self.vmas[slot].pages = 0;
        self.live -= 1;
        // A purge costs one pass, paid for by the quarter of the live
        // count in removes before it. A table that has shrunk to under
        // half its capacity moves to an exact-size allocation and frees
        // the old one whole: prepared workloads stay cached for a whole
        // sweep, so slack here is resident memory.
        if 4 * (self.vmas.len() - self.live) > self.live {
            if self.vmas.capacity() > 2 * self.live {
                self.vmas = self.iter().copied().collect();
            } else {
                self.vmas.retain(|v| v.pages != 0);
            }
        }
        Ok(vma)
    }

    /// The area containing `vpn`, if any. A tombstone contains nothing,
    /// and the live area before it ends at or before its start.
    pub fn find(&self, vpn: Vpn) -> Option<&Vma> {
        let after = self.vmas.partition_point(|v| v.start <= vpn);
        after
            .checked_sub(1)
            .map(|i| &self.vmas[i])
            .filter(|v| v.contains(vpn))
    }

    /// Iterates areas in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter().filter(|v| v.pages != 0)
    }

    /// Number of areas.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no areas exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total mapped layout size in pages (tombstones add zero).
    pub fn total_pages(&self) -> u64 {
        self.vmas.iter().map(|v| v.pages).sum()
    }
}

impl Snapshot for VmaKind {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            VmaKind::Anonymous => 0,
            VmaKind::FileBacked => 1,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(VmaKind::Anonymous),
            1 => Ok(VmaKind::FileBacked),
            b => Err(SnapshotError(format!("invalid VmaKind tag {b:#x}"))),
        }
    }
}

impl Snapshot for Vma {
    fn encode(&self, enc: &mut Enc) {
        self.start.encode(enc);
        enc.u64(self.pages);
        self.kind.encode(enc);
        self.flags.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self {
            start: Vpn::decode(dec)?,
            pages: dec.u64()?,
            kind: VmaKind::decode(dec)?,
            flags: PteFlags::decode(dec)?,
        })
    }
}

impl Snapshot for AddressSpace {
    /// Live areas encode as a map from start to area: a count, then per
    /// area its start and the area itself, ascending.
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.live);
        for vma in self.iter() {
            enc.u64(vma.start.raw());
            vma.encode(enc);
        }
        enc.u64(self.next_vpn);
        enc.u64(self.limit_vpn);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let n = dec.len("AddressSpace areas")?;
        let mut vmas: Vec<Vma> = Vec::with_capacity(n);
        for _ in 0..n {
            let key = dec.u64()?;
            let vma = Vma::decode(dec)?;
            let end = vma.start.raw().checked_add(vma.pages);
            let after_prev = vmas.last().is_none_or(|prev| prev.end() <= vma.start);
            if key != vma.start.raw() || vma.pages == 0 || end.is_none() || !after_prev {
                return Err(SnapshotError(format!(
                    "area keyed {key:#x} at {:#x} (+{} pages) is mis-keyed, empty, out of order or overlapping",
                    vma.start.raw(),
                    vma.pages
                )));
            }
            vmas.push(vma);
        }
        let next_vpn = dec.u64()?;
        let limit_vpn = dec.u64()?;
        if vmas.last().is_some_and(|last| last.end().raw() > next_vpn) {
            return Err(SnapshotError(format!(
                "area ends beyond the next free virtual page {next_vpn:#x}"
            )));
        }
        Ok(Self { live: vmas.len(), vmas, next_vpn, limit_vpn })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(1 << 24)
    }

    #[test]
    fn reserve_bumps_and_finds() {
        let mut s = space();
        let a = s.reserve(10, VmaKind::Anonymous, PteFlags::user_data()).unwrap();
        let b = s.reserve(5, VmaKind::FileBacked, PteFlags::user_data()).unwrap();
        assert_eq!(b.start, a.end().next(), "one-page guard gap between areas");
        assert_eq!(s.find(a.start.offset(9)).unwrap().start, a.start);
        assert_eq!(s.find(b.start).unwrap().kind, VmaKind::FileBacked);
        assert_eq!(s.total_pages(), 15);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn large_anonymous_areas_are_superpage_aligned() {
        let mut s = space();
        s.reserve(3, VmaKind::Anonymous, PteFlags::user_data()).unwrap();
        let big = s.reserve(1024, VmaKind::Anonymous, PteFlags::user_data()).unwrap();
        assert!(big.start.is_aligned(9), "THS-eligible area must be 2MB aligned");
    }

    #[test]
    fn large_file_backed_areas_are_not_aligned() {
        let mut s = space();
        s.reserve(3, VmaKind::FileBacked, PteFlags::user_data()).unwrap();
        let big = s.reserve(1024, VmaKind::FileBacked, PteFlags::user_data()).unwrap();
        assert!(!big.start.is_aligned(9));
    }

    #[test]
    fn zero_request_is_rejected() {
        let mut s = space();
        assert_eq!(
            s.reserve(0, VmaKind::Anonymous, PteFlags::empty()),
            Err(MemError::ZeroSizedRequest)
        );
    }

    #[test]
    fn exhausting_virtual_space_errors() {
        let mut s = AddressSpace::new(100);
        s.reserve(60, VmaKind::FileBacked, PteFlags::empty()).unwrap();
        let err = s.reserve(60, VmaKind::FileBacked, PteFlags::empty()).unwrap_err();
        assert!(matches!(err, MemError::OutOfVirtualSpace { requested_pages: 60 }));
    }

    #[test]
    fn remove_requires_exact_start() {
        let mut s = space();
        let a = s.reserve(10, VmaKind::Anonymous, PteFlags::empty()).unwrap();
        assert!(s.remove(a.start.offset(1)).is_err());
        assert_eq!(s.remove(a.start).unwrap(), a);
        assert!(s.find(a.start).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn find_outside_any_area_is_none() {
        let mut s = space();
        let a = s.reserve(4, VmaKind::Anonymous, PteFlags::empty()).unwrap();
        assert!(s.find(a.end()).is_none());
        assert!(s.find(Vpn::new(0)).is_none());
    }
}
