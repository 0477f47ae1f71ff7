//! A deterministic first-fit allocator over a physical address range.
//!
//! Used for the persistent heap (`asap_malloc`/`asap_free`) and for
//! carving out per-thread log buffers. Allocations are cache-line aligned
//! so that a region's log entries and ownership tracking operate on whole
//! lines, matching the hardware's line-granular LPOs/DPOs.

use std::fmt;

use crate::addr::{PmAddr, LINE_BYTES};

/// Error returned when an allocation cannot be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No free range large enough.
    OutOfMemory {
        /// Bytes requested (after line-size round-up).
        requested: u64,
    },
    /// `free` called on an address that is not an allocation start.
    NotAllocated {
        /// The offending address.
        addr: PmAddr,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "out of simulated memory allocating {requested} bytes")
            }
            AllocError::NotAllocated { addr } => {
                write!(f, "free of non-allocated address {addr}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// First-fit allocator with coalescing free, over `[base, base + size)`.
///
/// Deterministic: the same allocation/free sequence always produces the same
/// addresses, which keeps whole simulations reproducible.
///
/// # Example
///
/// ```
/// use asap_pmem::{PmAddr, RangeAllocator, PM_BASE};
///
/// # fn main() -> Result<(), asap_pmem::AllocError> {
/// let mut heap = RangeAllocator::new(PmAddr(PM_BASE), 1 << 20);
/// let a = heap.alloc(100)?;
/// let b = heap.alloc(100)?;
/// assert_ne!(a, b);
/// heap.free(a)?;
/// let c = heap.alloc(100)?; // first fit reuses the freed range
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
pub struct RangeAllocator {
    base: PmAddr,
    size: u64,
    /// Free ranges as `(start, len)`, sorted by start. Non-adjacent
    /// (always coalesced).
    free: Vec<(u64, u64)>,
    /// Live allocations as `(start, len)`, sorted by start.
    live: Vec<(u64, u64)>,
}

/// Both range lists are flat vectors, so a restore-into-scratch
/// `clone_from` is two `memcpy`s into buffers the destination already owns.
impl Clone for RangeAllocator {
    fn clone(&self) -> Self {
        RangeAllocator {
            base: self.base,
            size: self.size,
            free: self.free.clone(),
            live: self.live.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.base = src.base;
        self.size = src.size;
        self.free.clone_from(&src.free);
        self.live.clone_from(&src.live);
    }
}

impl RangeAllocator {
    /// Creates an allocator over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not cache-line aligned or `size` is zero.
    pub fn new(base: PmAddr, size: u64) -> Self {
        assert!(
            base.0.is_multiple_of(LINE_BYTES),
            "allocator base must be line-aligned"
        );
        assert!(size > 0, "allocator size must be nonzero");
        RangeAllocator {
            base,
            size,
            free: vec![(base.0, size)],
            live: Vec::new(),
        }
    }

    /// Allocates `len` bytes (rounded up to whole cache lines).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] if no free range fits.
    pub fn alloc(&mut self, len: u64) -> Result<PmAddr, AllocError> {
        let len = round_up_lines(len.max(1));
        let i = self
            .free
            .iter()
            .position(|&(_, flen)| flen >= len)
            .ok_or(AllocError::OutOfMemory { requested: len })?;
        let (start, flen) = self.free[i];
        if flen > len {
            self.free[i] = (start + len, flen - len);
        } else {
            self.free.remove(i);
        }
        let at = self.live.partition_point(|&(a, _)| a < start);
        self.live.insert(at, (start, len));
        Ok(PmAddr(start))
    }

    /// Frees a previous allocation, coalescing with neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] if `addr` was not returned by
    /// [`alloc`](Self::alloc) (or was already freed).
    pub fn free(&mut self, addr: PmAddr) -> Result<(), AllocError> {
        let li = self
            .live
            .binary_search_by_key(&addr.0, |&(a, _)| a)
            .map_err(|_| AllocError::NotAllocated { addr })?;
        let (start, len) = self.live.remove(li);
        let end = start + len;
        // `i` is the first free range above the freed one.
        let i = self.free.partition_point(|&(s, _)| s < start);
        let pred = i > 0 && {
            let (ps, pl) = self.free[i - 1];
            ps + pl == start
        };
        let succ = self.free.get(i).is_some_and(|&(s, _)| s == end);
        match (pred, succ) {
            (true, true) => {
                self.free[i - 1].1 += len + self.free[i].1;
                self.free.remove(i);
            }
            (true, false) => self.free[i - 1].1 += len,
            (false, true) => self.free[i] = (start, len + self.free[i].1),
            (false, false) => self.free.insert(i, (start, len)),
        }
        Ok(())
    }

    /// The size in bytes of the live allocation starting at `addr`.
    pub fn allocation_len(&self, addr: PmAddr) -> Option<u64> {
        self.live
            .binary_search_by_key(&addr.0, |&(a, _)| a)
            .ok()
            .map(|i| self.live[i].1)
    }

    /// Total bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live.iter().map(|&(_, l)| l).sum()
    }

    /// Total bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, l)| l).sum()
    }

    /// The managed range's base address.
    pub fn base(&self) -> PmAddr {
        self.base
    }

    /// The managed range's total size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Iterates over live allocations as `(start, len)` in address order.
    pub fn live_allocations(&self) -> impl Iterator<Item = (PmAddr, u64)> + '_ {
        self.live.iter().map(|&(a, l)| (PmAddr(a), l))
    }
}

impl fmt::Debug for RangeAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeAllocator")
            .field("base", &self.base)
            .field("size", &self.size)
            .field("live", &self.live.len())
            .field("free_ranges", &self.free.len())
            .finish()
    }
}

fn round_up_lines(len: u64) -> u64 {
    len.div_ceil(LINE_BYTES) * LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn heap() -> RangeAllocator {
        RangeAllocator::new(PmAddr(0), 64 * 1024)
    }

    #[test]
    fn allocations_are_line_aligned_and_disjoint() {
        let mut h = heap();
        let a = h.alloc(1).unwrap();
        let b = h.alloc(65).unwrap();
        assert_eq!(a.0 % 64, 0);
        assert_eq!(b.0 % 64, 0);
        assert_eq!(h.allocation_len(a), Some(64));
        assert_eq!(h.allocation_len(b), Some(128));
        assert!(b.0 >= a.0 + 64);
    }

    #[test]
    fn accounting_adds_up() {
        let mut h = heap();
        let total = h.free_bytes();
        let a = h.alloc(100).unwrap();
        assert_eq!(h.live_bytes() + h.free_bytes(), total);
        h.free(a).unwrap();
        assert_eq!(h.free_bytes(), total);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut h = heap();
        let a = h.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        let c = h.alloc(64).unwrap();
        let _d = h.alloc(64).unwrap(); // guard so c has a live successor
        h.free(a).unwrap();
        h.free(c).unwrap();
        h.free(b).unwrap(); // merges with both neighbours
                            // After coalescing we can allocate the whole 3-line span again.
        let big = h.alloc(192).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn oom_is_reported() {
        let mut h = RangeAllocator::new(PmAddr(0), 128);
        h.alloc(128).unwrap();
        let err = h.alloc(1).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { requested: 64 }));
        assert!(err.to_string().contains("out of simulated memory"));
    }

    #[test]
    fn double_free_is_an_error() {
        let mut h = heap();
        let a = h.alloc(64).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(AllocError::NotAllocated { .. })));
    }

    #[test]
    fn free_of_interior_address_is_an_error() {
        let mut h = heap();
        let a = h.alloc(128).unwrap();
        assert!(h.free(PmAddr(a.0 + 64)).is_err());
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn misaligned_base_panics() {
        let _ = RangeAllocator::new(PmAddr(3), 1024);
    }

    #[test]
    fn live_allocations_iterates_in_order() {
        let mut h = heap();
        let a = h.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        let v: Vec<_> = h.live_allocations().collect();
        assert_eq!(v, vec![(a, 64), (b, 64)]);
    }

    #[test]
    fn zero_len_alloc_rounds_to_one_line() {
        let mut h = heap();
        let a = h.alloc(0).unwrap();
        assert_eq!(h.allocation_len(a), Some(64));
    }

    /// The allocator as it was before its range lists became sorted
    /// vectors: first fit and coalescing over `BTreeMap`s. The vector
    /// implementation must match it operation for operation.
    #[derive(Default)]
    struct MapModel {
        free: std::collections::BTreeMap<u64, u64>,
        live: std::collections::BTreeMap<u64, u64>,
    }

    impl MapModel {
        fn new(base: u64, size: u64) -> Self {
            let mut m = MapModel::default();
            m.free.insert(base, size);
            m
        }

        fn alloc(&mut self, len: u64) -> Result<PmAddr, AllocError> {
            let len = round_up_lines(len.max(1));
            let (start, flen) = self
                .free
                .iter()
                .find(|(_, &flen)| flen >= len)
                .map(|(&s, &l)| (s, l))
                .ok_or(AllocError::OutOfMemory { requested: len })?;
            self.free.remove(&start);
            if flen > len {
                self.free.insert(start + len, flen - len);
            }
            self.live.insert(start, len);
            Ok(PmAddr(start))
        }

        fn free(&mut self, addr: PmAddr) -> Result<(), AllocError> {
            let len = self
                .live
                .remove(&addr.0)
                .ok_or(AllocError::NotAllocated { addr })?;
            let (mut start, mut size) = (addr.0, len);
            if let Some((&ps, &pl)) = self.free.range(..start).next_back() {
                if ps + pl == start {
                    self.free.remove(&ps);
                    start = ps;
                    size += pl;
                }
            }
            if let Some(sl) = self.free.remove(&(addr.0 + len)) {
                size += sl;
            }
            self.free.insert(start, size);
            Ok(())
        }
    }

    /// One allocator operation: allocate `len`, or free the `pick`-th live
    /// allocation (`bogus` frees an address that is not an allocation).
    #[derive(Clone, Debug)]
    enum HeapOp {
        Alloc(u64),
        Free { pick: usize, bogus: bool },
    }

    fn heap_op() -> impl Strategy<Value = HeapOp> {
        prop_oneof![
            3 => (1u64..2048).prop_map(HeapOp::Alloc),
            2 => (any::<usize>(), proptest::bool::weighted(0.1))
                .prop_map(|(pick, bogus)| HeapOp::Free { pick, bogus }),
        ]
    }

    /// Applies `op` to both allocators and checks they agree.
    fn step_both(
        h: &mut RangeAllocator,
        m: &mut MapModel,
        op: &HeapOp,
    ) -> Result<(), TestCaseError> {
        match *op {
            HeapOp::Alloc(len) => prop_assert_eq!(h.alloc(len), m.alloc(len)),
            HeapOp::Free { pick, bogus } => {
                let live: Vec<u64> = m.live.keys().copied().collect();
                let addr = match (live.is_empty(), bogus) {
                    (false, false) => PmAddr(live[pick % live.len()]),
                    (false, true) => PmAddr(live[pick % live.len()] + LINE_BYTES / 2),
                    (true, _) => PmAddr(pick as u64 % (1 << 16)),
                };
                prop_assert_eq!(h.free(addr), m.free(addr));
            }
        }
        let got: Vec<(PmAddr, u64)> = h.live_allocations().collect();
        let want: Vec<(PmAddr, u64)> = m.live.iter().map(|(&a, &l)| (PmAddr(a), l)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            h.free.clone(),
            m.free.iter().map(|(&s, &l)| (s, l)).collect::<Vec<_>>()
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_matches_btreemap_model(ops in proptest::collection::vec(heap_op(), 1..120)) {
            let mut h = RangeAllocator::new(PmAddr(0), 1 << 16);
            let mut m = MapModel::new(0, 1 << 16);
            for op in &ops {
                step_both(&mut h, &mut m, op)?;
            }
        }

        /// A restore into a destination that diverged, then continued
        /// operation, behaves exactly like a fresh clone of the source.
        #[test]
        fn prop_clone_from_matches_clone(
            prefix in proptest::collection::vec(heap_op(), 0..40),
            diverge in proptest::collection::vec(heap_op(), 0..40),
            suffix in proptest::collection::vec(heap_op(), 0..40),
        ) {
            let mut src = RangeAllocator::new(PmAddr(0), 1 << 16);
            let mut model = MapModel::new(0, 1 << 16);
            for op in &prefix {
                step_both(&mut src, &mut model, op)?;
            }
            let mut dst = src.clone();
            let mut scratch = MapModel::new(0, 1 << 16);
            scratch.free = model.free.clone();
            scratch.live = model.live.clone();
            for op in &diverge {
                step_both(&mut dst, &mut scratch, op)?;
            }
            dst.clone_from(&src);
            for op in &suffix {
                step_both(&mut dst, &mut model, op)?;
            }
        }
    }

    proptest! {
        #[test]
        fn prop_alloc_free_never_leaks(ops in proptest::collection::vec((any::<bool>(), 1u64..512), 1..64)) {
            let mut h = RangeAllocator::new(PmAddr(0), 1 << 20);
            let total = h.free_bytes();
            let mut live = Vec::new();
            for (do_alloc, len) in ops {
                if do_alloc || live.is_empty() {
                    if let Ok(a) = h.alloc(len) {
                        live.push(a);
                    }
                } else {
                    let a = live.pop().unwrap();
                    h.free(a).unwrap();
                }
                prop_assert_eq!(h.live_bytes() + h.free_bytes(), total);
            }
            for a in live {
                h.free(a).unwrap();
            }
            prop_assert_eq!(h.free_bytes(), total);
        }

        #[test]
        fn prop_live_allocations_disjoint(lens in proptest::collection::vec(1u64..300, 1..32)) {
            let mut h = RangeAllocator::new(PmAddr(0), 1 << 20);
            for len in lens {
                h.alloc(len).unwrap();
            }
            let allocs: Vec<_> = h.live_allocations().collect();
            for w in allocs.windows(2) {
                prop_assert!(w[0].0 .0 + w[0].1 <= w[1].0 .0);
            }
        }
    }
}
