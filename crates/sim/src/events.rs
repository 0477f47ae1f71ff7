//! A stable min-priority event queue keyed by [`Cycle`].
//!
//! Implemented as a bucketed *calendar queue* (the classic discrete-event
//! simulator structure, cf. gem5's event queue): pending events live in a
//! wheel of power-of-two cycle buckets and pop in `(time, insertion-seq)`
//! order, exactly like the comparison-based `BinaryHeap` this replaced.
//! Almost all simulator events are scheduled within a few thousand cycles
//! of "now" (DRAM/PM latencies, WPQ residency timers), so a pop usually
//! touches a single small bucket instead of rebalancing a heap, and the
//! bucket vectors are recycled so steady-state traffic performs no heap
//! allocation. A `tests`-side proptest holds the calendar to bit-exact
//! pop-order equivalence against the original heap.

use std::cell::Cell;

use crate::clock::Cycle;

/// log2 of the bucket width in cycles: events within the same 64-cycle
/// window share a bucket.
const BUCKET_SHIFT: u32 = 6;
/// Number of wheel slots (power of two). The wheel spans
/// `SLOTS << BUCKET_SHIFT` = 16384 cycles per revolution, comfortably
/// beyond every latency and residency timer in `SystemConfig`.
const SLOTS: usize = 256;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// One scheduled entry: time, tie-break sequence number, payload.
#[derive(Clone)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

/// A deterministic min-priority queue of timestamped events.
///
/// Events with equal timestamps pop in insertion order, which keeps the
/// whole simulation reproducible run-to-run.
///
/// # Example
///
/// ```
/// use asap_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'x');
/// q.push(Cycle(3), 'y');
/// q.push(Cycle(1), 'z');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['z', 'x', 'y']);
/// ```
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Wheel slots; an event at `at` lives in slot
    /// `(at >> BUCKET_SHIFT) & SLOT_MASK`. Entries from different wheel
    /// revolutions can share a slot; the absolute bucket number
    /// (`at >> BUCKET_SHIFT`) disambiguates.
    buckets: Vec<Vec<Entry<E>>>,
    len: usize,
    next_seq: u64,
    /// Absolute bucket number at or before the earliest pending event.
    /// Memoized across `peek_time` calls (hence `Cell`): skipping empty
    /// buckets is amortized instead of repeated per query. Purely a
    /// search hint — it never affects which event pops next.
    cursor: Cell<u64>,
    /// Location `(slot, index, at, seq)` of the current minimum, found by
    /// the last [`Self::find_min`]. A pop invalidates it; a push *updates*
    /// it (appends never move existing entries, so the memoized index
    /// stays valid and only an earlier key can displace the minimum) —
    /// the common schedule-later-work push keeps the memo warm.
    cached_min: Cell<Option<(u32, u32, Cycle, u64)>>,
    /// One bit per wheel slot, set while the slot's bucket is non-empty.
    /// Lets [`Self::find_min`] skip runs of empty slots with word scans
    /// instead of walking them one by one: between bursts of memory
    /// traffic most of the wheel is empty.
    occ: [u64; SLOTS / 64],
    /// How many times [`Self::find_min`] fell back to the sparse-tail
    /// full scan (every pending event more than one wheel revolution
    /// away). A plain `Cell` — never on stdout, flushed to the host
    /// metrics registry (`sim.calendar.full_scans`) after a run.
    full_scans: Cell<u64>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(SLOTS);
        buckets.resize_with(SLOTS, Vec::new);
        EventQueue {
            buckets,
            len: 0,
            next_seq: 0,
            cursor: Cell::new(0),
            cached_min: Cell::new(None),
            occ: [0; SLOTS / 64],
            full_scans: Cell::new(0),
        }
    }

    /// Schedules `payload` to fire at time `at`.
    #[inline]
    pub fn push(&mut self, at: Cycle, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let abs = at.0 >> BUCKET_SHIFT;
        if self.len == 0 || abs < self.cursor.get() {
            self.cursor.set(abs);
        }
        let slot = (abs & SLOT_MASK) as usize;
        // Keep the memoized minimum warm: appends never move existing
        // entries, so the cached `(slot, index)` stays valid and only a
        // strictly earlier key displaces it. (When there is no memo we
        // leave it unset rather than pay a scan here.)
        if let Some((_, _, cat, cseq)) = self.cached_min.get() {
            if (at, seq) < (cat, cseq) {
                self.cached_min.set(Some((
                    slot as u32,
                    self.buckets[slot].len() as u32,
                    at,
                    seq,
                )));
            }
        } else if self.len == 0 {
            self.cached_min.set(Some((slot as u32, 0, at, seq)));
        }
        self.occ[slot >> 6] |= 1 << (slot & 63);
        self.buckets[slot].push(Entry { at, seq, payload });
        self.len += 1;
    }

    /// Ring-offset (distance from `start_slot`) of the first non-empty
    /// slot at offset `from` or later, scanning the occupancy words.
    #[inline]
    fn next_occupied(&self, from: usize, start_slot: usize) -> Option<usize> {
        let mut off = from;
        while off < SLOTS {
            let slot = (start_slot + off) & (SLOTS - 1);
            let (word, bit) = (slot >> 6, slot & 63);
            // Consecutive ring offsets stay in this word only up to its
            // top bit; clamp so a wrap re-enters the loop cleanly.
            let span = (64 - bit).min(SLOTS - off);
            let mask = if span == 64 {
                !0u64
            } else {
                ((1u64 << span) - 1) << bit
            };
            let hits = self.occ[word] & mask;
            if hits != 0 {
                return Some(off + (hits.trailing_zeros() as usize - bit));
            }
            off += span;
        }
        None
    }

    /// Locates the earliest `(at, seq)` entry, returning `(slot, index,
    /// at, seq)`. Scans absolute buckets forward from the cursor; if a
    /// full wheel revolution finds nothing (every pending event is far in
    /// the future), falls back to one linear scan and re-aims the cursor.
    #[inline]
    fn find_min(&self) -> Option<(u32, u32, Cycle, u64)> {
        if self.len == 0 {
            return None;
        }
        if let Some(hit) = self.cached_min.get() {
            return Some(hit);
        }
        self.find_min_scan()
    }

    /// The cold half of [`find_min`](Self::find_min): the occupancy-bit
    /// scan that runs when nothing is memoized. Kept out-of-line so the
    /// memo-hit fast path above stays cheap to inline at every peek/pop
    /// call site.
    #[inline(never)]
    fn find_min_scan(&self) -> Option<(u32, u32, Cycle, u64)> {
        let start = self.cursor.get();
        let start_slot = (start & SLOT_MASK) as usize;
        let mut off = 0usize;
        // Word-scan the occupancy bits from the cursor: only non-empty
        // slots are visited, in absolute-bucket order.
        while let Some(o) = self.next_occupied(off, start_slot) {
            let abs = start + o as u64;
            let slot = (start_slot + o) & (SLOTS - 1);
            let mut best: Option<(u32, u64, Cycle)> = None;
            for (i, e) in self.buckets[slot].iter().enumerate() {
                if e.at.0 >> BUCKET_SHIFT == abs
                    && best.is_none_or(|(_, seq, at)| (e.at, e.seq) < (at, seq))
                {
                    best = Some((i as u32, e.seq, e.at));
                }
            }
            if let Some((i, seq, at)) = best {
                self.cursor.set(abs);
                let hit = (slot as u32, i, at, seq);
                self.cached_min.set(Some(hit));
                return Some(hit);
            }
            off = o + 1;
        }
        // Sparse tail: nothing within one revolution of the cursor. Scan
        // every occupied slot once for the global `(at, seq)` minimum.
        self.full_scans.set(self.full_scans.get() + 1);
        let mut best: Option<(u32, u32, u64, Cycle)> = None;
        for (w, &bits) in self.occ.iter().enumerate() {
            let mut b = bits;
            while b != 0 {
                let slot = w * 64 + b.trailing_zeros() as usize;
                b &= b - 1;
                for (i, e) in self.buckets[slot].iter().enumerate() {
                    if best.is_none_or(|(_, _, seq, at)| (e.at, e.seq) < (at, seq)) {
                        best = Some((slot as u32, i as u32, e.seq, e.at));
                    }
                }
            }
        }
        let (slot, i, seq, at) = best.expect("len > 0 implies an entry exists");
        self.cursor.set(at.0 >> BUCKET_SHIFT);
        let hit = (slot, i, at, seq);
        self.cached_min.set(Some(hit));
        Some(hit)
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (slot, i, _, _) = self.find_min()?;
        self.cached_min.set(None);
        // Within a bucket the minimum is chosen by `(at, seq)`, so the
        // in-vector order left behind by `swap_remove` is irrelevant.
        let e = self.buckets[slot as usize].swap_remove(i as usize);
        if self.buckets[slot as usize].is_empty() {
            self.occ[(slot >> 6) as usize] &= !(1 << (slot & 63));
        }
        self.len -= 1;
        Some((e.at, e.payload))
    }

    /// Removes the earliest event only if it fires at or before `deadline`.
    #[inline]
    pub fn pop_until(&mut self, deadline: Cycle) -> Option<(Cycle, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.find_min().map(|(_, _, at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many [`pop`](Self::pop)/[`peek_time`](Self::peek_time) calls
    /// fell back to the full linear scan because every pending event was
    /// beyond one wheel revolution. A persistently high rate means the
    /// wheel geometry no longer matches the workload's event horizon.
    pub fn full_scans(&self) -> u64 {
        self.full_scans.get()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("next_at", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 'a');
        q.push(Cycle(20), 'b');
        assert_eq!(q.pop_until(Cycle(15)), Some((Cycle(10), 'a')));
        assert_eq!(q.pop_until(Cycle(15)), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_empty() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(2), "b");
        q.push(Cycle(1), "a");
        assert_eq!(q.pop(), Some((Cycle(1), "a")));
        q.push(Cycle(1), "c"); // earlier than "b" even though pushed later
        assert_eq!(q.pop(), Some((Cycle(1), "c")));
        assert_eq!(q.pop(), Some((Cycle(2), "b")));
    }

    #[test]
    fn debug_nonempty() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), ());
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    /// Events scheduled more than a full wheel revolution ahead (and a mix
    /// of near/far pushes landing in the *same* wheel slot from different
    /// revolutions) must still pop in global time order.
    #[test]
    fn far_future_events_pop_in_order() {
        let span = (SLOTS as u64) << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        q.push(Cycle(7 * span + 3), 'd');
        q.push(Cycle(3), 'a'); // same slot as 'd', seven revolutions earlier
        q.push(Cycle(2 * span), 'b');
        q.push(Cycle(5 * span + 1), 'c');
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.pop(), Some((Cycle(3), 'a')));
        assert_eq!(q.pop(), Some((Cycle(2 * span), 'b')));
        assert_eq!(q.pop(), Some((Cycle(5 * span + 1), 'c')));
        assert_eq!(q.pop(), Some((Cycle(7 * span + 3), 'd')));
        assert_eq!(q.pop(), None);
    }

    /// The sparse-tail fallback is counted (and only the fallback — dense
    /// near-term traffic never touches it).
    #[test]
    fn full_scans_counts_sparse_tail_only() {
        let span = (SLOTS as u64) << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'a');
        q.push(Cycle(9 * span), 'b');
        // Dense near-term traffic: no fallback.
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        assert_eq!(q.full_scans(), 0);
        // The survivor is nine revolutions past the cursor (a push into
        // an *empty* queue would re-aim the cursor directly, so the far
        // event must coexist with the near one): one full scan finds it.
        assert_eq!(q.pop(), Some((Cycle(9 * span), 'b')));
        assert!(q.full_scans() >= 1);
    }

    /// Pushing an earlier event after the cursor has advanced past its
    /// bucket must rewind the cursor (the memoization is a hint only).
    #[test]
    fn push_into_past_rewinds_cursor() {
        let mut q = EventQueue::new();
        q.push(Cycle(10_000), 'z');
        assert_eq!(q.peek_time(), Some(Cycle(10_000)));
        q.push(Cycle(1), 'a');
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        assert_eq!(q.pop(), Some((Cycle(10_000), 'z')));
    }

    /// The original heap-based queue, kept as the ordering oracle for the
    /// equivalence proptest below.
    mod reference {
        use super::Cycle;
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        struct Entry<E> {
            at: Cycle,
            seq: u64,
            payload: E,
        }

        impl<E> PartialEq for Entry<E> {
            fn eq(&self, other: &Self) -> bool {
                self.at == other.at && self.seq == other.seq
            }
        }

        impl<E> Eq for Entry<E> {}

        impl<E> PartialOrd for Entry<E> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl<E> Ord for Entry<E> {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .at
                    .cmp(&self.at)
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }

        pub struct HeapQueue<E> {
            heap: BinaryHeap<Entry<E>>,
            next_seq: u64,
        }

        impl<E> HeapQueue<E> {
            pub fn new() -> Self {
                HeapQueue {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                }
            }

            pub fn push(&mut self, at: Cycle, payload: E) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.heap.push(Entry { at, seq, payload });
            }

            pub fn pop(&mut self) -> Option<(Cycle, E)> {
                self.heap.pop().map(|e| (e.at, e.payload))
            }

            #[inline]
            pub fn peek_time(&self) -> Option<Cycle> {
                self.heap.peek().map(|e| e.at)
            }

            pub fn len(&self) -> usize {
                self.heap.len()
            }
        }
    }

    mod prop {
        use super::reference::HeapQueue;
        use super::{Cycle, EventQueue, BUCKET_SHIFT, SLOTS};
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            /// Push one event at this cycle.
            Push(u64),
            /// Push a burst of events on the same cycle (FIFO tie-break
            /// stress).
            Burst(u64, u8),
            Pop,
            PopUntil(u64),
        }

        fn cycle_strategy() -> impl Strategy<Value = u64> {
            let span = (SLOTS as u64) << BUCKET_SHIFT;
            prop_oneof![
                // Dense near-term traffic, the simulator's common case.
                4 => 0u64..5_000,
                // Beyond one wheel revolution.
                2 => 0u64..20 * span,
                // Pathologically far future (sparse-tail fallback path).
                1 => 0u64..u64::MAX / 2,
            ]
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                3 => cycle_strategy().prop_map(Op::Push),
                1 => (cycle_strategy(), 2u8..6).prop_map(|(c, n)| Op::Burst(c, n)),
                3 => Just(Op::Pop),
                1 => cycle_strategy().prop_map(Op::PopUntil),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

            /// The calendar queue and the original binary heap must emit
            /// identical `(cycle, payload)` sequences — and agree on
            /// `peek_time`/`len` — under arbitrary interleaved traffic.
            #[test]
            fn calendar_matches_heap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
                let mut cal = EventQueue::new();
                let mut heap = HeapQueue::new();
                let mut payload = 0u32;
                for op in &ops {
                    match *op {
                        Op::Push(at) => {
                            cal.push(Cycle(at), payload);
                            heap.push(Cycle(at), payload);
                            payload += 1;
                        }
                        Op::Burst(at, n) => {
                            for _ in 0..n {
                                cal.push(Cycle(at), payload);
                                heap.push(Cycle(at), payload);
                                payload += 1;
                            }
                        }
                        Op::Pop => {
                            prop_assert_eq!(cal.pop(), heap.pop());
                        }
                        Op::PopUntil(deadline) => {
                            // Oracle semantics: pop only if due by deadline.
                            let expect = match heap.peek_time() {
                                Some(t) if t <= Cycle(deadline) => heap.pop(),
                                _ => None,
                            };
                            prop_assert_eq!(cal.pop_until(Cycle(deadline)), expect);
                        }
                    }
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    prop_assert_eq!(cal.len(), heap.len());
                }
                // Drain: the full remaining order must match exactly.
                while let Some(got) = cal.pop() {
                    prop_assert_eq!(Some(got), heap.pop());
                }
                prop_assert_eq!(heap.pop(), None);
                prop_assert!(cal.is_empty());
            }
        }
    }
}
