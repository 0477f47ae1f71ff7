//! Memory controllers: WPQ acceptance, drain to PM, dropping, crash flush.
//!
//! Each memory channel owns a Write Pending Queue (WPQ). Per §4.1 the WPQ
//! is inside the persistence domain (ADR flushes it on power failure), so a
//! persist operation is *complete* the moment it is accepted into the WPQ.
//! The channel drains accepted entries to the PM media at a bandwidth-
//! limited service rate; entries still in the WPQ can be *dropped* by the
//! §5.1 traffic optimizations (LPO dropping, DPO dropping) and then never
//! cost PM write traffic.
//!
//! Host-side hot-path structure: the WPQ is a seq-ordered `VecDeque` whose
//! front is always the in-flight entry (drain picks the minimum sequence
//! number, which is the front of a FIFO), and every channel keeps a
//! line-address index over all of its *live* ops — on the wire, queued
//! behind a full WPQ, or resting in the WPQ — so store-forwarding reads
//! ([`MemSystem::read_for_fill`]) are one hash lookup instead of a scan of
//! the WPQ, the pending queue, and the whole event queue.

use std::collections::VecDeque;

use asap_pmem::{AddrMap, LineAddr, MemoryImage};
use asap_sim::{Cycle, EventQueue, MemConfig, Stats, Trace, TraceEvent, TraceSettings};

use crate::persist::{MemEvent, OpId, PersistKind, PersistOp};
use crate::rid::Rid;

/// An accepted WPQ entry.
#[derive(Clone, Debug)]
struct WpqSlot {
    id: OpId,
    op: PersistOp,
    /// FIFO drain order within the channel.
    seq: u64,
    /// Acceptance time (drains after the residency window).
    accepted_at: Cycle,
}

/// Static counter name for a submission of `kind` — the same names
/// `format!("mem.submit.{}", kind.name())` produced, without a per-op
/// allocation on the submit hot path.
fn submit_counter(kind: PersistKind) -> &'static str {
    match kind {
        PersistKind::Lpo => "mem.submit.lpo",
        PersistKind::LogHeader => "mem.submit.log_header",
        PersistKind::Dpo => "mem.submit.dpo",
        PersistKind::WriteBack => "mem.submit.writeback",
        PersistKind::SwPersist => "mem.submit.sw_persist",
        PersistKind::Marker => "mem.submit.marker",
    }
}

/// Static counter name for a media write of `kind` (see [`submit_counter`]).
fn pm_write_counter(kind: PersistKind) -> &'static str {
    match kind {
        PersistKind::Lpo => "pm.write.lpo",
        PersistKind::LogHeader => "pm.write.log_header",
        PersistKind::Dpo => "pm.write.dpo",
        PersistKind::WriteBack => "pm.write.writeback",
        PersistKind::SwPersist => "pm.write.sw_persist",
        PersistKind::Marker => "pm.write.marker",
    }
}

/// Internal channel events.
#[derive(Clone, Debug)]
enum ChEvent {
    Arrive(OpId, PersistOp, Cycle),
    WriteDone(OpId),
    /// Residency expiry check: start draining if an entry is overdue.
    DrainCheck,
}

/// Freelist/list terminator for the store-forward node slab.
const FWD_NIL: u32 = u32::MAX;

/// One node of a per-line store-forward list, slab-allocated so indexing
/// and unindexing an op never touches the heap at steady state (the old
/// layout kept a `Vec` per live line, paying an allocation and a free for
/// every single-op line — i.e. for almost every persist op).
#[derive(Clone, Debug)]
struct FwdNode {
    id: OpId,
    data: [u8; 64],
    /// Next (newer) op targeting the same line, or [`FWD_NIL`].
    next: u32,
}

/// One memory channel: WPQ plus the PM write engine.
#[derive(Clone, Debug)]
struct Channel {
    capacity: usize,
    /// Accepted entries in sequence order. When `writing` is `Some`, the
    /// in-flight entry is always the front: drain selects the minimum
    /// sequence number, acceptance appends increasing sequence numbers, and
    /// drops never remove the in-flight entry.
    wpq: VecDeque<WpqSlot>,
    /// Arrived while the WPQ was full; accepted as slots free (FIFO).
    /// Each entry remembers its original submit time.
    pending: VecDeque<(OpId, PersistOp, Cycle)>,
    /// Entry currently being written to the media, if any.
    writing: Option<OpId>,
    next_seq: u64,
    /// Store-forward index: every live op targeting this channel (on the
    /// wire, pending, or in the WPQ), per line, as a `(head, tail)` list
    /// of slab nodes in submission-id order — the newest write to a line
    /// is the tail node. Maintained on submit, media write, drop, and
    /// crash flush.
    by_line: AddrMap<LineAddr, (u32, u32)>,
    /// Node arena for `by_line`, recycled through `fwd_free`.
    fwd_nodes: Vec<FwdNode>,
    fwd_free: Vec<u32>,
}

impl Channel {
    fn new(capacity: usize) -> Self {
        Channel {
            capacity,
            wpq: VecDeque::new(),
            pending: VecDeque::new(),
            writing: None,
            next_seq: 0,
            by_line: AddrMap::default(),
            fwd_nodes: Vec::new(),
            fwd_free: Vec::new(),
        }
    }

    fn has_free_slot(&self) -> bool {
        self.wpq.len() < self.capacity
    }

    /// Adds an op to the store-forward index. Ids are monotonic, so
    /// appending at the tail keeps each per-line list sorted by id.
    fn index(&mut self, line: LineAddr, id: OpId, data: [u8; 64]) {
        let node = FwdNode {
            id,
            data,
            next: FWD_NIL,
        };
        let n = match self.fwd_free.pop() {
            Some(n) => {
                self.fwd_nodes[n as usize] = node;
                n
            }
            None => {
                self.fwd_nodes.push(node);
                (self.fwd_nodes.len() - 1) as u32
            }
        };
        match self.by_line.entry(line) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let tail = e.get().1;
                self.fwd_nodes[tail as usize].next = n;
                e.get_mut().1 = n;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((n, n));
            }
        }
    }

    /// The newest live write to `line`, if any.
    fn newest(&self, line: LineAddr) -> Option<&[u8; 64]> {
        let (_, tail) = self.by_line.get(&line)?;
        Some(&self.fwd_nodes[*tail as usize].data)
    }

    /// Removes one op from the store-forward index (it left the live set).
    /// Per-line lists are short (usually one node: a drained op is the
    /// oldest for its line, i.e. the head), so the walk is effectively
    /// constant time.
    fn unindex(&mut self, line: LineAddr, id: OpId) {
        let &(head, tail) = self.by_line.get(&line).expect("live op must be indexed");
        let mut prev = FWD_NIL;
        let mut cur = head;
        loop {
            let n = &self.fwd_nodes[cur as usize];
            if n.id == id {
                break;
            }
            prev = cur;
            cur = n.next;
            assert_ne!(cur, FWD_NIL, "live op must be indexed");
        }
        let next = self.fwd_nodes[cur as usize].next;
        if prev == FWD_NIL {
            if next == FWD_NIL {
                self.by_line.remove(&line);
            } else {
                self.by_line.insert(line, (next, tail));
            }
        } else {
            self.fwd_nodes[prev as usize].next = next;
            if cur == tail {
                self.by_line.insert(line, (head, prev));
            }
        }
        self.fwd_free.push(cur);
    }

    /// Empties the store-forward index (crash flush). The node arena and
    /// map buckets keep their capacity for reuse after recovery.
    fn clear_index(&mut self) {
        self.by_line.clear();
        self.fwd_nodes.clear();
        self.fwd_free.clear();
    }
}

/// The memory system: all channels, their WPQs, and PM/DRAM timing.
///
/// Drive it with [`submit`](Self::submit) (send a persist op), then
/// [`advance_to`](Self::advance_to) (process internal events up to a time)
/// and [`pop_event`](Self::pop_event) (collect acceptance/write
/// notifications).
///
/// # Example
///
/// ```
/// use asap_mem::{MemSystem, PersistKind, PersistOp, MemEvent};
/// use asap_pmem::{LineAddr, MemoryImage, PM_BASE};
/// use asap_sim::{Cycle, SystemConfig};
///
/// let cfg = SystemConfig::small();
/// let mut image = MemoryImage::new();
/// let mut mem = MemSystem::new(&cfg);
/// let line = LineAddr(PM_BASE / 64);
/// let op = PersistOp::new(PersistKind::Dpo, line, [9u8; 64], None);
/// mem.submit(op, Cycle(0));
/// mem.advance_to(Cycle(10_000), &mut image);
/// assert!(matches!(mem.pop_event(), Some(MemEvent::Accepted { .. })));
/// assert!(matches!(mem.pop_event(), Some(MemEvent::PmWritten { .. })));
/// assert_eq!(image.read_line(line)[0], 9);
/// ```
pub struct MemSystem {
    cfg: MemConfig,
    channels: Vec<Channel>,
    /// Every pending internal event, tagged with the channel it belongs
    /// to. One wheel for all channels: events pop in global
    /// `(time, insertion-seq)` order.
    events: EventQueue<(u32, ChEvent)>,
    out: VecDeque<MemEvent>,
    next_id: u64,
    stats: Stats,
    trace: Trace,
    /// PM media writes per line, kept only when telemetry asks for the
    /// hottest-lines table (`None` = tracking off, zero overhead).
    line_writes: Option<AddrMap<LineAddr, u64>>,
    /// Events handled per channel (host metrics only, never on stdout).
    channel_events: Vec<u64>,
}

/// Snapshot support: a clone carries every piece of simulation state —
/// channels (WPQ, pending, forward index + node arenas), the calendar
/// wheel, the out queue, stats, trace, and hot-line counts — bit-exactly.
impl Clone for MemSystem {
    fn clone(&self) -> Self {
        MemSystem {
            cfg: self.cfg,
            channels: self.channels.clone(),
            events: self.events.clone(),
            out: self.out.clone(),
            next_id: self.next_id,
            stats: self.stats.clone(),
            trace: self.trace.clone(),
            line_writes: self.line_writes.clone(),
            channel_events: self.channel_events.clone(),
        }
    }

    /// Allocation-reusing restore: overwrites `self` in place so channel
    /// deques, wheel buckets, and index tables keep their buffers across
    /// repeated restores into the same scratch machine.
    fn clone_from(&mut self, src: &Self) {
        self.cfg = src.cfg;
        self.channels.clone_from(&src.channels);
        self.events.clone_from(&src.events);
        self.out.clone_from(&src.out);
        self.next_id = src.next_id;
        self.stats.clone_from(&src.stats);
        self.trace.clone_from(&src.trace);
        self.line_writes.clone_from(&src.line_writes);
        self.channel_events.clone_from(&src.channel_events);
    }
}

impl MemSystem {
    /// Builds the memory system from a full system configuration.
    pub fn new(cfg: &asap_sim::SystemConfig) -> Self {
        let mem = cfg.mem;
        let n = mem.num_channels() as usize;
        MemSystem {
            cfg: mem,
            channels: (0..n)
                .map(|_| Channel::new(mem.wpq_entries as usize))
                .collect(),
            events: EventQueue::new(),
            out: VecDeque::new(),
            next_id: 0,
            stats: Stats::new(),
            trace: Trace::disabled(),
            line_writes: None,
            channel_events: vec![0; n],
        }
    }

    /// Reconfigures event tracing (records `WpqAccept`/`WpqDrain` with the
    /// channel as the trace thread id).
    pub fn set_trace_settings(&mut self, settings: TraceSettings) {
        self.trace = Trace::new(settings);
    }

    /// Turns per-line PM write counting on or off (the telemetry report's
    /// hottest-lines table). Off by default; resets counts when toggled.
    pub fn set_hot_line_tracking(&mut self, on: bool) {
        self.line_writes = on.then(AddrMap::default);
    }

    /// The `n` most-written PM lines as `(line, media_writes)`, hottest
    /// first (ties by line address). Empty unless tracking is on.
    pub fn hottest_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let Some(map) = &self.line_writes else {
            return Vec::new();
        };
        let mut v: Vec<(u64, u64)> = map.iter().map(|(l, c)| (l.0, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// The memory-side event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The channel serving `line` (interleaved by line address).
    pub fn channel_of(&self, line: LineAddr) -> u32 {
        (line.0 % self.channels.len() as u64) as u32
    }

    /// Submits a persist operation at time `now`; it arrives at its channel
    /// one on-chip hop later. Returns the op's id.
    pub fn submit(&mut self, op: PersistOp, now: Cycle) -> OpId {
        let id = OpId(self.next_id);
        self.next_id += 1;
        let ch = self.channel_of(op.target);
        self.stats.bump(submit_counter(op.kind));
        self.channels[ch as usize].index(op.target, id, op.data);
        self.events.push(
            now + self.cfg.mc_hop_latency,
            (ch, ChEvent::Arrive(id, op, now)),
        );
        id
    }

    /// Latency of a demand read of `line` (beyond the LLC lookup): one hop
    /// to the controller plus the media access.
    pub fn read_latency(&self, line: LineAddr) -> u64 {
        let media = if line.is_pm_region() {
            self.cfg.pm_latency()
        } else {
            self.cfg.dram_latency
        };
        self.cfg.mc_hop_latency + media
    }

    /// Reads `line` for a cache fill, forwarding the newest matching write
    /// wherever it currently is — resting in the WPQ, queued behind a full
    /// WPQ, or still on the wire to its controller — before falling back
    /// to the image. (A line evicted and immediately re-read must observe
    /// its own writeback.) Returns the line data and its page-table
    /// persistent bit.
    pub fn read_for_fill(&mut self, line: LineAddr, image: &MemoryImage) -> ([u8; 64], bool) {
        let ch = &self.channels[self.channel_of(line) as usize];
        // The per-line node list is in submission order, so the newest
        // matching write — wherever it currently travels — is the tail.
        let newest = ch.newest(line);
        let pbit = image.line_is_persistent(line);
        match newest {
            Some(data) => {
                let data = *data;
                self.stats.bump("mem.read.forwarded");
                (data, pbit)
            }
            None => (image.read_line(line), pbit),
        }
    }

    /// Advances internal channel state to `now`, applying media writes to
    /// `image` and queueing [`MemEvent`]s for [`pop_event`](Self::pop_event).
    pub fn advance_to(&mut self, now: Cycle, image: &mut MemoryImage) {
        while let Some((t, (ch, ev))) = self.events.pop_until(now) {
            self.channel_events[ch as usize] += 1;
            self.handle(t, ch, ev, image);
        }
    }

    /// Next internal event time, if any work is outstanding.
    pub fn next_event_time(&self) -> Option<Cycle> {
        self.events.peek_time()
    }

    /// Pops the next acceptance / PM-write notification.
    pub fn pop_event(&mut self) -> Option<MemEvent> {
        self.out.pop_front()
    }

    /// Whether all channels are fully drained and no events are pending.
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
            && self.out.is_empty()
            && self
                .channels
                .iter()
                .all(|c| c.wpq.is_empty() && c.pending.is_empty() && c.writing.is_none())
    }

    /// Handles one channel event.
    fn handle(&mut self, t: Cycle, ch: u32, ev: ChEvent, image: &mut MemoryImage) {
        match ev {
            ChEvent::Arrive(id, op, submitted) => {
                let c = &mut self.channels[ch as usize];
                if c.has_free_slot() {
                    self.accept(t, ch, id, op, submitted);
                } else {
                    c.pending.push_back((id, op, submitted));
                    self.stats.bump("mem.wpq.full_arrival");
                }
                self.maybe_start_write(t, ch);
            }
            ChEvent::WriteDone(id) => {
                let c = &mut self.channels[ch as usize];
                debug_assert_eq!(c.writing, Some(id), "write-done for wrong op");
                c.writing = None;
                let slot = c.wpq.pop_front().expect("in-flight slot missing");
                debug_assert_eq!(slot.id, id, "in-flight slot must be the front");
                c.unindex(slot.op.target, slot.id);
                image.write_line(slot.op.target, &slot.op.data);
                self.stats.bump(pm_write_counter(slot.op.kind));
                self.stats.bump("pm.write.total");
                if let Some(map) = &mut self.line_writes {
                    *map.entry(slot.op.target).or_insert(0) += 1;
                }
                let residency = t.since(slot.accepted_at);
                self.stats.sample("mem.wpq.residency_cycles", residency);
                self.trace.emit(
                    t,
                    ch,
                    TraceEvent::WpqDrain {
                        channel: ch,
                        kind: slot.op.kind.name(),
                        residency,
                    },
                );
                self.out.push_back(MemEvent::PmWritten {
                    id: slot.id,
                    op: slot.op,
                    at: t,
                });
                // A slot freed: accept the oldest pending arrival, if any.
                if let Some((pid, pop, psub)) = self.channels[ch as usize].pending.pop_front() {
                    self.accept(t, ch, pid, pop, psub);
                }
                self.maybe_start_write(t, ch);
            }
            ChEvent::DrainCheck => self.maybe_start_write(t, ch),
        }
    }

    /// Accepts an op into channel `ch`'s WPQ — the §4.1 durability point.
    fn accept(&mut self, t: Cycle, ch: u32, id: OpId, op: PersistOp, submitted: Cycle) {
        let c = &mut self.channels[ch as usize];
        debug_assert!(c.has_free_slot());
        let seq = c.next_seq;
        c.next_seq += 1;
        c.wpq.push_back(WpqSlot {
            id,
            op,
            seq,
            accepted_at: t,
        });
        self.stats.sample("mem.wpq.occupancy", c.wpq.len() as u64);
        // Persist latency: submit to persistence-domain acceptance (the
        // durability point under ADR, §4.1).
        self.stats.sample("mem.persist.latency", t.since(submitted));
        self.trace.emit(
            t,
            ch,
            TraceEvent::WpqAccept {
                channel: ch,
                kind: op.kind.name(),
            },
        );
        if self.cfg.wpq_residency > 0 {
            // Lazy drain: revisit this entry when its residency expires.
            self.events
                .push(t + self.cfg.wpq_residency, (ch, ChEvent::DrainCheck));
        }
        self.out.push_back(MemEvent::Accepted {
            id,
            op,
            at: t,
            ack_at: t + self.cfg.mc_hop_latency,
        });
    }

    /// Starts draining channel `ch` if warranted: always when an entry is
    /// past its residency window or the queue is above the watermark;
    /// immediately when residency is 0 (eager mode).
    fn maybe_start_write(&mut self, t: Cycle, ch: u32) {
        let c = &mut self.channels[ch as usize];
        if c.writing.is_some() {
            return;
        }
        // No write in flight, so the oldest (minimum-seq) entry is the
        // front of the seq-ordered queue.
        let Some(slot) = c.wpq.front() else {
            return;
        };
        let residency = self.cfg.wpq_residency;
        let due = residency == 0
            || c.wpq.len() >= self.cfg.wpq_drain_watermark as usize
            || slot.accepted_at + residency <= t;
        if due {
            let id = slot.id;
            c.writing = Some(id);
            self.events.push(
                t + self.cfg.pm_write_service(),
                (ch, ChEvent::WriteDone(id)),
            );
        }
    }

    /// Drops a committed region's log writes (LPOs and log headers) still
    /// sitting in WPQs — LPO dropping, §5.1. Returns how many were dropped.
    pub fn drop_log_writes_of(&mut self, rid: Rid) -> u64 {
        let mut dropped = 0;
        for ch_idx in 0..self.channels.len() {
            dropped += self.drop_matching(ch_idx, |op| {
                matches!(op.kind, PersistKind::Lpo | PersistKind::LogHeader) && op.rid == Some(rid)
            });
        }
        self.stats.add("pm.drop.lpo", dropped);
        dropped
    }

    /// Drops an earlier region's pending DPO to `line` when a later
    /// region's LPO for the same line arrives (they carry the same bytes) —
    /// DPO dropping, §5.1. Returns how many were dropped (0 or 1).
    pub fn drop_pending_dpo(&mut self, line: LineAddr, later_region: Rid) -> u64 {
        let ch_idx = self.channel_of(line) as usize;
        let dropped = self.drop_matching(ch_idx, |op| {
            op.kind == PersistKind::Dpo && op.target == line && op.rid != Some(later_region)
        });
        self.stats.add("pm.drop.dpo", dropped);
        dropped
    }

    /// Removes all non-in-flight WPQ slots matching `pred`; frees slots are
    /// refilled from the pending queue. Dropped ops emit no events.
    fn drop_matching(&mut self, ch_idx: usize, pred: impl Fn(&PersistOp) -> bool) -> u64 {
        let writing = self.channels[ch_idx].writing;
        let mut removed: Vec<(LineAddr, OpId)> = Vec::new();
        self.channels[ch_idx].wpq.retain(|s| {
            if Some(s.id) == writing || !pred(&s.op) {
                true
            } else {
                removed.push((s.op.target, s.id));
                false
            }
        });
        let dropped = removed.len() as u64;
        for (line, id) in removed {
            self.channels[ch_idx].unindex(line, id);
        }
        for _ in 0..dropped {
            if !self.channels[ch_idx].has_free_slot() {
                break;
            }
            match self.channels[ch_idx].pending.pop_front() {
                Some((pid, pop, psub)) => {
                    // Accept at the time the channel last made progress; we
                    // use the next event horizon conservatively: acceptance
                    // is immediate bookkeeping, timestamped "now-ish" via
                    // the earliest pending event or zero. The scheme only
                    // cares about ordering, which is preserved.
                    let t = self.events.peek_time().unwrap_or(Cycle::ZERO);
                    self.accept(t, ch_idx as u32, pid, pop, psub);
                }
                None => break,
            }
        }
        dropped
    }

    /// Power failure: ADR flushes every accepted WPQ entry (including the
    /// in-flight one) to the media. Unaccepted pending arrivals are lost.
    /// Internal state is cleared.
    pub fn flush_to_image(&mut self, image: &mut MemoryImage) {
        for ch in &mut self.channels {
            // The WPQ is kept in seq order, so iterating front-to-back
            // applies same-line writes oldest-first (the newest wins).
            let slots = std::mem::take(&mut ch.wpq);
            debug_assert!(slots
                .iter()
                .zip(slots.iter().skip(1))
                .all(|(a, b)| a.seq < b.seq));
            for s in &slots {
                image.write_line(s.op.target, &s.op.data);
                self.stats.bump("crash.flushed");
            }
            let lost = ch.pending.len() as u64;
            self.stats.add("crash.lost_unaccepted", lost);
            ch.pending.clear();
            ch.writing = None;
            // Every live op either reached the image (WPQ) or was lost
            // (pending / on the wire): nothing is forwardable any more.
            ch.clear_index();
        }
        // Ops still travelling to their controller (unprocessed arrival
        // events) never reached the persistence domain either.
        let mut on_the_wire = 0;
        while let Some((_, (_, ev))) = self.events.pop() {
            if matches!(ev, ChEvent::Arrive(..)) {
                on_the_wire += 1;
            }
        }
        self.stats.add("crash.lost_unaccepted", on_the_wire);
        self.out.clear();
    }

    /// WPQ occupancy of channel `ch` (accepted entries).
    pub fn wpq_len(&self, ch: u32) -> usize {
        self.channels[ch as usize].wpq.len()
    }

    /// Unaccepted arrivals queued at channel `ch`.
    pub fn pending_len(&self, ch: u32) -> usize {
        self.channels[ch as usize].pending.len()
    }

    /// Number of channels.
    pub fn num_channels(&self) -> u32 {
        self.channels.len() as u32
    }

    /// Statistics accumulated by the memory system.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// High-water mark of the store-forward node slab across channels.
    /// The slab only grows (freed nodes go to a freelist), so its length
    /// *is* the high-water mark of concurrently live ops per channel.
    pub fn fwd_slab_hwm(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.fwd_nodes.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Sparse-tail full scans performed by the event calendar (see
    /// [`EventQueue::full_scans`]).
    pub fn calendar_full_scans(&self) -> u64 {
        self.events.full_scans()
    }

    /// Events handled so far, per channel (host metrics only).
    pub fn channel_events(&self) -> &[u64] {
        &self.channel_events
    }

    /// Counts DRAM traffic for a dirty non-PM writeback (fire-and-forget:
    /// DRAM writes are not persist operations and skip the WPQ).
    pub fn dram_writeback(&mut self, image: &mut MemoryImage, line: LineAddr, data: &[u8; 64]) {
        image.write_line(line, data);
        self.stats.bump("dram.write.writeback");
    }
}

impl std::fmt::Debug for MemSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSystem")
            .field("channels", &self.channels.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pmem::PM_BASE;
    use asap_sim::SystemConfig;

    fn pm_line(i: u64) -> LineAddr {
        LineAddr(PM_BASE / 64 + i)
    }

    /// Small config with the hop pinned to 16 cycles and eager draining so
    /// the exact-time assertions below stay readable.
    fn test_cfg() -> SystemConfig {
        let mut c = SystemConfig::small();
        c.mem.mc_hop_latency = 16;
        c.mem.wpq_residency = 0;
        c
    }

    fn setup() -> (MemSystem, MemoryImage) {
        (MemSystem::new(&test_cfg()), MemoryImage::new())
    }

    fn dpo(line: LineAddr, byte: u8, rid: Option<Rid>) -> PersistOp {
        PersistOp::new(PersistKind::Dpo, line, [byte; 64], rid)
    }

    #[test]
    fn accept_then_write_reaches_image() {
        let (mut mem, mut image) = setup();
        mem.submit(dpo(pm_line(0), 5, None), Cycle(0));
        mem.advance_to(Cycle(100_000), &mut image);
        let mut accepted = 0;
        let mut written = 0;
        while let Some(e) = mem.pop_event() {
            match e {
                MemEvent::Accepted { at, ack_at, .. } => {
                    accepted += 1;
                    assert_eq!(at, Cycle(16)); // one hop
                    assert_eq!(ack_at, Cycle(32));
                }
                MemEvent::PmWritten { at, .. } => {
                    written += 1;
                    assert_eq!(at, Cycle(16 + 12)); // + write service
                }
            }
        }
        assert_eq!((accepted, written), (1, 1));
        assert_eq!(image.read_line(pm_line(0))[0], 5);
        assert!(mem.is_idle());
    }

    #[test]
    fn wpq_backpressure_queues_arrivals() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 2;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        for i in 0..5 {
            mem.submit(dpo(pm_line(i), i as u8, None), Cycle(0));
        }
        // Advance just past arrival: only 2 accepted, 3 pending.
        mem.advance_to(Cycle(16), &mut image);
        assert_eq!(mem.wpq_len(0), 2);
        assert_eq!(mem.pending_len(0), 3);
        // Full drain accepts and writes everything.
        mem.advance_to(Cycle(100_000), &mut image);
        assert_eq!(mem.wpq_len(0), 0);
        assert_eq!(mem.stats().get("pm.write.total"), 5);
        assert_eq!(mem.stats().get("mem.wpq.full_arrival"), 3);
    }

    #[test]
    fn drain_is_bandwidth_limited() {
        let mut cfg = test_cfg();
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        for i in 0..4 {
            mem.submit(dpo(pm_line(i), 0, None), Cycle(0));
        }
        mem.advance_to(Cycle(1_000_000), &mut image);
        let mut last_write = Cycle::ZERO;
        let mut writes = Vec::new();
        while let Some(e) = mem.pop_event() {
            if let MemEvent::PmWritten { at, .. } = e {
                writes.push(at);
                last_write = at;
            }
        }
        assert_eq!(writes.len(), 4);
        // Serial service: 16 (hop) + 12*k.
        assert_eq!(last_write, Cycle(16 + 12 * 4));
    }

    #[test]
    fn pm_latency_multiplier_slows_service() {
        let cfg = test_cfg().with_pm_latency_mult(4);
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 0, None), Cycle(0));
        mem.advance_to(Cycle(1_000_000), &mut image);
        let mut written_at = None;
        while let Some(e) = mem.pop_event() {
            if let MemEvent::PmWritten { at, .. } = e {
                written_at = Some(at);
            }
        }
        assert_eq!(written_at, Some(Cycle(16 + 48)));
        assert_eq!(mem.read_latency(pm_line(0)), 16 + 600);
        assert_eq!(mem.read_latency(LineAddr(0)), 16 + 150); // DRAM side
    }

    #[test]
    fn read_forwards_from_wpq() {
        let (mut mem, mut image) = setup();
        image.write_line(pm_line(8), &[1u8; 64]);
        mem.submit(dpo(pm_line(8), 2, None), Cycle(0));
        mem.advance_to(Cycle(17), &mut image); // accepted, not yet written
        let (data, _) = mem.read_for_fill(pm_line(8), &image);
        assert_eq!(data[0], 2);
        assert_eq!(mem.stats().get("mem.read.forwarded"), 1);
    }

    #[test]
    fn read_forwards_newest_entry() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(4), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(4), 2, None), Cycle(0));
        mem.advance_to(Cycle(16), &mut image); // first accepted, second pending
        let (data, _) = mem.read_for_fill(pm_line(4), &image);
        assert_eq!(data[0], 2, "must forward the newest (pending) write");
    }

    #[test]
    fn read_forwards_from_ops_still_on_the_wire() {
        let (mut mem, mut image) = setup();
        image.write_line(pm_line(8), &[1u8; 64]);
        mem.submit(dpo(pm_line(8), 3, None), Cycle(0));
        // Do NOT advance: the op has not even arrived at its controller.
        let (data, _) = mem.read_for_fill(pm_line(8), &image);
        assert_eq!(
            data[0], 3,
            "a just-evicted line must read its own writeback"
        );
    }

    #[test]
    fn forwarding_stops_once_the_write_reaches_media() {
        let (mut mem, mut image) = setup();
        mem.submit(dpo(pm_line(8), 4, None), Cycle(0));
        mem.advance_to(Cycle(100_000), &mut image); // accepted and drained
        let (data, _) = mem.read_for_fill(pm_line(8), &image);
        assert_eq!(data[0], 4, "data now comes from the image");
        assert_eq!(
            mem.stats().get("mem.read.forwarded"),
            0,
            "a drained op must leave the store-forward index"
        );
    }

    #[test]
    fn dropped_op_is_not_forwarded() {
        let (mut mem, mut image) = setup();
        let r1 = Rid::new(0, 1);
        let r2 = Rid::new(0, 2);
        image.write_line(pm_line(0), &[9u8; 64]);
        // Sacrificial op occupies the write engine so the next one stays
        // droppable in the WPQ.
        mem.submit(dpo(pm_line(4), 0, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 1, Some(r1)), Cycle(0));
        mem.advance_to(Cycle(16), &mut image);
        assert_eq!(mem.drop_pending_dpo(pm_line(0), r2), 1);
        let (data, _) = mem.read_for_fill(pm_line(0), &image);
        assert_eq!(data[0], 9, "dropped write must not forward; image wins");
        assert_eq!(mem.stats().get("mem.read.forwarded"), 0);
    }

    #[test]
    fn crash_flush_clears_the_forward_index() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 1;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(1), 2, None), Cycle(0)); // stays pending
        mem.advance_to(Cycle(16), &mut image);
        mem.flush_to_image(&mut image);
        // Neither the flushed op (now in the image) nor the lost pending
        // op may forward after the crash.
        let (a, _) = mem.read_for_fill(pm_line(0), &image);
        let (b, _) = mem.read_for_fill(pm_line(1), &image);
        assert_eq!((a[0], b[0]), (1, 0));
        assert_eq!(mem.stats().get("mem.read.forwarded"), 0);
    }

    #[test]
    fn read_falls_back_to_image() {
        let (mut mem, mut image) = setup();
        image.write_line(pm_line(3), &[9u8; 64]);
        image.mark_persistent(pm_line(3).base(), 64);
        let (data, pbit) = mem.read_for_fill(pm_line(3), &image);
        assert_eq!(data[0], 9);
        assert!(pbit);
    }

    #[test]
    fn lpo_dropping_removes_region_log_writes() {
        let (mut mem, mut image) = setup();
        let rid = Rid::new(0, 1);
        let nch = mem.num_channels() as u64;
        // All ops on one channel; the first occupies the write engine so
        // the rest stay droppable in the WPQ.
        mem.submit(dpo(pm_line(0), 0, None), Cycle(0));
        let mut lpo = PersistOp::new(PersistKind::Lpo, pm_line(nch), [1; 64], Some(rid));
        lpo.logged_data_line = Some(pm_line(9));
        mem.submit(lpo, Cycle(0));
        mem.submit(
            PersistOp::new(PersistKind::LogHeader, pm_line(2 * nch), [2; 64], Some(rid)),
            Cycle(0),
        );
        mem.submit(dpo(pm_line(3 * nch), 3, Some(rid)), Cycle(0));
        mem.advance_to(Cycle(16), &mut image); // all accepted, first in flight
        while mem.pop_event().is_some() {}
        let dropped = mem.drop_log_writes_of(rid);
        assert_eq!(dropped, 2, "both log writes dropped");
        mem.advance_to(Cycle(100_000), &mut image);
        let log_writes = mem.stats().get("pm.write.lpo") + mem.stats().get("pm.write.log_header");
        assert_eq!(log_writes, 0);
        assert_eq!(mem.stats().get("pm.write.dpo"), 2); // DPOs untouched
    }

    #[test]
    fn dpo_dropping_matches_line_and_skips_own_region() {
        let (mut mem, mut image) = setup();
        let r1 = Rid::new(0, 1);
        let r2 = Rid::new(0, 2);
        // Occupy the write engine with an unrelated sacrificial op so the
        // DPO of interest stays droppable (not in flight).
        mem.submit(dpo(pm_line(4), 0, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 1, Some(r1)), Cycle(0));
        mem.advance_to(Cycle(16), &mut image);
        assert_eq!(
            mem.drop_pending_dpo(pm_line(0), r1),
            0,
            "own region's DPO kept"
        );
        assert_eq!(mem.drop_pending_dpo(pm_line(8), r2), 0, "other line kept");
        assert_eq!(
            mem.drop_pending_dpo(pm_line(0), r2),
            1,
            "earlier region's DPO dropped"
        );
        mem.advance_to(Cycle(100_000), &mut image);
        assert_eq!(mem.stats().get("pm.write.dpo"), 1); // only sacrificial one
        assert_eq!(mem.stats().get("pm.drop.dpo"), 1);
    }

    #[test]
    fn crash_flush_applies_accepted_discards_pending() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 1;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(1), 2, None), Cycle(0));
        mem.advance_to(Cycle(16), &mut image); // first accepted, second pending
        mem.flush_to_image(&mut image);
        assert_eq!(
            image.read_line(pm_line(0))[0],
            1,
            "accepted entry flushed (ADR)"
        );
        assert_eq!(image.read_line(pm_line(1))[0], 0, "unaccepted entry lost");
        assert_eq!(mem.stats().get("crash.flushed"), 1);
        assert_eq!(mem.stats().get("crash.lost_unaccepted"), 1);
        assert!(mem.is_idle());
    }

    #[test]
    fn same_line_writes_apply_in_order_on_flush() {
        let (mut mem, mut image) = setup();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 2, None), Cycle(0));
        mem.advance_to(Cycle(16), &mut image);
        mem.flush_to_image(&mut image);
        assert_eq!(image.read_line(pm_line(0))[0], 2, "newest write wins");
    }

    #[test]
    fn channel_interleaving_by_line() {
        let (mem, _) = setup();
        let n = mem.num_channels() as u64;
        assert!(n >= 2);
        assert_ne!(mem.channel_of(LineAddr(0)), mem.channel_of(LineAddr(1)));
        assert_eq!(mem.channel_of(LineAddr(0)), mem.channel_of(LineAddr(n)));
    }

    #[test]
    fn lazy_drain_waits_for_residency() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_residency = 500;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        // Long after acceptance but before residency expiry: still queued.
        mem.advance_to(Cycle(400), &mut image);
        assert_eq!(mem.stats().get("pm.write.total"), 0, "write rests in WPQ");
        assert_eq!(mem.wpq_len(mem.channel_of(pm_line(0))), 1);
        // After expiry it drains.
        mem.advance_to(Cycle(10_000), &mut image);
        assert_eq!(mem.stats().get("pm.write.total"), 1);
        assert_eq!(image.read_line(pm_line(0))[0], 1);
    }

    #[test]
    fn lazy_drain_gives_drops_a_window() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_residency = 1000;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        let rid = Rid::new(0, 1);
        mem.submit(
            PersistOp::new(PersistKind::Lpo, pm_line(0), [1; 64], Some(rid)),
            Cycle(0),
        );
        mem.advance_to(Cycle(200), &mut image); // accepted, resting
        assert_eq!(mem.drop_log_writes_of(rid), 1, "droppable while resting");
        mem.advance_to(Cycle(10_000), &mut image);
        assert_eq!(
            mem.stats().get("pm.write.total"),
            0,
            "dropped, never written"
        );
    }

    #[test]
    fn watermark_overrides_residency() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_residency = 100_000;
        cfg.mem.wpq_drain_watermark = 2;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        for i in 0..4 {
            mem.submit(dpo(pm_line(i), i as u8, None), Cycle(0));
        }
        // Occupancy (4) exceeds the watermark (2): drains without waiting
        // out the residency.
        mem.advance_to(Cycle(5_000), &mut image);
        assert!(mem.stats().get("pm.write.total") >= 2);
    }

    #[test]
    fn dram_writeback_is_immediate() {
        let (mut mem, mut image) = setup();
        mem.dram_writeback(&mut image, LineAddr(5), &[3u8; 64]);
        assert_eq!(image.read_line(LineAddr(5))[0], 3);
        assert_eq!(mem.stats().get("dram.write.writeback"), 1);
        assert_eq!(mem.stats().get("pm.write.total"), 0);
    }

    #[test]
    fn fwd_slab_reuses_nodes_after_drain() {
        let mut cfg = test_cfg();
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        // Warm up: a burst of ops grows the node slab, then drains fully.
        for round in 0..3u64 {
            for i in 0..8 {
                mem.submit(dpo(pm_line(i), round as u8, None), Cycle(round * 10_000));
            }
            mem.advance_to(Cycle((round + 1) * 10_000 - 1), &mut image);
        }
        let ch = &mem.channels[0];
        assert!(ch.by_line.is_empty(), "all ops drained");
        let arena = ch.fwd_nodes.len();
        assert_eq!(ch.fwd_free.len(), arena, "every node back on the freelist");
        // Steady state: the same traffic shape must not grow the arena.
        for i in 0..8 {
            mem.submit(dpo(pm_line(i), 9, None), Cycle(40_000));
        }
        mem.advance_to(Cycle(50_000), &mut image);
        let ch = &mem.channels[0];
        assert_eq!(ch.fwd_nodes.len(), arena, "nodes recycled, none allocated");
        assert_eq!(ch.fwd_free.len(), arena);
    }

    #[test]
    fn fwd_slab_resets_on_crash_flush() {
        let (mut mem, mut image) = setup();
        for i in 0..6 {
            mem.submit(dpo(pm_line(i), i as u8, None), Cycle(0));
        }
        mem.advance_to(Cycle(20), &mut image); // some accepted, none drained
        mem.flush_to_image(&mut image);
        for ch in &mem.channels {
            assert!(ch.by_line.is_empty(), "index emptied by crash flush");
            assert!(ch.fwd_nodes.is_empty());
            assert!(ch.fwd_free.is_empty());
        }
        // Post-recovery traffic rebuilds the index from scratch.
        mem.submit(dpo(pm_line(0), 7, None), Cycle(100));
        let (data, _) = mem.read_for_fill(pm_line(0), &image);
        assert_eq!(data[0], 7);
    }

    #[test]
    fn fwd_list_removal_handles_middle_and_tail() {
        // Three live ops on one line (wpq_entries=1 keeps two pending), then
        // drain them one at a time: unindex removes head, middle, and tail
        // positions while read_for_fill keeps seeing the newest write.
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 1;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 2, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 3, None), Cycle(0));
        for _ in 0..3 {
            let (data, _) = mem.read_for_fill(pm_line(0), &image);
            assert_eq!(data[0], 3, "newest live write forwards");
            let before = mem.stats().get("pm.write.total");
            let mut t = 16;
            while mem.stats().get("pm.write.total") == before {
                t += 1;
                mem.advance_to(Cycle(t), &mut image);
                assert!(t < 1_000_000, "drain must make progress");
            }
        }
        assert!(mem.channels[0].by_line.is_empty());
        assert_eq!(image.read_line(pm_line(0))[0], 3, "newest wins on media");
    }
}
