//! Functional equivalence of the cache hierarchy + memory system against
//! a flat shadow memory.
//!
//! Whatever the timing model does — evictions, write-backs resting in
//! WPQs, ops on the wire, channel backpressure — a read must always
//! return the newest architectural value. Tiny caches force constant
//! evictions; random advances interleave drain states.
//!
//! The same harness checks the snapshot restore path: `clone_from` into a
//! machine that ran a different suffix must continue exactly like a fresh
//! `clone`.

use std::collections::HashMap;

use asap_mem::cache::AccessKind;
use asap_mem::{CacheHierarchy, MemSystem, PersistKind, PersistOp};
use asap_pmem::{LineAddr, MemoryImage, PM_BASE};
use asap_sim::{CacheConfig, Cycle, SystemConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Write { core: u8, line: u64, value: u8 },
    Read { core: u8, line: u64 },
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..2, 0u64..96, 1u8..=255).prop_map(|(core, line, value)| Op::Write {
            core,
            line,
            value
        }),
        3 => (0u8..2, 0u64..96).prop_map(|(core, line)| Op::Read { core, line }),
        1 => (1u64..3000).prop_map(Op::Advance),
    ]
}

/// A micro machine: tiny caches over the real memory system, mirroring
/// the write/read paths the core crate uses.
struct Micro {
    caches: CacheHierarchy,
    mem: MemSystem,
    image: MemoryImage,
    now: Cycle,
    /// Every memory event popped so far, rendered with `Debug`.
    popped: Vec<String>,
}

impl Clone for Micro {
    fn clone(&self) -> Self {
        Micro {
            caches: self.caches.clone(),
            mem: self.mem.clone(),
            image: self.image.clone(),
            now: self.now,
            popped: self.popped.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.caches.clone_from(&src.caches);
        self.mem.clone_from(&src.mem);
        self.image.clone_from(&src.image);
        self.now = src.now;
        self.popped.clone_from(&src.popped);
    }
}

impl Micro {
    fn new(residency: u64) -> Self {
        let mut cfg = SystemConfig::small();
        // Absurdly small caches: 16-line LLC over a 96-line working set.
        cfg.l1 = CacheConfig {
            size_bytes: 4 * 64,
            ways: 2,
            latency: 4,
        };
        cfg.l2 = CacheConfig {
            size_bytes: 8 * 64,
            ways: 2,
            latency: 14,
        };
        cfg.llc = CacheConfig {
            size_bytes: 16 * 64,
            ways: 4,
            latency: 42,
        };
        cfg.mem.wpq_entries = 2;
        cfg.mem.wpq_residency = residency;
        cfg.mem.wpq_drain_watermark = 1;
        let mut image = MemoryImage::new();
        image.mark_persistent(asap_pmem::PmAddr(PM_BASE), 96 * 64);
        Micro {
            caches: CacheHierarchy::new(&cfg),
            mem: MemSystem::new(&cfg),
            image,
            now: Cycle(0),
            popped: Vec::new(),
        }
    }

    fn pop_all(&mut self) {
        while let Some(e) = self.mem.pop_event() {
            self.popped.push(format!("{e:?}"));
        }
    }

    fn line(&self, i: u64) -> LineAddr {
        LineAddr(PM_BASE / 64 + i)
    }

    fn access(&mut self, core: usize, line: LineAddr, kind: AccessKind) {
        self.mem.advance_to(self.now, &mut self.image);
        self.pop_all();
        let (fill, miss) = if self.caches.peek_level(core, line) == asap_mem::HitLevel::Memory {
            (
                Some(self.mem.read_for_fill(line, &self.image)),
                self.mem.read_latency(line),
            )
        } else {
            (None, 0)
        };
        let access = self.caches.access(core, line, kind, fill, miss);
        self.now += access.latency;
        if let Some(e) = access.evicted {
            if e.state.dirty {
                let op = PersistOp::new(PersistKind::WriteBack, e.line, e.state.data, None);
                self.mem.submit(op, self.now);
            }
        }
    }

    fn write(&mut self, core: usize, line: LineAddr, value: u8) {
        self.access(core, line, AccessKind::Store);
        let st = self.caches.line_mut(line).expect("filled");
        st.data = [value; 64];
        st.dirty = true;
    }

    fn read(&mut self, core: usize, line: LineAddr) -> u8 {
        self.access(core, line, AccessKind::Load);
        self.caches.line(line).expect("filled").data[0]
    }

    fn advance(&mut self, d: u64) {
        self.now += d;
        self.mem.advance_to(self.now, &mut self.image);
        self.pop_all();
    }

    fn drain(&mut self) {
        while let Some(t) = self.mem.next_event_time() {
            self.mem.advance_to(t, &mut self.image);
            self.pop_all();
        }
    }

    /// Runs `ops`, returning what each read saw.
    fn run(&mut self, ops: &[Op]) -> Vec<u8> {
        let mut reads = Vec::new();
        for op in ops {
            match *op {
                Op::Write { core, line, value } => {
                    self.write(core as usize, self.line(line), value)
                }
                Op::Read { core, line } => reads.push(self.read(core as usize, self.line(line))),
                Op::Advance(d) => self.advance(d),
            }
        }
        reads
    }

    /// Everything a continued run can observe: event log, clock, stats,
    /// cache contents and memory contents.
    fn observe(&self) -> (Vec<String>, Cycle, String, Vec<String>, Vec<[u8; 64]>) {
        let mut lines: Vec<String> = self
            .caches
            .lines()
            .map(|(l, st)| format!("{l:?} {:?} {} {}", st.data[0], st.dirty, st.pbit))
            .collect();
        lines.sort();
        lines.push(format!("{:?}", self.caches.eviction_counts()));
        let image = (0..96)
            .map(|i| self.image.read_line(self.line(i)))
            .collect();
        (
            self.popped.clone(),
            self.now,
            self.mem.stats().to_exact_json(),
            lines,
            image,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn caches_plus_wpq_equal_flat_memory(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        residency in prop_oneof![Just(0u64), Just(120), Just(4_000)],
    ) {
        let mut m = Micro::new(residency);
        let mut shadow: HashMap<u64, u8> = HashMap::new();
        for op in &ops {
            match op {
                Op::Write { core, line, value } => {
                    let l = m.line(*line);
                    m.write(*core as usize, l, *value);
                    shadow.insert(*line, *value);
                }
                Op::Read { core, line } => {
                    let l = m.line(*line);
                    let got = m.read(*core as usize, l);
                    let want = shadow.get(line).copied().unwrap_or(0);
                    prop_assert_eq!(
                        got, want,
                        "line {} read {} want {} (residency {})",
                        line, got, want, residency
                    );
                }
                Op::Advance(d) => m.advance(*d),
            }
        }
        // Final check: after a full drain, the image agrees for every
        // line not still dirty in the cache.
        m.drain();
        for (line, want) in &shadow {
            let l = m.line(*line);
            let arch = match m.caches.line(l) {
                Some(st) => st.data[0],
                None => m.image.read_line(l)[0],
            };
            prop_assert_eq!(arch, *want, "drained line {}", line);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Restore into a diverged destination: caches, memory system and
    /// image restored with `clone_from` continue exactly like a fresh
    /// clone of the source.
    #[test]
    fn clone_from_dirty_destination_matches_clone(
        prefix in proptest::collection::vec(op_strategy(), 0..150),
        diverge in proptest::collection::vec(op_strategy(), 0..150),
        suffix in proptest::collection::vec(op_strategy(), 1..150),
        residency in prop_oneof![Just(0u64), Just(120), Just(4_000)],
    ) {
        let mut src = Micro::new(residency);
        src.run(&prefix);
        let mut dst = src.clone();
        dst.run(&diverge);
        dst.clone_from(&src);
        let mut fresh = src.clone();
        prop_assert_eq!(dst.run(&suffix), fresh.run(&suffix));
        prop_assert_eq!(dst.observe(), fresh.observe());
        dst.drain();
        fresh.drain();
        prop_assert_eq!(dst.observe(), fresh.observe());
    }
}
