//! HM: a chained hash table with per-bucket locks.

use asap_core::machine::{Machine, ThreadCtx};
use asap_pmem::PmAddr;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::pmops::{as_ptr, debug_field, read_field, write_field, write_payload};
use crate::spec::WorkloadSpec;
use crate::structures::Benchmark;

// Entry layout: key, value ptr, next.
const KEY: u64 = 0;
const VAL: u64 = 1;
const NEXT: u64 = 2;
const ENTRY_BYTES: u64 = 24;

/// Number of hash buckets.
pub const BUCKETS: u64 = 256;

/// The HM benchmark handle.
#[derive(Clone, Copy, Debug)]
pub struct HashTable {
    buckets: PmAddr,
    num_locks: u64,
}

impl HashTable {
    /// Allocates the bucket array.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn create(m: &mut Machine, _spec: &WorkloadSpec) -> Self {
        HashTable {
            buckets: m.pm_alloc(BUCKETS * 8).expect("heap"),
            num_locks: m.config().num_locks as u64,
        }
    }

    fn bucket(&self, key: u64) -> u64 {
        // Fibonacci hashing keeps adjacent keys in different buckets.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % BUCKETS
    }

    /// The lock guarding `key`'s bucket.
    pub fn lock_for(&self, key: u64) -> usize {
        (self.bucket(key) % self.num_locks) as usize
    }

    /// Inserts or updates `key`, inside the current region.
    pub fn put(&self, ctx: &mut ThreadCtx, key: u64, tag: u64, value_bytes: u64) {
        let head_cell = self.buckets.offset(self.bucket(key) * 8);
        let mut cur = as_ptr(ctx.read_u64(head_cell));
        while let Some(e) = cur {
            if read_field(ctx, e, KEY) == key {
                let val = PmAddr(read_field(ctx, e, VAL));
                write_payload(ctx, val, key, tag, value_bytes as usize);
                return;
            }
            cur = as_ptr(read_field(ctx, e, NEXT));
        }
        let entry = ctx.pm_alloc(ENTRY_BYTES).expect("heap");
        let val = ctx.pm_alloc(value_bytes).expect("heap");
        write_payload(ctx, val, key, tag, value_bytes as usize);
        write_field(ctx, entry, KEY, key);
        write_field(ctx, entry, VAL, val.0);
        let head = ctx.read_u64(head_cell);
        write_field(ctx, entry, NEXT, head);
        ctx.write_u64(head_cell, entry.0);
    }

    /// Looks `key` up.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64, value_bytes: u64) -> Option<Vec<u8>> {
        let head_cell = self.buckets.offset(self.bucket(key) * 8);
        let mut cur = as_ptr(ctx.read_u64(head_cell));
        while let Some(e) = cur {
            if read_field(ctx, e, KEY) == key {
                let mut buf = vec![0u8; value_bytes as usize];
                let val = read_field(ctx, e, VAL);
                ctx.read_bytes(PmAddr(val), &mut buf);
                return Some(buf);
            }
            cur = as_ptr(read_field(ctx, e, NEXT));
        }
        None
    }

    /// All keys, by debug walk.
    pub fn debug_keys(&self, m: &mut Machine) -> Vec<u64> {
        let mut out = Vec::new();
        for b in 0..BUCKETS {
            let mut cur = m.debug_read_u64(self.buckets.offset(b * 8));
            while let Some(e) = as_ptr(cur) {
                out.push(debug_field(m, e, KEY));
                cur = debug_field(m, e, NEXT);
            }
        }
        out
    }
}

impl Benchmark for HashTable {
    fn setup(&mut self, m: &mut Machine, spec: &WorkloadSpec) {
        let table = *self;
        let spec = *spec;
        let stride = (spec.keyspace / spec.setup_keys.max(1)).max(1);
        for chunk_start in (0..spec.setup_keys).step_by(8) {
            m.run_thread(0, |ctx| {
                ctx.begin_region();
                for i in chunk_start..(chunk_start + 8).min(spec.setup_keys) {
                    table.put(ctx, i * stride, 0, spec.value_bytes);
                }
                ctx.end_region();
            });
        }
    }

    fn step(&self, ctx: &mut ThreadCtx, rng: &mut StdRng, spec: &WorkloadSpec) {
        let key = rng.random_range(0..spec.keyspace);
        let tag = rng.random::<u64>();
        let table = *self;
        ctx.compute(40);
        ctx.locked_region(table.lock_for(key), |ctx| {
            table.put(ctx, key, tag, spec.value_bytes);
        });
    }

    /// One walk of every chain checks both invariants: no key appears
    /// twice, and every key lives in its home bucket. A duplicate is
    /// reported ahead of a misplaced key, wherever each was found.
    fn verify(&self, m: &mut Machine) -> Result<(), String> {
        let mut keys = Vec::new();
        let mut misplaced = None;
        for b in 0..BUCKETS {
            let mut cur = m.debug_read_u64(self.buckets.offset(b * 8));
            while let Some(e) = as_ptr(cur) {
                let k = debug_field(m, e, KEY);
                if misplaced.is_none() && self.bucket(k) != b {
                    misplaced = Some((k, b));
                }
                keys.push(k);
                cur = debug_field(m, e, NEXT);
            }
        }
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        if keys.len() != n {
            return Err("hash table contains duplicate keys".into());
        }
        match misplaced {
            Some((k, b)) => Err(format!("key {k} found in wrong bucket {b}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmops::payload;
    use asap_core::machine::MachineConfig;
    use asap_core::scheme::SchemeKind;
    use rand::SeedableRng;

    fn harness() -> (Machine, HashTable, WorkloadSpec) {
        let spec = WorkloadSpec::small(crate::BenchId::Hm, SchemeKind::NoPersist);
        let mut m = Machine::new(MachineConfig::small(spec.scheme, spec.threads));
        let t = HashTable::create(&mut m, &spec);
        (m, t, spec)
    }

    #[test]
    fn put_get_update() {
        let (mut m, t, _s) = harness();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            t.put(ctx, 1, 1, 64);
            t.put(ctx, 257, 2, 64); // may or may not collide; both must work
            t.put(ctx, 1, 3, 64);
            ctx.end_region();
            assert_eq!(t.get(ctx, 1, 64).unwrap(), payload(1, 3, 64));
            assert_eq!(t.get(ctx, 257, 64).unwrap(), payload(257, 2, 64));
            assert_eq!(t.get(ctx, 2, 64), None);
        });
    }

    #[test]
    fn chains_handle_forced_collisions() {
        let (mut m, t, _s) = harness();
        // Find three keys in the same bucket.
        let b0 = t.bucket(0);
        let same: Vec<u64> = (0..100_000u64)
            .filter(|k| t.bucket(*k) == b0)
            .take(3)
            .collect();
        assert_eq!(same.len(), 3);
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            for (i, k) in same.iter().enumerate() {
                t.put(ctx, *k, i as u64, 64);
            }
            ctx.end_region();
            for (i, k) in same.iter().enumerate() {
                assert_eq!(t.get(ctx, *k, 64).unwrap(), payload(*k, i as u64, 64));
            }
        });
        t.verify(&mut m).unwrap();
    }

    #[test]
    fn setup_and_steps_keep_invariants() {
        let (mut m, mut t, spec) = harness();
        t.setup(&mut m, &spec);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            m.run_thread(0, |ctx| t.step(ctx, &mut rng, &spec));
        }
        m.drain();
        t.verify(&mut m).unwrap();
        assert!(t.debug_keys(&mut m).len() >= spec.setup_keys as usize);
    }

    /// Links a raw entry for `key` at the head of bucket `b`, bypassing
    /// `put`'s placement — how a corrupt table is built.
    fn link_raw(m: &mut Machine, t: &HashTable, b: u64, key: u64) {
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            let head_cell = t.buckets.offset(b * 8);
            let entry = ctx.pm_alloc(ENTRY_BYTES).expect("heap");
            write_field(ctx, entry, KEY, key);
            write_field(ctx, entry, VAL, 0);
            let head = ctx.read_u64(head_cell);
            write_field(ctx, entry, NEXT, head);
            ctx.write_u64(head_cell, entry.0);
            ctx.end_region();
        });
    }

    #[test]
    fn verify_reports_a_misplaced_key() {
        let (mut m, t, _s) = harness();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            t.put(ctx, 7, 1, 64);
            ctx.end_region();
        });
        let wrong = (t.bucket(9) + 1) % BUCKETS;
        link_raw(&mut m, &t, wrong, 9);
        let err = t.verify(&mut m).unwrap_err();
        assert_eq!(err, format!("key 9 found in wrong bucket {wrong}"));
    }

    #[test]
    fn verify_reports_duplicates_before_misplaced_keys() {
        let (mut m, t, _s) = harness();
        // Bucket 0 gets a misplaced key; a later bucket holds a duplicate.
        let key = (0..).find(|&k| t.bucket(k) > 1).unwrap();
        let misplaced = (0..).find(|&k| t.bucket(k) != 0 && k != key).unwrap();
        link_raw(&mut m, &t, 0, misplaced);
        let home = t.bucket(key);
        link_raw(&mut m, &t, home, key);
        link_raw(&mut m, &t, home, key);
        let err = t.verify(&mut m).unwrap_err();
        assert_eq!(err, "hash table contains duplicate keys");
    }

    #[test]
    fn per_bucket_locks_differ() {
        let (_m, t, _s) = harness();
        let l: std::collections::BTreeSet<usize> = (0..64).map(|k| t.lock_for(k)).collect();
        assert!(l.len() > 1, "keys should spread across locks");
    }
}
