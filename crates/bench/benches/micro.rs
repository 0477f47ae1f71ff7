//! Microbenchmarks of the simulator substrates: cache hierarchy access, WPQ
//! submit/drain, log-record encode/decode, Dependence List broadcast, bloom
//! filter probes, spec fingerprinting, run-cache disk hits/inserts, and an
//! end-to-end small transaction.
//!
//! Plain `fn main` harness (no criterion — the build environment is offline):
//! each benchmark warms up, then runs timed batches and reports ns/iter with
//! the standard deviation across batches.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use asap_core::logbuf::RecordHeader;
use asap_core::machine::{Machine, MachineConfig};
use asap_core::scheme::asap::structs::DepLists;
use asap_core::scheme::SchemeKind;
use asap_mem::cache::AccessKind;
use asap_mem::{BloomFilter, CacheHierarchy, MemSystem, PersistKind, PersistOp, Rid};
use asap_pmem::{LineAddr, MemoryImage, PmAddr, PM_BASE};
use asap_sim::{Cycle, EventQueue, Summary, SystemConfig};

const WARMUP_ITERS: u64 = 2_000;
const BATCHES: u64 = 10;

fn iters_per_batch() -> u64 {
    std::env::var("ASAP_MICRO_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

/// Runs `f` repeatedly and prints mean ± stddev ns/iter over the batches.
fn bench(name: &str, f: impl FnMut()) {
    bench_with(name, WARMUP_ITERS, iters_per_batch(), f);
}

/// [`bench`] with explicit warmup/iteration counts, for benchmarks whose
/// single iteration is orders of magnitude heavier than the substrate
/// loops (e.g. a full fork restore + replay).
fn bench_with(name: &str, warmup: u64, iters: u64, mut f: impl FnMut()) {
    for _ in 0..warmup {
        f();
    }
    let mut per_batch = Summary::default();
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_batch.record(t0.elapsed().as_nanos() as u64 / iters);
    }
    println!(
        "{name:<28} {:>8.1} ns/iter  (stddev {:>6.1}, {BATCHES} batches x {iters} iters)",
        per_batch.mean(),
        per_batch.stddev(),
    );
}

fn bench_events() {
    // Rolling near-future window: the common simulator shape (a handful of
    // in-flight events per channel, popped in time order). Stays within
    // warmed calendar buckets, so the loop is allocation-free.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    bench("event_queue_push_pop", || {
        t += 13;
        q.push(Cycle(t + 16), t);
        q.push(Cycle(t + 900), t + 1);
        black_box(q.pop());
        black_box(q.pop());
    });

    // Same-cycle burst: every event of a batch lands in one bucket and
    // must pop in insertion order (FIFO within a cycle).
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    bench("event_queue_burst_fifo", || {
        t += 1;
        for i in 0..8u64 {
            q.push(Cycle(t), i);
        }
        while q.pop().is_some() {}
    });
}

fn bench_cache() {
    let cfg = SystemConfig::table2();
    let mut h = CacheHierarchy::new(&cfg);
    h.access(
        0,
        LineAddr(1),
        AccessKind::Load,
        Some(([0u8; 64], false)),
        150,
    );
    bench("cache_hit_l1", || {
        black_box(
            h.access(0, LineAddr(1), AccessKind::Load, None, 150)
                .latency,
        );
    });

    let mut h = CacheHierarchy::new(&SystemConfig::small());
    let mut i = 0u64;
    bench("cache_miss_fill_evict", || {
        i += 1;
        black_box(
            h.access(
                0,
                LineAddr(i % 8192),
                AccessKind::Load,
                Some(([0u8; 64], true)),
                150,
            )
            .latency,
        );
    });
}

fn bench_wpq() {
    let cfg = SystemConfig::table2();
    let mut mem = MemSystem::new(&cfg);
    let mut image = MemoryImage::new();
    let mut t = 0u64;
    bench("wpq_submit_drain", || {
        t += 100;
        let line = LineAddr(PM_BASE / 64 + t % 1024);
        mem.submit(
            PersistOp::new(PersistKind::Dpo, line, [0u8; 64], None),
            Cycle(t),
        );
        mem.advance_to(Cycle(t), &mut image);
        while mem.pop_event().is_some() {}
    });
}

fn bench_image() {
    // The hot loop of every simulated store: byte writes that hit the
    // image's last-page cache.
    let mut image = MemoryImage::new();
    let mut i = 0u64;
    bench("image_write_same_page", || {
        i += 1;
        image.write_u64(PmAddr(PM_BASE + (i % 500) * 8), i);
    });

    // Page-index probes: a strided walk that misses the last-page cache on
    // every access.
    let mut image = MemoryImage::new();
    for p in 0..512u64 {
        image.write_u64(PmAddr(PM_BASE + p * 4096), p);
    }
    let mut i = 0u64;
    bench("image_read_strided_pages", || {
        i += 1;
        black_box(image.read_u64(PmAddr(PM_BASE + (i % 512) * 4096)));
    });

    // Line-sized copies that straddle a page boundary exercise the
    // split-write path.
    let mut image = MemoryImage::new();
    let buf = [0xabu8; 64];
    let mut i = 0u64;
    bench("image_write_page_boundary", || {
        i += 1;
        image.write(PmAddr(PM_BASE + (i % 64) * 4096 + 4096 - 32), &buf);
    });
}

fn bench_store_forward() {
    // read_for_fill against a WPQ holding many queued lines: one probe of
    // the per-channel line index.
    let cfg = SystemConfig::table2();
    let mut mem = MemSystem::new(&cfg);
    let image = MemoryImage::new();
    for i in 0..64u64 {
        mem.submit(
            PersistOp::new(
                PersistKind::Dpo,
                LineAddr(PM_BASE / 64 + i),
                [7u8; 64],
                None,
            ),
            Cycle(0),
        );
    }
    let mut i = 0u64;
    bench("wpq_store_forward_probe", || {
        i += 1;
        black_box(mem.read_for_fill(LineAddr(PM_BASE / 64 + i % 128), &image));
    });
}

fn bench_log() {
    let mut h = RecordHeader::new(Rid::new(3, 99), Some(PmAddr(0x8000_1000)));
    for i in 0..7 {
        h.push_entry(LineAddr(0x200_0000 + i));
    }
    bench("record_header_encode_decode", || {
        let bytes = black_box(h.encode());
        black_box(RecordHeader::decode(&bytes));
    });
}

fn bench_deplist() {
    bench("deplist_insert_broadcast", || {
        let mut d = DepLists::new(4, 128, 4);
        for i in 0..64 {
            d.insert(Rid::new(0, i));
            if i > 0 {
                d.add_dep(Rid::new(0, i), Rid::new(0, i - 1));
            }
        }
        for i in 0..64 {
            d.get_mut(Rid::new(0, i)).unwrap().done = true;
            d.remove(Rid::new(0, i));
            black_box(d.clear_dep_everywhere(Rid::new(0, i)));
        }
    });
}

fn bench_bloom() {
    let mut bf = BloomFilter::new(8 * 1024);
    let mut i = 0u64;
    bench("bloom_insert_probe", || {
        i += 1;
        bf.insert(LineAddr(i));
        black_box(bf.may_contain(LineAddr(i + 1)));
    });
}

fn bench_fingerprint() {
    // The cache key computation run_grid performs once per cell before
    // the worker pool starts: canonical serialization + two-lane hash of
    // the complete spec.
    let spec = asap_workloads::WorkloadSpec::new(asap_workloads::BenchId::Tpcc, SchemeKind::Asap)
        .with_threads(8)
        .with_value_bytes(2048);
    bench("spec_fingerprint", || {
        black_box(black_box(&spec).fingerprint());
    });

    // The raw hash over a cell-sized canonical buffer, isolating the
    // mixing loop from the serialization above.
    let bytes = vec![0x5au8; 256];
    bench("fingerprint_hash_256b", || {
        black_box(asap_sim::fingerprint::hash_bytes(black_box(&bytes)));
    });
}

fn bench_runcache() {
    use asap_bench::runcache::{insert, lookup, RunCacheConfig};

    // One small real result, inserted into a hermetic disk store.
    let spec = asap_workloads::WorkloadSpec::small(asap_workloads::BenchId::Q, SchemeKind::Asap)
        .with_ops(10);
    let result = asap_workloads::run(&spec);
    let fp = spec.fingerprint();
    let dir = std::env::temp_dir().join(format!("asap-runcache-micro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunCacheConfig::disk_only(&dir, 64);
    insert(&fp, &result, &cfg);

    // A disk hit: read + lossless parse + mtime touch of one cell file.
    bench("runcache_disk_hit", || {
        black_box(lookup(black_box(&fp), &cfg).is_some());
    });

    // An insert: serialize + atomic write + cap scan (the store holds a
    // single file, so this is the fixed per-cell overhead floor).
    bench("runcache_disk_insert", || {
        insert(black_box(&fp), black_box(&result), &cfg);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_snapshot() {
    // CoW image snapshot: a refcounted pointer-table copy whose cost is
    // O(touched pages), not O(bytes) — 512 pages here.
    let mut image = MemoryImage::new();
    for p in 0..512u64 {
        image.write_u64(PmAddr(PM_BASE + p * 4096), p);
    }
    bench("image_snapshot_512p", || {
        black_box(image.snapshot());
    });

    // First write after a snapshot pays the copy-on-write page
    // materialization (one 4KB copy) on top of the pointer-table copy.
    let mut i = 0u64;
    bench("image_snapshot_cow_write", || {
        i += 1;
        let s = image.snapshot();
        image.write_u64(PmAddr(PM_BASE + (i % 512) * 4096), i);
        black_box(&s);
    });

    // Machine snapshot and fork (restore): the sweep driver's per-cadence
    // and per-crash-point costs on a small-config machine with live
    // cache, WPQ, scheme, and image state.
    let mut m = Machine::new(MachineConfig::small(SchemeKind::Asap, 1));
    let a = m.pm_alloc(64 * 64).unwrap();
    for i in 0..64u64 {
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a.offset(i % 64 * 64), i);
            ctx.end_region();
        });
    }
    bench("machine_snapshot_small", || {
        black_box(m.snapshot());
    });
    let snap = m.snapshot();
    bench("machine_restore_small", || {
        m.restore(&snap);
    });
}

fn bench_sweep() {
    // The sweep engine's two restore shapes, isolated from the driver.
    // `far` stands in for a thinned-spine cadence snapshot a full tail
    // behind a chunk's first crash point, restored once per chunk; `near`
    // for a leaf one step away, restored once per fork. The gap between
    // the two is the work the leaves remove from every fork.
    let mut m = Machine::new(MachineConfig::small(SchemeKind::Asap, 1));
    let a = m.pm_alloc(64 * 64).unwrap();
    let region = |m: &mut Machine, i: u64| {
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a.offset(i % 64 * 64), i);
            ctx.end_region();
        });
    };
    for i in 0..8 {
        region(&mut m, i);
    }
    let far = m.snapshot();
    for i in 8..63 {
        region(&mut m, i);
    }
    let near = m.snapshot();

    // A chunk's spine restore: restore the cadence snapshot, advance
    // through the tail of regions up to the first crash point. (The name
    // predates the tree-only engine and stays for bench history.)
    bench_with("sweep_restore_flat_tail", 20, 200, || {
        m.restore(&far);
        for i in 8..63 {
            region(&mut m, i);
        }
    });
    // A fork: restore the leaf adjacent to the point.
    bench_with("sweep_restore_tree_leaf", 20, 200, || {
        m.restore(&near);
        region(&mut m, 63);
    });

    // Send-snapshot fork dispatch: hand a snapshot to a worker thread
    // and restore it into that worker's scratch machine — the fixed
    // cross-thread cost `ASAP_SWEEP_JOBS` pays per chunk. The snapshot
    // sits behind a `Mutex` (it is `Send` but not `Sync`, because the
    // image keeps `Cell` page caches) exactly as the sweep spine does.
    let snap = Mutex::new(near);
    let scratch = Mutex::new(Machine::new(MachineConfig::small(SchemeKind::Asap, 1)));
    bench_with("snapshot_fork_dispatch", 10, 100, || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let snap = snap.lock().unwrap();
                scratch.lock().unwrap().restore(&snap);
            });
        });
    });
}

fn bench_transaction() {
    let mut m = Machine::new(MachineConfig::small(SchemeKind::Asap, 1));
    let a = m.pm_alloc(64 * 16).unwrap();
    let mut i = 0u64;
    bench("asap_small_transaction", || {
        i += 1;
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a.offset(i % 16 * 64), i);
            ctx.end_region();
        });
    });
}

fn main() {
    bench_events();
    bench_cache();
    bench_image();
    bench_wpq();
    bench_store_forward();
    bench_log();
    bench_deplist();
    bench_bloom();
    bench_fingerprint();
    bench_runcache();
    bench_snapshot();
    bench_sweep();
    bench_transaction();
}
