//! Content-addressed memoization of simulation cells.
//!
//! Every cell in a figure grid is a pure function of its
//! [`WorkloadSpec`](asap_workloads::WorkloadSpec) and the simulator
//! binary, so a finished [`RunResult`] can be keyed by
//! [`WorkloadSpec::fingerprint`](asap_workloads::WorkloadSpec::fingerprint)
//! and reused — bit for bit — wherever the same cell appears again. Two
//! tiers:
//!
//! - **memory** — a process-global map deduplicating identical cells
//!   across the grids and figures of one invocation (e.g. a payload
//!   sweep re-running its 64B baseline, or `cargo bench` driving several
//!   figures that share cells);
//! - **disk** — a persistent store under
//!   `target/runcache/<build>/<fingerprint>.json`, surviving across
//!   invocations. Files are the lossless cell JSON of
//!   [`asap_workloads::resultjson`]; `<build>` is the fingerprint of the
//!   running executable ([`asap_sim::fingerprint::build_fingerprint`]),
//!   so a recompile — which may legitimately change results — starts a
//!   fresh store; sibling stores beyond a small working set (each bench
//!   target is its own binary) are pruned, oldest first.
//!
//! Configuration (see [`RunCacheConfig::from_env`]):
//!
//! - `ASAP_RUNCACHE` — `off`, `mem` (default), or `disk` (both tiers);
//! - `ASAP_RUNCACHE_DIR` — disk-store root (default `target/runcache`).
//!
//! A build store holds at most [`DEFAULT_CAP`] (512) files: the
//! oldest-by-mtime beyond the cap are evicted after each insert, and hits
//! re-touch their file so hot cells survive.
//!
//! Correctness posture: a disk file that fails to parse is deleted and
//! treated as a miss; writes are temp-file-then-rename so a crashed or
//! concurrent run never leaves a partial file to poison later reads; and
//! a returned hit always has its `spec` replaced by the *requested* spec
//! (the fingerprint makes them equal, but the cache must never be able
//! to alter figure output). `tests/parallel_equivalence.rs` holds the
//! cached-equals-fresh claim artifact by artifact.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use asap_sim::fingerprint::{build_fingerprint, Fingerprint};
use asap_sim::obs::{self, events, metrics};
use asap_workloads::{resultjson, RunResult};

use crate::write_atomic;

/// Which tiers a grid run consults, and the disk-store shape.
#[derive(Clone, Debug)]
pub struct RunCacheConfig {
    /// Consult/populate the in-process tier.
    pub mem: bool,
    /// Disk-store root (the per-build directory lives under it), or
    /// `None` to skip the disk tier.
    pub disk: Option<PathBuf>,
    /// Max result files per build store; oldest-by-mtime evicted beyond
    /// it.
    pub cap: usize,
}

/// File cap of every environment-configured store: at ~2–40 KiB per cell JSON this bounds a
/// build store to a few MiB while covering every cell the figure suite
/// produces (well under 200 distinct cells per configuration).
pub const DEFAULT_CAP: usize = 512;

impl RunCacheConfig {
    /// Reads `ASAP_RUNCACHE` / `ASAP_RUNCACHE_DIR`; the cap is
    /// [`DEFAULT_CAP`].
    /// Unknown `ASAP_RUNCACHE` values fall back to the `mem` default —
    /// consistent with the other harness knobs, a typo must not silently
    /// disable memoization *or* unexpectedly write to disk.
    pub fn from_env() -> Self {
        let mode = std::env::var("ASAP_RUNCACHE").unwrap_or_default();
        match mode.trim() {
            "off" => RunCacheConfig::off(),
            "disk" => RunCacheConfig {
                mem: true,
                disk: Some(disk_dir_from_env()),
                cap: DEFAULT_CAP,
            },
            _ => RunCacheConfig {
                mem: true,
                disk: None,
                cap: DEFAULT_CAP,
            },
        }
    }

    /// No caching at all: every cell simulates. The equivalence tests
    /// pin this so they keep comparing *real* runs.
    pub fn off() -> Self {
        RunCacheConfig {
            mem: false,
            disk: None,
            cap: DEFAULT_CAP,
        }
    }

    /// Disk tier only (no process-global state) — lets tests exercise
    /// the persistent store hermetically in a temp directory.
    pub fn disk_only(dir: impl Into<PathBuf>, cap: usize) -> Self {
        RunCacheConfig {
            mem: false,
            disk: Some(dir.into()),
            cap,
        }
    }

    /// Whether any tier is active.
    pub fn enabled(&self) -> bool {
        self.mem || self.disk.is_some()
    }
}

fn disk_dir_from_env() -> PathBuf {
    match std::env::var("ASAP_RUNCACHE_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        // CARGO_MANIFEST_DIR of this crate is crates/bench.
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/runcache"),
    }
}

/// Process-cumulative cache traffic, printed by the grid runner and used
/// to tag wall-clock records `warm`/`cold`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Hits served by the in-process tier.
    pub mem_hits: u64,
    /// Hits served by the disk store.
    pub disk_hits: u64,
    /// Cells that had to simulate.
    pub misses: u64,
    /// Files evicted by the cap.
    pub evicted: u64,
    /// Bytes written to the disk store.
    pub bytes_written: u64,
    /// Bytes read back on disk hits.
    pub bytes_read: u64,
}

impl Counters {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }
}

// The counters live in the process-global observability registry
// ([`asap_sim::obs::metrics`]) so one snapshot covers the cache, the
// worker pool, and the simulator's host-side structures alike; this
// module's [`counters`]/[`summary_line`] view is kept as the stable
// harness-facing API (and the stderr phrase CI greps for).
const MEM_HITS: &str = "runcache.mem_hits";
const DISK_HITS: &str = "runcache.disk_hits";
const MISSES: &str = "runcache.misses";
const EVICTED: &str = "runcache.evicted";
const BYTES_WRITTEN: &str = "runcache.bytes_written";
const BYTES_READ: &str = "runcache.bytes_read";
/// Grid cells served by copying another cell of the *same grid* with an
/// identical fingerprint (no tier consulted, no simulation).
const DEDUP_FANOUT: &str = "runcache.dedup_fanout";

/// A snapshot of the process-cumulative counters.
pub fn counters() -> Counters {
    Counters {
        mem_hits: metrics::counter_value(MEM_HITS),
        disk_hits: metrics::counter_value(DISK_HITS),
        misses: metrics::counter_value(MISSES),
        evicted: metrics::counter_value(EVICTED),
        bytes_written: metrics::counter_value(BYTES_WRITTEN),
        bytes_read: metrics::counter_value(BYTES_READ),
    }
}

/// Marks one intra-grid duplicate served by fingerprint fan-out (called
/// by the grid runner; kept out of [`Counters`] so the legacy summary
/// line stays stable).
pub fn note_dedup_fanout() {
    metrics::counter(DEDUP_FANOUT).inc();
}

/// The stderr summary line for a counter snapshot, e.g.
/// `runcache: 18 hits (9 mem, 9 disk), 0 misses, 0 evicted, 0B written,
/// 52813B read`. CI greps the second figure pass for `0 misses`, so the
/// phrase set here is load-bearing.
pub fn summary_line(c: &Counters) -> String {
    format!(
        "runcache: {} hits ({} mem, {} disk), {} misses, {} evicted, {}B written, {}B read",
        c.hits(),
        c.mem_hits,
        c.disk_hits,
        c.misses,
        c.evicted,
        c.bytes_written,
        c.bytes_read
    )
}

fn mem_tier() -> &'static Mutex<HashMap<Fingerprint, RunResult>> {
    static MEM: OnceLock<Mutex<HashMap<Fingerprint, RunResult>>> = OnceLock::new();
    MEM.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The per-build store directory, or `None` when the executable cannot
/// be fingerprinted (then the disk tier silently degrades to off — a
/// cache keyed on an unknown binary would be unsound).
fn build_dir(root: &Path) -> Option<PathBuf> {
    Some(root.join(build_fingerprint()?.hex()))
}

/// Which tier served a cache hit — carried into the `cell_end` run
/// event so a stream consumer can tell warm cells from simulated ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitTier {
    /// Served by the in-process map.
    Mem,
    /// Served by (and promoted from) the disk store.
    Disk,
}

impl HitTier {
    /// The `cache` field value used in run events.
    pub fn label(self) -> &'static str {
        match self {
            HitTier::Mem => "mem",
            HitTier::Disk => "disk",
        }
    }
}

/// Looks `fp` up in the configured tiers. A disk hit is promoted into
/// the memory tier (when enabled) and its file re-touched so cap
/// eviction treats it as fresh. Misses are *not* counted here — only
/// cells the grid runner actually has to simulate count as misses, so
/// intra-grid duplicates never inflate the number.
pub fn lookup(fp: &Fingerprint, cfg: &RunCacheConfig) -> Option<(RunResult, HitTier)> {
    if cfg.mem {
        if let Some(r) = mem_tier().lock().unwrap().get(fp) {
            metrics::counter(MEM_HITS).inc();
            return Some((r.clone(), HitTier::Mem));
        }
    }
    let root = cfg.disk.as_deref()?;
    let dir = build_dir(root)?;
    let path = dir.join(format!("{}.json", fp.hex()));
    let text = std::fs::read_to_string(&path).ok()?;
    match resultjson::from_json(&text) {
        Ok(r) => {
            metrics::counter(DISK_HITS).inc();
            metrics::counter(BYTES_READ).add(text.len() as u64);
            touch(&path);
            if cfg.mem {
                mem_tier().lock().unwrap().insert(*fp, r.clone());
            }
            Some((r, HitTier::Disk))
        }
        Err(e) => {
            // A file this build wrote but cannot read back is corrupt
            // (torn writes are excluded by rename, so: bit rot or
            // tampering). Drop it and simulate.
            obs::warn!("runcache: dropping unreadable {}: {e}", path.display());
            let _ = std::fs::remove_file(&path);
            None
        }
    }
}

/// Marks the miss of one simulated cell (called by the grid runner once
/// per cell it sends to the worker pool).
pub fn note_miss() {
    metrics::counter(MISSES).inc();
}

/// Inserts a freshly simulated result into the configured tiers, then
/// enforces the disk cap. Disk-write failures only warn: memoization is
/// an accelerator, never a reason to fail a figure run.
pub fn insert(fp: &Fingerprint, result: &RunResult, cfg: &RunCacheConfig) {
    if cfg.mem {
        mem_tier().lock().unwrap().insert(*fp, result.clone());
    }
    let Some(root) = cfg.disk.as_deref() else {
        return;
    };
    let Some(dir) = build_dir(root) else { return };
    prune_stale_builds(root, &dir);
    let path = dir.join(format!("{}.json", fp.hex()));
    let body = resultjson::to_json(result);
    let res = std::fs::create_dir_all(&dir).and_then(|()| write_atomic(&path, &body));
    match res {
        Ok(()) => {
            metrics::counter(BYTES_WRITTEN).add(body.len() as u64);
            evict_over_cap(&dir, cfg.cap);
        }
        Err(e) => obs::warn!("runcache: could not write {}: {e}", path.display()),
    }
}

/// Bumps a hit file's mtime so the LRU cap evicts cold cells first.
fn touch(path: &Path) {
    if let Ok(f) = std::fs::File::options().write(true).open(path) {
        let _ = f.set_modified(std::time::SystemTime::now());
    }
}

/// Build stores kept under the root (newest by mtime, plus the live
/// one). Every bench target is its own binary with its own build
/// fingerprint, so one `cargo bench` sweep legitimately populates around
/// a dozen sibling stores — only stores beyond that working set (i.e.
/// from binaries that have since been rebuilt) are dead weight.
const MAX_BUILD_DIRS: usize = 16;

/// Deletes the oldest sibling build directories beyond
/// [`MAX_BUILD_DIRS`]. Once per process: the scan is cheap but pointless
/// to repeat, and a live store never grows new stale siblings mid-run.
fn prune_stale_builds(root: &Path, live: &Path) {
    static PRUNED: AtomicBool = AtomicBool::new(false);
    if PRUNED.swap(true, Ordering::Relaxed) {
        return;
    }
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let p = e.path();
            if !p.is_dir() || p == live {
                return None;
            }
            let mtime = e.metadata().ok()?.modified().ok()?;
            Some((mtime, p))
        })
        .collect();
    // `live` counts against the budget whether or not it exists yet.
    if dirs.len() < MAX_BUILD_DIRS {
        return;
    }
    dirs.sort();
    let excess = dirs.len() + 1 - MAX_BUILD_DIRS;
    for (_, p) in dirs.into_iter().take(excess) {
        match std::fs::remove_dir_all(&p) {
            Ok(()) => obs::note!("runcache: pruned stale build store {}", p.display()),
            Err(e) => obs::warn!("runcache: could not prune {}: {e}", p.display()),
        }
    }
}

/// Removes the oldest-by-mtime `.json` files beyond `cap`. Ties (same
/// mtime granularity) break by filename so eviction is deterministic.
fn evict_over_cap(dir: &Path, cap: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let p = e.path();
            if p.extension()? != "json" {
                return None;
            }
            let mtime = e.metadata().ok()?.modified().ok()?;
            Some((mtime, p))
        })
        .collect();
    if files.len() <= cap {
        return;
    }
    files.sort();
    let excess = files.len() - cap;
    for (_, p) in files.into_iter().take(excess) {
        if std::fs::remove_file(&p).is_ok() {
            metrics::counter(EVICTED).inc();
            if events::enabled() {
                let fp = p.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                events::Event::new("cache_evict").field_str("fp", fp).emit();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::scheme::SchemeKind;
    use asap_workloads::{run, BenchId, WorkloadSpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("asap-runcache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn disk_tier_round_trips_and_caps() {
        let root = temp_dir("roundtrip");
        let cfg = RunCacheConfig::disk_only(&root, 2);
        let specs: Vec<WorkloadSpec> = [3u64, 5, 7]
            .into_iter()
            .map(|seed| {
                WorkloadSpec::small(BenchId::Q, SchemeKind::Asap)
                    .with_ops(8)
                    .with_seed(seed)
            })
            .collect();
        // Miss on an empty store.
        assert!(lookup(&specs[0].fingerprint(), &cfg).is_none());
        let results: Vec<RunResult> = specs.iter().map(run).collect();
        for (s, r) in specs.iter().zip(&results) {
            insert(&s.fingerprint(), r, &cfg);
        }
        // Cap 2: the oldest of the three files was evicted.
        let dir = build_dir(&root).expect("build fingerprint available");
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 2);
        assert!(lookup(&specs[0].fingerprint(), &cfg).is_none());
        // Survivors round-trip exactly.
        for (s, r) in specs.iter().zip(&results).skip(1) {
            let (hit, tier) = lookup(&s.fingerprint(), &cfg).expect("hit");
            assert_eq!(tier, HitTier::Disk);
            assert!(resultjson::results_identical(&hit, r));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_disk_entries_become_misses_and_are_dropped() {
        let root = temp_dir("corrupt");
        let cfg = RunCacheConfig::disk_only(&root, 16);
        let spec = WorkloadSpec::small(BenchId::Hm, SchemeKind::SwUndo).with_ops(6);
        insert(&spec.fingerprint(), &run(&spec), &cfg);
        let dir = build_dir(&root).unwrap();
        let path = dir.join(format!("{}.json", spec.fingerprint().hex()));
        std::fs::write(&path, "{not json").unwrap();
        assert!(lookup(&spec.fingerprint(), &cfg).is_none());
        assert!(!path.exists(), "corrupt file is removed");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_file_name_is_the_hash_of_its_stored_spec() {
        use asap_core::scheme::AsapOpts;
        use asap_sim::fingerprint::hash_bytes;
        let root = temp_dir("spec-key");
        let cfg = RunCacheConfig::disk_only(&root, 16);
        let spec = WorkloadSpec::small(BenchId::Hm, SchemeKind::AsapWith(AsapOpts::all()))
            .with_ops(6)
            .with_tracking()
            .with_crash_after(40);
        insert(&spec.fingerprint(), &run(&spec), &cfg);
        let dir = build_dir(&root).unwrap();
        let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        let text = std::fs::read_to_string(&entries[0]).unwrap();
        // The spec object is the file's first field; `"tx"` follows it.
        let stored = text
            .strip_prefix("{\"spec\":")
            .and_then(|rest| rest.split_once(",\"tx\":"))
            .map(|(spec, _)| spec)
            .expect("cache file starts with its spec");
        assert!(asap_sim::json::parse(stored).is_ok(), "{stored}");
        let name = entries[0].file_stem().unwrap().to_str().unwrap();
        assert_eq!(hash_bytes(stored.as_bytes()).hex(), name);
        assert_eq!(spec.fingerprint().hex(), name);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn summary_line_shape() {
        let c = Counters {
            mem_hits: 2,
            disk_hits: 1,
            misses: 4,
            evicted: 1,
            bytes_written: 10,
            bytes_read: 20,
        };
        assert_eq!(
            summary_line(&c),
            "runcache: 3 hits (2 mem, 1 disk), 4 misses, 1 evicted, 10B written, 20B read"
        );
    }

    #[test]
    fn env_defaults_to_mem_tier() {
        if std::env::var("ASAP_RUNCACHE").is_err() {
            let cfg = RunCacheConfig::from_env();
            assert!(cfg.mem);
            assert!(cfg.disk.is_none());
            assert_eq!(cfg.cap, DEFAULT_CAP);
        }
        assert!(!RunCacheConfig::off().enabled());
        assert!(RunCacheConfig::disk_only("/tmp/x", 4).enabled());
    }
}
