//! The metric tables and the result a workload hands back to `main`.
//!
//! Every run prints every metric of its table, so each workload reports
//! each per-layer metric. A per-layer metric of a layer the workload
//! leaves idle reads 0; the table below says which workload exercises it.

use std::collections::BTreeMap;

use crate::host::Sched;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "share"),
];

/// Scheme labels used in per-scheme metric names, in Fig. 7 column order.
pub const SCHEME_LABELS: [&str; 5] = ["sw-undo", "hw-redo", "hw-undo", "asap", "np"];

/// Per-scheme simulated counters of `core.scheme` (one metric per scheme).
pub const SCHEME_STATS: [&str; 7] = [
    "regions",
    "lpo_submits",
    "dpo_submits",
    "dropped_ratio",
    "broadcasts",
    "stall_cycles.commit_wait",
    "stall_cycles.dependency_wait",
];

/// Per-layer metrics (`--trace 1`) other than the per-scheme `core.scheme`
/// ones, which [`per_layer`] appends:
/// name, unit. Exercised on: `fig_grid` (F), `crash_sweep` (C).
pub const PER_LAYER: [(&str, &str); 59] = [
    // bench: run_grid and the run cache, serving the grid warm (F).
    ("bench.fingerprint_us", "us"),
    ("bench.lookup_us", "us"),
    ("bench.parse_us", "us"),
    ("bench.insert_us", "us"),
    ("bench.hit_ratio", "share"),
    ("bench.grid_self_us", "us"),
    // Simulated accuracy against the paper's Fig. 7 geomeans (F).
    ("bench.fig7_paper_err", "ln-ratio"),
    // workloads: the calls `asap_workloads::run` makes, per cell (F) or
    // per fork (C).
    ("workloads.construct_us", "us"),
    ("workloads.setup_us", "us"),
    ("workloads.run_us", "us"),
    ("workloads.drain_us", "us"),
    ("workloads.verify_us", "us"),
    ("workloads.stats_us", "us"),
    ("workloads.run_ns_per_tx.sw-undo", "ns"),
    ("workloads.run_ns_per_tx.hw-redo", "ns"),
    ("workloads.run_ns_per_tx.hw-undo", "ns"),
    ("workloads.run_ns_per_tx.asap", "ns"),
    ("workloads.run_ns_per_tx.np", "ns"),
    ("workloads.plan_us", "us"),
    ("workloads.plan_candidates", "count"),
    // core.machine: the crash-sweep fork engine (C).
    ("core.machine.snapshot_us", "us"),
    ("core.machine.restore_us", "us"),
    ("core.machine.advance_us", "us"),
    ("core.machine.replay_us", "us"),
    ("core.machine.recover_us", "us"),
    ("core.machine.forks", "count"),
    ("core.machine.leaves", "count"),
    ("core.machine.replayed_writes_per_fork", "count"),
    ("core.machine.snapshot_bytes", "bytes"),
    ("core.machine.stage_share.prefix", "share"),
    ("core.machine.stage_share.restore", "share"),
    ("core.machine.stage_share.snapshot", "share"),
    ("core.machine.stage_share.advance", "share"),
    ("core.machine.stage_share.replay", "share"),
    ("core.machine.stage_share.recover", "share"),
    ("core.machine.stage_share.verify", "share"),
    ("core.machine.stage_share.stats", "share"),
    ("core.machine.stage_share.unattributed", "share"),
    // mem.system, mem.cache: simulated totals over the workload's cells
    // (F: one pass of the grid; C: the uninterrupted baseline run).
    ("mem.system.persist_ops", "count"),
    ("mem.system.pm_writes", "count"),
    ("mem.system.wpq_occupancy_mean", "entries"),
    ("mem.system.persist_latency_p50", "cycles"),
    ("mem.system.run_ns_per_persist_op", "ns"),
    ("mem.cache.llc_evictions", "count"),
    ("mem.cache.dirty_evictions", "count"),
    ("mem.cache.forced_evictions", "count"),
    // pmem.image: host-side counters per op (F, C).
    ("pmem.image.lookups", "count"),
    ("pmem.image.index_probes", "count"),
    ("pmem.image.last_page_hit_ratio", "share"),
    ("pmem.image.cow_copies_per_fork", "count"),
    // sim: host-side counters per op (F, C).
    ("sim.calendar.full_scans", "count"),
    ("sim.events", "count"),
    // trace: the traced run itself (F, C).
    ("trace.valid", "bool"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_share", "share"),
    ("trace.self_share.perfbench", "share"),
    ("trace.self_share.bench", "share"),
    ("trace.self_share.workloads", "share"),
    ("trace.self_share.core.machine", "share"),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for stat in SCHEME_STATS {
        let unit = match stat {
            "dropped_ratio" => "share",
            s if s.starts_with("stall_cycles") => "cycles",
            _ => "count",
        };
        for scheme in SCHEME_LABELS {
            out.push((format!("core.scheme.{stat}.{scheme}"), unit));
        }
    }
    out
}

/// What one workload run hands back: op accounting, the problems found,
/// the measured metrics and the record fields printed beside them.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub peak_rss_mb: f64,
    /// Per-layer values by name; unset names read 0.
    pub layers: BTreeMap<String, f64>,
    /// Extra `"key": <raw JSON>` fields for the record line.
    pub record: Vec<(String, String)>,
    /// Scheduler readings around the measured loop.
    pub sched: Option<(Sched, Sched)>,
}

impl Report {
    /// Counts `ops` failed ops and keeps the first few descriptions.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// A problem that fails the run without failing an op (a reference
    /// mismatch, an invalid trace).
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn set(&mut self, name: &str, v: f64) {
        assert!(
            per_layer().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.layers
            .insert(name.to_string(), if v.is_finite() { v } else { 0.0 });
    }

    pub fn record(&mut self, key: &str, raw_json: String) {
        self.record.push((key.to_string(), raw_json));
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
