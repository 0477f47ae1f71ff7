//! Workload specifications: which benchmark, scheme and parameters to run.

use std::fmt;

use asap_core::scheme::SchemeKind;
use asap_sim::fingerprint::{hash_bytes, Fingerprint};
use asap_sim::{SystemConfig, TelemetrySettings, TraceSettings};

/// The nine benchmarks of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BenchId {
    /// BN — binary search tree insert/update.
    Bn,
    /// BT — B+tree insert/update.
    Bt,
    /// CT — crit-bit tree insert/update.
    Ct,
    /// EO — Echo versioned key-value store.
    Eo,
    /// HM — chained hash table insert/update.
    Hm,
    /// Q — FIFO queue enqueue/dequeue.
    Q,
    /// RB — red-black tree insert/update.
    Rb,
    /// SS — random swaps in an array of strings.
    Ss,
    /// TPCC — TPC-C New Order transactions.
    Tpcc,
}

impl BenchId {
    /// All benchmarks, in the paper's figure order.
    pub fn all() -> [BenchId; 9] {
        [
            BenchId::Bn,
            BenchId::Bt,
            BenchId::Ct,
            BenchId::Eo,
            BenchId::Hm,
            BenchId::Q,
            BenchId::Rb,
            BenchId::Ss,
            BenchId::Tpcc,
        ]
    }

    /// The eight benchmarks used in Fig. 1 (no TPCC).
    pub fn fig1() -> [BenchId; 8] {
        [
            BenchId::Bn,
            BenchId::Bt,
            BenchId::Ct,
            BenchId::Eo,
            BenchId::Hm,
            BenchId::Q,
            BenchId::Rb,
            BenchId::Ss,
        ]
    }

    /// The paper's short label.
    pub fn label(self) -> &'static str {
        match self {
            BenchId::Bn => "BN",
            BenchId::Bt => "BT",
            BenchId::Ct => "CT",
            BenchId::Eo => "EO",
            BenchId::Hm => "HM",
            BenchId::Q => "Q",
            BenchId::Rb => "RB",
            BenchId::Ss => "SS",
            BenchId::Tpcc => "TPCC",
        }
    }
}

impl fmt::Display for BenchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete workload configuration.
///
/// # Examples
///
/// ```
/// use asap_core::scheme::SchemeKind;
/// use asap_workloads::{BenchId, WorkloadSpec};
///
/// let spec = WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
///     .with_threads(8)
///     .with_value_bytes(2048)
///     .with_tracking();
/// assert_eq!(spec.threads, 8);
/// assert!(spec.track);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Which benchmark.
    pub bench: BenchId,
    /// Which persistence scheme.
    pub scheme: SchemeKind,
    /// Simulated system.
    pub system: SystemConfig,
    /// Thread count.
    pub threads: u32,
    /// Transactions per thread.
    pub ops_per_thread: u64,
    /// Payload bytes written per region (the paper uses 64B and 2KB).
    pub value_bytes: u64,
    /// Key universe size.
    pub keyspace: u64,
    /// Keys inserted by the setup phase.
    pub setup_keys: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Enable the crash-consistency shadow.
    pub track: bool,
    /// Arm a power failure at the N-th persistent write.
    pub crash_after: Option<u64>,
    /// Event-trace settings (off by default; `ASAP_TRACE` via
    /// [`TraceSettings::from_env`]).
    pub trace: TraceSettings,
    /// Telemetry sampler settings (off by default; `ASAP_TELEMETRY` via
    /// [`TelemetrySettings::from_env`]).
    pub telemetry: TelemetrySettings,
}

impl WorkloadSpec {
    /// A default spec on the full Table 2 system.
    pub fn new(bench: BenchId, scheme: SchemeKind) -> Self {
        WorkloadSpec {
            bench,
            scheme,
            system: SystemConfig::table2(),
            threads: 4,
            ops_per_thread: 200,
            value_bytes: 64,
            keyspace: 2048,
            setup_keys: 512,
            seed: 0xA5A5_0001,
            track: false,
            crash_after: None,
            trace: TraceSettings::disabled(),
            telemetry: TelemetrySettings::disabled(),
        }
    }

    /// A fast spec on the small test system.
    pub fn small(bench: BenchId, scheme: SchemeKind) -> Self {
        let mut s = Self::new(bench, scheme);
        s.system = SystemConfig::small();
        s.threads = 2;
        s.ops_per_thread = 50;
        s.keyspace = 256;
        s.setup_keys = 64;
        s
    }

    /// Sets the per-region payload size (64 or 2048 in the paper).
    pub fn with_value_bytes(mut self, bytes: u64) -> Self {
        self.value_bytes = bytes;
        self
    }

    /// Sets the thread count.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Sets ops per thread.
    pub fn with_ops(mut self, ops: u64) -> Self {
        self.ops_per_thread = ops;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the verification shadow.
    pub fn with_tracking(mut self) -> Self {
        self.track = true;
        self
    }

    /// Arms a crash.
    pub fn with_crash_after(mut self, writes: u64) -> Self {
        self.crash_after = Some(writes);
        self
    }

    /// Replaces the system configuration.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Enables event tracing for the run.
    pub fn with_trace(mut self, trace: TraceSettings) -> Self {
        self.trace = trace;
        self
    }

    /// Returns this spec with telemetry sampling configured (e.g.
    /// [`TelemetrySettings::from_env`] for the `ASAP_TELEMETRY` knobs).
    pub fn with_telemetry(mut self, telemetry: TelemetrySettings) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The spec's content fingerprint: [`hash_bytes`] of the spec's
    /// canonical JSON, the exact text every cache file stores under
    /// `"spec"` ([`crate::resultjson`]). That JSON writes *every* field —
    /// benchmark, scheme (including ablation opt subsets), the full system
    /// configuration, scale parameters, seed, crash arming, and the
    /// trace/telemetry settings (those change the exported artifacts, so a
    /// cached result must be keyed on them too).
    ///
    /// Because a run is a pure function of its spec and the binary, this
    /// fingerprint plus [`asap_sim::fingerprint::build_fingerprint`] is a
    /// complete cache key for a [`RunResult`](crate::RunResult): equal
    /// fingerprints (same binary) imply bit-identical results. The tests
    /// below and `tests/prop_resultjson.rs` hold the "every field" claim
    /// by mutating each one and asserting the hash moves.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut json = String::with_capacity(1024);
        crate::resultjson::spec_to_json(&mut json, self);
        hash_bytes(json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_nine_in_figure_order() {
        let all = BenchId::all();
        assert_eq!(all.len(), 9);
        assert_eq!(all[0].label(), "BN");
        assert_eq!(all[8].label(), "TPCC");
        assert_eq!(BenchId::fig1().len(), 8);
        assert!(!BenchId::fig1().contains(&BenchId::Tpcc));
    }

    #[test]
    fn display_uses_labels() {
        assert_eq!(BenchId::Q.to_string(), "Q");
        assert_eq!(BenchId::Ss.to_string(), "SS");
    }

    #[test]
    fn fingerprint_is_deterministic_and_field_sensitive() {
        use asap_core::scheme::AsapOpts;
        let base = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap);
        assert_eq!(base.fingerprint(), base.fingerprint());
        let variants = [
            WorkloadSpec::new(BenchId::Q, SchemeKind::Asap),
            WorkloadSpec::new(BenchId::Hm, SchemeKind::SwUndo),
            WorkloadSpec::new(BenchId::Hm, SchemeKind::AsapWith(AsapOpts::all())),
            base.with_threads(5),
            base.with_ops(201),
            base.with_value_bytes(2048),
            base.with_seed(1),
            base.with_tracking(),
            base.with_crash_after(0),
            base.with_system(SystemConfig::small()),
            base.with_trace(TraceSettings::enabled()),
            base.with_telemetry(TelemetrySettings::enabled()),
        ];
        for v in &variants {
            assert_ne!(v.fingerprint(), base.fingerprint(), "{v:?}");
        }
    }

    /// Asserts every spec fingerprints differently from `base` and from
    /// each other (no aliasing between fields holding swapped values).
    fn assert_all_distinct(base: &WorkloadSpec, specs: &[WorkloadSpec]) {
        let base_fp = base.fingerprint();
        assert_eq!(
            base_fp,
            base.fingerprint(),
            "fingerprint must be deterministic"
        );
        for s in specs {
            assert_ne!(s.fingerprint(), base_fp, "mutation not seen: {s:?}");
        }
        let mut fps: Vec<Fingerprint> = specs.iter().map(WorkloadSpec::fingerprint).collect();
        fps.push(base_fp);
        fps.sort();
        let before = fps.len();
        fps.dedup();
        assert_eq!(fps.len(), before, "fingerprint collision among mutants");
    }

    #[test]
    fn system_fingerprint_sees_every_field() {
        let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap);
        let base = spec.system;
        let mut mutants: Vec<WorkloadSpec> = Vec::new();
        macro_rules! mutant {
            ($field:ident . $($rest:tt)*) => {{
                let mut m = base;
                m.$field.$($rest)*;
                mutants.push(spec.with_system(m));
            }};
            ($field:ident = $v:expr) => {{
                let mut m = base;
                m.$field = $v;
                mutants.push(spec.with_system(m));
            }};
        }
        mutant!(cores = 17);
        mutant!(l1.size_bytes = 64 << 10);
        mutant!(l1.ways = 4);
        mutant!(l1.latency = 5);
        mutant!(l2.latency = 15);
        mutant!(llc.size_bytes = 4 << 20);
        mutant!(mem.controllers = 1);
        mutant!(mem.channels_per_mc = 4);
        mutant!(mem.wpq_entries = 64);
        mutant!(mem.dram_latency = 151);
        mutant!(mem.dram_write_service = 13);
        mutant!(mem.pm_latency_mult = 4);
        mutant!(mem.mc_hop_latency = 41);
        mutant!(mem.wpq_residency = 0);
        mutant!(mem.wpq_drain_watermark = 16);
        mutant!(asap.cl_list_entries = 8);
        mutant!(asap.clptr_slots = 4);
        mutant!(asap.dep_list_entries = 64);
        mutant!(asap.dep_slots = 2);
        mutant!(asap.lh_wpq_entries = 16);
        mutant!(asap.bloom_bits = 4096);
        mutant!(asap.dpo_distance = 2);
        mutant!(asap.log_entries_per_record = 3);
        mutant!(asap.numa_broadcast_filter = true);
        mutant!(compute_cost = 2);
        mutant!(store_cost = 2);
        mutant!(lock_cost = 21);
        assert_eq!(mutants.len(), 27);
        assert_all_distinct(&spec, &mutants);
    }

    #[test]
    fn settings_fingerprints_differ() {
        let base = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap);
        let sampled = TelemetrySettings::enabled();
        let mut capped = sampled;
        capped.cap += 1;
        assert_all_distinct(
            &base,
            &[
                base.with_trace(TraceSettings::enabled()),
                base.with_trace(TraceSettings::with_cap(16)),
                base.with_trace(TraceSettings::with_cap(17)),
                base.with_telemetry(sampled),
                base.with_telemetry(sampled.with_period(64)),
                base.with_telemetry(capped),
            ],
        );
    }

    #[test]
    fn fingerprint_distinguishes_asap_opt_subsets() {
        use asap_core::scheme::AsapOpts;
        let spec = |o| WorkloadSpec::new(BenchId::Q, SchemeKind::AsapWith(o)).fingerprint();
        let fps = [
            spec(AsapOpts::none()),
            spec(AsapOpts::coalescing_only()),
            spec(AsapOpts::coalescing_and_lpo()),
            spec(AsapOpts::all()),
            WorkloadSpec::new(BenchId::Q, SchemeKind::Asap).fingerprint(),
        ];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn builders_compose() {
        let s = WorkloadSpec::small(BenchId::Hm, SchemeKind::Asap)
            .with_value_bytes(2048)
            .with_threads(3)
            .with_ops(10)
            .with_seed(7)
            .with_tracking()
            .with_crash_after(100);
        assert_eq!(s.value_bytes, 2048);
        assert_eq!(s.threads, 3);
        assert_eq!(s.ops_per_thread, 10);
        assert_eq!(s.seed, 7);
        assert!(s.track);
        assert_eq!(s.crash_after, Some(100));
    }
}
