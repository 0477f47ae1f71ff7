//! Lossless JSON round-trip for [`RunResult`].
//!
//! The persistent run cache (`asap_bench::runcache`) stores finished
//! results on disk and must hand back a result *bit-identical* to a
//! fresh simulation — figure stdout is formatted from these fields, and
//! the equivalence suite compares it byte for byte. "Mostly right" JSON
//! is therefore useless here; this module's contract is exact:
//!
//! - every integer survives via [`asap_sim::json`]'s exact-integer
//!   parsing (`Value::Int`), including full-range `u64` counters;
//! - the `u128` sums inside [`Stats`] travel as decimal strings
//!   ([`Stats::to_exact_json`]);
//! - floats are emitted in Rust's shortest-round-trip form, with
//!   explicit spellings for the cases that would lose bits as bare
//!   literals (`-0.0`) or are not JSON numbers at all (`inf`, `-inf`,
//!   `nan` travel as tagged strings);
//! - serialization is canonical — equal results serialize to identical
//!   bytes, so cache files can be compared directly.
//!
//! The property suite in `tests/prop_resultjson.rs` drives randomized
//! results through [`to_json`] → [`from_json`] and asserts field-exact
//! equality.

use std::fmt::Write;

use asap_core::machine::RunOutcome;
use asap_core::scheme::{AsapOpts, RecoveryReport, SchemeKind};
use asap_mem::Rid;
use asap_sim::json::{self, Value};
use asap_sim::{CacheConfig, MemConfig, Stats, SystemConfig, TelemetrySettings, TraceSettings};

use crate::driver::{CrashPointOutcome, RunResult, StallBreakdown};
use crate::spec::{BenchId, WorkloadSpec};

/// Serializes a result to its canonical cache JSON (one line, no frills).
pub fn to_json(r: &RunResult) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"spec\":");
    spec_to_json(&mut out, &r.spec);
    let _ = write!(
        out,
        ",\"tx\":{},\"exec_cycles\":{},\"drained_cycles\":{},\"throughput\":{},\
         \"pm_writes\":{},\"region_cycles_mean\":{}",
        r.tx,
        r.exec_cycles,
        r.drained_cycles,
        float(r.throughput),
        r.pm_writes,
        float(r.region_cycles_mean),
    );
    let _ = write!(
        out,
        ",\"stalls\":{{\"compute\":{},\"log_full\":{},\"wpq_backpressure\":{},\
         \"dependency_wait\":{},\"commit_wait\":{}}}",
        float(r.stalls.compute),
        float(r.stalls.log_full),
        float(r.stalls.wpq_backpressure),
        float(r.stalls.dependency_wait),
        float(r.stalls.commit_wait),
    );
    out.push_str(",\"stats\":");
    out.push_str(&r.stats.to_exact_json());
    for (name, text) in [
        ("chrome_trace", &r.chrome_trace),
        ("trace_dump", &r.trace_dump),
        ("timeseries", &r.timeseries),
        ("lifecycle", &r.lifecycle),
        ("lifecycle_dot", &r.lifecycle_dot),
    ] {
        let _ = write!(out, ",\"{name}\":");
        match text {
            // The artifacts are themselves JSON/text blobs; they travel
            // as strings so the round trip is byte-exact whatever their
            // internal formatting.
            Some(t) => {
                let _ = write!(out, "\"{}\"", json::escape(t));
            }
            None => out.push_str("null"),
        }
    }
    out.push_str(",\"hot_lines\":[");
    for (i, (line, n)) in r.hot_lines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{line},{n}]");
    }
    out.push_str("],\"outcome\":");
    out.push_str(match r.outcome {
        RunOutcome::Completed => "\"completed\"",
        RunOutcome::Crashed => "\"crashed\"",
    });
    out.push_str(",\"recovery\":");
    match &r.recovery {
        None => out.push_str("null"),
        Some(rep) => {
            out.push_str("{\"uncommitted\":");
            rids_to_json(&mut out, &rep.uncommitted);
            out.push_str(",\"replayed\":");
            rids_to_json(&mut out, &rep.replayed);
            let _ = write!(out, ",\"restored_lines\":{}}}", rep.restored_lines);
        }
    }
    out.push_str(",\"crash_points\":[");
    for (i, c) in r.crash_points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"crash_after\":{},\"crashed\":{},\"uncommitted\":{},\"replayed\":{},\
             \"restored_lines\":{},\"tx\":{}}}",
            c.crash_after, c.crashed, c.uncommitted, c.replayed, c.restored_lines, c.tx,
        );
    }
    out.push(']');
    out.push('}');
    out
}

/// Deserializes a result from [`to_json`] output.
///
/// # Errors
///
/// Returns a description of the first missing, ill-typed, or
/// out-of-range field. A cache treats any error as a miss.
pub fn from_json(text: &str) -> Result<RunResult, String> {
    let v = json::parse(text).map_err(|e| format!("result: {e}"))?;
    let spec = spec_from_json(v.get("spec").ok_or("result: missing spec")?)?;
    let stats = Stats::from_exact_json(v.get("stats").ok_or("result: missing stats")?)?;
    let stalls = {
        let s = v.get("stalls").ok_or("result: missing stalls")?;
        StallBreakdown {
            compute: float_field(s, "compute")?,
            log_full: float_field(s, "log_full")?,
            wpq_backpressure: float_field(s, "wpq_backpressure")?,
            dependency_wait: float_field(s, "dependency_wait")?,
            commit_wait: float_field(s, "commit_wait")?,
        }
    };
    let hot_lines = v
        .get("hot_lines")
        .and_then(Value::as_array)
        .ok_or("result: missing hot_lines")?
        .iter()
        .map(|pair| {
            let p = pair.as_array().filter(|p| p.len() == 2);
            match p {
                Some(p) => Ok((
                    p[0].as_u64().ok_or("result: hot line addr not a u64")?,
                    p[1].as_u64().ok_or("result: hot line count not a u64")?,
                )),
                None => Err("result: hot_lines entry not a pair".to_string()),
            }
        })
        .collect::<Result<Vec<(u64, u64)>, String>>()?;
    let outcome = match v.get("outcome").and_then(Value::as_str) {
        Some("completed") => RunOutcome::Completed,
        Some("crashed") => RunOutcome::Crashed,
        _ => return Err("result: bad outcome".into()),
    };
    let recovery = match v.get("recovery").ok_or("result: missing recovery")? {
        Value::Null => None,
        rep => Some(RecoveryReport {
            uncommitted: rids_from_json(rep.get("uncommitted"))?,
            replayed: rids_from_json(rep.get("replayed"))?,
            restored_lines: u64_field(rep, "restored_lines")?,
        }),
    };
    // Absent in pre-sweep cache files: decode as the empty summary.
    let crash_points = match v.get("crash_points").and_then(Value::as_array) {
        None => Vec::new(),
        Some(list) => list
            .iter()
            .map(|c| {
                Ok(CrashPointOutcome {
                    crash_after: u64_field(c, "crash_after")?,
                    crashed: bool_field(c, "crashed")?,
                    uncommitted: u64_field(c, "uncommitted")?,
                    replayed: u64_field(c, "replayed")?,
                    restored_lines: u64_field(c, "restored_lines")?,
                    tx: u64_field(c, "tx")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    Ok(RunResult {
        spec,
        tx: u64_field(&v, "tx")?,
        exec_cycles: u64_field(&v, "exec_cycles")?,
        drained_cycles: u64_field(&v, "drained_cycles")?,
        throughput: float_field(&v, "throughput")?,
        pm_writes: u64_field(&v, "pm_writes")?,
        region_cycles_mean: float_field(&v, "region_cycles_mean")?,
        stalls,
        stats,
        chrome_trace: opt_str_field(&v, "chrome_trace")?,
        trace_dump: opt_str_field(&v, "trace_dump")?,
        timeseries: opt_str_field(&v, "timeseries")?,
        lifecycle: opt_str_field(&v, "lifecycle")?,
        lifecycle_dot: opt_str_field(&v, "lifecycle_dot")?,
        hot_lines,
        outcome,
        recovery,
        crash_points,
    })
}

/// Emits an `f64` so that parsing recovers the exact bit pattern:
/// shortest-round-trip decimal for ordinary values, an explicit `-0.0`
/// (a bare `-0` would parse as integer zero and drop the sign), and
/// tagged strings for the non-finite values JSON cannot spell.
fn float(v: f64) -> String {
    if v.is_nan() {
        "\"nan\"".into()
    } else if v == f64::INFINITY {
        "\"inf\"".into()
    } else if v == f64::NEG_INFINITY {
        "\"-inf\"".into()
    } else if v == 0.0 && v.is_sign_negative() {
        "-0.0".into()
    } else {
        format!("{v}")
    }
}

fn float_field(v: &Value, k: &str) -> Result<f64, String> {
    match v.get(k) {
        Some(Value::Str(s)) => match s.as_str() {
            "nan" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            _ => Err(format!("result: {k} bad float string")),
        },
        Some(n) => n
            .as_f64()
            .ok_or_else(|| format!("result: {k} not a number")),
        None => Err(format!("result: missing {k}")),
    }
}

fn u64_field(v: &Value, k: &str) -> Result<u64, String> {
    v.get(k)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("result: {k} not a u64"))
}

fn u32_field(v: &Value, k: &str) -> Result<u32, String> {
    u64_field(v, k)?
        .try_into()
        .map_err(|_| format!("result: {k} out of u32 range"))
}

fn bool_field(v: &Value, k: &str) -> Result<bool, String> {
    match v.get(k) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("result: {k} not a bool")),
    }
}

fn opt_str_field(v: &Value, k: &str) -> Result<Option<String>, String> {
    match v.get(k) {
        Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        _ => Err(format!("result: {k} not a string or null")),
    }
}

fn rids_to_json(out: &mut String, rids: &[Rid]) {
    out.push('[');
    for (i, r) in rids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", r.thread(), r.local());
    }
    out.push(']');
}

fn rids_from_json(v: Option<&Value>) -> Result<Vec<Rid>, String> {
    v.and_then(Value::as_array)
        .ok_or("result: missing rid list")?
        .iter()
        .map(|pair| {
            let p = pair.as_array().filter(|p| p.len() == 2);
            match p {
                Some(p) => {
                    let thread = p[0]
                        .as_u64()
                        .and_then(|t| u32::try_from(t).ok())
                        .ok_or("result: rid thread not a u32")?;
                    let local = p[1].as_u64().ok_or("result: rid local not a u64")?;
                    Ok(Rid::new(thread, local))
                }
                None => Err("result: rid entry not a pair".to_string()),
            }
        })
        .collect()
}

/// Appends the spec's canonical JSON: the `"spec"` object of every cache
/// file and, hashed, the spec's cache key ([`WorkloadSpec::fingerprint`]).
/// Every field is written; [`spec_from_json`] builds the spec back with an
/// exhaustive struct literal, so a field added to the spec and left out
/// here fails to compile there or fails the round-trip suite.
pub(crate) fn spec_to_json(out: &mut String, s: &WorkloadSpec) {
    let _ = write!(out, "{{\"bench\":\"{}\",\"scheme\":", s.bench.label());
    match s.scheme {
        SchemeKind::NoPersist => out.push_str("{\"kind\":\"np\"}"),
        SchemeKind::SwUndo => out.push_str("{\"kind\":\"sw\"}"),
        SchemeKind::SwDpoOnly => out.push_str("{\"kind\":\"sw_dpo_only\"}"),
        SchemeKind::HwUndo => out.push_str("{\"kind\":\"hw_undo\"}"),
        SchemeKind::HwRedo => out.push_str("{\"kind\":\"hw_redo\"}"),
        SchemeKind::Asap => out.push_str("{\"kind\":\"asap\"}"),
        SchemeKind::AsapWith(o) => {
            let _ = write!(
                out,
                "{{\"kind\":\"asap_with\",\"dpo_coalescing\":{},\"lpo_dropping\":{},\
                 \"dpo_dropping\":{}}}",
                o.dpo_coalescing, o.lpo_dropping, o.dpo_dropping
            );
        }
    }
    out.push_str(",\"system\":");
    system_to_json(out, &s.system);
    let _ = write!(
        out,
        ",\"threads\":{},\"ops_per_thread\":{},\"value_bytes\":{},\"keyspace\":{},\
         \"setup_keys\":{},\"seed\":{},\"track\":{}",
        s.threads, s.ops_per_thread, s.value_bytes, s.keyspace, s.setup_keys, s.seed, s.track,
    );
    match s.crash_after {
        Some(n) => {
            let _ = write!(out, ",\"crash_after\":{n}");
        }
        None => out.push_str(",\"crash_after\":null"),
    }
    let _ = write!(
        out,
        ",\"trace\":{{\"enabled\":{},\"cap\":{}}},\
         \"telemetry\":{{\"enabled\":{},\"period\":{},\"cap\":{}}}}}",
        s.trace.enabled, s.trace.cap, s.telemetry.enabled, s.telemetry.period, s.telemetry.cap,
    );
}

fn system_to_json(out: &mut String, sys: &SystemConfig) {
    let _ = write!(out, "{{\"cores\":{}", sys.cores);
    for (name, c) in [("l1", &sys.l1), ("l2", &sys.l2), ("llc", &sys.llc)] {
        let _ = write!(
            out,
            ",\"{name}\":{{\"size_bytes\":{},\"ways\":{},\"latency\":{}}}",
            c.size_bytes, c.ways, c.latency
        );
    }
    let (m, a) = (&sys.mem, &sys.asap);
    let _ = write!(
        out,
        ",\"mem\":{{\"controllers\":{},\"channels_per_mc\":{},\"wpq_entries\":{},\
         \"dram_latency\":{},\"dram_write_service\":{},\"pm_latency_mult\":{},\
         \"mc_hop_latency\":{},\"wpq_residency\":{},\"wpq_drain_watermark\":{}}},\
         \"asap\":{{\"cl_list_entries\":{},\"clptr_slots\":{},\"dep_list_entries\":{},\
         \"dep_slots\":{},\"lh_wpq_entries\":{},\"bloom_bits\":{},\"dpo_distance\":{},\
         \"log_entries_per_record\":{},\"numa_broadcast_filter\":{}}},\
         \"compute_cost\":{},\"store_cost\":{},\"lock_cost\":{}}}",
        m.controllers,
        m.channels_per_mc,
        m.wpq_entries,
        m.dram_latency,
        m.dram_write_service,
        m.pm_latency_mult,
        m.mc_hop_latency,
        m.wpq_residency,
        m.wpq_drain_watermark,
        a.cl_list_entries,
        a.clptr_slots,
        a.dep_list_entries,
        a.dep_slots,
        a.lh_wpq_entries,
        a.bloom_bits,
        a.dpo_distance,
        a.log_entries_per_record,
        a.numa_broadcast_filter,
        sys.compute_cost,
        sys.store_cost,
        sys.lock_cost,
    );
}

fn bench_from_label(label: &str) -> Result<BenchId, String> {
    BenchId::all()
        .into_iter()
        .find(|b| b.label() == label)
        .ok_or_else(|| format!("result: unknown bench {label}"))
}

fn cache_from_json(v: &Value) -> Result<CacheConfig, String> {
    Ok(CacheConfig {
        size_bytes: u64_field(v, "size_bytes")?,
        ways: u32_field(v, "ways")?,
        latency: u64_field(v, "latency")?,
    })
}

fn system_from_json(v: &Value) -> Result<SystemConfig, String> {
    let m = v.get("mem").ok_or("result: missing mem config")?;
    let a = v.get("asap").ok_or("result: missing asap config")?;
    Ok(SystemConfig {
        cores: u32_field(v, "cores")?,
        l1: cache_from_json(v.get("l1").ok_or("result: missing l1")?)?,
        l2: cache_from_json(v.get("l2").ok_or("result: missing l2")?)?,
        llc: cache_from_json(v.get("llc").ok_or("result: missing llc")?)?,
        mem: MemConfig {
            controllers: u32_field(m, "controllers")?,
            channels_per_mc: u32_field(m, "channels_per_mc")?,
            wpq_entries: u32_field(m, "wpq_entries")?,
            dram_latency: u64_field(m, "dram_latency")?,
            dram_write_service: u64_field(m, "dram_write_service")?,
            pm_latency_mult: u64_field(m, "pm_latency_mult")?,
            mc_hop_latency: u64_field(m, "mc_hop_latency")?,
            wpq_residency: u64_field(m, "wpq_residency")?,
            wpq_drain_watermark: u32_field(m, "wpq_drain_watermark")?,
        },
        asap: asap_sim::AsapConfig {
            cl_list_entries: u32_field(a, "cl_list_entries")?,
            clptr_slots: u32_field(a, "clptr_slots")?,
            dep_list_entries: u32_field(a, "dep_list_entries")?,
            dep_slots: u32_field(a, "dep_slots")?,
            lh_wpq_entries: u32_field(a, "lh_wpq_entries")?,
            bloom_bits: u32_field(a, "bloom_bits")?,
            dpo_distance: u32_field(a, "dpo_distance")?,
            log_entries_per_record: u32_field(a, "log_entries_per_record")?,
            numa_broadcast_filter: bool_field(a, "numa_broadcast_filter")?,
        },
        compute_cost: u64_field(v, "compute_cost")?,
        store_cost: u64_field(v, "store_cost")?,
        lock_cost: u64_field(v, "lock_cost")?,
    })
}

fn spec_from_json(v: &Value) -> Result<WorkloadSpec, String> {
    let bench = bench_from_label(
        v.get("bench")
            .and_then(Value::as_str)
            .ok_or("result: missing bench")?,
    )?;
    let sch = v.get("scheme").ok_or("result: missing scheme")?;
    let scheme = match sch.get("kind").and_then(Value::as_str) {
        Some("np") => SchemeKind::NoPersist,
        Some("sw") => SchemeKind::SwUndo,
        Some("sw_dpo_only") => SchemeKind::SwDpoOnly,
        Some("hw_undo") => SchemeKind::HwUndo,
        Some("hw_redo") => SchemeKind::HwRedo,
        Some("asap") => SchemeKind::Asap,
        Some("asap_with") => SchemeKind::AsapWith(AsapOpts {
            dpo_coalescing: bool_field(sch, "dpo_coalescing")?,
            lpo_dropping: bool_field(sch, "lpo_dropping")?,
            dpo_dropping: bool_field(sch, "dpo_dropping")?,
        }),
        _ => return Err("result: unknown scheme kind".into()),
    };
    let crash_after = match v.get("crash_after") {
        Some(Value::Null) => None,
        Some(n) => Some(n.as_u64().ok_or("result: crash_after not a u64")?),
        None => return Err("result: missing crash_after".into()),
    };
    let tr = v.get("trace").ok_or("result: missing trace settings")?;
    let trace = TraceSettings {
        enabled: bool_field(tr, "enabled")?,
        cap: u64_field(tr, "cap")? as usize,
    };
    let tl = v
        .get("telemetry")
        .ok_or("result: missing telemetry settings")?;
    let telemetry = TelemetrySettings {
        enabled: bool_field(tl, "enabled")?,
        period: u64_field(tl, "period")?,
        cap: u64_field(tl, "cap")? as usize,
    };
    Ok(WorkloadSpec {
        bench,
        scheme,
        system: system_from_json(v.get("system").ok_or("result: missing system")?)?,
        threads: u32_field(v, "threads")?,
        ops_per_thread: u64_field(v, "ops_per_thread")?,
        value_bytes: u64_field(v, "value_bytes")?,
        keyspace: u64_field(v, "keyspace")?,
        setup_keys: u64_field(v, "setup_keys")?,
        seed: u64_field(v, "seed")?,
        track: bool_field(v, "track")?,
        crash_after,
        trace,
        telemetry,
    })
}

/// Field-exact equality of two results (floats compared by bit pattern,
/// the stats registry structurally). `RunResult` deliberately does not
/// implement `PartialEq` — float fields make a derived `==` misleading —
/// but the cache and its tests need an exactness oracle.
pub fn results_identical(a: &RunResult, b: &RunResult) -> bool {
    let spec_eq = {
        let (sa, sb) = (&a.spec, &b.spec);
        let mut x = String::new();
        let mut y = String::new();
        spec_to_json(&mut x, sa);
        spec_to_json(&mut y, sb);
        x == y
    };
    spec_eq
        && a.tx == b.tx
        && a.exec_cycles == b.exec_cycles
        && a.drained_cycles == b.drained_cycles
        && a.throughput.to_bits() == b.throughput.to_bits()
        && a.pm_writes == b.pm_writes
        && a.region_cycles_mean.to_bits() == b.region_cycles_mean.to_bits()
        && stall_bits(&a.stalls) == stall_bits(&b.stalls)
        && a.stats == b.stats
        && a.chrome_trace == b.chrome_trace
        && a.trace_dump == b.trace_dump
        && a.timeseries == b.timeseries
        && a.lifecycle == b.lifecycle
        && a.lifecycle_dot == b.lifecycle_dot
        && a.hot_lines == b.hot_lines
        && a.outcome == b.outcome
        && a.recovery == b.recovery
        && a.crash_points == b.crash_points
}

fn stall_bits(s: &StallBreakdown) -> [u64; 5] {
    [
        s.compute.to_bits(),
        s.log_full.to_bits(),
        s.wpq_backpressure.to_bits(),
        s.dependency_wait.to_bits(),
        s.commit_wait.to_bits(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run;

    #[test]
    fn real_run_round_trips_exactly() {
        let spec = WorkloadSpec::small(BenchId::Hm, SchemeKind::Asap)
            .with_ops(15)
            .with_telemetry(TelemetrySettings::enabled().with_period(64));
        let r = run(&spec);
        let text = to_json(&r);
        let back = from_json(&text).expect("decodes");
        assert!(results_identical(&r, &back));
        // The form is canonical: re-serializing the reconstruction is byte-equal.
        assert_eq!(to_json(&back), text);
    }

    #[test]
    fn crashed_run_round_trips_recovery_report() {
        let spec = WorkloadSpec::small(BenchId::Q, SchemeKind::HwUndo)
            .with_ops(30)
            .with_tracking()
            .with_crash_after(25);
        let r = run(&spec);
        assert_eq!(r.outcome, RunOutcome::Crashed);
        let back = from_json(&to_json(&r)).expect("decodes");
        assert!(results_identical(&r, &back));
        assert_eq!(back.recovery, r.recovery);
    }

    #[test]
    fn float_spellings_round_trip() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -2.75e-3,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            1e100,
        ] {
            let doc = format!("{{\"x\":{}}}", float(v));
            let parsed = json::parse(&doc).expect("parses");
            let back = float_field(&parsed, "x").expect("decodes");
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        // NaN: any NaN in, canonical NaN out.
        let doc = format!("{{\"x\":{}}}", float(f64::NAN));
        assert!(float_field(&json::parse(&doc).unwrap(), "x")
            .unwrap()
            .is_nan());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(from_json("").is_err());
        assert!(from_json("{}").is_err());
        assert!(from_json("[1,2]").is_err());
        // A valid document with one field clobbered.
        let r = run(&WorkloadSpec::small(BenchId::Q, SchemeKind::NoPersist).with_ops(5));
        let good = to_json(&r);
        let bad = good.replace("\"outcome\":\"completed\"", "\"outcome\":\"maybe\"");
        assert!(from_json(&bad).is_err());
    }
}
