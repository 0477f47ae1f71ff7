//! Property suite for the run cache's two foundations:
//!
//! 1. the cell JSON of `asap_workloads::resultjson` is *lossless* —
//!    any `RunResult`, including adversarial float/string/extreme-integer
//!    content no real simulation would produce, survives
//!    `to_json` → `from_json` field-exact and re-serializes to identical
//!    bytes;
//! 2. the spec fingerprint is *complete* — changing any single field of
//!    a random `WorkloadSpec` moves the fingerprint, so no two distinct
//!    cells can ever share a cache key.

use asap_core::machine::RunOutcome;
use asap_core::scheme::{AsapOpts, RecoveryReport, SchemeKind};
use asap_mem::Rid;
use asap_sim::{Stats, SystemConfig, TelemetrySettings, TraceSettings};
use asap_workloads::resultjson::{from_json, results_identical, to_json};
use asap_workloads::{BenchId, RunResult, StallBreakdown, WorkloadSpec};
use proptest::prelude::*;
use proptest::strategy::FnGen;
use proptest::test_runner::TestRng;

/// An adversarial `f64`: signed zeros, infinities, NaN, huge/tiny magnitudes
/// and arbitrary finite bit patterns. NaN payloads are canonicalized (the
/// codec stores every NaN as the string `"nan"`), so only canonical NaN is
/// generated.
fn arb_f64(rng: &mut TestRng) -> f64 {
    match rng.below(8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => {
            let v = f64::from_bits(rng.next_u64());
            if v.is_nan() {
                f64::NAN
            } else {
                v
            }
        }
        6 => rng.unit_f64() * 1e18,
        _ => -rng.unit_f64() / 1e9,
    }
}

/// A u64 biased toward the edges the float-based JSON path would mangle.
fn arb_u64(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => u64::MAX - rng.below(3),
        1 => (1 << 53) + rng.below(16), // beyond f64's exact-integer range
        2 => rng.next_u64(),
        _ => rng.below(100),
    }
}

/// A string exercising every escape class the JSON writer handles.
fn arb_string(rng: &mut TestRng) -> String {
    const PIECES: [&str; 8] = [
        "plain",
        "quote\"backslash\\",
        "control\u{1}\u{1f}",
        "newline\n\ttab",
        "unicode é→😀",
        "",
        "{\"nested\":\"json\"}",
        "trailing space ",
    ];
    let n = rng.below(4);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]);
    }
    s
}

fn arb_opt_string(rng: &mut TestRng) -> Option<String> {
    if rng.below(3) == 0 {
        None
    } else {
        Some(arb_string(rng))
    }
}

fn arb_scheme(rng: &mut TestRng) -> SchemeKind {
    match rng.below(7) {
        0 => SchemeKind::NoPersist,
        1 => SchemeKind::SwUndo,
        2 => SchemeKind::SwDpoOnly,
        3 => SchemeKind::HwUndo,
        4 => SchemeKind::HwRedo,
        5 => SchemeKind::Asap,
        _ => SchemeKind::AsapWith(AsapOpts {
            dpo_coalescing: rng.below(2) == 0,
            lpo_dropping: rng.below(2) == 0,
            dpo_dropping: rng.below(2) == 0,
        }),
    }
}

fn arb_spec(rng: &mut TestRng) -> WorkloadSpec {
    let bench = BenchId::all()[rng.below(9) as usize];
    let mut s = WorkloadSpec::new(bench, arb_scheme(rng));
    if rng.below(2) == 0 {
        s.system = SystemConfig::small();
    }
    s.system.cores = 1 + rng.below(64) as u32;
    s.system.mem.wpq_residency = arb_u64(rng);
    s.threads = 1 + rng.below(16) as u32;
    s.ops_per_thread = arb_u64(rng);
    s.value_bytes = arb_u64(rng);
    s.keyspace = arb_u64(rng);
    s.setup_keys = arb_u64(rng);
    s.seed = arb_u64(rng);
    s.track = rng.below(2) == 0;
    s.crash_after = if rng.below(2) == 0 {
        Some(arb_u64(rng))
    } else {
        None
    };
    s.trace = TraceSettings {
        enabled: rng.below(2) == 0,
        cap: rng.below(1 << 21) as usize,
    };
    s.telemetry = TelemetrySettings {
        enabled: rng.below(2) == 0,
        period: 1 + rng.below(4096),
        cap: rng.below(1 << 16) as usize,
    };
    s
}

fn arb_stats(rng: &mut TestRng) -> Stats {
    let mut st = Stats::new();
    for _ in 0..rng.below(4) {
        st.add(&arb_string(rng), arb_u64(rng) / 2);
    }
    for _ in 0..rng.below(3) {
        let name = arb_string(rng);
        for _ in 0..1 + rng.below(20) {
            st.sample(&name, arb_u64(rng));
        }
    }
    st
}

fn arb_result(rng: &mut TestRng) -> RunResult {
    let crashed = rng.below(3) == 0;
    RunResult {
        spec: arb_spec(rng),
        tx: arb_u64(rng),
        exec_cycles: arb_u64(rng),
        drained_cycles: arb_u64(rng),
        throughput: arb_f64(rng),
        pm_writes: arb_u64(rng),
        region_cycles_mean: arb_f64(rng),
        stalls: StallBreakdown {
            compute: arb_f64(rng),
            log_full: arb_f64(rng),
            wpq_backpressure: arb_f64(rng),
            dependency_wait: arb_f64(rng),
            commit_wait: arb_f64(rng),
        },
        stats: arb_stats(rng),
        chrome_trace: arb_opt_string(rng),
        trace_dump: arb_opt_string(rng),
        timeseries: arb_opt_string(rng),
        lifecycle: arb_opt_string(rng),
        lifecycle_dot: arb_opt_string(rng),
        hot_lines: (0..rng.below(6))
            .map(|_| (arb_u64(rng), arb_u64(rng)))
            .collect(),
        outcome: if crashed {
            RunOutcome::Crashed
        } else {
            RunOutcome::Completed
        },
        recovery: if crashed {
            Some(RecoveryReport {
                uncommitted: (0..rng.below(5))
                    .map(|_| Rid::new(rng.below(u64::from(u32::MAX)) as u32, arb_u64(rng)))
                    .collect(),
                replayed: (0..rng.below(5))
                    .map(|_| Rid::new(rng.below(16) as u32, rng.below(1000)))
                    .collect(),
                restored_lines: arb_u64(rng),
            })
        } else {
            None
        },
        crash_points: (0..rng.below(4))
            .map(|_| asap_workloads::CrashPointOutcome {
                crash_after: arb_u64(rng),
                crashed: rng.below(2) == 0,
                uncommitted: arb_u64(rng),
                replayed: arb_u64(rng),
                restored_lines: arb_u64(rng),
                tx: arb_u64(rng),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn result_json_round_trip_is_lossless(r in FnGen::new(arb_result)) {
        let text = to_json(&r);
        let back = from_json(&text).expect("canonical JSON must decode");
        prop_assert!(results_identical(&r, &back), "decode changed a field");
        // The form is canonical: serializing the reconstruction is byte-equal,
        // so cache files can be compared/deduplicated as raw bytes.
        prop_assert_eq!(to_json(&back), text);
    }

    #[test]
    fn fingerprint_moves_when_any_single_field_changes(
        spec in FnGen::new(arb_spec),
        which in 0u64..15,
    ) {
        let base = spec.fingerprint();
        let mut m = spec;
        match which {
            0 => {
                m.bench = if m.bench == BenchId::Q { BenchId::Hm } else { BenchId::Q };
            }
            1 => {
                m.scheme = match m.scheme {
                    SchemeKind::NoPersist => SchemeKind::Asap,
                    _ => SchemeKind::NoPersist,
                };
            }
            2 => m.system.cores += 1,
            3 => m.threads += 1,
            4 => m.ops_per_thread = m.ops_per_thread.wrapping_add(1),
            5 => m.value_bytes = m.value_bytes.wrapping_add(1),
            6 => m.keyspace = m.keyspace.wrapping_add(1),
            7 => m.setup_keys = m.setup_keys.wrapping_add(1),
            8 => m.seed = m.seed.wrapping_add(1),
            9 => m.track = !m.track,
            10 => {
                m.crash_after = match m.crash_after {
                    None => Some(0),
                    Some(n) => Some(n.wrapping_add(1)),
                };
            }
            11 => m.trace.enabled = !m.trace.enabled,
            12 => m.trace.cap += 1,
            13 => m.telemetry.period += 1,
            _ => m.telemetry.cap += 1,
        }
        prop_assert_ne!(m.fingerprint(), base, "mutation {} not keyed", which);
        // And the mutation is reversible evidence, not hash instability:
        prop_assert_eq!(spec.fingerprint(), base);
    }
}
