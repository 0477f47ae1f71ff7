//! Committed goldens for a handful of simulation cells.
//!
//! Each cell is pinned by one line of `tests/golden/cells.txt`: a label
//! and the fingerprint of the cell's canonical result JSON
//! (`asap_workloads::resultjson::to_json`), which covers every counter,
//! float, stats entry and exported artifact (telemetry, lifecycle log,
//! traces, crash-recovery report). The goldens are fixed expectations,
//! not a comparison of one engine mode against another, so any change to
//! simulated behaviour shows up here.
//!
//! The cells cover the memory system's corners: multi-channel traffic
//! from several threads, a telemetry cell, a crash-and-recover cell, a
//! lazily drained WPQ whose drain checks land thousands of cycles out,
//! and a traced cell that records every WPQ accept and drain.
//!
//! One crash sweep is pinned the same way by `tests/golden/sweep.txt`:
//! the baseline (crash-point summary included) and every fork of a
//! lifecycle-planned sweep, hashed as one concatenated result JSON.
//!
//! On a mismatch the test names the first differing cell and prints the
//! line the new code would write. Update the files by hand only when a
//! change is meant to alter simulated results.

use asap_bench::runcache::RunCacheConfig;
use asap_core::scheme::SchemeKind;
use asap_sim::fingerprint::hash_bytes;
use asap_sim::{SystemConfig, TelemetrySettings, TraceSettings};
use asap_workloads::{enumerate_crash_points, resultjson, run, BenchId, WorkloadSpec};

const GOLDEN: &str = include_str!("golden/cells.txt");
const SWEEP_GOLDEN: &str = include_str!("golden/sweep.txt");

fn cells() -> Vec<(&'static str, WorkloadSpec)> {
    let mut delayed = SystemConfig::table2();
    delayed.mem.wpq_residency = 4096;
    vec![
        (
            "q-asap-t4-o40",
            WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
                .with_threads(4)
                .with_ops(40),
        ),
        (
            "hm-swundo-t2-o30",
            WorkloadSpec::new(BenchId::Hm, SchemeKind::SwUndo)
                .with_threads(2)
                .with_ops(30),
        ),
        (
            "bt-hwredo-t2-o30",
            WorkloadSpec::new(BenchId::Bt, SchemeKind::HwRedo)
                .with_threads(2)
                .with_ops(30),
        ),
        (
            "hm-asap-t2-o25-telemetry",
            WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
                .with_threads(2)
                .with_ops(25)
                .with_telemetry(TelemetrySettings::enabled()),
        ),
        (
            "hm-hwundo-t2-o30-crash40",
            WorkloadSpec::new(BenchId::Hm, SchemeKind::HwUndo)
                .with_threads(2)
                .with_ops(30)
                .with_tracking()
                .with_crash_after(40),
        ),
        (
            "tpcc-asap-t2-o15-residency4096",
            WorkloadSpec::new(BenchId::Tpcc, SchemeKind::Asap)
                .with_threads(2)
                .with_ops(15)
                .with_system(delayed),
        ),
        (
            "q-asap-t2-o20-traced",
            WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
                .with_threads(2)
                .with_ops(20)
                .with_trace(TraceSettings::enabled()),
        ),
    ]
}

#[test]
fn cells_match_committed_goldens() {
    let expected: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.split_once(' ')
                .unwrap_or_else(|| panic!("malformed golden line {l:?}"))
        })
        .collect();
    let cells = cells();
    assert_eq!(
        expected.len(),
        cells.len(),
        "tests/golden/cells.txt must hold one line per cell"
    );
    for ((label, spec), (want_label, want)) in cells.iter().zip(&expected) {
        assert_eq!(label, want_label, "golden lines out of cell order");
        let digest = hash_bytes(resultjson::to_json(&run(spec)).as_bytes()).hex();
        assert_eq!(
            digest, *want,
            "first differing cell: {label}\nnew golden line: {label} {digest}"
        );
    }
}

#[test]
fn sweep_matches_committed_golden() {
    let label = "hm-asap-t2-o30-sweep16";
    let spec = WorkloadSpec::small(BenchId::Hm, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(30)
        .with_tracking();
    let plan = enumerate_crash_points(&spec, 16);
    let sweep = asap_bench::run_crash_sweep_with(
        &spec,
        &plan.points,
        (plan.prefix_writes / 8).max(1),
        &RunCacheConfig::off(),
    );
    let mut json = resultjson::to_json(&sweep.baseline);
    for fork in &sweep.forks {
        json.push_str(&resultjson::to_json(fork));
    }
    let line = format!("{label} {}", hash_bytes(json.as_bytes()).hex());
    assert_eq!(
        SWEEP_GOLDEN.trim_end(),
        line,
        "the sweep diverged\nnew golden line: {line}"
    );
}
