//! Regression: consecutive wall-clock records in one process must not
//! repeat each other's phase totals (the `crash_sweep_legacy` record used
//! to re-report `crash_sweep`'s `simulate_us`/`cells_timed`, because the
//! scoped-timer totals were process-cumulative and never taken). Each
//! record now *takes* the totals, so back-to-back emits report disjoint
//! intervals. Also covers the sweep-throughput fields
//! (`crash_points`/`points_per_sec`) of sweep records.
//!
//! One `#[test]`: the phase totals are process-global, so a parallel test
//! thread would race the interval assertions.

use std::time::Duration;

use asap_bench::{emit_wallclock_record, run_grid_jobs};
use asap_core::scheme::SchemeKind;
use asap_sim::json::{self, Value};
use asap_workloads::{BenchId, WorkloadSpec};

fn u64_field(rec: &Value, key: &str) -> Option<u64> {
    rec.get(key).and_then(Value::as_u64)
}

#[test]
fn consecutive_records_own_their_phase_intervals() {
    let tmp = std::env::temp_dir().join(format!("asap-wallclock-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let path = tmp.join("wallclock.json");

    // One simulated grid puts real time into the Simulate phase.
    let specs = [WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(10)];
    let grid = run_grid_jobs(&specs, 1);

    // First record (a sweep one, with throughput fields), then a second
    // emit with *no* simulation in between — the leaked-totals shape.
    emit_wallclock_record(
        &path,
        "sweep_a",
        Duration::from_millis(80),
        &[&grid],
        Some(40),
    )
    .expect("first record lands");
    emit_wallclock_record(&path, "legacy_b", Duration::from_millis(5), &[&grid], None)
        .expect("second record lands");

    let body = std::fs::read_to_string(&path).unwrap();
    let parsed = json::parse(&body).expect("trajectory parses");
    let recs = parsed.as_array().expect("array of records");
    assert_eq!(recs.len(), 2);
    let a = &recs[0];
    let b = &recs[1];
    assert_eq!(a.get("figure").and_then(Value::as_str), Some("sweep_a"));
    assert_eq!(b.get("figure").and_then(Value::as_str), Some("legacy_b"));

    // The first record owns the grid's simulate time; the second emit ran
    // no cells, so its interval must be empty — not a repeat of the
    // first's totals.
    let pa = a.get("phases").expect("first record embeds phases");
    let pb = b.get("phases").expect("second record embeds phases");
    assert!(
        u64_field(pa, "cells_timed") >= Some(1),
        "the grid's cell was timed into the first record: {pa:?}"
    );
    assert_eq!(
        u64_field(pb, "cells_timed"),
        Some(0),
        "no cells ran between the emits: {pb:?}"
    );
    assert_eq!(
        u64_field(pb, "simulate_us"),
        Some(0),
        "no simulate time accrued between the emits: {pb:?}"
    );

    // Sweep-throughput fields: present on the sweep record with the
    // right arithmetic, absent on the plain record.
    assert_eq!(u64_field(a, "crash_points"), Some(40));
    let pps = a
        .get("points_per_sec")
        .and_then(Value::as_f64)
        .expect("points_per_sec present");
    assert!((pps - 40.0 / 0.08).abs() < 1.0, "40 points / 0.08s: {pps}");
    assert!(b.get("crash_points").is_none());
    assert!(b.get("points_per_sec").is_none());

    let _ = std::fs::remove_dir_all(&tmp);
}
