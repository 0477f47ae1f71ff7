//! The `wallclock_written` event (and stderr note) must fire only after
//! the atomic rename has succeeded — a failed write must leave no trace
//! claiming otherwise.
//!
//! One `#[test]`: the event sink is process-global.

use std::time::Duration;

use asap_bench::{emit_wallclock_record, run_grid_jobs};
use asap_core::scheme::SchemeKind;
use asap_sim::json::{self, Value};
use asap_sim::obs::events;
use asap_workloads::{BenchId, WorkloadSpec};

#[test]
fn wallclock_written_only_after_successful_rename() {
    let tmp = std::env::temp_dir().join(format!("asap-wallclock-ev-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let stream = tmp.join("events.ndjson");
    events::set_sink(Some(&stream));

    let specs = [WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(10)];
    let grid = run_grid_jobs(&specs, 1);

    // Failure path: the parent directory does not exist, so the
    // temp-file write fails before any rename. (chmod tricks don't work
    // here — CI may run as root, which ignores permission bits.)
    let bad = tmp.join("no-such-dir").join("wallclock.json");
    let err = emit_wallclock_record(&bad, "figtest", Duration::from_millis(5), &[&grid], None);
    assert!(err.is_err(), "missing parent dir must fail the write");

    // Success path: same grid, writable location.
    let good = tmp.join("wallclock.json");
    emit_wallclock_record(&good, "figtest", Duration::from_millis(5), &[&grid], None)
        .expect("writable path succeeds");
    events::set_sink(None);

    // Exactly one wallclock_written record, and it names the path that
    // actually landed.
    let text = std::fs::read_to_string(&stream).unwrap();
    let written: Vec<Value> = text
        .lines()
        .map(|l| json::parse(l).expect("record parses"))
        .filter(|v| v.get("ev").and_then(Value::as_str) == Some("wallclock_written"))
        .collect();
    assert_eq!(written.len(), 1, "failed write must not emit the event");
    assert_eq!(
        written[0].get("figure").and_then(Value::as_str),
        Some("figtest")
    );
    assert_eq!(
        written[0].get("path").and_then(Value::as_str),
        Some(good.display().to_string().as_str())
    );

    // The trajectory file itself parses and carries the phases profile.
    let body = std::fs::read_to_string(&good).unwrap();
    let parsed = json::parse(&body).expect("trajectory parses");
    let rec = parsed
        .as_array()
        .and_then(<[Value]>::first)
        .expect("one record");
    assert_eq!(rec.get("figure").and_then(Value::as_str), Some("figtest"));
    let phases = rec.get("phases").expect("record embeds phases");
    assert!(phases.get("simulate_us").and_then(Value::as_u64).is_some());
    assert!(phases.get("cells_timed").and_then(Value::as_u64).is_some());

    let _ = std::fs::remove_dir_all(&tmp);
}
