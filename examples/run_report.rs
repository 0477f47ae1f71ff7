//! Self-contained HTML run report: one telemetry-enabled simulation,
//! rendered as a single file with inline-SVG sparklines for every
//! occupancy series, the per-region stall breakdown, the hottest PM
//! lines, and the region commit timeline. No external assets, no
//! JavaScript — open it anywhere, attach it to a bug report. The page
//! comes from the same renderer as the live `/report` endpoint
//! (`asap_bench::report::run_html`).
//!
//! ```sh
//! cargo run --release --example run_report
//! ```
//!
//! Environment knobs:
//!
//! - `ASAP_OPS` / `ASAP_THREADS` — workload scale (defaults 40 / 2)
//! - `ASAP_REPORT_OUT` — output path (default `target/run_report.html`)
//!
//! Telemetry is forced on (this report *is* the telemetry consumer),
//! sampling every 1024 cycles until decimation doubles the period.
//! Every JSON export the report draws on is round-tripped through the
//! in-tree parser first — parse, re-emit, re-parse, compare — so this
//! example doubles as an end-to-end validation of the exporters; it exits
//! nonzero if any export fails to round-trip.

use std::process::ExitCode;

use asap_core::scheme::SchemeKind;
use asap_sim::json;
use asap_sim::obs::{metrics, phase};
use asap_sim::TelemetrySettings;
use asap_workloads::{run, BenchId, RunResult, WorkloadSpec};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses `label` JSON, re-emits it canonically, parses that again, and
/// requires the two values to be equal.
fn validate_roundtrip(label: &str, text: &str) -> Result<(), String> {
    let v = json::parse(text).map_err(|e| format!("{label}: {e}"))?;
    let again =
        json::parse(&v.to_json()).map_err(|e| format!("{label}: re-emitted JSON broken: {e}"))?;
    if v != again {
        return Err(format!("{label}: JSON round-trip changed the value"));
    }
    Ok(())
}

/// Validates every export of `r` (and the process-wide phase and metrics
/// snapshots), then renders the report.
fn report(r: &RunResult) -> Result<String, String> {
    validate_roundtrip("stats", &r.stats.to_json())?;
    validate_roundtrip("timeseries", r.timeseries.as_deref().unwrap_or("null"))?;
    validate_roundtrip("lifecycle", r.lifecycle.as_deref().unwrap_or("null"))?;
    validate_roundtrip(
        "telemetry object",
        &r.telemetry_json().ok_or("telemetry object missing")?,
    )?;
    validate_roundtrip("phases", &phase::snapshot_json())?;
    validate_roundtrip("metrics", &metrics::snapshot_json())?;
    asap_bench::report::run_html(r)
}

fn main() -> ExitCode {
    asap_sim::warn_unknown_asap_env();
    let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
        .with_threads(env_u64("ASAP_THREADS", 2) as u32)
        .with_ops(env_u64("ASAP_OPS", 40))
        .with_telemetry(TelemetrySettings::enabled());
    // Scoped like a grid cell so the host-phase section has a real
    // Simulate entry even for this single-run report.
    let r = {
        let _t = phase::scope(phase::Phase::Simulate);
        run(&spec)
    };

    let html = match report(&r) {
        Ok(html) => html,
        Err(e) => {
            eprintln!("run_report: export validation FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = std::env::var("ASAP_REPORT_OUT").unwrap_or_else(|_| "target/run_report.html".into());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, &html) {
        eprintln!("run_report: could not write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "run_report: validated stats/timeseries/lifecycle/phases/metrics exports; \
         wrote {out} ({} bytes)",
        html.len()
    );
    ExitCode::SUCCESS
}
