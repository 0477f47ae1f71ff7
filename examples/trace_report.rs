//! Observability demo: runs one benchmark with event tracing and writes a
//! Chrome trace (open it at `ui.perfetto.dev`) plus a JSON stats report
//! with per-region cycle breakdowns and latency histograms.
//!
//! ```sh
//! ASAP_TRACE=1 cargo run --release --example trace_report
//! ```
//!
//! Environment knobs:
//!
//! - `ASAP_TRACE` — enable tracing (anything but empty/`0`); the ring
//!   keeps the newest 2^20 records

use std::fs;

use asap_core::scheme::SchemeKind;
use asap_sim::TraceSettings;
use asap_workloads::{run, BenchId, WorkloadSpec};

fn main() {
    asap_sim::warn_unknown_asap_env();
    let settings = TraceSettings::from_env();
    if !settings.enabled {
        println!("note: tracing is OFF; set ASAP_TRACE=1 to capture events\n");
    }
    let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
        .with_ops(100)
        .with_trace(settings);
    let r = run(&spec);

    println!("--- HM / ASAP on the Table 2 system ({} tx) ---\n", r.tx);
    println!("mean cycles per region: {:.1}", r.region_cycles_mean);
    println!("  compute          {:>10.1}", r.stalls.compute);
    println!("  log-full         {:>10.1}", r.stalls.log_full);
    println!("  WPQ backpressure {:>10.1}", r.stalls.wpq_backpressure);
    println!("  dependency wait  {:>10.1}", r.stalls.dependency_wait);
    println!("  commit wait      {:>10.1}", r.stalls.commit_wait);

    println!("\nlatency histograms (cycles):");
    for name in [
        "region.cycles",
        "mem.persist.latency",
        "mem.wpq.residency_cycles",
    ] {
        if let Some(h) = r.stats.histogram(name) {
            println!(
                "  {name:<26} p50 {:>7} p95 {:>7} p99 {:>7} max {:>7}",
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            );
        }
    }

    fs::write("trace_report.stats.json", r.stats.to_json()).expect("write stats json");
    println!("\nwrote trace_report.stats.json");
    if let Some(chrome) = &r.chrome_trace {
        fs::write("trace_report.chrome.json", chrome).expect("write chrome trace");
        println!("wrote trace_report.chrome.json — open it at ui.perfetto.dev");
        println!("(1 simulated cycle renders as 1 \u{00b5}s; pid 0 = cpu, pid 1 = pm)");
    }
}
