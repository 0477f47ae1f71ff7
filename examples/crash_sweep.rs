//! Crash-point sweep smoke: one shared prefix, many forked crash points.
//!
//! Crash points come from a lifecycle-guided plan
//! ([`asap_workloads::enumerate_crash_points`]): a recording pilot notes
//! every WPQ-acceptance / persist / commit / region-end boundary, and the
//! sweep crash-straddles up to `ASAP_CRASH_SWEEP` of them (default 32).
//! The sweep itself runs the snapshot-tree engine — budgeted spine plus
//! per-fork leaves, forks dispatched across `ASAP_SWEEP_JOBS` workers —
//! and is checked against the legacy one-full-run-per-point path, run
//! through the grid pool, at every point count:
//!
//! - every fork is bit-identical to its legacy re-run;
//! - at 32+ points, the tree replays at most a tenth of a spine cadence
//!   per fork (`points × snap_every / 10`, via the
//!   `snapshot.replayed_writes` metric; a flat cadence replays about
//!   half a cadence per fork);
//! - at 32–64 points, where the legacy runs go serially, the sweep is at
//!   least 5x faster than them. Both passes run with the result cache
//!   off, so the ratio compares simulation work, not memoization; larger
//!   sweeps run the legacy cells on `ASAP_JOBS` workers.
//!
//! ```sh
//! ASAP_CRASH_SWEEP=1000 ASAP_SWEEP_JOBS=4 cargo run --release --example crash_sweep
//! ```
//!
//! The outcome table goes to stdout and is deterministic — byte-identical
//! at any `ASAP_SWEEP_JOBS`; wall clocks and throughput go to stderr
//! (host-dependent, like every timing note).

use std::time::Instant;

use asap_bench::runcache::RunCacheConfig;
use asap_bench::{
    emit_wallclock, emit_wallclock_sweep, jobs, ops, run_crash_sweep_with, run_grid_with, threads,
};
use asap_core::scheme::SchemeKind;
use asap_sim::obs::metrics;
use asap_workloads::resultjson::results_identical;
use asap_workloads::{enumerate_crash_points, BenchId, WorkloadSpec};

fn main() {
    let n_points: u64 = std::env::var("ASAP_CRASH_SWEEP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    // The small system config keeps machine state O(touched): a snapshot
    // or restore under table2 geometry copies ~10MB of tag/slab arrays,
    // which at smoke scale would cost as much as re-simulating. Crash
    // sweeps probe recovery behavior, not figure timing, so the small
    // config is the right tool.
    let mut spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
        .with_threads(threads())
        .with_ops(ops());
    spec.system = asap_sim::SystemConfig::small();
    // Lifecycle-guided plan: one recording pilot enumerates every
    // persistence boundary; the budget samples them evenly. Point
    // placement is metadata a sweeping tool measures once and reuses, so
    // it stays outside the timed comparison.
    let plan = enumerate_crash_points(&spec, n_points as usize);
    let points = &plan.points;
    // Snapshot cadence trades snapshot cost against fork replay distance;
    // an eighth of the write range keeps both well under one full run.
    let snap_every = (plan.prefix_writes / 8).max(1);

    let replayed0 = metrics::counter_value("snapshot.replayed_writes");
    let t0 = Instant::now();
    let sweep = run_crash_sweep_with(&spec, points, snap_every, &RunCacheConfig::off());
    let sweep_elapsed = t0.elapsed();
    let tree_replayed = metrics::counter_value("snapshot.replayed_writes") - replayed0;

    println!(
        "crash-point sweep: {} x {} ({} lifecycle points of {} candidates, \
         snapshot every {} writes)",
        spec.bench.label(),
        spec.scheme.name(),
        points.len(),
        plan.candidates,
        snap_every
    );
    println!(
        "{:>12} {:>10} {:>12} {:>9} {:>9}",
        "crash_after", "outcome", "uncommitted", "replayed", "tx"
    );
    for p in &sweep.baseline.crash_points {
        println!(
            "{:>12} {:>10} {:>12} {:>9} {:>9}",
            p.crash_after,
            if p.crashed { "crashed" } else { "completed" },
            p.uncommitted,
            p.replayed,
            p.tx
        );
    }

    // Every planned point lies inside the write range, so every fork must
    // fire and recover (the per-scheme invariants already ran inside).
    for (f, p) in sweep.forks.iter().zip(&sweep.baseline.crash_points) {
        assert!(p.crashed, "point {} did not fire", p.crash_after);
        assert!(
            f.recovery.is_some(),
            "point {} has no recovery report",
            p.crash_after
        );
    }

    // A flat cadence would replay about half a cadence per fork; the
    // tree's leaves must cut that at least 5x.
    let replay_bound = points.len() as u64 * snap_every / 10;
    println!("replayed writes: tree {tree_replayed} (bound at 32+ points: {replay_bound})");
    if points.len() >= 32 {
        assert!(
            tree_replayed <= replay_bound,
            "the snapshot tree must replay at most a tenth of a cadence per \
             fork (tree {tree_replayed} vs bound {replay_bound})"
        );
    }

    // Legacy cross-check: one full simulation per point through the grid
    // pool, bit-compared against the forks. Up to 64 points it runs on one
    // worker, because the speedup gate below compares against the serial
    // legacy cost; larger sweeps use `ASAP_JOBS` workers to stay
    // affordable.
    let legacy_jobs = if points.len() <= 64 { 1 } else { jobs() };
    let crash_specs: Vec<WorkloadSpec> = points.iter().map(|&n| spec.with_crash_after(n)).collect();
    let t1 = Instant::now();
    let legacy = run_grid_with(&crash_specs, legacy_jobs, &RunCacheConfig::off());
    let legacy_elapsed = t1.elapsed();
    for ((f, l), p) in sweep
        .forks
        .iter()
        .zip(&legacy)
        .zip(&sweep.baseline.crash_points)
    {
        assert!(
            results_identical(f, l),
            "fork at {} diverged from the legacy crash_after path",
            p.crash_after
        );
    }
    println!(
        "all {n} crash points recovered; all {n} forks identical to legacy re-runs",
        n = points.len()
    );
    emit_wallclock("crash_sweep_legacy", legacy_elapsed, &[&legacy]);
    let speedup = legacy_elapsed.as_secs_f64() / sweep_elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "crash_sweep: sweep {:.3}s vs legacy {:.3}s on {legacy_jobs} jobs ({speedup:.1}x)",
        sweep_elapsed.as_secs_f64(),
        legacy_elapsed.as_secs_f64()
    );
    if (32..=64).contains(&points.len()) {
        assert!(
            speedup >= 5.0,
            "sweep must be at least 5x faster than {} serial legacy re-runs (got {speedup:.2}x)",
            points.len()
        );
    }

    emit_wallclock_sweep(
        "crash_sweep",
        sweep_elapsed,
        &[&sweep.forks],
        points.len() as u64,
    );
    // The ci.sh parallel gate parses this line from two runs (serial and
    // ASAP_SWEEP_JOBS=2) and compares the seconds.
    eprintln!(
        "crash_sweep: {} points in {:.3}s ({:.0} points/s)",
        points.len(),
        sweep_elapsed.as_secs_f64(),
        points.len() as f64 / sweep_elapsed.as_secs_f64().max(1e-9)
    );
}
