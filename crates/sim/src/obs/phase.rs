//! Scoped host-phase timers for the figure harness.
//!
//! A grid run spends its wall clock in four places: fingerprinting
//! specs, probing the run cache, simulating cells, and exporting
//! artifacts (wall-clock records, telemetry, reports). Each gets a
//! process-cumulative microsecond total and call count, accumulated by
//! RAII [`scope`] guards — cheap enough to wrap every cell, and additive
//! across worker threads because the totals are atomics.
//!
//! Totals are *host* time and therefore nondeterministic; they are
//! exported to places that already carry host time (the `phases` object
//! of `BENCH_WALLCLOCK.json` records, the HTML run report) and never
//! into figure stdout. Totals accumulate across grids; each wall-clock
//! record *takes* them ([`take_snapshot_json`]), so consecutive records
//! in one process report disjoint intervals instead of repeating earlier
//! records' totals (a figure that runs several grids before emitting
//! still reports their sum — the interval spans records, not grids).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One host-side phase of a figure run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Serializing specs to canonical JSON and hashing them into content
    /// fingerprints.
    Fingerprint,
    /// Run-cache lookups (both tiers), including fan-out of duplicates.
    CacheProbe,
    /// Actual simulation of cells the cache could not serve.
    Simulate,
    /// Writing wall-clock records, telemetry, event streams, reports.
    Export,
}

/// All phases, in export order.
pub const PHASES: [Phase; 4] = [
    Phase::Fingerprint,
    Phase::CacheProbe,
    Phase::Simulate,
    Phase::Export,
];

impl Phase {
    /// The snake_case name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fingerprint => "fingerprint",
            Phase::CacheProbe => "cache_probe",
            Phase::Simulate => "simulate",
            Phase::Export => "export",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Fingerprint => 0,
            Phase::CacheProbe => 1,
            Phase::Simulate => 2,
            Phase::Export => 3,
        }
    }
}

static TOTAL_US: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static COUNT: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Times a region: the returned guard adds its elapsed microseconds to
/// `phase`'s total when dropped.
pub fn scope(phase: Phase) -> PhaseGuard {
    PhaseGuard {
        phase,
        start: Instant::now(),
    }
}

/// RAII guard from [`scope`].
pub struct PhaseGuard {
    phase: Phase,
    start: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        let i = self.phase.index();
        TOTAL_US[i].fetch_add(us, Ordering::Relaxed);
        COUNT[i].fetch_add(1, Ordering::Relaxed);
    }
}

/// Cumulative `(microseconds, scopes)` for `phase`.
pub fn totals(phase: Phase) -> (u64, u64) {
    let i = phase.index();
    (
        TOTAL_US[i].load(Ordering::Relaxed),
        COUNT[i].load(Ordering::Relaxed),
    )
}

/// The `phases` JSON object embedded in wall-clock records:
/// `{"fingerprint_us":…,"cache_probe_us":…,"simulate_us":…,"export_us":…,
/// "cells_timed":…}` — parseable by [`crate::json::parse`].
pub fn snapshot_json() -> String {
    let mut out = String::from("{");
    for (i, p) in PHASES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}_us\":{}", p.name(), totals(*p).0));
    }
    out.push_str(&format!(",\"cells_timed\":{}", totals(Phase::Simulate).1));
    out.push('}');
    out
}

/// Resets every phase total and count to zero. Wall-clock emission calls
/// this (via [`take_snapshot_json`]) so each record owns its interval;
/// tests call it to start from a clean slate.
pub fn reset() {
    for i in 0..PHASES.len() {
        TOTAL_US[i].store(0, Ordering::Relaxed);
        COUNT[i].store(0, Ordering::Relaxed);
    }
}

/// [`snapshot_json`] followed by [`reset`]: the snapshot covers the
/// interval since the previous take. This is what keeps consecutive
/// wall-clock records in one process (e.g. `crash_sweep` followed by
/// `crash_sweep_legacy`) from re-reporting each other's `simulate_us`
/// and `cells_timed`.
pub fn take_snapshot_json() -> String {
    let out = snapshot_json();
    reset();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn scopes_accumulate_and_snapshot_parses() {
        let (us0, n0) = totals(Phase::Export);
        {
            let _g = scope(Phase::Export);
            // A spin long enough to register at least one microsecond.
            let t = Instant::now();
            while t.elapsed().as_micros() < 50 {}
        }
        let (us1, n1) = totals(Phase::Export);
        assert!(us1 > us0, "elapsed time recorded");
        assert_eq!(n1, n0 + 1);

        let snap = json::parse(&snapshot_json()).expect("snapshot parses");
        for p in PHASES {
            let key = format!("{}_us", p.name());
            assert!(
                snap.get(&key).and_then(json::Value::as_u64).is_some(),
                "{key} present"
            );
        }
        assert!(snap
            .get("cells_timed")
            .and_then(json::Value::as_u64)
            .is_some());

        // take_snapshot_json drains: a second take reports a fresh
        // interval, not the first one's totals. (Same #[test] as the
        // accumulation checks above — a parallel test thread resetting
        // the process-global totals would race them otherwise.)
        let taken = json::parse(&take_snapshot_json()).expect("take parses");
        assert!(taken.get("export_us").and_then(json::Value::as_u64) >= Some(1));
        let after = json::parse(&snapshot_json()).expect("post-take parses");
        assert_eq!(
            after.get("cells_timed").and_then(json::Value::as_u64),
            Some(0)
        );
        assert_eq!(totals(Phase::Export), (0, 0));
    }
}
