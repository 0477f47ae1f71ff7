//! Property-based equivalence for the parallel crash-sweep engine.
//!
//! Over arbitrary crash-point sets (duplicates, out-of-order, beyond-end
//! points included) and arbitrary snapshot layouts, two claims must hold
//! bit-for-bit:
//!
//! - tree-restored forks (budgeted spine plus leaves) are identical to
//!   the legacy one-full-run-per-point path, `run(&spec.with_crash_after(n))`
//!   — the independent oracle;
//! - a parallel sweep (`jobs` ∈ {2, 4}, the `ASAP_SWEEP_JOBS` axis) is
//!   identical to the serial sweep of the same configuration.
//!
//! "Identical" is [`results_identical`]: every scalar, float bit
//! patterns, the full stats registry, and all exported artifacts.

use asap_core::scheme::SchemeKind;
use asap_workloads::resultjson::results_identical;
use asap_workloads::{run, run_sweep_with, BenchId, SweepConfig, SweepResult, WorkloadSpec};
use proptest::prelude::*;

fn spec() -> WorkloadSpec {
    WorkloadSpec::small(BenchId::Hm, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(12)
        .with_tracking()
}

/// The legacy reference for `points`: one full run per point, plus the
/// plain run of the unarmed spec standing in for the baseline.
fn legacy(points: &[u64]) -> SweepResult {
    let mut baseline = run(&spec());
    let forks: Vec<_> = points
        .iter()
        .map(|&n| run(&spec().with_crash_after(n)))
        .collect();
    baseline.crash_points = points
        .iter()
        .zip(&forks)
        .map(|(&n, r)| asap_workloads::CrashPointOutcome::of(n, r))
        .collect();
    SweepResult {
        baseline,
        forks,
        prefix_writes: 0,
        replayed_writes: 0,
    }
}

fn assert_sweeps_identical(
    points: &[u64],
    x: &SweepResult,
    y: &SweepResult,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(x.forks.len(), y.forks.len());
    for (i, (f, g)) in x.forks.iter().zip(&y.forks).enumerate() {
        prop_assert!(
            results_identical(f, g),
            "fork {} (point {}) diverged: {}",
            i,
            points[i],
            what
        );
    }
    prop_assert!(
        results_identical(&x.baseline, &y.baseline),
        "baselines diverged: {}",
        what
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial(
        points in proptest::collection::vec(0u64..90, 1..8),
        jobs in prop_oneof![Just(2usize), Just(4usize)],
        snap_every in 1u64..24,
    ) {
        let serial = SweepConfig::new(snap_every);
        let parallel = serial.with_jobs(jobs);
        let x = run_sweep_with(&spec(), &points, &serial);
        let y = run_sweep_with(&spec(), &points, &parallel);
        assert_sweeps_identical(&points, &x, &y, &format!("{serial:?} vs {parallel:?}"))?;
        prop_assert_eq!(x.prefix_writes, y.prefix_writes);
    }

    #[test]
    fn tree_forks_match_legacy_runs(
        points in proptest::collection::vec(0u64..90, 1..8),
        snap_every in 1u64..24,
        budget in 0usize..5,
    ) {
        let cfg = SweepConfig::new(snap_every).with_budget(budget);
        let sweep = run_sweep_with(&spec(), &points, &cfg);
        assert_sweeps_identical(&points, &sweep, &legacy(&points), &format!("{cfg:?} vs legacy"))?;
    }
}
