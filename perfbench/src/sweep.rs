//! The `crash_sweep` workload: a 1000-point lifecycle-guided crash sweep
//! of HM under ASAP, and its traced re-drive through public `Machine`
//! calls.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use asap_bench::runcache::RunCacheConfig;
use asap_bench::{run_crash_sweep_with, snap_budget, sweep_jobs};
use asap_core::machine::{MachineSnapshot, RunOutcome};
use asap_core::scheme::SchemeKind;
use asap_sim::SystemConfig;
use asap_workloads::resultjson::results_identical;
use asap_workloads::{enumerate_crash_points, run, BenchId, CrashPlan, SweepResult, WorkloadSpec};

use crate::grid::{
    cell_layers, delta, finish_trace, host_counter_layers, registry, report_times, timed_setup,
};
use crate::host;
use crate::metrics::{median, ratio, Report};
use crate::redrive::{self, Check, ThreadState};
use crate::reference::{self, Verdict};
use crate::spans::{CallCost, Tracer};

/// Crash points the plan keeps (sampled evenly from the candidates).
pub const POINTS: usize = 1000;

/// Plan pilots per `setup_s` measurement.
const SETUP_REPS: usize = 20;

/// Forks compared with a full legacy `crash_after` run, evenly spaced.
const ORACLE_SAMPLE: usize = 8;

/// HM under ASAP on the small system: 2 threads, 200 ops each.
pub fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
        .with_system(SystemConfig::small())
        .with_threads(2)
        .with_ops(200)
        .with_seed(seed)
}

/// The sweep's snapshot cadence: an eighth of the write range.
pub fn snap_every(plan: &CrashPlan) -> u64 {
    (plan.prefix_writes / 8).max(1)
}

pub fn crash_sweep(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let (setup, (spec, plan)) = timed_setup(SETUP_REPS, || {
        let spec = spec(seed);
        (spec, enumerate_crash_points(&spec, POINTS))
    });
    let every = snap_every(&plan);
    rep.record(
        "sweep",
        format!(
            "{{\"points\":{},\"candidates\":{},\"prefix_writes\":{},\"snap_every\":{every},\
             \"sweep_jobs\":{},\"snap_budget\":{}}}",
            plan.points.len(),
            plan.candidates,
            plan.prefix_writes,
            sweep_jobs(),
            snap_budget()
        ),
    );
    let off = RunCacheConfig::off();
    let n = plan.points.len() as u64;
    host::reset_peak_rss();
    let reg0 = registry();
    let s0 = host::sched();
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<SweepResult> = None;
    let mut last: Option<SweepResult> = None;
    while times.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        rep.attempted += n;
        let (out, secs) = host::timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_crash_sweep_with(&spec, &plan.points, every, &off)
            }))
        });
        let Ok(sweep) = out else {
            rep.fail(n, format!("sweep {} panicked", times.len() + 1));
            times.push(secs);
            continue;
        };
        times.push(secs);
        check_sweep(&mut rep, &sweep, first.as_ref());
        if first.is_none() {
            first = Some(sweep);
        } else {
            last = Some(sweep);
        }
    }
    rep.sched = s0.zip(host::sched());
    rep.peak_rss_mb = host::peak_rss_mib();
    let reg1 = registry();
    let sweep_time = median(&times);
    report_times(&mut rep, setup, sweep_time, n as f64);
    rep.record("sweeps", times.len().to_string());
    let Some(first) = first else {
        rep.problem("no sweep finished".to_string());
        return rep;
    };
    if let Some(last) = &last {
        if reference::sweep_digest(last) != reference::sweep_digest(&first) {
            rep.problem("the last sweep's results differ from the first's".to_string());
        }
    }
    check_oracle(&mut rep, &spec, &first);
    let verdict = reference::check_sweep(seed, &first);
    rep.record("reference", format!("\"{}\"", verdict.label()));
    if let Verdict::Mismatch(why) = verdict {
        rep.problem(why);
    }
    if trace {
        let sweeps = times.len() as f64;
        let forks = delta(&reg0, &reg1, "snapshot.forks").unwrap_or(0.0);
        host_counter_layers(&mut rep, &reg0, &reg1, forks);
        let cow = delta(&reg0, &reg1, "pmem.image.cow_copies").unwrap_or(0.0);
        rep.set("pmem.image.cow_copies_per_fork", ratio(cow, forks));
        let engine = Engine {
            forks: forks / sweeps,
            leaves: delta(&reg0, &reg1, "snapshot.tree.leaves").unwrap_or(0.0) / sweeps,
            replayed: delta(&reg0, &reg1, "snapshot.replayed_writes").unwrap_or(0.0) / sweeps,
            bytes: delta(&reg0, &reg1, "snapshot.bytes").unwrap_or(0.0) / sweeps,
            scaled_sweep_s: sweep_time * host::speed_scale(),
        };
        cell_layers(&mut rep, std::slice::from_ref(&first.baseline));
        rep.set("workloads.plan_candidates", plan.candidates as f64);
        let (pilot, _) = timed_setup(SETUP_REPS, || enumerate_crash_points(&spec, POINTS));
        rep.set("workloads.plan_us", pilot * 1e6);
        traced_sweep(&mut rep, &spec, &plan, &first, &engine, seconds);
    }
    rep
}

/// Every planned point must fire and carry a recovery report, and every
/// sweep must repeat the first one's crash outcomes.
fn check_sweep(rep: &mut Report, sweep: &SweepResult, first: Option<&SweepResult>) {
    let points = &sweep.baseline.crash_points;
    for (f, p) in sweep.forks.iter().zip(points) {
        if !p.crashed {
            rep.fail(1, format!("crash point {} did not fire", p.crash_after));
        } else if f.recovery.is_none() {
            rep.fail(
                1,
                format!("crash point {} has no recovery report", p.crash_after),
            );
        }
    }
    if let Some(first) = first {
        let changed = points
            .iter()
            .zip(&first.baseline.crash_points)
            .filter(|(p, q)| p != q)
            .count() as u64;
        if changed > 0 {
            rep.fail(
                changed,
                format!("{changed} crash outcomes changed between sweeps"),
            );
        }
    }
    let missing = sweep.forks.len().abs_diff(points.len()) as u64;
    if missing > 0 {
        rep.fail(
            missing,
            format!("{missing} crash points lack a fork or an outcome"),
        );
    }
}

/// A fixed sample of forks must equal the legacy one-run-per-point path,
/// `run(&spec.with_crash_after(n))` — the real oracle.
fn check_oracle(rep: &mut Report, spec: &WorkloadSpec, sweep: &SweepResult) {
    let n = sweep.forks.len();
    let mut checked = 0;
    for j in 0..ORACLE_SAMPLE.min(n) {
        let i = j * (n - 1) / (ORACLE_SAMPLE - 1).max(1);
        let point = sweep.baseline.crash_points[i].crash_after;
        let legacy = catch_unwind(AssertUnwindSafe(|| run(&spec.with_crash_after(point))));
        match legacy {
            Ok(r) if results_identical(&r, &sweep.forks[i]) => checked += 1,
            Ok(_) => rep.fail(
                1,
                format!("fork at {point} differs from the legacy crash_after run"),
            ),
            Err(_) => rep.fail(1, format!("legacy crash_after run at {point} panicked")),
        }
    }
    rep.record("oracle_forks_identical", checked.to_string());
}

/// Engine counts per sweep, read from the metrics registry around the
/// untraced sweeps, and the median untraced sweep time scaled to
/// reference host speed.
struct Engine {
    forks: f64,
    leaves: f64,
    replayed: f64,
    bytes: f64,
    scaled_sweep_s: f64,
}

/// Per-call costs gathered by re-drives, by stage.
#[derive(Default)]
struct Costs {
    stage: BTreeMap<&'static str, CallCost>,
    /// Advance walks per re-drive (no engine counter exists for them).
    advances: u64,
    redrives: u64,
    prefix_persist_ops: u64,
    baseline_tx: u64,
}

impl Costs {
    fn add(&mut self, stage: &'static str, ns: u64) {
        self.stage.entry(stage).or_default().add(ns);
    }

    fn get(&self, stage: &str) -> CallCost {
        self.stage.get(stage).copied().unwrap_or_default()
    }
}

fn traced_sweep(
    rep: &mut Report,
    spec: &WorkloadSpec,
    plan: &CrashPlan,
    untraced: &SweepResult,
    engine: &Engine,
    seconds: f64,
) {
    let mut tr = Tracer::new();
    let mut costs = Costs::default();
    let mut sweep_secs = Vec::new();
    let mut mismatch = None;
    let want: Vec<Check> = untraced.forks.iter().map(Check::of).collect();
    let want_base = Check::of(&untraced.baseline);
    let mark = host::readings();
    let t0 = Instant::now();
    while sweep_secs.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        host::calibrate_if_due();
        let depth = tr.depth();
        tr.begin("perfbench.sweep");
        let out = catch_unwind(AssertUnwindSafe(|| {
            redrive_sweep(spec, plan, &mut tr, &mut costs)
        }));
        tr.unwind_to(depth + 1);
        let ns = tr.end();
        sweep_secs.push(ns as f64 / 1e9);
        match out {
            Err(_) => {
                mismatch.get_or_insert("the re-driven sweep panicked".to_string());
            }
            Ok(Err(e)) => {
                mismatch.get_or_insert(e);
            }
            Ok(Ok((base, forks))) => {
                if let Some(d) = redrive::first_difference(&base, &want_base) {
                    mismatch.get_or_insert(format!("baseline: {d}"));
                }
                for ((got, want), p) in forks.iter().zip(&want).zip(&plan.points) {
                    if let Some(d) = redrive::first_difference(got, want) {
                        mismatch.get_or_insert(format!("fork at {p}: {d}"));
                    }
                }
            }
        }
    }
    for (metric, stage) in [
        ("workloads.construct_us", "construct"),
        ("workloads.setup_us", "setup"),
        ("workloads.run_us", "prefix"),
        ("workloads.drain_us", "drain"),
        ("workloads.verify_us", "verify"),
        ("workloads.stats_us", "stats"),
        ("core.machine.snapshot_us", "snapshot"),
        ("core.machine.restore_us", "restore"),
        ("core.machine.advance_us", "advance"),
        ("core.machine.replay_us", "replay"),
        ("core.machine.recover_us", "recover"),
    ] {
        rep.set(metric, costs.get(stage).mean_us());
    }
    let prefix = costs.get("prefix");
    rep.set(
        "workloads.run_ns_per_tx.asap",
        ratio(prefix.ns as f64, (costs.baseline_tx * prefix.calls) as f64),
    );
    rep.set(
        "mem.system.run_ns_per_persist_op",
        ratio(
            prefix.ns as f64,
            (costs.prefix_persist_ops * prefix.calls) as f64,
        ),
    );
    rep.set("core.machine.forks", engine.forks);
    rep.set("core.machine.leaves", engine.leaves);
    rep.set(
        "core.machine.replayed_writes_per_fork",
        ratio(engine.replayed, engine.forks),
    );
    rep.set("core.machine.snapshot_bytes", engine.bytes);
    // Stage share = per-call cost × calls per sweep ÷ untraced sweep time,
    // both scaled to reference speed so host drift between the untraced
    // and the traced pass cancels. Restores: one spine restore plus one
    // leaf rewind per later fork.
    let traced_scale = host::speed_scale_since(mark);
    let advances = ratio(costs.advances as f64, costs.redrives as f64);
    let per_sweep = [
        ("prefix", 1.0),
        ("restore", engine.forks),
        ("snapshot", engine.leaves),
        ("advance", advances),
        ("replay", engine.forks),
        ("recover", engine.forks),
        ("verify", engine.forks),
        ("stats", engine.forks),
    ];
    let mut attributed = 0.0;
    for (stage, calls) in per_sweep {
        let cost = costs.get(stage).mean_us() * 1e-6 * traced_scale;
        let share = ratio(cost * calls, engine.scaled_sweep_s);
        attributed += share;
        rep.set(&format!("core.machine.stage_share.{stage}"), share);
    }
    rep.set("core.machine.stage_share.unattributed", 1.0 - attributed);
    let traced = plan.points.len() as f64 / (median(&sweep_secs) * traced_scale);
    finish_trace(rep, &tr, traced, mismatch, "crash_sweep");
}

type Leaf = (MachineSnapshot, Vec<ThreadState>);

/// One sweep re-driven the way the engine runs it serially: the prefix
/// with budgeted spine snapshots, then one chunk over the sorted points —
/// restore the spine, and per point advance to the last step boundary
/// below it, snapshot a leaf, arm, replay, recover, verify, take stats,
/// and rewind to the leaf. Returns the baseline and per-point checks in
/// request order.
fn redrive_sweep(
    spec: &WorkloadSpec,
    plan: &CrashPlan,
    tr: &mut Tracer,
    costs: &mut Costs,
) -> Result<(Check, Vec<Check>), String> {
    let points = &plan.points;
    let budget = snap_budget();
    let mut p = redrive::prepare(spec, tr);
    costs.add("construct", p.construct_ns);
    costs.add("setup", p.setup_ns);
    let states = redrive::thread_states(spec);
    let mut spine: Vec<Leaf> = vec![(p.m.snapshot(), states.borrow().clone())];
    let mut boundaries = vec![p.m.pm_write_ops()];
    let mut stride = snap_every(plan);
    let mut next_mark = p.m.pm_write_ops().saturating_add(stride);
    let persist_before = redrive::persist_ops(&p);
    tr.begin("workloads.run");
    {
        let mut steps = redrive::steps(p.bench, spec, &states);
        p.m.begin_schedule();
        while let Some(t) = p.m.next_runnable() {
            p.m.step_thread(t, &mut steps[t]);
            let w = p.m.pm_write_ops();
            if boundaries.last() != Some(&w) {
                boundaries.push(w);
            }
            if w >= next_mark {
                spine.push((p.m.snapshot(), states.borrow().clone()));
                if budget > 0 && spine.len() > budget {
                    let mut idx = 0usize;
                    spine.retain(|_| {
                        idx += 1;
                        idx % 2 == 1
                    });
                    stride = stride.saturating_mul(2);
                }
                next_mark = w.saturating_add(stride);
            }
        }
    }
    costs.add("prefix", tr.end());
    costs.prefix_persist_ops = redrive::persist_ops(&p) - persist_before;
    let (base, c) = redrive::collect(&mut p, RunOutcome::Completed, tr)?;
    costs.add("drain", c.drain);
    costs.add("verify", c.verify);
    costs.add("stats", c.stats);
    costs.baseline_tx = base.tx;

    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_key(|&i| (points[i], i));
    let spine_writes: Vec<u64> = spine.iter().map(|(s, _)| s.pm_write_ops()).collect();
    let mut forks: Vec<Option<Check>> = vec![None; points.len()];
    let Some(&first) = order.first() else {
        return Ok((base, Vec::new()));
    };
    let limit = p.armed_base + points[first].max(1);
    let si = spine_writes.partition_point(|&w| w < limit) - 1;
    let ((), ns) = tr.time("core.machine.restore", || {
        p.m.restore(&spine[si].0);
        states.borrow_mut().clone_from(&spine[si].1);
    });
    costs.add("restore", ns);
    let mut leaf: Option<Leaf> = None;
    for (k, &i) in order.iter().enumerate() {
        tr.set_op(i as u64);
        tr.begin("perfbench.fork");
        let n = points[i];
        let limit = p.armed_base + n.max(1);
        let b = boundaries[boundaries.partition_point(|&w| w < limit) - 1];
        if p.m.pm_write_ops() < b || leaf.is_none() {
            if p.m.pm_write_ops() < b {
                let ((), ns) = tr.time("core.machine.advance", || {
                    let mut steps = redrive::steps(p.bench, spec, &states);
                    p.m.begin_schedule();
                    while p.m.pm_write_ops() < b {
                        let Some(t) = p.m.next_runnable() else { break };
                        p.m.step_thread(t, &mut steps[t]);
                    }
                });
                costs.add("advance", ns);
                costs.advances += 1;
            }
            let ((), ns) = tr.time("core.machine.snapshot", || match &mut leaf {
                Some((s, st)) => {
                    *s = p.m.snapshot();
                    st.clone_from(&states.borrow());
                }
                None => leaf = Some((p.m.snapshot(), states.borrow().clone())),
            });
            costs.add("snapshot", ns);
        }
        p.m.arm_crash_after_additional(p.armed_base + n - p.m.pm_write_ops());
        let (outcome, ns) = tr.time("core.machine.replay", || {
            let mut steps = redrive::steps(p.bench, spec, &states);
            p.m.run(&mut steps)
        });
        costs.add("replay", ns);
        let (check, c) = redrive::collect(&mut p, outcome, tr)?;
        costs.add("recover", c.recover);
        costs.add("verify", c.verify);
        costs.add("stats", c.stats);
        forks[i] = Some(check);
        if k + 1 < order.len() {
            let (s, st) = leaf.as_ref().expect("a leaf exists after the first fork");
            let ((), ns) = tr.time("core.machine.restore", || {
                p.m.restore(s);
                states.borrow_mut().clone_from(st);
            });
            costs.add("restore", ns);
        }
        tr.end();
    }
    costs.redrives += 1;
    let forks = forks
        .into_iter()
        .map(|f| f.expect("every point re-driven"))
        .collect();
    Ok((base, forks))
}
