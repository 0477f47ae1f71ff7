//! The traced re-drive: `asap_workloads::run`'s prepare → run → collect
//! sequence, rebuilt from public `Machine` and `Benchmark` calls so each
//! call can be timed on its own. Every re-driven cell or fork is compared
//! with the untraced result of the same spec ([`Check`]); a mismatch means
//! the trace measured a different program and marks the traced run
//! invalid.

use std::cell::RefCell;
use std::rc::Rc;

use asap_core::machine::{Machine, MachineConfig, RunOutcome, StepFn, ThreadCtx};
use asap_sim::{Cycle, Histogram, Stats};
use asap_workloads::structures::AnyBench;
use asap_workloads::{Benchmark, RunResult, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Tracer;

/// Per-region summaries `asap_workloads::run` resets once setup has
/// drained, so region statistics cover the timed run only.
const REGION_SUMMARIES: [&str; 8] = [
    "region.cycles",
    "region.compute",
    "region.stall.log_full",
    "region.stall.wpq_backpressure",
    "region.stall.dependency_wait",
    "region.stall.commit_wait",
    "region.lines_written",
    "region.deps",
];

/// Per-thread workload state: the step RNG and the transactions left. It
/// lives outside the step closures so a sweep can rewind it with the
/// machine.
#[derive(Clone, Debug)]
pub struct ThreadState {
    rng: StdRng,
    remaining: u64,
}

pub type States = Rc<RefCell<Vec<ThreadState>>>;

pub fn thread_states(spec: &WorkloadSpec) -> States {
    Rc::new(RefCell::new(
        (0..spec.threads as u64)
            .map(|t| ThreadState {
                rng: StdRng::seed_from_u64(spec.seed ^ t.wrapping_mul(0x9e37)),
                remaining: spec.ops_per_thread,
            })
            .collect(),
    ))
}

pub fn steps(bench: AnyBench, spec: &WorkloadSpec, states: &States) -> Vec<StepFn> {
    (0..spec.threads as usize)
        .map(|t| {
            let s = *spec;
            let states = Rc::clone(states);
            Box::new(move |ctx: &mut ThreadCtx| {
                let st = &mut states.borrow_mut()[t];
                if st.remaining == 0 {
                    return false;
                }
                bench.step(ctx, &mut st.rng, &s);
                ctx.complete_tx();
                st.remaining -= 1;
                st.remaining > 0
            }) as StepFn
        })
        .collect()
}

/// A machine after setup, with the marks taken at the start of the
/// timed run.
pub struct Prepared {
    pub m: Machine,
    pub bench: AnyBench,
    pub pm_writes_setup: u64,
    pub armed_base: u64,
    pub setup_end: Cycle,
    pub construct_ns: u64,
    pub setup_ns: u64,
}

/// Builds the machine (`workloads.construct`) and runs benchmark setup
/// through its drain (`workloads.setup`).
pub fn prepare(spec: &WorkloadSpec, tr: &mut Tracer) -> Prepared {
    let mut cfg = MachineConfig::new(spec.scheme, spec.threads)
        .with_system(spec.system)
        .with_trace(spec.trace)
        .with_telemetry(spec.telemetry);
    if spec.track {
        cfg = cfg.with_tracking();
    }
    let (mut m, construct_ns) = tr.time("workloads.construct", || Machine::new(cfg));
    let (bench, setup_ns) = tr.time("workloads.setup", || {
        let mut bench = AnyBench::create(&mut m, spec);
        bench.setup(&mut m, spec);
        m.drain();
        bench
    });
    m.sync_thread_clocks();
    for name in REGION_SUMMARIES {
        m.reset_summary(name);
    }
    Prepared {
        pm_writes_setup: m.pm_write_traffic(),
        armed_base: m.pm_write_ops(),
        setup_end: m.makespan(),
        construct_ns,
        setup_ns,
        m,
        bench,
    }
}

/// Persist ops the memory system has made so far (the count of its
/// `mem.persist.latency` histogram).
pub fn persist_ops(p: &Prepared) -> u64 {
    p.m.hw()
        .mem
        .stats()
        .histogram("mem.persist.latency")
        .map_or(0, Histogram::count)
}

/// What the self-check compares between a re-driven run and the untraced
/// result of the same spec.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub tx: u64,
    pub exec_cycles: u64,
    pub pm_writes: u64,
    pub stats: Stats,
    /// Recovery-report counts: (uncommitted, replayed, restored lines).
    pub recovery: Option<(u64, u64, u64)>,
}

impl Check {
    pub fn of(r: &RunResult) -> Check {
        Check {
            tx: r.tx,
            exec_cycles: r.exec_cycles,
            pm_writes: r.pm_writes,
            stats: r.stats.clone(),
            recovery: r.recovery.as_ref().map(|x| {
                (
                    x.uncommitted.len() as u64,
                    x.replayed.len() as u64,
                    x.restored_lines,
                )
            }),
        }
    }
}

/// Per-call durations of one collect, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectNs {
    pub drain: u64,
    pub recover: u64,
    pub verify: u64,
    pub stats: u64,
}

/// `asap_workloads::run`'s collect: drain (completed) or recover (crashed), verify
/// the structure, take the merged statistics. Errors name the failed
/// verification.
pub fn collect(
    p: &mut Prepared,
    outcome: RunOutcome,
    tr: &mut Tracer,
) -> Result<(Check, CollectNs), String> {
    let mut ns = CollectNs::default();
    let exec = p.m.makespan();
    let recovery = match outcome {
        RunOutcome::Completed => {
            ns.drain = tr.time("workloads.drain", || p.m.drain()).1;
            None
        }
        RunOutcome::Crashed => {
            let (rep, t) = tr.time("core.machine.recover", || p.m.recover());
            ns.recover = t;
            Some((
                rep.uncommitted.len() as u64,
                rep.replayed.len() as u64,
                rep.restored_lines,
            ))
        }
    };
    let (verified, t) = tr.time("workloads.verify", || p.bench.verify(&mut p.m));
    ns.verify = t;
    verified.map_err(|e| format!("structural invariant: {e}"))?;
    let (stats, t) = tr.time("workloads.stats", || p.m.stats());
    ns.stats = t;
    let check = Check {
        tx: p.m.tx_count(),
        exec_cycles: exec.raw().saturating_sub(p.setup_end.raw()).max(1),
        pm_writes: stats
            .get("pm.write.total")
            .saturating_sub(p.pm_writes_setup),
        stats,
        recovery,
    };
    Ok((check, ns))
}

/// Names the first field where a re-driven run differs from the untraced
/// one (`None` when they agree).
pub fn first_difference(redriven: &Check, untraced: &Check) -> Option<String> {
    if redriven.tx != untraced.tx {
        return Some(format!("tx {} vs {}", redriven.tx, untraced.tx));
    }
    if redriven.exec_cycles != untraced.exec_cycles {
        return Some(format!(
            "exec_cycles {} vs {}",
            redriven.exec_cycles, untraced.exec_cycles
        ));
    }
    if redriven.pm_writes != untraced.pm_writes {
        return Some(format!(
            "pm_writes {} vs {}",
            redriven.pm_writes, untraced.pm_writes
        ));
    }
    if redriven.recovery != untraced.recovery {
        return Some(format!(
            "recovery {:?} vs {:?}",
            redriven.recovery, untraced.recovery
        ));
    }
    let (a, b) = (&redriven.stats, &untraced.stats);
    if a == b {
        return None;
    }
    let counter = a
        .counters()
        .chain(b.counters())
        .find(|&(n, _)| a.get(n) != b.get(n))
        .map(|(n, _)| format!("counter {n} ({} vs {})", a.get(n), b.get(n)));
    let summary = || {
        a.summaries()
            .chain(b.summaries())
            .find(|&(n, _)| a.summary(n) != b.summary(n))
            .map(|(n, _)| format!("summary {n}"))
    };
    let histogram = || {
        a.histograms()
            .chain(b.histograms())
            .find(|&(n, _)| a.histogram(n) != b.histogram(n))
            .map(|(n, _)| format!("histogram {n}"))
    };
    let named = counter
        .or_else(summary)
        .or_else(histogram)
        .unwrap_or_else(|| "an unnamed stat".to_string());
    Some(format!("stats differ at {named}"))
}
