//! The repository benchmark: end-to-end and per-layer numbers for the
//! ASAP simulator, its crash-sweep engine and its result cache.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig_grid --seed 2779054081 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object,
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run's record (host facts, reference verdict, sweep settings). With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, measured by a separate traced pass that
//! re-drives the same work through public calls and must reproduce the
//! untraced results exactly.
//!
//! # Workloads
//!
//! Both are closed loops with one client: the next op starts when the
//! previous one returns, on one host thread, never more threads than the
//! host's CPUs. The workload seed becomes `WorkloadSpec::seed`; the
//! default, 2779054081 (`0xA5A5_0001`), is the seed the figure benches
//! use, so the default-seed grid is the published Fig. 7 run.
//!
//! - `fig_grid` — the Fig. 7 grid: 9 benchmarks × {64B, 2KB} × {SW,
//!   HWRedo, HWUndo, ASAP, NP} on the Table 2 system, 4 simulated threads,
//!   200 ops per thread, each cell through `run_grid_with` with the run
//!   cache off. It exists because the simulator hot path does nearly all
//!   the work: the `core` scheme hooks, the `mem` cache hierarchy and
//!   WPQs, the `sim` event queue and `pmem` image lookups. 2KB cells stream
//!   32 lines a region and take most of the host time; NP cells make no
//!   persists, the cache+core floor. Idle: the crash-sweep engine
//!   (snapshot, restore) and the run cache. An op is one cell. Its traced
//!   run also measures the run cache (`bench` layer) serving the same
//!   cells from a scratch disk store.
//! - `crash_sweep` — HM under ASAP on the small system, 2 threads, 200
//!   ops, crashed at 1000 points that `enumerate_crash_points` picks from
//!   the seeded pilot's persistence lifecycle, swept by
//!   `run_crash_sweep_with` with the cache off, serial fork dispatch and
//!   the default snapshot budget. It exists because the fork machinery
//!   dominates: leaf restore and snapshot, armed replay, recovery and
//!   verification. Idle: the run cache and the Table 2 cache geometry.
//!   An op is one recovered and verified crash point.
//!
//! The `run_grid` worker pool stays at one job: on a host whose CPUs are
//! shared, a pool width would measure the host, not the program.
//!
//! Simulated caches start warmed by each cell's setup phase, which the
//! `asap_workloads::run` excludes from region statistics (it resets them once setup has
//! drained); cumulative counters include setup.
//!
//! # Metrics
//!
//! Host times are wall clock, scaled to a reference host speed by a
//! calibration kernel that shares no code with the program (see
//! `host::speed_factor`; the unscaled figures are in the record line as
//! `raw_setup_s` and `raw_ops_per_s`). `setup_s` is the median of several
//! repetitions of the workload's set-up: the spec build plus one warm-up
//! cell (`fig_grid`), or the spec build plus the crash-plan pilot
//! (`crash_sweep`). `ops_per_s` is ops over the
//! median pass (sweep) time. `peak_rss_mb` is `VmHWM` after the measured
//! loop, reset before it. `ok_ratio` is ops that passed every check over
//! ops attempted (1 when nothing failed; a failed op also makes `correct`
//! false).
//!
//! Per-layer times are unscaled wall clock. A per-layer metric of a layer
//! the workload leaves idle reads 0 (see `metrics::PER_LAYER`).

mod grid;
mod host;
mod metrics;
mod redrive;
mod reference;
mod spans;
mod sweep;

use std::process::ExitCode;

use metrics::{per_layer, ratio, Report, END_TO_END};

/// The figure benches' seed (`WorkloadSpec::new`'s default).
const DEFAULT_SEED: u64 = 0xA5A5_0001;

const USAGE: &str = "usage: perfbench --workload fig_grid|crash_sweep \
    [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --write-reference SEEDS  \
    (e.g. default,0-31)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    /// `--write-reference SEEDS`.
    WriteReference(String),
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--write-reference" => return Ok(Mode::WriteReference(value.clone())),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::WriteReference(seeds)) => return write_reference(&seeds),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::work_knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with work-changing knobs set: {}",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    // No wall-clock trajectory appends, and no per-call cache notes.
    std::env::set_var("ASAP_WALLCLOCK", "");
    std::env::set_var("ASAP_LOG", "warn");
    let run = match args.workload.as_str() {
        "fig_grid" => grid::fig_grid,
        "crash_sweep" => sweep::crash_sweep,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rep = run(args.seed, args.seconds, args.trace);
    print_result(&args, &rep);
    ExitCode::SUCCESS
}

fn print_result(args: &Args, rep: &Report) {
    for p in &rep.problems {
        eprintln!("perfbench: {p}");
    }
    let mut record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::record_json(rep.sched)
    );
    for (k, v) in &rep.record {
        record.push_str(&format!(",\"{k}\":{v}"));
    }
    record.push('}');
    println!("{record}");
    let ok_ratio = ratio(
        (rep.attempted - rep.failed.min(rep.attempted)) as f64,
        rep.attempted as f64,
    );
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = rep.layers.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => rep.setup_s,
                    "ops_per_s" => rep.ops_per_s,
                    "peak_rss_mb" => rep.peak_rss_mb,
                    _ => ok_ratio,
                };
                (name.to_string(), v, unit)
            })
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                asap_sim::json::num(*v)
            )
        })
        .collect();
    let correct = rep.failed == 0 && rep.problems.is_empty() && rep.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        body.join(",")
    );
}

/// Parses `default,0-31`-style seed lists.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        if part == "default" {
            out.push(DEFAULT_SEED);
        } else if let Some((a, b)) = part.split_once('-') {
            let (a, b): (u64, u64) = (
                a.parse().map_err(|e| format!("{part}: {e}"))?,
                b.parse().map_err(|e| format!("{part}: {e}"))?,
            );
            out.extend(a..=b);
        } else {
            out.push(part.parse().map_err(|e| format!("{part}: {e}"))?);
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Recomputes `reference.json` for `seeds` (one grid pass and one sweep
/// each) and writes it next to the sources.
fn write_reference(seeds: &str) -> ExitCode {
    let seeds = match parse_seeds(seeds) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: --write-reference: {e}");
            return ExitCode::from(2);
        }
    };
    std::env::set_var("ASAP_WALLCLOCK", "");
    let off = asap_bench::runcache::RunCacheConfig::off();
    let entries: Vec<reference::SeedEntry> = seeds
        .iter()
        .map(|&seed| {
            let grid = asap_bench::run_grid_with(&grid::specs(seed), 1, &off);
            let spec = sweep::spec(seed);
            let plan = asap_workloads::enumerate_crash_points(&spec, sweep::POINTS);
            let every = sweep::snap_every(&plan);
            let sweep = asap_bench::run_crash_sweep_with(&spec, &plan.points, every, &off);
            eprintln!("perfbench: reference for seed {seed} computed");
            reference::SeedEntry { seed, grid, sweep }
        })
        .collect();
    match std::fs::write(reference::PATH, reference::render(DEFAULT_SEED, &entries)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: writing {}: {e}", reference::PATH);
            ExitCode::FAILURE
        }
    }
}
