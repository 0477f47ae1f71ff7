//! The `fig_grid` workload: the Fig. 7 grid simulated cold, plus the
//! traced run's look at the run cache serving the same grid warm.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use asap_bench::runcache::{self, RunCacheConfig};
use asap_bench::{geomean, run_grid_with};
use asap_core::machine::RunOutcome;
use asap_core::scheme::SchemeKind;
use asap_sim::obs::metrics;
use asap_sim::Histogram;
use asap_workloads::{resultjson, BenchId, RunResult, WorkloadSpec};

use crate::host;
use crate::metrics::{median, ratio, Report, SCHEME_LABELS};
use crate::redrive::{self, Check};
use crate::reference::{self, Verdict};
use crate::spans::{CallCost, Tracer};

/// Fig. 7 columns, in order; the first is every row's baseline.
pub const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::SwUndo,
    SchemeKind::HwRedo,
    SchemeKind::HwUndo,
    SchemeKind::Asap,
    SchemeKind::NoPersist,
];

/// Payload bytes per region (the paper's two Fig. 7 sizes).
pub const SIZES: [u64; 2] = [64, 2048];

/// The paper's Fig. 7 geomean speedups over SW for HWRedo, HWUndo, ASAP
/// and NP. They are published numbers, not measurements on held-out
/// hardware: the error against them says how far the model sits from the
/// paper, not from real machines.
const PAPER_GEOMEANS: [f64; 4] = [1.49, 1.60, 2.25, 2.35];

/// Set-up repetitions whose median is reported as `setup_s`.
const SETUP_REPS: usize = 5;

/// Seconds the traced run spends serving the grid from a warm cache.
const CACHE_SECONDS: f64 = 3.0;

/// The 90 Fig. 7 cells: every benchmark × size × scheme on the Table 2
/// system, 4 simulated threads, 200 ops per thread, all with `seed`.
pub fn specs(seed: u64) -> Vec<WorkloadSpec> {
    let mut out = Vec::with_capacity(90);
    for bench in BenchId::all() {
        for vb in SIZES {
            for scheme in SCHEMES {
                out.push(
                    WorkloadSpec::new(bench, scheme)
                        .with_threads(4)
                        .with_ops(200)
                        .with_value_bytes(vb)
                        .with_seed(seed),
                );
            }
        }
    }
    out
}

fn scheme_index(s: SchemeKind) -> Option<usize> {
    SCHEMES.iter().position(|&k| k == s)
}

/// `BENCH/BYTES/scheme`, e.g. `HM/2048/asap`.
pub fn label(spec: &WorkloadSpec) -> String {
    let scheme = scheme_index(spec.scheme).map_or("other", |i| SCHEME_LABELS[i]);
    format!("{}/{}/{scheme}", spec.bench.label(), spec.value_bytes)
}

/// Mean |ln(measured / paper)| over the HWRedo, HWUndo, ASAP and NP
/// geomean speedups over SW, and the four measured geomeans.
pub fn fig7_paper_err(results: &[RunResult]) -> (f64, [f64; 4]) {
    let mut speedups = vec![Vec::new(); 4];
    for row in results.chunks(SCHEMES.len()) {
        for (i, r) in row[1..].iter().enumerate() {
            speedups[i].push(r.speedup_over(&row[0]));
        }
    }
    let mut geo = [0.0; 4];
    for (g, s) in geo.iter_mut().zip(&speedups) {
        *g = geomean(s);
    }
    let err = geo
        .iter()
        .zip(PAPER_GEOMEANS)
        .map(|(m, p)| (m / p).ln().abs())
        .sum::<f64>()
        / 4.0;
    (err, geo)
}

/// Why a finished cell is wrong, if it is.
fn cell_problem(r: &RunResult) -> Option<String> {
    let want = u64::from(r.spec.threads) * r.spec.ops_per_thread;
    if r.outcome != RunOutcome::Completed {
        return Some(format!("{} did not complete", label(&r.spec)));
    }
    if r.tx != want {
        return Some(format!(
            "{} ran {} tx, expected {want}",
            label(&r.spec),
            r.tx
        ));
    }
    None
}

/// One cell through `run_grid_with` under `catch_unwind`, timed.
fn run_cell(spec: &WorkloadSpec, cache: &RunCacheConfig) -> (Option<RunResult>, f64) {
    let (r, t) = host::timed(|| {
        catch_unwind(AssertUnwindSafe(|| {
            run_grid_with(std::slice::from_ref(spec), 1, cache)
        }))
    });
    (r.ok().and_then(|v| v.into_iter().next()), t)
}

/// Counts and names the failed cells of a pass; returns the finished
/// results when every cell finished.
fn check_pass(
    rep: &mut Report,
    specs: &[WorkloadSpec],
    cells: Vec<Option<RunResult>>,
) -> Option<Vec<RunResult>> {
    let mut all = Vec::with_capacity(cells.len());
    for (spec, c) in specs.iter().zip(cells) {
        match c {
            None => rep.fail(1, format!("{} panicked", label(spec))),
            Some(r) => {
                if let Some(p) = cell_problem(&r) {
                    rep.fail(1, p);
                }
                all.push(r);
            }
        }
    }
    (all.len() == specs.len()).then_some(all)
}

/// Fails every cell whose digest differs from the first pass's.
fn check_identical(rep: &mut Report, first: &[String], results: &[RunResult], pass: usize) {
    for (want, r) in first.iter().zip(results) {
        if reference::cell_digest(r) != *want {
            rep.fail(
                1,
                format!("{} differs between passes 1 and {pass}", label(&r.spec)),
            );
        }
    }
}

/// Checks pass-1 results against the reference and records the verdict.
fn check_reference(rep: &mut Report, seed: u64, results: &[RunResult], digests: &[String]) {
    let verdict = reference::check_grid(seed, results, digests);
    rep.record("reference", format!("\"{}\"", verdict.label()));
    if let Verdict::Mismatch(why) = verdict {
        rep.problem(why);
    }
}

/// Records the Fig. 7 geomeans and their error against the paper.
fn report_fig7(rep: &mut Report, results: &[RunResult]) {
    let (err, geo) = fig7_paper_err(results);
    rep.set("bench.fig7_paper_err", err);
    rep.record(
        "fig7",
        format!(
            "{{\"geomean_speedup_over_sw\":{{\"hw-redo\":{},\"hw-undo\":{},\"asap\":{},\"np\":{}}},\
             \"paper\":{{\"hw-redo\":1.49,\"hw-undo\":1.60,\"asap\":2.25,\"np\":2.35}},\
             \"paper_err\":{err},\"reference_kind\":\"published paper geomeans, not held-out hardware data\"}}",
            geo[0], geo[1], geo[2], geo[3]
        ),
    );
}

/// Simulated per-layer totals over `cells`: `core.scheme` per scheme,
/// `mem.system` and `mem.cache`. `Machine::stats` folds
/// `CacheHierarchy::eviction_counts` in as `machine.evict.*`.
pub fn cell_layers(rep: &mut Report, cells: &[RunResult]) {
    let sum =
        |rs: &[&RunResult], name: &str| rs.iter().map(|r| r.stats.get(name)).sum::<u64>() as f64;
    for (i, scheme) in SCHEME_LABELS.iter().enumerate() {
        let rs: Vec<&RunResult> = cells
            .iter()
            .filter(|r| scheme_index(r.spec.scheme) == Some(i))
            .collect();
        let lpo = sum(&rs, "mem.submit.lpo");
        let dpo = sum(&rs, "mem.submit.dpo");
        let dropped = sum(&rs, "pm.drop.lpo") + sum(&rs, "pm.drop.dpo");
        rep.set(
            &format!("core.scheme.regions.{scheme}"),
            sum(&rs, "region.count"),
        );
        rep.set(&format!("core.scheme.lpo_submits.{scheme}"), lpo);
        rep.set(&format!("core.scheme.dpo_submits.{scheme}"), dpo);
        rep.set(
            &format!("core.scheme.dropped_ratio.{scheme}"),
            ratio(dropped, lpo + dpo),
        );
        rep.set(
            &format!("core.scheme.broadcasts.{scheme}"),
            sum(&rs, "asap.broadcast.messages"),
        );
        rep.set(
            &format!("core.scheme.stall_cycles.commit_wait.{scheme}"),
            sum(&rs, "machine.stall_cycles.commit_wait"),
        );
        rep.set(
            &format!("core.scheme.stall_cycles.dependency_wait.{scheme}"),
            sum(&rs, "machine.stall_cycles.dependency_wait"),
        );
    }
    let all: Vec<&RunResult> = cells.iter().collect();
    let mut latency = Histogram::default();
    let (mut occ_sum, mut occ_n) = (0u128, 0u64);
    for r in cells {
        if let Some(h) = r.stats.histogram("mem.persist.latency") {
            latency.merge_from(h);
        }
        if let Some(s) = r.stats.summary("mem.wpq.occupancy") {
            occ_sum += s.sum;
            occ_n += s.count;
        }
    }
    rep.set("mem.system.persist_ops", latency.count() as f64);
    rep.set(
        "mem.system.pm_writes",
        cells.iter().map(|r| r.pm_writes).sum::<u64>() as f64,
    );
    rep.set(
        "mem.system.wpq_occupancy_mean",
        ratio(occ_sum as f64, occ_n as f64),
    );
    rep.set("mem.system.persist_latency_p50", latency.p50() as f64);
    rep.set("mem.cache.llc_evictions", sum(&all, "machine.evict.total"));
    rep.set(
        "mem.cache.dirty_evictions",
        sum(&all, "machine.evict.dirty"),
    );
    rep.set(
        "mem.cache.forced_evictions",
        sum(&all, "machine.evict.forced"),
    );
}

/// The process-global metrics registry's counters.
pub fn registry() -> BTreeMap<String, u64> {
    metrics::snapshot().counters.into_iter().collect()
}

/// Counter growth between two registry readings; a counter missing from
/// both reads `None` (absent, e.g. removed by a later change).
pub fn delta(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, name: &str) -> Option<f64> {
    let after = b.get(name)?;
    Some((after - a.get(name).unwrap_or(&0)) as f64)
}

/// `pmem.image` and `sim` counters per op from registry growth over
/// `ops` ops; names absent counters in the record.
pub fn host_counter_layers(
    rep: &mut Report,
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
    ops: f64,
) {
    let mut absent = Vec::new();
    let mut get = |name: &str| {
        delta(a, b, name).unwrap_or_else(|| {
            absent.push(name.to_string());
            0.0
        })
    };
    let lookups = get("pmem.image.lookups");
    let probes = get("pmem.image.index_probes");
    let last_hits = get("pmem.image.last_page_hits");
    let scans = get("sim.calendar.full_scans");
    rep.set("pmem.image.lookups", ratio(lookups, ops));
    rep.set("pmem.image.index_probes", ratio(probes, ops));
    rep.set("pmem.image.last_page_hit_ratio", ratio(last_hits, lookups));
    rep.set("sim.calendar.full_scans", ratio(scans, ops));
    let events: Vec<&String> = b
        .keys()
        .filter(|k| k.starts_with("sim.domain.ch") && k.ends_with(".events"))
        .collect();
    if events.is_empty() {
        absent.push("sim.domain.ch*.events".to_string());
    }
    let total: f64 = events.iter().filter_map(|k| delta(a, b, k)).sum();
    rep.set("sim.events", ratio(total, ops));
    let list: Vec<String> = absent.iter().map(|n| format!("\"{n}\"")).collect();
    rep.record("absent_counters", format!("[{}]", list.join(",")));
}

/// Runs `f` `reps` times; returns the median wall seconds and the last
/// result.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (r, t) = host::timed(|| std::hint::black_box(f()));
        last = Some(r);
        times.push(t);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Sets `setup_s` and `ops_per_s` from median wall seconds of the set-up
/// and of one batch of `ops` ops, scaled by [`host::speed_scale`], and
/// records the unscaled figures beside them.
pub fn report_times(rep: &mut Report, setup_raw: f64, batch_raw: f64, ops: f64) {
    let scale = host::speed_scale();
    rep.setup_s = setup_raw * scale;
    rep.ops_per_s = ops / (batch_raw * scale);
    rep.record("raw_setup_s", format!("{setup_raw}"));
    rep.record("raw_ops_per_s", format!("{}", ops / batch_raw));
    rep.record("kernel_ms", format!("{}", host::kernel_median_s() * 1e3));
}

/// `fig_grid`: the 90 Fig. 7 cells, each through `run_grid_with` with the
/// run cache off, pass after pass for `seconds` (at least two passes, so
/// results can be compared across passes). `ops_per_s` is cells over the
/// median pass time.
pub fn fig_grid(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let off = RunCacheConfig::off();
    // Set-up: build the specs, then one warm-up run of the first cell so
    // process-wide lazy state (allocator arenas, first-touch pages) is in
    // place before timing.
    let (setup, specs) = timed_setup(SETUP_REPS, || {
        let specs = specs(seed);
        let _ = run_cell(&specs[0], &off);
        specs
    });
    host::reset_peak_rss();
    let reg0 = registry();
    let s0 = host::sched();
    let t0 = Instant::now();
    let mut pass_times = Vec::new();
    let mut first: Option<(Vec<RunResult>, Vec<String>)> = None;
    let mut passes = 0;
    while passes < 2 || t0.elapsed().as_secs_f64() < seconds {
        let mut cells = Vec::with_capacity(specs.len());
        let mut pass = 0.0;
        for spec in &specs {
            let (r, t) = run_cell(spec, &off);
            pass += t;
            cells.push(r);
        }
        pass_times.push(pass);
        passes += 1;
        rep.attempted += specs.len() as u64;
        let Some(results) = check_pass(&mut rep, &specs, cells) else {
            continue;
        };
        match &first {
            None => {
                let digests = results.iter().map(reference::cell_digest).collect();
                first = Some((results, digests));
            }
            Some((_, digests)) => check_identical(&mut rep, digests, &results, passes),
        }
    }
    rep.sched = s0.zip(host::sched());
    rep.peak_rss_mb = host::peak_rss_mib();
    let reg1 = registry();
    report_times(&mut rep, setup, median(&pass_times), specs.len() as f64);
    rep.record("passes", passes.to_string());
    let Some((results, digests)) = first else {
        rep.problem("no pass finished every cell".to_string());
        return rep;
    };
    check_reference(&mut rep, seed, &results, &digests);
    report_fig7(&mut rep, &results);
    if trace {
        let cells = (passes * specs.len()) as f64;
        host_counter_layers(&mut rep, &reg0, &reg1, cells);
        cell_layers(&mut rep, &results);
        traced_grid(&mut rep, &results, seconds);
    }
    rep
}

/// Re-drives every cell through the public calls `asap_workloads::run`
/// makes, timing each, until `seconds` pass (at least once).
fn traced_grid(rep: &mut Report, untraced: &[RunResult], seconds: f64) {
    let mut tr = Tracer::new();
    let mut cost: BTreeMap<&str, CallCost> = BTreeMap::new();
    let mut run_ns = [0u64; 5];
    let mut tx = [0u64; 5];
    let (mut persist_run_ns, mut persist_ops) = (0u64, 0u64);
    let mut pass_secs = Vec::new();
    let mut mismatch: Option<String> = None;
    let mark = host::readings();
    let t0 = Instant::now();
    while pass_secs.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let mut pass = 0.0;
        for (i, want) in untraced.iter().enumerate() {
            host::calibrate_if_due();
            tr.set_op(i as u64);
            let depth = tr.depth();
            tr.begin("perfbench.cell");
            let out = catch_unwind(AssertUnwindSafe(|| redrive_cell(&want.spec, &mut tr)));
            tr.unwind_to(depth + 1);
            pass += tr.end() as f64 / 1e9;
            let got = match out {
                Ok(Ok(got)) => got,
                Ok(Err(e)) => {
                    mismatch.get_or_insert(format!("{}: {e}", label(&want.spec)));
                    continue;
                }
                Err(_) => {
                    mismatch
                        .get_or_insert(format!("{} panicked when re-driven", label(&want.spec)));
                    continue;
                }
            };
            if let Some(d) = redrive::first_difference(&got.check, &Check::of(want)) {
                mismatch.get_or_insert(format!("{}: {d}", label(&want.spec)));
            }
            for (name, ns) in got.ns {
                cost.entry(name).or_default().add(ns);
            }
            if let Some(s) = scheme_index(want.spec.scheme) {
                run_ns[s] += got.run_ns;
                tx[s] += got.check.tx;
            }
            persist_run_ns += got.run_ns;
            persist_ops += got.run_persist_ops;
        }
        pass_secs.push(pass);
    }
    for name in ["construct", "setup", "run", "drain", "verify", "stats"] {
        let c = cost.get(name).copied().unwrap_or_default();
        rep.set(&format!("workloads.{name}_us"), c.mean_us());
    }
    for (s, scheme) in SCHEME_LABELS.iter().enumerate() {
        rep.set(
            &format!("workloads.run_ns_per_tx.{scheme}"),
            ratio(run_ns[s] as f64, tx[s] as f64),
        );
    }
    rep.set(
        "mem.system.run_ns_per_persist_op",
        ratio(persist_run_ns as f64, persist_ops as f64),
    );
    let traced = untraced.len() as f64 / (median(&pass_secs) * host::speed_scale_since(mark));
    if let Err(e) = traced_cache(rep, &mut tr, untraced, CACHE_SECONDS) {
        mismatch.get_or_insert(e);
    }
    finish_trace(rep, &tr, traced, mismatch, "fig_grid");
}

/// One re-driven cell: what the self-check compares, and per-call ns.
struct Redriven {
    check: Check,
    ns: [(&'static str, u64); 6],
    run_ns: u64,
    /// Persist ops made during `Machine::run` (setup excluded).
    run_persist_ops: u64,
}

fn redrive_cell(spec: &WorkloadSpec, tr: &mut Tracer) -> Result<Redriven, String> {
    let mut p = redrive::prepare(spec, tr);
    let states = redrive::thread_states(spec);
    let mut steps = redrive::steps(p.bench, spec, &states);
    let before = redrive::persist_ops(&p);
    let (outcome, run_ns) = tr.time("workloads.run", || p.m.run(&mut steps));
    drop(steps);
    let run_persist_ops = redrive::persist_ops(&p) - before;
    let (check, c) = redrive::collect(&mut p, outcome, tr)?;
    Ok(Redriven {
        check,
        ns: [
            ("construct", p.construct_ns),
            ("setup", p.setup_ns),
            ("run", run_ns),
            ("drain", c.drain),
            ("verify", c.verify),
            ("stats", c.stats),
        ],
        run_ns,
        run_persist_ops,
    })
}

/// Shared tail of every traced run: validity, overhead against the
/// untraced rate, self time per layer, and the span dump.
pub fn finish_trace(
    rep: &mut Report,
    tr: &Tracer,
    traced_ops_per_s: f64,
    mismatch: Option<String>,
    workload: &str,
) {
    let valid = mismatch.is_none();
    if let Some(m) = mismatch {
        rep.problem(format!("traced run invalid: {m}"));
    }
    rep.set("trace.valid", if valid { 1.0 } else { 0.0 });
    let overhead = rep.ops_per_s - traced_ops_per_s;
    rep.set("trace.overhead_ops_per_s", overhead);
    rep.set("trace.overhead_share", ratio(overhead, rep.ops_per_s));
    let total = tr.root_ns() as f64;
    let by_layer = tr.self_ns_by_layer();
    for layer in ["perfbench", "bench", "workloads", "core.machine"] {
        let own = by_layer.get(layer).copied().unwrap_or(0) as f64;
        rep.set(&format!("trace.self_share.{layer}"), ratio(own, total));
    }
    let path = host::scratch_dir().join(format!("spans-{workload}-{}.jsonl", std::process::id()));
    match tr.write(&path) {
        Ok(()) => rep.record(
            "spans",
            format!(
                "\"{}\"",
                asap_sim::json::escape(&path.display().to_string())
            ),
        ),
        Err(e) => rep.problem(format!("could not write spans to {}: {e}", path.display())),
    }
    rep.record("trace_spans", tr.len().to_string());
    rep.record("traced_ops_per_s", format!("{traced_ops_per_s}"));
}

/// The bench layer on the read side of the harness: fills a scratch
/// disk-tier run cache with `runcache::insert` (timed per cell), then for
/// a few seconds serves the grid from it through `run_grid_with` and times
/// the calls a warm cell makes on its own: `WorkloadSpec::fingerprint`,
/// `runcache::lookup` (which reads and parses) and `resultjson::from_json`.
fn traced_cache(
    rep: &mut Report,
    tr: &mut Tracer,
    cells: &[RunResult],
    seconds: f64,
) -> Result<(), String> {
    let specs: Vec<WorkloadSpec> = cells.iter().map(|r| r.spec).collect();
    let dir = host::scratch_dir().join(format!("runcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = cache_passes(rep, tr, &specs, cells, &dir, seconds);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn cache_passes(
    rep: &mut Report,
    tr: &mut Tracer,
    specs: &[WorkloadSpec],
    cells: &[RunResult],
    dir: &Path,
    seconds: f64,
) -> Result<(), String> {
    let cfg = RunCacheConfig::disk_only(dir, runcache::DEFAULT_CAP);
    let mut insert = CallCost::default();
    for (i, (spec, r)) in specs.iter().zip(cells).enumerate() {
        let f = spec.fingerprint();
        tr.set_op(i as u64);
        tr.begin("perfbench.cache_fill");
        insert.add(tr.time("bench.insert", || runcache::insert(&f, r, &cfg)).1);
        tr.end();
    }
    let store = cell_store(dir)?;
    let texts: Vec<String> = specs
        .iter()
        .map(|s| std::fs::read_to_string(store.join(format!("{}.json", s.fingerprint().hex()))))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading the scratch run cache: {e}"))?;
    let mut fp = CallCost::default();
    let mut lookup = CallCost::default();
    let mut parse = CallCost::default();
    let mut grid_secs = Vec::new();
    let c0 = runcache::counters();
    let t0 = Instant::now();
    while grid_secs.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        tr.set_op(grid_secs.len() as u64);
        let (served, ns) = tr.time("bench.grid", || run_grid_with(specs, 1, &cfg));
        grid_secs.push(ns as f64 / 1e9);
        if grid_secs.len() == 1 {
            for (r, want) in served.iter().zip(cells) {
                if !resultjson::results_identical(r, want) {
                    return Err(format!(
                        "{}: the cache served a different result",
                        label(&r.spec)
                    ));
                }
            }
        }
        for (i, (spec, text)) in specs.iter().zip(&texts).enumerate() {
            tr.set_op(i as u64);
            tr.begin("perfbench.cache_cell");
            let (f, ns) = tr.time("bench.fingerprint", || spec.fingerprint());
            fp.add(ns);
            let (hit, ns) = tr.time("bench.lookup", || runcache::lookup(&f, &cfg));
            lookup.add(ns);
            let (parsed, ns) = tr.time("bench.parse", || resultjson::from_json(text));
            parse.add(ns);
            tr.end();
            if hit.is_none() || parsed.is_err() {
                return Err(format!("{}: stored result not served back", label(spec)));
            }
        }
    }
    let c1 = runcache::counters();
    let hits = (c1.hits() - c0.hits()) as f64;
    let misses = (c1.misses - c0.misses) as f64;
    rep.set("bench.hit_ratio", ratio(hits, hits + misses));
    rep.set("bench.fingerprint_us", fp.mean_us());
    rep.set("bench.lookup_us", lookup.mean_us());
    rep.set("bench.parse_us", parse.mean_us());
    rep.set("bench.insert_us", insert.mean_us());
    rep.set(
        "bench.grid_self_us",
        median(&grid_secs) * 1e6 / specs.len() as f64 - fp.mean_us() - lookup.mean_us(),
    );
    Ok(())
}

/// The per-build directory the disk tier stores cells in.
fn cell_store(dir: &Path) -> Result<PathBuf, String> {
    let build = asap_sim::fingerprint::build_fingerprint()
        .ok_or("the executable cannot be fingerprinted")?;
    Ok(dir.join(build.hex()))
}
