//! Shared harness for the figure-regeneration benches.
//!
//! Every table and figure in the paper's evaluation (§7) has a bench
//! target under `benches/` that prints the same rows/series the paper
//! plots. Run them all with `cargo bench`, or one with e.g.
//! `cargo bench --bench fig7_speedup`.
//!
//! Scale knobs (environment):
//!
//! - `ASAP_OPS` — transactions per thread (default 200);
//! - `ASAP_THREADS` — worker threads (default 4);
//! - `ASAP_JOBS` — host worker threads running simulations in parallel
//!   (default: available parallelism; `1` forces the serial path);
//! - `ASAP_BENCHES` — comma-separated benchmark labels to restrict to;
//! - `ASAP_WALLCLOCK` — path of the host wall-clock report
//!   (default `BENCH_WALLCLOCK.json` in the repo root; empty disables);
//! - `ASAP_TRACE` — capture an event trace per run, the newest 2^20
//!   records (see the `trace_report` example and DESIGN.md's
//!   Observability section);
//! - `ASAP_TELEMETRY` — sample occupancy time series (every 1024 cycles
//!   at first; the period doubles as the buffer decimates) and the
//!   region-lifecycle log in virtual time (see EXPERIMENTS.md
//!   §Telemetry);
//! - `ASAP_TELEMETRY_OUT` — directory for the per-figure merged
//!   telemetry JSON (default `target/telemetry/`; empty disables);
//! - `ASAP_RUNCACHE` / `ASAP_RUNCACHE_DIR` — content-addressed result
//!   memoization (`off`/`mem`/`disk`, default `mem`; a disk store keeps
//!   at most 512 files; see [`runcache`]);
//! - `ASAP_CRASH_SWEEP` — crash-point count for the `crash_sweep`
//!   example, which drives [`run_crash_sweep_with`] (shared-prefix
//!   copy-on-write forks, bit-identical to legacy `crash_after` cells);
//! - `ASAP_SWEEP_JOBS` — fork-dispatch worker threads for crash sweeps
//!   (default 1; snapshots are `Send`, so forks run on the same host
//!   pool as grid cells and merge back in point order — output is
//!   identical at any value; a sweep keeps at most 64 spine snapshots
//!   resident, see [`snap_budget`]);
//! - `ASAP_HTTP` — address for the live observability HTTP server
//!   (e.g. `127.0.0.1:0`), started per grid run and stopped at grid
//!   end: `/metrics`, `/metrics.json`, `/events`, `/progress`,
//!   `/report` (see DESIGN.md §13). Purely an observer — figure stdout
//!   is byte-identical with the server on or off.
//!
//! Unrecognized `ASAP_`-prefixed variables draw a warning on stderr at
//! grid startup (see [`asap_sim::warn_unknown_asap_env`]) — a typo'd
//! knob should never fail silently. When stderr is a terminal, a grid
//! also redraws a live progress line there (never on stdout).
//!
//! Every figure is a grid of *independent deterministic simulations* — one
//! per `(bench × scheme × payload)` cell — so the harness runs them on a
//! scoped-thread worker pool ([`run_grid`]) and hands results back in spec
//! order: the printed tables are byte-identical for any `ASAP_JOBS`.

#![warn(missing_docs)]

mod progress;
pub mod report;
pub mod runcache;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use asap_core::machine::RunOutcome;
use asap_core::scheme::SchemeKind;
use asap_sim::obs::{self, events, metrics, phase};
use asap_sim::{Fingerprint, TelemetrySettings, TraceSettings};
use asap_workloads::{
    run, run_sweep_with, BenchId, CrashPointOutcome, RunResult, SweepConfig, SweepResult,
    WorkloadSpec,
};

use progress::Progress;
use runcache::RunCacheConfig;

/// Transactions per thread, from `ASAP_OPS` (default 200).
pub fn ops() -> u64 {
    std::env::var("ASAP_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Worker threads, from `ASAP_THREADS` (default 4).
pub fn threads() -> u32 {
    std::env::var("ASAP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// The benchmark set, optionally restricted by `ASAP_BENCHES`.
pub fn benches(all: &[BenchId]) -> Vec<BenchId> {
    match std::env::var("ASAP_BENCHES") {
        Ok(list) => {
            let want: Vec<String> = list.split(',').map(|s| s.trim().to_uppercase()).collect();
            all.iter()
                .copied()
                .filter(|b| want.contains(&b.label().to_string()))
                .collect()
        }
        Err(_) => all.to_vec(),
    }
}

/// Host worker threads for [`run_grid`], from `ASAP_JOBS` (default: the
/// machine's available parallelism; minimum 1; see
/// [`asap_sim::pool::jobs`]).
pub fn jobs() -> usize {
    asap_sim::pool::jobs()
}

/// Fork-dispatch worker threads for crash sweeps, from `ASAP_SWEEP_JOBS`
/// (default 1 — fork parallelism is opt-in, a worker count separate from
/// the grid's [`jobs`] though both run on the same host pool; minimum 1).
/// Sweep output is bit-identical at any value
/// (`tests/parallel_equivalence.rs` and the sweep proptests hold the
/// claim).
pub fn sweep_jobs() -> usize {
    std::env::var("ASAP_SWEEP_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Spine snapshot budget of every crash sweep the harness runs:
/// [`SweepConfig::new`]'s default of 64. Bounds sweep memory: over
/// budget, every other spine snapshot is evicted and the cadence doubles.
pub fn snap_budget() -> usize {
    SweepConfig::new(1).snap_budget
}

/// Runs every spec in `specs` and returns the results in the same order,
/// using [`jobs`] host worker threads and the environment-configured
/// result cache ([`RunCacheConfig::from_env`]).
///
/// Each cell is an independent, deterministic, single-threaded (host-side)
/// simulation, so neither parallel execution nor memoization can change
/// any result — only the wall clock. `tests/parallel_equivalence.rs` in
/// the workspace root holds the harness to both claims.
pub fn run_grid(specs: &[WorkloadSpec]) -> Vec<RunResult> {
    run_grid_jobs(specs, jobs())
}

/// [`run_grid`] with an explicit worker count (`jobs <= 1` runs inline
/// without spawning).
pub fn run_grid_jobs(specs: &[WorkloadSpec], jobs: usize) -> Vec<RunResult> {
    run_grid_with(specs, jobs, &RunCacheConfig::from_env())
}

/// [`run_grid`] with an explicit worker count *and* cache configuration.
/// Cache lookups happen up front — by content fingerprint, so duplicate
/// cells within one grid collapse to a single simulation too — and only
/// the missing cells go to the worker pool; results come back in spec
/// order regardless, so stdout is byte-identical whatever hits.
///
/// Observability (all off the figure's stdout): when `ASAP_EVENTS` is
/// set, the grid emits `grid_start`, one `cell_start`/`cell_end` pair
/// per cell (ordered by completion, keyed by fingerprint), and
/// `grid_end` records; when stderr is a terminal, a live status line is
/// drawn there; host time is attributed to the [`phase`] profiler either
/// way.
pub fn run_grid_with(
    specs: &[WorkloadSpec],
    jobs: usize,
    cache: &RunCacheConfig,
) -> Vec<RunResult> {
    let bracket = RunBracket::open(specs.len(), jobs, cache);
    let fps = bracket.fingerprints(specs);
    let results = if cache.enabled() {
        let fps = fps.as_deref().expect("cache implies fingerprints");
        let mut probe = Probe::run(specs, Some(fps), cache, &bracket.progress);
        let missing: Vec<WorkloadSpec> = probe.to_run.iter().map(|&i| specs[i]).collect();
        let missing_fps: Vec<Fingerprint> = probe.to_run.iter().map(|&i| fps[i]).collect();
        let ran = pool_run(&missing, jobs, Some(&missing_fps), &bracket.progress);
        for (&i, r) in probe.to_run.iter().zip(ran) {
            runcache::insert(&fps[i], &r, cache);
            probe.results[i] = Some(r);
        }
        probe.fan_out(specs, Some(fps), &bracket.progress)
    } else {
        pool_run(specs, jobs, fps.as_deref(), &bracket.progress)
    };
    bracket.close();
    results
}

/// The bench-side routes `run_grid` registers on the `ASAP_HTTP` server
/// on top of the built-ins (`/metrics`, `/metrics.json`, `/events`):
/// `/progress` (live grid progress JSON) and `/report` (the HTML run
/// report regenerated from current state). Public so embedders — tests
/// today, the simulation-as-a-service daemon the ROADMAP aims at — can
/// mount the same endpoints on a server they manage themselves.
pub fn obs_routes() -> Vec<(String, obs::http::Handler)> {
    vec![
        (
            "/progress".to_string(),
            Box::new(|| obs::http::Response::json(progress::progress_json())),
        ),
        (
            "/report".to_string(),
            Box::new(|| obs::http::Response::html(report::render_html())),
        ),
    ]
}

/// Starts the `ASAP_HTTP` observability server for one grid run, with
/// the [`obs_routes`] registered on top of the built-ins. A bind
/// failure warns and returns `None` — the observer must never fail the
/// run it observes.
fn start_obs_server() -> Option<obs::http::Server> {
    let addr = std::env::var("ASAP_HTTP").ok()?;
    let addr = addr.trim().to_string();
    if addr.is_empty() {
        return None;
    }
    match obs::http::Server::start(&addr, obs_routes()) {
        Ok(server) => {
            // Load-bearing note: ci.sh discovers the ephemeral port of
            // `ASAP_HTTP=127.0.0.1:0` runs by grepping this line.
            obs::note!("obs: http server listening on http://{}", server.addr());
            report::set_live(true);
            Some(server)
        }
        Err(e) => {
            obs::warn!("obs: could not bind ASAP_HTTP={addr}: {e}; running without server");
            None
        }
    }
}

/// The observability bracket around one harness run (a grid, or a crash
/// sweep's cells): the unknown-knob warning, the `ASAP_HTTP` server,
/// `grid_start`/`grid_end` records, the progress line, and the
/// cumulative run-cache note on stderr.
struct RunBracket {
    server: Option<obs::http::Server>,
    events_on: bool,
    cache_on: bool,
    progress: Progress,
    cells: usize,
    t0: Instant,
}

impl RunBracket {
    fn open(cells: usize, jobs: usize, cache: &RunCacheConfig) -> Self {
        asap_sim::warn_unknown_asap_env();
        // Start before the first emit so grid_start lands in the hub
        // backlog and reaches /events subscribers that connect mid-run.
        let server = start_obs_server();
        let events_on = events::enabled();
        let cache_on = cache.enabled();
        let progress = Progress::new(cells);
        let t0 = Instant::now();
        if events_on {
            events::Event::new("grid_start")
                .field_str("schema", events::SCHEMA)
                .field_u64("cells", cells as u64)
                .field_u64("jobs", jobs as u64)
                .field_str("cache", if cache_on { "on" } else { "off" })
                .emit();
        }
        RunBracket {
            server,
            events_on,
            cache_on,
            progress,
            cells,
            t0,
        }
    }

    /// Fingerprints key both memoization and the event stream; with
    /// neither consumer active, hashing is skipped entirely.
    fn fingerprints(&self, specs: &[WorkloadSpec]) -> Option<Vec<Fingerprint>> {
        (self.cache_on || self.events_on).then(|| {
            let _t = phase::scope(phase::Phase::Fingerprint);
            specs.iter().map(WorkloadSpec::fingerprint).collect()
        })
    }

    fn close(self) {
        self.progress.finish();
        if self.events_on {
            let c = runcache::counters();
            events::Event::new("grid_end")
                .field_u64("cells", self.cells as u64)
                .field_u64("host_us", self.t0.elapsed().as_micros() as u64)
                .field_u64("cache_hits", c.hits())
                .field_u64("cache_misses", c.misses)
                .emit();
        }
        if self.cache_on {
            // Cumulative for the process (stderr, like the wall-clock
            // note — the figure's stdout must not depend on cache state).
            obs::note!("{}", runcache::summary_line(&runcache::counters()));
        }
        if let Some(server) = self.server {
            // Graceful: streams drain their pending batches, see the hub
            // close, and every connection thread is joined before we
            // return.
            report::set_live(false);
            server.shutdown();
        }
    }
}

/// The cells of one run after the cache tiers were probed: hits filled
/// in, the first occurrence of every missed fingerprint queued to
/// simulate, and later duplicates left empty for [`Probe::fan_out`].
struct Probe {
    results: Vec<Option<RunResult>>,
    /// First index of each distinct fingerprint.
    first: HashMap<Fingerprint, usize>,
    /// Cells to simulate, ascending.
    to_run: Vec<usize>,
}

impl Probe {
    /// Probes the tiers once per distinct fingerprint. With the cache off
    /// nothing is probed or deduplicated: every cell is queued.
    fn run(
        specs: &[WorkloadSpec],
        fps: Option<&[Fingerprint]>,
        cache: &RunCacheConfig,
        progress: &Progress,
    ) -> Self {
        let mut probe = Probe {
            results: vec![None; specs.len()],
            first: HashMap::new(),
            to_run: Vec::new(),
        };
        let Some(fps) = fps.filter(|_| cache.enabled()) else {
            probe.to_run = (0..specs.len()).collect();
            return probe;
        };
        let _t = phase::scope(phase::Phase::CacheProbe);
        for (i, fp) in fps.iter().enumerate() {
            if probe.first.contains_key(fp) {
                continue;
            }
            probe.first.insert(*fp, i);
            let probe_t0 = Instant::now();
            match runcache::lookup(fp, cache) {
                Some((mut r, tier)) => {
                    // Fingerprint equality makes the cached spec equal to
                    // the requested one; overwrite anyway so a cache can
                    // never alter what a figure prints about its own
                    // inputs.
                    r.spec = specs[i];
                    emit_cell_start(&specs[i], fp);
                    emit_cell_end(
                        &specs[i],
                        fp,
                        tier.label(),
                        &r,
                        probe_t0.elapsed().as_micros() as u64,
                    );
                    probe.results[i] = Some(r);
                    progress.tick(true);
                }
                None => {
                    runcache::note_miss();
                    probe.to_run.push(i);
                }
            }
        }
        probe
    }

    /// Fills every duplicate from its first occurrence and returns the
    /// results in cell order.
    fn fan_out(
        self,
        specs: &[WorkloadSpec],
        fps: Option<&[Fingerprint]>,
        progress: &Progress,
    ) -> Vec<RunResult> {
        let mut results = self.results;
        for i in 0..specs.len() {
            if results[i].is_none() {
                let fps = fps.expect("dedup implies fingerprints");
                let mut r = results[self.first[&fps[i]]]
                    .clone()
                    .expect("representative ran");
                r.spec = specs[i];
                runcache::note_dedup_fanout();
                emit_cell_start(&specs[i], &fps[i]);
                emit_cell_end(&specs[i], &fps[i], "dedup", &r, 0);
                progress.tick(true);
                results[i] = Some(r);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every cell filled"))
            .collect()
    }
}

/// Runs a copy-on-write crash-point sweep for `spec` under the result
/// cache `cache` (pass [`RunCacheConfig::from_env`] for the
/// environment-configured one).
///
/// The sweep itself ([`asap_workloads::run_sweep_with`]) executes the
/// shared prefix once and forks each crash point from a machine
/// snapshot; this wrapper adds the memoization layer: every fork is keyed
/// by the fingerprint of `spec.with_crash_after(point)` — the *same* key
/// an ordinary [`run_grid`] cell for that spec would use, because the
/// fork's result is byte-identical to the legacy re-run (enforced by the
/// equivalence suite). Sweeps therefore dedupe against prior sweeps *and*
/// against ordinary crash-cell grids across invocations. The baseline is
/// cached under the unarmed spec's fingerprint in its plain-run form
/// (crash-point summaries stripped), interchangeable with any non-sweep
/// cell of the same spec.
///
/// The baseline and the forks are one cell list — `[spec] ++ fork
/// specs` — run through the same bracket, tier probe and dedup fan-out
/// as [`run_grid_with`], so a sweep emits the same observability
/// records as a grid (one `cell_start`/`cell_end` pair per crash point
/// plus one for the baseline, progress ticks) and feeds the live report's crash-sweep
/// table when the `ASAP_HTTP` server is up. Only the missed forks are
/// swept. Stdout is untouched; results come back in point order whatever
/// hits.
pub fn run_crash_sweep_with(
    spec: &WorkloadSpec,
    points: &[u64],
    snap_every: u64,
    cache: &RunCacheConfig,
) -> SweepResult {
    let cells: Vec<WorkloadSpec> = std::iter::once(*spec)
        .chain(points.iter().map(|&n| spec.with_crash_after(n)))
        .collect();
    let bracket = RunBracket::open(cells.len(), sweep_jobs(), cache);
    let fps = bracket.fingerprints(&cells);
    let mut probe = Probe::run(&cells, fps.as_deref(), cache, &bracket.progress);

    let mut prefix_writes = 0;
    let mut replayed_writes = 0;
    let to_run = &probe.to_run;
    if !to_run.is_empty() {
        // One sweep covers the baseline and every missing point: the
        // prefix has to be executed to build the snapshots anyway, and
        // the baseline's completion falls out of it for free.
        let base_missed = to_run[0] == 0;
        let missing = &to_run[usize::from(base_missed)..];
        let missing_points: Vec<u64> = missing.iter().map(|&c| points[c - 1]).collect();
        if let Some(fps) = &fps {
            for &c in to_run {
                emit_cell_start(&cells[c], &fps[c]);
            }
        }
        let sim_t0 = Instant::now();
        let sweep = {
            let _t = phase::scope(phase::Phase::Simulate);
            let cfg = SweepConfig::new(snap_every).with_jobs(sweep_jobs());
            run_sweep_with(spec, &missing_points, &cfg)
        };
        prefix_writes = sweep.prefix_writes;
        replayed_writes = sweep.replayed_writes;
        // Host time split evenly across the cells the sweep served —
        // the prefix is shared, so no per-cell attribution is exact.
        let per_us = sim_t0.elapsed().as_micros() as u64 / (missing.len() as u64 + 1);
        let mut baseline = sweep.baseline;
        // Cache the plain-run form: a sweep baseline minus its
        // crash-point summaries is byte-identical to an ordinary run of
        // the unarmed spec, so the entry is interchangeable with (and
        // dedupes against) non-sweep cells. The summaries are rebuilt
        // below from the assembled forks either way.
        baseline.crash_points.clear();
        let served = base_missed
            .then_some((0, baseline))
            .into_iter()
            .chain(missing.iter().copied().zip(sweep.forks));
        for (c, r) in served {
            if let Some(fps) = &fps {
                emit_cell_end(&cells[c], &fps[c], "miss", &r, per_us);
                runcache::insert(&fps[c], &r, cache);
            }
            probe.results[c] = Some(r);
            bracket.progress.tick(false);
        }
    }
    let mut results = probe
        .fan_out(&cells, fps.as_deref(), &bracket.progress)
        .into_iter();
    let mut baseline = results.next().expect("cell 0 is the baseline");
    let forks: Vec<RunResult> = results.collect();
    // Rebuild the summary over *all* requested points (cache hits
    // included) with the driver's own derivation, so a fully-warm sweep
    // reports the same outcomes as a cold one.
    baseline.crash_points = points
        .iter()
        .zip(&forks)
        .map(|(&n, r)| CrashPointOutcome::of(n, r))
        .collect();
    if report::is_live() {
        report::note_sweep(report::SweepNote {
            bench: spec.bench.label().to_string(),
            scheme: spec.scheme.name().to_string(),
            points: baseline.crash_points.clone(),
        });
    }
    bracket.close();
    // `prefix_writes` and `replayed_writes` stay 0 for a fully-warm
    // sweep: the prefix never re-executed, so there is nothing to
    // re-measure (and nothing was replayed).
    SweepResult {
        baseline,
        forks,
        prefix_writes,
        replayed_writes,
    }
}

/// The raw worker pool: simulates every spec, no memoization, on the
/// shared host pool ([`asap_sim::pool::map`]). `fps` is present whenever
/// the event stream is on (the grid runner computes fingerprints for
/// either consumer), so cell records can be keyed by content.
fn pool_run(
    specs: &[WorkloadSpec],
    jobs: usize,
    fps: Option<&[Fingerprint]>,
    progress: &Progress,
) -> Vec<RunResult> {
    let mut workers = vec![(); jobs.clamp(1, specs.len().max(1))];
    asap_sim::pool::map(&mut workers, specs.len(), |_, i, w| {
        run_cell(i, specs, fps, progress, w)
    })
}

/// Simulates one cell on worker `w`, bracketing it with cell events and
/// accounting host time to the Simulate phase and the worker's registry
/// counters.
fn run_cell(
    i: usize,
    specs: &[WorkloadSpec],
    fps: Option<&[Fingerprint]>,
    progress: &Progress,
    w: usize,
) -> RunResult {
    let spec = &specs[i];
    let fp = fps.map(|f| &f[i]);
    if let Some(fp) = fp {
        emit_cell_start(spec, fp);
    }
    let t0 = Instant::now();
    let r = {
        let _t = phase::scope(phase::Phase::Simulate);
        run(spec)
    };
    let host_us = t0.elapsed().as_micros() as u64;
    if let Some(fp) = fp {
        emit_cell_end(spec, fp, "miss", &r, host_us);
    }
    metrics::counter(&format!("pool.worker{w}.cells")).inc();
    metrics::counter(&format!("pool.worker{w}.busy_us")).add(host_us);
    progress.tick(false);
    r
}

/// Starts a cell record carrying the cell's identity fields.
fn cell_record(ev: &str, spec: &WorkloadSpec, fp: &Fingerprint) -> events::Event {
    events::Event::new(ev)
        .field_str("fp", &fp.hex())
        .field_str("bench", spec.bench.label())
        .field_str("scheme", spec.scheme.name())
}

/// Emits `cell_start` (no-op with the stream off).
fn emit_cell_start(spec: &WorkloadSpec, fp: &Fingerprint) {
    if events::enabled() {
        cell_record("cell_start", spec, fp).emit();
    }
}

/// Emits `cell_end`. `cache` says how the cell was served: `"miss"`
/// (simulated), `"mem"`/`"disk"` (tier hit), or `"dedup"` (intra-grid
/// fan-out copy).
fn emit_cell_end(spec: &WorkloadSpec, fp: &Fingerprint, cache: &str, r: &RunResult, host_us: u64) {
    if report::is_live() {
        report::note_cell(report::CellNote {
            bench: spec.bench.label().to_string(),
            scheme: spec.scheme.name().to_string(),
            cache: cache.to_string(),
            host_us,
            sim_cycles: r.exec_cycles,
        });
    }
    if !events::enabled() {
        return;
    }
    let outcome = match r.outcome {
        RunOutcome::Completed => "completed",
        RunOutcome::Crashed => "crashed",
    };
    cell_record("cell_end", spec, fp)
        .field_str("outcome", outcome)
        .field_str("cache", cache)
        .field_u64("host_us", host_us)
        .field_u64("sim_cycles", r.exec_cycles)
        .emit();
}

/// Sums a counter across results (used by the wall-clock report).
fn total(results: &[&[RunResult]], f: impl Fn(&RunResult) -> u64) -> u64 {
    results.iter().flat_map(|g| g.iter()).map(&f).sum()
}

/// Appends one record for `figure` to the wall-clock trajectory file
/// (`BENCH_WALLCLOCK.json`, override with `ASAP_WALLCLOCK`; set it empty to
/// disable). The file is a JSON array of records:
/// `{figure, host_seconds, jobs, cells, cache, sim_cycles, pm_writes,
/// phases, unix_time}` — host seconds move with harness work; simulated
/// cycles and traffic must not, which is what makes the trajectory useful
/// to future perf PRs. `cache` is `"warm"` when any run-cache hit served
/// part of this process (so its host seconds measure the memoized path,
/// not the simulator) and `"cold"` otherwise; perf comparisons across
/// records must skip warm ones. `phases` is the host-phase profile
/// *taken* at write time ([`phase::take_snapshot_json`]): each record
/// owns the interval since the previous record, so back-to-back emits in
/// one process (e.g. `crash_sweep` then `crash_sweep_legacy`) never
/// repeat each other's `simulate_us`/`cells_timed`.
///
/// The note confirming the write goes to *stderr*: stdout stays
/// byte-identical across `ASAP_JOBS` settings and host speeds.
pub fn emit_wallclock(figure: &str, elapsed: Duration, grids: &[&[RunResult]]) {
    emit_wallclock_env(figure, elapsed, grids, None);
}

/// [`emit_wallclock`] for crash sweeps: the record additionally carries
/// `crash_points` (how many points the sweep covered) and
/// `points_per_sec` (that count over the host seconds), the sweep
/// throughput on this host. The committed cross-revision record is the
/// benchmark's, in `BENCH_HISTORY.json`.
pub fn emit_wallclock_sweep(
    figure: &str,
    elapsed: Duration,
    grids: &[&[RunResult]],
    crash_points: u64,
) {
    emit_wallclock_env(figure, elapsed, grids, Some(crash_points));
}

fn emit_wallclock_env(
    figure: &str,
    elapsed: Duration,
    grids: &[&[RunResult]],
    crash_points: Option<u64>,
) {
    let path = match std::env::var("ASAP_WALLCLOCK") {
        Ok(p) if p.is_empty() => return,
        Ok(p) => std::path::PathBuf::from(p),
        // CARGO_MANIFEST_DIR of this crate is crates/bench.
        Err(_) => {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_WALLCLOCK.json")
        }
    };
    if let Err(e) = emit_wallclock_record(&path, figure, elapsed, grids, crash_points) {
        obs::warn!("wallclock: could not write {}: {e}", path.display());
    }
    emit_telemetry(figure, grids);
}

/// The write behind [`emit_wallclock`] and [`emit_wallclock_sweep`], with
/// an explicit path so tests can aim it at a temp (or unwritable)
/// location; `crash_points` adds the sweep-throughput fields. The stderr
/// note and the `wallclock_written` event fire only after the atomic
/// rename has returned `Ok` — a failed write must never claim the record
/// landed.
pub fn emit_wallclock_record(
    path: &std::path::Path,
    figure: &str,
    elapsed: Duration,
    grids: &[&[RunResult]],
    crash_points: Option<u64>,
) -> std::io::Result<()> {
    let _t = phase::scope(phase::Phase::Export);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let cache_tag = if runcache::counters().hits() > 0 {
        "warm"
    } else {
        "cold"
    };
    let sweep_fields = crash_points.map_or(String::new(), |n| {
        format!(
            "\"crash_points\":{n},\"points_per_sec\":{:.1},",
            n as f64 / elapsed.as_secs_f64().max(1e-9)
        )
    });
    let record = format!(
        "{{\"figure\":\"{}\",\"host_seconds\":{:.3},\"jobs\":{},\"cells\":{},\
         \"cache\":\"{}\",\"sim_cycles\":{},\"pm_writes\":{},{}\"phases\":{},\
         \"unix_time\":{}}}",
        figure,
        elapsed.as_secs_f64(),
        jobs(),
        grids.iter().map(|g| g.len()).sum::<usize>(),
        cache_tag,
        total(grids, |r| r.exec_cycles),
        total(grids, |r| r.pm_writes),
        sweep_fields,
        phase::take_snapshot_json(),
        unix_time,
    );
    // The file is a JSON array; append the record so repeated figure runs
    // accumulate a trajectory, keeping only the newest
    // [`MAX_WALLCLOCK_ENTRIES`] records per figure (prior records are kept
    // verbatim — only membership changes, never formatting).
    let mut records: Vec<String> = std::fs::read_to_string(path)
        .map(|prev| extract_json_objects(&prev))
        .unwrap_or_default();
    records.push(record);
    let dropped = cap_trajectory(&mut records, figure);
    let body = format!("[\n  {}\n]\n", records.join(",\n  "));
    // Write-temp-then-rename: figures may run concurrently (or be
    // interrupted), and a half-written trajectory file would poison every
    // later append. `rename` within one directory is atomic on POSIX.
    write_atomic(path, &body)?;
    if dropped > 0 {
        obs::note!(
            "wallclock: {figure} trajectory capped at {MAX_WALLCLOCK_ENTRIES} \
             entries ({dropped} oldest dropped)"
        );
    }
    obs::note!(
        "wallclock: {figure} {:.3}s ({} jobs) -> {}",
        elapsed.as_secs_f64(),
        jobs(),
        path.display()
    );
    if events::enabled() {
        events::Event::new("wallclock_written")
            .field_str("figure", figure)
            .field_f64("host_seconds", elapsed.as_secs_f64())
            .field_str("path", &path.display().to_string())
            .emit();
    }
    Ok(())
}

/// Newest records kept per figure in the wall-clock trajectory file; the
/// oldest beyond this are dropped on append (noted on stderr).
const MAX_WALLCLOCK_ENTRIES: usize = 64;

/// Extracts the top-level `{…}` objects of a JSON array as verbatim text
/// slices. Brace-depth counting copes with nested objects (the `phases`
/// sub-object); the records never put brace characters inside strings. A
/// malformed file yields an empty list, so the caller starts a fresh
/// trajectory rather than corrupting the file further.
fn extract_json_objects(s: &str) -> Vec<String> {
    let mut v = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    v.push(s[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    v
}

/// Drops the oldest records of `figure` beyond [`MAX_WALLCLOCK_ENTRIES`]
/// (other figures' records are untouched) and returns how many were
/// dropped.
fn cap_trajectory(records: &mut Vec<String>, figure: &str) -> usize {
    let tag = format!("\"figure\":\"{figure}\"");
    let mine = records.iter().filter(|r| r.contains(&tag)).count();
    let dropped = mine.saturating_sub(MAX_WALLCLOCK_ENTRIES);
    let mut left = dropped;
    records.retain(|r| {
        if left > 0 && r.contains(&tag) {
            left -= 1;
            false
        } else {
            true
        }
    });
    dropped
}

/// Writes `body` to a same-directory temp file, then renames it over
/// `path`, so readers never observe a partial file (for concurrent writers
/// of one path, the last rename wins).
pub(crate) fn write_atomic(path: &std::path::Path, body: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Merges the per-run telemetry of every grid into one figure-level JSON
/// object, in spec order: `{"figure":…,"runs":[…]}`. Returns `None` when
/// no run carried telemetry (the knob was off), so callers can skip the
/// write entirely. Deterministic: each run's telemetry is virtual-time
/// sampled, so the merge is byte-identical for any `ASAP_JOBS`.
pub fn merged_telemetry_json(figure: &str, grids: &[&[RunResult]]) -> Option<String> {
    let runs: Vec<String> = grids
        .iter()
        .flat_map(|g| g.iter())
        .filter_map(RunResult::telemetry_json)
        .collect();
    if runs.is_empty() {
        return None;
    }
    Some(format!(
        "{{\"figure\":\"{figure}\",\"runs\":[{}]}}",
        runs.join(",")
    ))
}

/// Writes the merged telemetry for `figure` under the `ASAP_TELEMETRY_OUT`
/// directory (default `target/telemetry/` next to the workspace root;
/// empty disables). A no-op when telemetry was off for every run. Called
/// from [`emit_wallclock`], so every figure bench exports for free.
fn emit_telemetry(figure: &str, grids: &[&[RunResult]]) {
    let Some(merged) = merged_telemetry_json(figure, grids) else {
        return;
    };
    let dir = match std::env::var("ASAP_TELEMETRY_OUT") {
        Ok(d) if d.is_empty() => return,
        Ok(d) => std::path::PathBuf::from(d),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/telemetry"),
    };
    let path = dir.join(format!("{figure}.json"));
    let _t = phase::scope(phase::Phase::Export);
    let res = std::fs::create_dir_all(&dir).and_then(|()| write_atomic(&path, &merged));
    match res {
        Ok(()) => obs::note!("telemetry: {figure} -> {}", path.display()),
        Err(e) => obs::warn!("telemetry: could not write {}: {e}", path.display()),
    }
}

/// The standard figure spec: Table 2 system, scaled ops/threads, tracing
/// and telemetry per the `ASAP_TRACE*`/`ASAP_TELEMETRY*` environment
/// knobs.
pub fn fig_spec(bench: BenchId, scheme: SchemeKind) -> WorkloadSpec {
    WorkloadSpec::new(bench, scheme)
        .with_threads(threads())
        .with_ops(ops())
        .with_trace(TraceSettings::from_env())
        .with_telemetry(TelemetrySettings::from_env())
}

/// Geometric mean (0.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Prints a fixed-width table row.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<8}");
    for c in cells {
        print!(" {c:>9}");
    }
    println!();
}

/// Prints a table header followed by a rule.
pub fn header(label: &str, cols: &[&str]) {
    row(
        label,
        &cols.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
    );
    println!("{}", "-".repeat(8 + cols.len() * 10));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_extraction_and_cap() {
        assert!(extract_json_objects("garbage").is_empty());
        assert!(extract_json_objects("").is_empty());
        let s = "[\n  {\"figure\":\"a\",\"x\":1},\n  {\"figure\":\"b\",\"x\":2}\n]\n";
        assert_eq!(
            extract_json_objects(s),
            vec!["{\"figure\":\"a\",\"x\":1}", "{\"figure\":\"b\",\"x\":2}"]
        );

        // Over-full trajectory: the oldest records of the capped figure
        // are dropped, records of other figures stay, order is preserved.
        let mut records: Vec<String> = (0..MAX_WALLCLOCK_ENTRIES + 3)
            .map(|i| format!("{{\"figure\":\"f7\",\"n\":{i}}}"))
            .collect();
        records.insert(1, "{\"figure\":\"other\",\"n\":99}".to_string());
        assert_eq!(cap_trajectory(&mut records, "f7"), 3);
        assert_eq!(records.len(), MAX_WALLCLOCK_ENTRIES + 1);
        assert_eq!(records[0], "{\"figure\":\"other\",\"n\":99}");
        assert_eq!(records[1], "{\"figure\":\"f7\",\"n\":3}");
        assert_eq!(
            records.last().unwrap(),
            &format!("{{\"figure\":\"f7\",\"n\":{}}}", MAX_WALLCLOCK_ENTRIES + 2)
        );
        // Under the cap: untouched.
        assert_eq!(cap_trajectory(&mut records, "f7"), 0);
        assert_eq!(cap_trajectory(&mut records, "other"), 0);
        assert_eq!(records.len(), MAX_WALLCLOCK_ENTRIES + 1);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn env_defaults() {
        // Not set in the test environment.
        if std::env::var("ASAP_OPS").is_err() {
            assert_eq!(ops(), 200);
        }
        if std::env::var("ASAP_THREADS").is_err() {
            assert_eq!(threads(), 4);
        }
    }

    #[test]
    fn bench_filter_passthrough() {
        if std::env::var("ASAP_BENCHES").is_err() {
            assert_eq!(benches(&BenchId::all()).len(), 9);
        }
    }

    #[test]
    fn jobs_floor_is_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn run_grid_preserves_spec_order() {
        let specs: Vec<WorkloadSpec> = [SchemeKind::NoPersist, SchemeKind::Asap]
            .into_iter()
            .flat_map(|s| {
                [BenchId::Q, BenchId::Bt]
                    .into_iter()
                    .map(move |b| WorkloadSpec::new(b, s).with_threads(2).with_ops(20))
            })
            .collect();
        let parallel = run_grid_jobs(&specs, 4);
        assert_eq!(parallel.len(), specs.len());
        for (spec, res) in specs.iter().zip(&parallel) {
            assert_eq!(res.spec.bench, spec.bench);
            assert_eq!(res.spec.scheme, spec.scheme);
        }
    }

    #[test]
    fn merged_telemetry_is_identical_across_job_counts() {
        let specs: Vec<WorkloadSpec> = [BenchId::Q, BenchId::Hm]
            .into_iter()
            .map(|b| {
                WorkloadSpec::new(b, SchemeKind::Asap)
                    .with_threads(2)
                    .with_ops(20)
                    .with_telemetry(TelemetrySettings::enabled())
            })
            .collect();
        // Cache pinned off so both grids really run — a memoized second
        // grid would make the comparison vacuous.
        let serial = run_grid_with(&specs, 1, &RunCacheConfig::off());
        let parallel = run_grid_with(&specs, 2, &RunCacheConfig::off());
        let a = merged_telemetry_json("test", &[&serial]).expect("telemetry on");
        let b = merged_telemetry_json("test", &[&parallel]).expect("telemetry on");
        assert_eq!(a, b, "merge must not depend on ASAP_JOBS");
        asap_sim::json::parse(&a).expect("merged telemetry parses");
        // Telemetry-off grids merge to nothing.
        let off = vec![WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(10)];
        let res = run_grid_with(&off, 1, &RunCacheConfig::off());
        assert!(merged_telemetry_json("test", &[&res]).is_none());
    }

    #[test]
    fn run_grid_serial_and_parallel_agree() {
        let specs: Vec<WorkloadSpec> = [BenchId::Q, BenchId::Hm, BenchId::Ss]
            .into_iter()
            .map(|b| {
                WorkloadSpec::new(b, SchemeKind::Asap)
                    .with_threads(2)
                    .with_ops(20)
            })
            .collect();
        // Cache pinned off so the parallel grid actually re-simulates.
        let serial = run_grid_with(&specs, 1, &RunCacheConfig::off());
        let parallel = run_grid_with(&specs, 3, &RunCacheConfig::off());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.exec_cycles, b.exec_cycles);
            assert_eq!(a.drained_cycles, b.drained_cycles);
            assert_eq!(a.pm_writes, b.pm_writes);
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        }
    }

    #[test]
    fn crash_sweep_grid_matches_legacy_and_interops_with_cache() {
        use asap_workloads::resultjson::results_identical;
        let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(20);
        // A duplicate point (dedup fan-out) and one beyond the workload's
        // writes (the fork completes).
        let points = [1u64, 9, 9, 1_000_000];
        let legacy: Vec<RunResult> = points
            .iter()
            .map(|&n| run(&spec.with_crash_after(n)))
            .collect();
        let plain = run(&spec);

        // Cache off: forks byte-identical to the legacy re-run path.
        let cold = run_crash_sweep_with(&spec, &points, 4, &RunCacheConfig::off());
        assert_eq!(cold.forks.len(), points.len());
        for (a, b) in cold.forks.iter().zip(&legacy) {
            assert!(results_identical(a, b), "cold sweep fork diverged");
        }
        assert_eq!(cold.baseline.crash_points.len(), points.len());

        // Disk cache: populate cold, then serve warm — same results, and
        // the warm baseline rebuilds the same crash-point summary.
        let dir = std::env::temp_dir().join(format!("asap-crash-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCacheConfig::disk_only(&dir, 16);
        let c1 = run_crash_sweep_with(&spec, &points, 4, &cache);
        let c2 = run_crash_sweep_with(&spec, &points, 4, &cache);
        for sweep in [&c1, &c2] {
            for (a, b) in sweep.forks.iter().zip(&legacy) {
                assert!(results_identical(a, b), "cached sweep fork diverged");
            }
            assert!(results_identical(&sweep.baseline, &cold.baseline));
        }

        // Interop both ways: an ordinary grid over the same crash specs
        // is served from the sweep-populated cache, and the baseline
        // entry is interchangeable with a plain cell of the unarmed spec.
        let crash_specs: Vec<WorkloadSpec> =
            points.iter().map(|&n| spec.with_crash_after(n)).collect();
        let grid = run_grid_with(&crash_specs, 2, &cache);
        for (a, b) in grid.iter().zip(&legacy) {
            assert!(results_identical(a, b), "grid over sweep cache diverged");
        }
        let base_cell = run_grid_with(&[spec], 1, &cache);
        assert!(
            results_identical(&base_cell[0], &plain),
            "cached sweep baseline must be interchangeable with a plain cell"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_cells_collapse_and_match_fresh() {
        use asap_workloads::resultjson::results_identical;
        let spec = WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(20);
        let specs = vec![spec, spec, spec];
        let dir = std::env::temp_dir().join(format!("asap-grid-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = run_grid_with(&specs, 1, &RunCacheConfig::off());
        // Cold cached grid: one simulation, fan-out to all three slots.
        let cold = run_grid_with(&specs, 1, &RunCacheConfig::disk_only(&dir, 8));
        // Warm grid in a parallel pool: served from disk entirely.
        let warm = run_grid_with(&specs, 2, &RunCacheConfig::disk_only(&dir, 8));
        for grid in [&cold, &warm] {
            assert_eq!(grid.len(), specs.len());
            for (a, b) in grid.iter().zip(&fresh) {
                assert!(results_identical(a, b), "cached grid must equal fresh");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
