//! The HTML run reports, from one renderer: the live `/report` endpoint
//! (`render_html`) and the single-run report of the `run_report`
//! example ([`run_html`]).
//!
//! Both pages share one shell (one self-contained file, inline CSS, no
//! JavaScript) and end with the same two sections: the host-phase profile
//! and the process-global metrics registry. The live page adds grid
//! progress, the most recent cells and the crash sweeps. The single-run
//! page adds what one telemetry-enabled run recorded: occupancy
//! sparklines, the per-region stall breakdown, the hottest PM lines and
//! the region commit timeline.
//!
//! Live recording is gated on `set_live` (flipped by `run_grid_with`
//! while an `ASAP_HTTP` server is up) so figure runs without the server
//! pay nothing beyond one relaxed atomic load per cell. Rendering walks
//! snapshots only — a request can race a running grid and at worst see
//! a slightly stale table, never tear a data structure.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use asap_sim::json::{self, Value};
use asap_sim::obs::{metrics, phase};
use asap_workloads::{CrashPointOutcome, RunResult};

/// How many recently finished cells the report shows.
const RECENT_CAP: usize = 64;

/// How many recent crash sweeps the report keeps.
const SWEEP_CAP: usize = 8;

/// How many crash points of one sweep the report table shows.
const SWEEP_POINT_CAP: usize = 64;

/// How many region commits the single-run timeline shows.
const COMMIT_CAP: usize = 64;

/// One finished cell, as the report shows it.
pub(crate) struct CellNote {
    pub bench: String,
    pub scheme: String,
    /// How the cell was served: `miss` / `mem` / `disk` / `dedup`.
    pub cache: String,
    pub host_us: u64,
    pub sim_cycles: u64,
}

static LIVE: AtomicBool = AtomicBool::new(false);

fn recent() -> &'static Mutex<VecDeque<CellNote>> {
    static RECENT: OnceLock<Mutex<VecDeque<CellNote>>> = OnceLock::new();
    RECENT.get_or_init(Mutex::default)
}

/// Turns cell recording on/off (on only while an observability server
/// is up; recording without a reader would be waste).
pub(crate) fn set_live(live: bool) {
    LIVE.store(live, Ordering::Release);
}

/// Whether recording is on — callers check this first so the per-cell
/// `CellNote` strings are never built without a reader.
pub(crate) fn is_live() -> bool {
    LIVE.load(Ordering::Acquire)
}

/// Records one finished cell for the report's recent-cells table.
pub(crate) fn note_cell(note: CellNote) {
    if !LIVE.load(Ordering::Acquire) {
        return;
    }
    let mut q = recent().lock().unwrap();
    if q.len() == RECENT_CAP {
        q.pop_front();
    }
    q.push_back(note);
}

/// One finished crash sweep, as the report shows it: the cell identity
/// plus the per-point outcome summary off the sweep baseline.
pub(crate) struct SweepNote {
    pub bench: String,
    pub scheme: String,
    pub points: Vec<CrashPointOutcome>,
}

fn sweeps() -> &'static Mutex<VecDeque<SweepNote>> {
    static SWEEPS: OnceLock<Mutex<VecDeque<SweepNote>>> = OnceLock::new();
    SWEEPS.get_or_init(Mutex::default)
}

/// Records one finished crash sweep for the report's sweep table.
pub(crate) fn note_sweep(note: SweepNote) {
    if !LIVE.load(Ordering::Acquire) {
        return;
    }
    let mut q = sweeps().lock().unwrap();
    if q.len() == SWEEP_CAP {
        q.pop_front();
    }
    q.push_back(note);
}

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Opens a page: the shared head and inline CSS, then `title` (escaped)
/// as the `<h1>`.
fn page(title: &str) -> String {
    let t = html_escape(title);
    format!(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>{t}</title>\n<style>\
         body{{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:72em;color:#111}}\
         h1{{font-size:1.4em}} h2{{font-size:1.1em;margin-top:2em;\
         border-bottom:1px solid #ddd;padding-bottom:.2em}}\
         table{{border-collapse:collapse}} td,th{{padding:.2em .8em;\
         border:1px solid #ddd;text-align:right}} th{{background:#f5f5f5}}\
         td:first-child,th:first-child{{text-align:left}}\
         .peak{{color:#666;font-size:.85em}}\
         .series{{margin:.6em 0}} .series b{{display:inline-block;min-width:12em}}\
         </style></head><body>\n<h1>{t}</h1>\n"
    )
}

/// Where this process's host time went, per harness phase.
fn host_phases(h: &mut String) {
    h.push_str(
        "<h2>Host-phase profile</h2>\n\
         <p>Host time of this process (virtual-time results are unaffected).</p>\n\
         <table><tr><th>phase</th><th>host &micro;s</th><th>scopes</th></tr>\n",
    );
    for p in phase::PHASES {
        let (us, n) = phase::totals(p);
        let _ = writeln!(h, "<tr><td>{}</td><td>{us}</td><td>{n}</td></tr>", p.name());
    }
    h.push_str("</table>\n");
}

/// The process-global metrics registry: counters, gauges, histograms.
fn metrics_tables(h: &mut String) {
    let snap = metrics::snapshot();
    h.push_str("<h2>Metrics</h2>\n");
    for (kind, rows) in [("Counters", &snap.counters), ("Gauges", &snap.gauges)] {
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(
            h,
            "<h3>{kind}</h3><table><tr><th>name</th><th>value</th></tr>"
        );
        for (n, v) in rows {
            let _ = writeln!(h, "<tr><td>{}</td><td>{v}</td></tr>", html_escape(n));
        }
        h.push_str("</table>\n");
    }
    if !snap.histograms.is_empty() {
        h.push_str(
            "<h3>Histograms</h3><table><tr><th>name</th><th>count</th>\
             <th>p50</th><th>p99</th><th>max</th></tr>\n",
        );
        for (n, hist) in &snap.histograms {
            let s = hist.summary();
            let _ = writeln!(
                h,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                html_escape(n),
                s.count,
                hist.quantile(0.50),
                hist.quantile(0.99),
                s.max
            );
        }
        h.push_str("</table>\n");
    }
}

/// Renders the live report from current snapshots.
pub(crate) fn render_html() -> String {
    let mut h = page("ASAP live run report");
    // Progress.
    h.push_str("<h2>Grid progress</h2>\n");
    match crate::progress::current_state() {
        Some(state) => {
            let s = state.snapshot();
            let rate = s
                .cells_per_s
                .map_or_else(|| "--".into(), |r| format!("{r:.1}"));
            let eta = s
                .eta_s
                .map_or_else(|| "--:--".into(), |e| format!("{e:.0}s"));
            let _ = writeln!(
                h,
                "<p>{}/{} cells done ({} served warm), {:.1}s elapsed, \
                 {rate} cells/s, ETA {eta}.</p>",
                s.done, s.total, s.warm, s.elapsed_s
            );
        }
        None => h.push_str("<p>No grid has started in this process.</p>\n"),
    }

    // Recent cells.
    h.push_str("<h2>Recent cells</h2>\n");
    {
        let q = recent().lock().unwrap();
        if q.is_empty() {
            h.push_str("<p>None recorded yet.</p>\n");
        } else {
            h.push_str(
                "<table><tr><th>bench</th><th>scheme</th><th>served</th>\
                 <th>host &micro;s</th><th>sim cycles</th></tr>\n",
            );
            for c in q.iter().rev() {
                let _ = writeln!(
                    h,
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                    html_escape(&c.bench),
                    html_escape(&c.scheme),
                    html_escape(&c.cache),
                    c.host_us,
                    c.sim_cycles
                );
            }
            h.push_str("</table>\n");
        }
    }

    // Crash sweeps (newest first), one table per sweep.
    h.push_str("<h2>Crash sweeps</h2>\n");
    {
        let q = sweeps().lock().unwrap();
        if q.is_empty() {
            h.push_str("<p>None recorded yet.</p>\n");
        } else {
            for s in q.iter().rev() {
                let crashed = s.points.iter().filter(|p| p.crashed).count();
                let _ = writeln!(
                    h,
                    "<h3>{} / {} &mdash; {} points, {} crashed</h3>",
                    html_escape(&s.bench),
                    html_escape(&s.scheme),
                    s.points.len(),
                    crashed
                );
                h.push_str(
                    "<table><tr><th>crash after</th><th>outcome</th>\
                     <th>uncommitted</th><th>replayed</th>\
                     <th>restored lines</th><th>tx</th></tr>\n",
                );
                for p in s.points.iter().take(SWEEP_POINT_CAP) {
                    let _ = writeln!(
                        h,
                        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                         <td>{}</td><td>{}</td></tr>",
                        p.crash_after,
                        if p.crashed { "crashed" } else { "completed" },
                        p.uncommitted,
                        p.replayed,
                        p.restored_lines,
                        p.tx
                    );
                }
                h.push_str("</table>\n");
                if s.points.len() > SWEEP_POINT_CAP {
                    let _ = writeln!(
                        h,
                        "<p>&hellip;{} more points not shown.</p>",
                        s.points.len() - SWEEP_POINT_CAP
                    );
                }
            }
        }
    }

    host_phases(&mut h);
    metrics_tables(&mut h);
    h.push_str("</body></html>\n");
    h
}

/// An inline-SVG sparkline for one series: a polyline over the sample
/// points, scaled into a fixed 600x60 box, with the peak value printed.
fn sparkline(times: &[f64], values: &[f64]) -> String {
    const W: f64 = 600.0;
    const H: f64 = 60.0;
    if times.is_empty() {
        return "<em>no samples</em>".into();
    }
    let t0 = times[0];
    let t1 = times[times.len() - 1].max(t0 + 1.0);
    let vmax = values.iter().cloned().fold(0.0_f64, f64::max).max(1.0);
    let mut pts = String::new();
    for (t, v) in times.iter().zip(values) {
        let x = (t - t0) / (t1 - t0) * W;
        let y = H - (v / vmax) * (H - 4.0) - 2.0;
        let _ = write!(pts, "{x:.1},{y:.1} ");
    }
    format!(
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\">\
         <polyline points=\"{}\" fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\"/>\
         </svg> <span class=\"peak\">peak {vmax:.0}</span>",
        pts.trim_end()
    )
}

/// The numbers of a JSON array (non-numbers skipped).
fn numbers(v: &Value) -> Option<Vec<f64>> {
    Some(v.as_array()?.iter().filter_map(Value::as_f64).collect())
}

/// Renders the single-run report of `r`, which must have run with
/// telemetry on: the run summary, occupancy sparklines, the per-region
/// stall breakdown, the hottest PM lines and the region commit timeline,
/// then this process's host-phase profile and metrics registry. Errors
/// name the missing or malformed telemetry export.
pub fn run_html(r: &RunResult) -> Result<String, String> {
    let parse = |label: &str, text: Option<&str>| {
        json::parse(text.ok_or(format!("{label}: run has no telemetry"))?)
            .map_err(|e| format!("{label}: {e}"))
    };
    let ts = parse("timeseries", r.timeseries.as_deref())?;
    let lc = parse("lifecycle", r.lifecycle.as_deref())?;

    let spec = &r.spec;
    let mut h = page(&format!(
        "ASAP run report — {} / {}",
        spec.bench.label(),
        spec.scheme
    ));
    let _ = writeln!(
        h,
        "<p>{} threads, {} ops/thread, {}-byte payloads, seed {:#x}. \
         {} transactions in {} cycles ({:.3} tx/kcycle); {} PM media writes; \
         drained at cycle {}.</p>",
        spec.threads,
        spec.ops_per_thread,
        spec.value_bytes,
        spec.seed,
        r.tx,
        r.exec_cycles,
        r.throughput,
        r.pm_writes,
        r.drained_cycles,
    );

    // --- Occupancy sparklines --------------------------------------------
    let period = ts.get("period").and_then(Value::as_f64).unwrap_or(0.0);
    let decim = ts.get("decimations").and_then(Value::as_f64).unwrap_or(0.0);
    let times = ts
        .get("t")
        .and_then(numbers)
        .ok_or("timeseries: missing t")?;
    let series = ts
        .get("series")
        .and_then(Value::as_object)
        .ok_or("timeseries: missing series")?;
    let _ = writeln!(
        h,
        "<h2>Occupancy over virtual time</h2>\n\
         <p>{} samples, final period {} cycles ({} decimations).</p>",
        times.len(),
        period,
        decim
    );
    for (name, vals) in series {
        let vals = numbers(vals).ok_or("timeseries: series not an array")?;
        let _ = writeln!(
            h,
            "<div class=\"series\"><b>{}</b> {}</div>",
            html_escape(name),
            sparkline(&times, &vals)
        );
    }

    // --- Stall breakdown --------------------------------------------------
    h.push_str(
        "<h2>Mean cycles per region</h2>\n<table><tr><th>component</th><th>cycles</th></tr>",
    );
    for (label, v) in [
        ("compute", r.stalls.compute),
        ("log full", r.stalls.log_full),
        ("WPQ backpressure", r.stalls.wpq_backpressure),
        ("dependency wait", r.stalls.dependency_wait),
        ("commit wait", r.stalls.commit_wait),
        ("total", r.stalls.total()),
    ] {
        let _ = write!(h, "<tr><td>{label}</td><td>{v:.1}</td></tr>");
    }
    h.push_str("</table>\n");

    // --- Hottest PM lines -------------------------------------------------
    h.push_str("<h2>Hottest PM lines</h2>\n<table><tr><th>line</th><th>media writes</th></tr>");
    for (line, n) in &r.hot_lines {
        let _ = write!(h, "<tr><td>{line:#x}</td><td>{n}</td></tr>");
    }
    h.push_str("</table>\n");

    // --- Commit timeline --------------------------------------------------
    let commits = lc
        .get("commits")
        .and_then(Value::as_array)
        .ok_or("lifecycle: missing commits")?;
    let audited = lc.get("audited").and_then(Value::as_f64).unwrap_or(0.0);
    let dropped = lc.get("dropped").and_then(Value::as_f64).unwrap_or(0.0);
    let _ = write!(
        h,
        "<h2>Region commit timeline</h2>\n\
         <p>{} commits audited against the dependency DAG ({} evicted \
         records); first {} shown.</p>\n\
         <table><tr><th>#</th><th>region</th><th>commit cycle</th></tr>",
        audited,
        dropped,
        commits.len().min(COMMIT_CAP)
    );
    for (i, c) in commits.iter().take(COMMIT_CAP).enumerate() {
        let pair = c.as_array().ok_or("lifecycle: commit not a pair")?;
        let rid = pair.first().and_then(Value::as_str).unwrap_or("?");
        let at = pair.get(1).and_then(Value::as_f64).unwrap_or(0.0);
        let _ = write!(
            h,
            "<tr><td>{}</td><td>{}</td><td>{at:.0}</td></tr>",
            i + 1,
            html_escape(rid)
        );
    }
    h.push_str("</table>\n");

    host_phases(&mut h);
    metrics_tables(&mut h);
    h.push_str("</body></html>\n");
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests below toggle the process-global `LIVE` flag and share the
    /// recent/sweep queues, so they must not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn report_renders_and_respects_live_gate() {
        let _serial = serial();
        // Not live: notes are dropped.
        set_live(false);
        note_cell(CellNote {
            bench: "GATED".into(),
            scheme: "asap".into(),
            cache: "miss".into(),
            host_us: 1,
            sim_cycles: 2,
        });
        assert!(!render_html().contains("GATED"));

        set_live(true);
        note_cell(CellNote {
            bench: "q&lt".into(), // exercises escaping via '&'
            scheme: "asap".into(),
            cache: "mem".into(),
            host_us: 123,
            sim_cycles: 456,
        });
        let html = render_html();
        set_live(false);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("q&amp;lt"));
        assert!(html.contains("<td>123</td><td>456</td>"));
        assert!(html.contains("Host-phase profile"));
    }

    #[test]
    fn sweep_table_renders_and_respects_live_gate() {
        let _serial = serial();
        let point = |n: u64, crashed: bool| CrashPointOutcome {
            crash_after: n,
            crashed,
            uncommitted: 1,
            replayed: 2,
            restored_lines: 3,
            tx: 40 + n,
        };
        set_live(false);
        note_sweep(SweepNote {
            bench: "GATEDSWEEP".into(),
            scheme: "asap".into(),
            points: vec![point(5, true)],
        });
        assert!(!render_html().contains("GATEDSWEEP"));

        set_live(true);
        note_sweep(SweepNote {
            bench: "HM<1>".into(), // exercises escaping
            scheme: "asap".into(),
            points: vec![point(7, true), point(1_000_000, false)],
        });
        let html = render_html();
        set_live(false);
        assert!(html.contains("HM&lt;1&gt;"));
        assert!(html.contains("2 points, 1 crashed"));
        assert!(html.contains("<td>7</td><td>crashed</td>"));
        assert!(html.contains("<td>1000000</td><td>completed</td>"));
        sweeps().lock().unwrap().clear();
    }

    #[test]
    fn run_report_renders_every_section() {
        use asap_core::scheme::SchemeKind;
        use asap_sim::TelemetrySettings;
        use asap_workloads::{run, BenchId, WorkloadSpec};

        let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(20)
            .with_telemetry(TelemetrySettings::enabled());
        let r = run(&spec);
        let html = run_html(&r).expect("a telemetry run renders");
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("<h1>ASAP run report — HM / asap</h1>"));

        // One sparkline per occupancy series.
        let ts = json::parse(r.timeseries.as_deref().unwrap()).unwrap();
        let series = ts.get("series").and_then(Value::as_object).unwrap();
        assert!(!series.is_empty());
        assert_eq!(html.matches("<svg").count(), series.len());

        // The five stall components plus their total.
        for label in [
            "compute",
            "log full",
            "WPQ backpressure",
            "dependency wait",
            "commit wait",
            "total",
        ] {
            assert!(
                html.contains(&format!("<tr><td>{label}</td><td>")),
                "{label}"
            );
        }

        // Every hot line, and the first commits of the timeline in order.
        assert!(!r.hot_lines.is_empty());
        for (line, n) in &r.hot_lines {
            assert!(html.contains(&format!("<tr><td>{line:#x}</td><td>{n}</td></tr>")));
        }
        let lc = json::parse(r.lifecycle.as_deref().unwrap()).unwrap();
        let commits = lc.get("commits").and_then(Value::as_array).unwrap();
        assert!(!commits.is_empty());
        assert!(html.contains("Region commit timeline"));
        for (i, c) in commits.iter().take(COMMIT_CAP).enumerate() {
            let rid = c.as_array().unwrap()[0].as_str().unwrap();
            assert!(html.contains(&format!("<tr><td>{}</td><td>{rid}</td><td>", i + 1)));
        }

        // The shared host-phase and metrics sections close the page.
        assert!(html.contains("<h2>Host-phase profile</h2>"));
        assert!(html.contains("<tr><td>simulate</td><td>"));
        assert!(html.contains("<h3>Counters</h3>"));
        assert!(html.contains("<tr><td>pmem.image.lookups</td><td>"));
        assert!(html.ends_with("</body></html>\n"));

        // Labels reach the page only through the escaping shell.
        let shell = page("HM<1> & \"asap\"");
        assert!(shell.contains("<h1>HM&lt;1&gt; &amp; &quot;asap&quot;</h1>"));
        assert!(shell.contains("<title>HM&lt;1&gt; &amp; &quot;asap&quot;</title>"));

        // A run without telemetry has nothing to draw.
        let plain = run(&spec.with_telemetry(TelemetrySettings::disabled()));
        assert!(run_html(&plain).is_err());
    }

    #[test]
    fn recent_queue_is_bounded() {
        let _serial = serial();
        set_live(true);
        for i in 0..(RECENT_CAP + 10) {
            note_cell(CellNote {
                bench: format!("B{i}"),
                scheme: "asap".into(),
                cache: "miss".into(),
                host_us: i as u64,
                sim_cycles: 0,
            });
        }
        set_live(false);
        let q = recent().lock().unwrap();
        assert_eq!(q.len(), RECENT_CAP);
        // Oldest were evicted.
        assert!(q.iter().all(|c| c.bench != "B0"));
    }
}
