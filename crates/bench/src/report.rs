//! The `/report` endpoint: the HTML run report regenerated on demand
//! from current process state — grid progress, the host-phase profile,
//! the full metrics registry, and the most recent cells.
//!
//! Recording is gated on [`set_live`] (flipped by `run_grid_with` while
//! an `ASAP_HTTP` server is up) so figure runs without the server pay
//! nothing beyond one relaxed atomic load per cell. Rendering walks
//! snapshots only — a request can race a running grid and at worst see
//! a slightly stale table, never tear a data structure. Same style as
//! the PR 3 `run_report` example: one self-contained file, inline CSS,
//! no JavaScript.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use asap_sim::obs::{metrics, phase};
use asap_workloads::CrashPointOutcome;

/// How many recently finished cells the report shows.
const RECENT_CAP: usize = 64;

/// How many recent crash sweeps the report keeps.
const SWEEP_CAP: usize = 8;

/// How many crash points of one sweep the report table shows.
const SWEEP_POINT_CAP: usize = 64;

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

/// Renders the live report from current snapshots.
pub(crate) fn render_html() -> String {
    let mut h = String::new();
    h.push_str(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>ASAP live run report</title>\n<style>\
         body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:72em;color:#111}\
         h1{font-size:1.4em} h2{font-size:1.1em;margin-top:2em;\
         border-bottom:1px solid #ddd;padding-bottom:.2em}\
         table{border-collapse:collapse} td,th{padding:.2em .8em;\
         border:1px solid #ddd;text-align:right} th{background:#f5f5f5}\
         td:first-child,th:first-child{text-align:left}\
         pre{background:#f5f5f5;padding:.6em;overflow-x:auto}\
         </style></head><body>\n<h1>ASAP live run report</h1>\n",
    );

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

    // Host-phase profile (the same JSON that lands in wall-clock records).
    h.push_str("<h2>Host-phase profile</h2>\n<pre>");
    h.push_str(&html_escape(&phase::snapshot_json()));
    h.push_str("</pre>\n");

    // Metrics registry.
    let snap = metrics::snapshot();
    h.push_str("<h2>Metrics</h2>\n");
    if !snap.counters.is_empty() {
        h.push_str("<h3>Counters</h3><table><tr><th>name</th><th>value</th></tr>\n");
        for (n, v) in &snap.counters {
            let _ = writeln!(h, "<tr><td>{}</td><td>{v}</td></tr>", html_escape(n));
        }
        h.push_str("</table>\n");
    }
    if !snap.gauges.is_empty() {
        h.push_str("<h3>Gauges</h3><table><tr><th>name</th><th>value</th></tr>\n");
        for (n, v) in &snap.gauges {
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
    h.push_str("</body></html>\n");
    h
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
