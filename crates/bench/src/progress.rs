//! Grid progress tracking: one shared [`ProgressState`] behind both the
//! stderr status line and the `/progress` endpoint of the observability
//! server (`ASAP_HTTP`).
//!
//! Counting is always on — `tick` is two relaxed atomic adds, cheap
//! enough to pay unconditionally — so the HTTP endpoint works whether or
//! not the stderr line is drawn. Only the *drawing* is gated: on when
//! stderr is a terminal, off when it is redirected to a file or pipe
//! (CI logs, captured test output). The status line is redrawn in place
//! on stderr with `\r`, rate-limited to ~10 Hz, erased (erase-to-EOL)
//! when the grid finishes or a `note!`/`warn!` needs the terminal (via
//! the status-line hook in `asap_sim::obs::log`), and never touches
//! stdout.
//! The ETA prints `--:--` until at least one cell and ~100 ms have
//! elapsed — no `inf`/`NaN` nonsense at start-up.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use asap_sim::obs::log as obs_log;

/// Elapsed time below which rates/ETAs are considered unestimable.
const MIN_ESTIMATE_MS: u64 = 100;

/// Shared counters for one grid run; all atomic, so the probe loop and
/// every pool worker tick without a lock.
pub(crate) struct ProgressState {
    total: usize,
    done: AtomicUsize,
    hits: AtomicUsize,
    start: Instant,
}

impl ProgressState {
    fn new(total: usize) -> Self {
        ProgressState {
            total,
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            start: Instant::now(),
        }
    }

    /// A point-in-time view with derived rate/ETA (None = unestimable).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let done = self.done.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        let estimable = done > 0 && elapsed_ms >= MIN_ESTIMATE_MS;
        let rate = estimable.then(|| done as f64 / (elapsed_ms as f64 / 1000.0));
        let eta_s = rate
            .filter(|r| *r > 1e-9)
            .map(|r| self.total.saturating_sub(done) as f64 / r);
        ProgressSnapshot {
            total: self.total,
            done,
            warm: hits,
            elapsed_s: elapsed_ms as f64 / 1000.0,
            cells_per_s: rate,
            eta_s,
        }
    }
}

/// Derived progress numbers; `None` means "not estimable yet" and
/// renders as `--:--` on stderr / `null` in JSON.
pub(crate) struct ProgressSnapshot {
    pub total: usize,
    pub done: usize,
    /// Cells served without simulating (cache hits + intra-grid dedup).
    pub warm: usize,
    pub elapsed_s: f64,
    pub cells_per_s: Option<f64>,
    pub eta_s: Option<f64>,
}

impl ProgressSnapshot {
    /// The `/progress` JSON document.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |x| format!("{x:.3}"));
        let hit_ratio = (self.done > 0).then(|| self.warm as f64 / self.done as f64);
        format!(
            "{{\"active\":true,\"total\":{},\"done\":{},\"warm\":{},\
             \"elapsed_s\":{:.3},\"cells_per_s\":{},\"eta_s\":{},\
             \"cache_hit_ratio\":{}}}",
            self.total,
            self.done,
            self.warm,
            self.elapsed_s,
            opt(self.cells_per_s),
            opt(self.eta_s),
            opt(hit_ratio),
        )
    }
}

/// The most recent grid's state, installed at grid start so the
/// `/progress` handler can reach it from server threads.
fn current_slot() -> &'static Mutex<Option<Arc<ProgressState>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<ProgressState>>>> = OnceLock::new();
    SLOT.get_or_init(Mutex::default)
}

/// JSON for `/progress`: the live snapshot, or `{"active":false}` when
/// no grid has started in this process.
pub(crate) fn progress_json() -> String {
    match current_slot().lock().unwrap().as_ref() {
        Some(state) => state.snapshot().to_json(),
        None => "{\"active\":false}".to_string(),
    }
}

/// A clone of the current grid's state, if any (used by the run report).
pub(crate) fn current_state() -> Option<Arc<ProgressState>> {
    current_slot().lock().unwrap().clone()
}

/// Per-grid handle owned by `run_grid_with`: counts always, draws when
/// stderr is a terminal.
pub(crate) struct Progress {
    draw: bool,
    state: Arc<ProgressState>,
    /// Milliseconds-since-start of the last redraw (`u64::MAX` = none
    /// yet); doubles as the redraw mutex via compare-exchange.
    last_ms: AtomicU64,
}

impl Progress {
    /// Draws iff stderr is a terminal and there is a cell to count;
    /// installs the state for the `/progress` endpoint.
    pub fn new(total: usize) -> Self {
        let draw = std::io::stderr().is_terminal() && total > 0;
        let state = Arc::new(ProgressState::new(total));
        *current_slot().lock().unwrap() = Some(Arc::clone(&state));
        Progress {
            draw,
            state,
            last_ms: AtomicU64::new(u64::MAX),
        }
    }

    /// Marks one cell finished (`served_warm`: without simulating — a
    /// cache hit or an intra-grid dedup copy) and maybe redraws.
    pub fn tick(&self, served_warm: bool) {
        if served_warm {
            self.state.hits.fetch_add(1, Ordering::Relaxed);
        }
        let done = self.state.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.draw {
            return;
        }
        let now_ms = self.state.start.elapsed().as_millis() as u64;
        let last = self.last_ms.load(Ordering::Relaxed);
        if done < self.state.total && last != u64::MAX && now_ms < last.saturating_add(100) {
            return;
        }
        // One worker wins the redraw; losers just move on.
        if self
            .last_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let snap = self.state.snapshot();
        let rate = snap
            .cells_per_s
            .map_or_else(|| "--".to_string(), |r| format!("{r:.1}"));
        let eta = snap
            .eta_s
            .map_or_else(|| "--:--".to_string(), |e| format!("{e:.0}s"));
        let hit_pct = 100.0 * snap.warm as f64 / done.max(1) as f64;
        // Erase-to-EOL after the text so a shorter redraw never leaves a
        // tail of the previous, longer line behind.
        eprint!(
            "\r[grid] {done}/{} cells  {rate} cells/s  ETA {eta}  cache {hit_pct:.0}% hit\x1b[K",
            snap.total
        );
        obs_log::status_line_active(true);
    }

    /// Erases the status line so whatever stderr prints next (run-cache
    /// summary, wall-clock notes) starts on a clean column.
    pub fn finish(&self) {
        if self.draw {
            obs_log::clear_status_line();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_guards_rate_and_eta_at_start() {
        let state = ProgressState::new(10);
        // Zero cells done: nothing estimable regardless of elapsed time.
        let snap = state.snapshot();
        assert_eq!(snap.done, 0);
        assert!(snap.cells_per_s.is_none());
        assert!(snap.eta_s.is_none());
        let json = snap.to_json();
        assert!(json.contains("\"cells_per_s\":null"), "{json}");
        assert!(json.contains("\"eta_s\":null"), "{json}");
        assert!(json.contains("\"cache_hit_ratio\":null"), "{json}");

        // Cells done but elapsed below the floor: still unestimable
        // (this is the zero-elapsed guard — no inf/NaN ETAs).
        state.done.fetch_add(3, Ordering::Relaxed);
        if state.start.elapsed().as_millis() < u128::from(MIN_ESTIMATE_MS) {
            assert!(state.snapshot().cells_per_s.is_none());
        }

        // Backdate the start: now rate and ETA must materialize.
        let state = ProgressState {
            total: 10,
            done: AtomicUsize::new(4),
            hits: AtomicUsize::new(2),
            start: Instant::now() - std::time::Duration::from_secs(2),
        };
        let snap = state.snapshot();
        let rate = snap.cells_per_s.expect("rate estimable");
        assert!(rate > 0.0);
        let eta = snap.eta_s.expect("eta estimable");
        assert!(eta > 0.0);
        let json = snap.to_json();
        assert!(json.contains("\"active\":true"), "{json}");
        assert!(json.contains("\"total\":10"), "{json}");
        assert!(json.contains("\"done\":4"), "{json}");
        assert!(json.contains("\"cache_hit_ratio\":0.500"), "{json}");
    }

    #[test]
    fn ticks_count_even_when_drawing_is_off() {
        let p = Progress {
            draw: false,
            state: Arc::new(ProgressState::new(5)),
            last_ms: AtomicU64::new(u64::MAX),
        };
        p.tick(true);
        p.tick(false);
        let snap = p.state.snapshot();
        assert_eq!(snap.done, 2);
        assert_eq!(snap.warm, 1);
        p.finish();
    }
}
