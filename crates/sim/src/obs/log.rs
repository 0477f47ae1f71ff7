//! Leveled stderr logging for the host-side harnesses.
//!
//! Two levels plus off, configured once per process by `ASAP_LOG`:
//!
//! - `off` — silence everything (events and metrics still work);
//! - `warn` — only warnings (quiet CI runs without losing error
//!   reporting);
//! - `note` (default) — status notes and warnings.
//!
//! Use through the [`obs::note!`](crate::obs_note) and
//! [`obs::warn!`](crate::obs_warn) macros, which format exactly like
//! `eprintln!` but consult [`enabled`] first. Both write to stderr only —
//! bench stdout stays byte-identical at every level.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Verbosity of one message (or of the process filter).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is printed.
    Off,
    /// Problems worth surfacing even in quiet runs.
    Warn,
    /// Routine status notes (cache summaries, file-written confirmations).
    Note,
}

impl Level {
    /// Parses an `ASAP_LOG` value. Unknown strings fall back to `Note`
    /// (consistent with the other knobs: a typo must not silently mute
    /// error reporting — and the env registry warns about it anyway).
    pub fn from_env_str(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Level::Off,
            "warn" | "warning" => Level::Warn,
            _ => Level::Note,
        }
    }
}

/// The process log level, read from `ASAP_LOG` once (default [`Level::Note`]).
pub fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL
        .get_or_init(|| std::env::var("ASAP_LOG").map_or(Level::Note, |v| Level::from_env_str(&v)))
}

/// Whether a message of `at` verbosity should print under the process
/// level.
#[inline]
pub fn enabled(at: Level) -> bool {
    at <= level()
}

/// Whether a `\r`-style status line (the grid progress ticker) is
/// currently occupying the terminal's last stderr line.
static STATUS_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Marks a transient `\r` status line as present (`true`) or gone
/// (`false`) on stderr. While present, [`clear_status_line`] — called by
/// the `note!`/`warn!` macros before printing — erases it so a full log
/// line never lands on top of stale progress text.
pub fn status_line_active(active: bool) {
    STATUS_ACTIVE.store(active, Ordering::Release);
}

/// Erases the current status line (carriage return + erase-to-EOL) if
/// one is active. Cheap no-op otherwise; safe from any thread.
pub fn clear_status_line() {
    if STATUS_ACTIVE.swap(false, Ordering::AcqRel) {
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(b"\r\x1b[K");
        let _ = err.flush();
    }
}

/// A status note, printed to stderr when `ASAP_LOG` is `note` (the
/// default). Formats like `eprintln!`.
#[macro_export]
macro_rules! obs_note {
    ($($arg:tt)*) => {
        if $crate::obs::log::enabled($crate::obs::log::Level::Note) {
            $crate::obs::log::clear_status_line();
            eprintln!($($arg)*);
        }
    };
}

/// A warning, printed to stderr unless `ASAP_LOG=off`. Formats like
/// `eprintln!`.
#[macro_export]
macro_rules! obs_warn {
    ($($arg:tt)*) => {
        if $crate::obs::log::enabled($crate::obs::log::Level::Warn) {
            $crate::obs::log::clear_status_line();
            eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::from_env_str("off"), Level::Off);
        assert_eq!(Level::from_env_str("0"), Level::Off);
        assert_eq!(Level::from_env_str("NONE"), Level::Off);
        assert_eq!(Level::from_env_str("warn"), Level::Warn);
        assert_eq!(Level::from_env_str(" Warning "), Level::Warn);
        assert_eq!(Level::from_env_str("note"), Level::Note);
        assert_eq!(Level::from_env_str(""), Level::Note);
        assert_eq!(Level::from_env_str("typo"), Level::Note);
    }

    #[test]
    fn level_ordering_gates_messages() {
        // note-level filter lets everything through; warn only warnings.
        assert!(Level::Warn <= Level::Note);
        assert!(Level::Note <= Level::Note);
        assert!(Level::Note > Level::Warn);
        assert!(Level::Warn > Level::Off);
    }

    #[test]
    fn status_line_flag_clears_once() {
        status_line_active(true);
        clear_status_line(); // swaps the flag off and erases
        assert!(!STATUS_ACTIVE.load(Ordering::Acquire));
        clear_status_line(); // idempotent no-op
        assert!(!STATUS_ACTIVE.load(Ordering::Acquire));
    }

    #[test]
    fn macros_compile_and_respect_default() {
        // Default level is Note unless the environment overrides it; the
        // macros must at minimum compile with format arguments.
        crate::obs_note!("test note {} {}", 1, "x");
        crate::obs_warn!("test warn {:?}", (1, 2));
        if std::env::var("ASAP_LOG").is_err() {
            assert_eq!(level(), Level::Note);
            assert!(enabled(Level::Warn));
            assert!(enabled(Level::Note));
        }
    }
}
