//! Append-only NDJSON run-event stream (`ASAP_EVENTS=<path|stderr>`)
//! with a live broadcast hub for in-process subscribers (`/events`).
//!
//! Schema `asap-events-v1`: one JSON object per line, each carrying the
//! record kind (`ev`), a process-wide ordering key (`seq`), and wall
//! time in microseconds since process start (`t_us`). The first line of
//! every stream is a `run_meta` header record describing the producer:
//! the schema version, the build fingerprint of the running executable,
//! the host worker count, and every `ASAP_*` knob set in the
//! environment. The bench harness then emits `grid_start`,
//! `cell_start`, `cell_end`, `cache_evict`, `wallclock_written` and
//! `grid_end` records; every record is guaranteed to parse with
//! [`crate::json::parse`] (tests hold this line by line).
//!
//! Durability posture, in the spirit of user-space WAL reliability work:
//! the stream is *append-only* and each record is written with a single
//! `write` of one `\n`-terminated line to a file opened `O_APPEND`, so
//! concurrent emitters (the worker-pool threads, or several processes
//! pointed at one file) interleave whole lines, never bytes. A consumer
//! that tails the file sees only complete records plus at most one
//! growing tail line. Within one process, `seq` is allocated under the
//! sink lock, so file order and `seq` order agree.
//!
//! # Broadcast hub
//!
//! Besides the file sink, every record fans out to a process-global
//! *hub* while it is active (the [`http`](super::http) server activates
//! it for the `/events` endpoint). The hub keeps a bounded backlog of
//! recent records — a late subscriber first replays those, so a client
//! that connects right after `run_grid` starts sees the same records as
//! the file sink — and a bounded queue per subscriber. Publishing never
//! blocks: a subscriber whose queue is full (a wedged or disconnected
//! client) is marked dropped, its queue is cleared, and the
//! `obs.http.dropped` counter is incremented. Workers are therefore
//! never throttled by a slow observer.
//!
//! Determinism: records are ordered by completion, not by spec order, so
//! two runs at different `ASAP_JOBS` produce the same multiset of
//! records up to the volatile keys `seq`, `t_us` and `host_us` — the
//! comparison tests strip exactly those and sort. Nothing here ever
//! writes to stdout.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json;
use crate::obs::metrics;

/// The stream schema identifier, carried by every `run_meta` and
/// `grid_start` record.
pub const SCHEMA: &str = "asap-events-v1";

/// Records the hub keeps for late subscribers. Sized to hold the full
/// event stream of any single figure grid (two records per cell plus
/// bookkeeping; the largest grid is ~90 cells) with two orders of
/// magnitude of headroom.
pub const HUB_BACKLOG_CAP: usize = 4096;

/// Default per-subscriber queue bound: a subscriber further than this
/// many records behind the stream is dropped rather than throttling
/// emitters.
pub const SUBSCRIBER_QUEUE_CAP: usize = 4096;

enum Target {
    Stderr,
    File(std::fs::File),
}

/// `None` until first use or an explicit [`set_sink`]; the inner
/// `Option` is the resolved sink (`None` = events off).
struct SinkState {
    resolved: bool,
    target: Option<Target>,
    /// Whether the `run_meta` header has been written to the current
    /// stream (file sink and hub alike). Reset by [`set_sink`], so a
    /// re-pointed stream gets its own header.
    header_done: bool,
}

fn state() -> &'static Mutex<SinkState> {
    static S: OnceLock<Mutex<SinkState>> = OnceLock::new();
    S.get_or_init(|| {
        Mutex::new(SinkState {
            resolved: false,
            target: None,
            header_done: false,
        })
    })
}

fn epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

fn resolve_env(s: &mut SinkState) {
    if s.resolved {
        return;
    }
    s.resolved = true;
    s.target = match std::env::var("ASAP_EVENTS") {
        Ok(v) if v.is_empty() => None,
        Ok(v) if v == "stderr" => Some(Target::Stderr),
        Ok(v) => open_target(Path::new(&v)),
        Err(_) => None,
    };
}

fn open_target(path: &Path) -> Option<Target> {
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
    {
        Ok(f) => Some(Target::File(f)),
        Err(e) => {
            // Logged regardless of ASAP_LOG level juggling — a requested
            // event stream that cannot open is an error worth one line.
            eprintln!("events: could not open {}: {e}", path.display());
            None
        }
    }
}

/// Points the stream at `path` (`None` turns it off), overriding the
/// environment. Primarily for tests and embedders (the daemon); figure
/// binaries just set `ASAP_EVENTS`. The next record emitted to a fresh
/// sink is preceded by a new `run_meta` header.
pub fn set_sink(path: Option<&Path>) {
    let mut s = state().lock().unwrap();
    s.resolved = true;
    s.header_done = false;
    s.target = path.and_then(|p| {
        if p == Path::new("stderr") {
            Some(Target::Stderr)
        } else {
            open_target(p)
        }
    });
}

/// Whether any consumer is configured — the file sink, the hub, or
/// both. Cheap enough to gate per-cell record construction; `false`
/// means [`Event::emit`] is a no-op.
pub fn enabled() -> bool {
    if hub_active() {
        return true;
    }
    let mut s = state().lock().unwrap();
    resolve_env(&mut s);
    s.target.is_some()
}

/// The `run_meta` header line: schema version, build fingerprint,
/// host worker count ([`crate::pool::jobs`]), and every `ASAP_*` knob
/// present in the environment.
fn run_meta_line(seq: u64, t_us: u64) -> String {
    let build =
        crate::fingerprint::build_fingerprint().map_or_else(|| "unknown".into(), |f| f.hex());
    let jobs = crate::pool::jobs();
    let mut knobs = String::new();
    for (i, name) in crate::config::KNOWN_ASAP_ENV
        .iter()
        .filter(|n| std::env::var(n).is_ok())
        .enumerate()
    {
        let v = std::env::var(name).unwrap_or_default();
        if i > 0 {
            knobs.push(',');
        }
        knobs.push_str(&format!(
            "\"{}\":\"{}\"",
            json::escape(name),
            json::escape(&v)
        ));
    }
    format!(
        "{{\"ev\":\"run_meta\",\"seq\":{seq},\"t_us\":{t_us},\"schema\":\"{SCHEMA}\",\
         \"build\":\"{build}\",\"jobs\":{jobs},\"knobs\":{{{knobs}}}}}\n"
    )
}

fn next_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// One NDJSON record under construction. Build with [`Event::new`], add
/// fields, then [`emit`](Event::emit) — the record is written as a
/// single line, or dropped silently when the stream is off. `seq` and
/// `t_us` are stamped at emit time, under the sink lock, so they agree
/// with the order records land in the stream.
pub struct Event {
    ev: String,
    tail: String,
}

impl Event {
    /// Starts a record of kind `ev`.
    pub fn new(ev: &str) -> Event {
        Event {
            ev: json::escape(ev),
            tail: String::new(),
        }
    }

    /// Adds a string field.
    pub fn field_str(mut self, key: &str, v: &str) -> Self {
        self.tail.push_str(&format!(
            ",\"{}\":\"{}\"",
            json::escape(key),
            json::escape(v)
        ));
        self
    }

    /// Adds an integer field.
    pub fn field_u64(mut self, key: &str, v: u64) -> Self {
        self.tail
            .push_str(&format!(",\"{}\":{v}", json::escape(key)));
        self
    }

    /// Adds a float field (non-finite values emit as `null`).
    pub fn field_f64(mut self, key: &str, v: f64) -> Self {
        self.tail
            .push_str(&format!(",\"{}\":{}", json::escape(key), json::num(v)));
        self
    }

    /// Closes the record, appends it to the file sink as one line, and
    /// fans it out to every hub subscriber. A write failure warns once
    /// per process and drops the file sink — the event stream is an
    /// observer, never a reason to fail a run.
    pub fn emit(self) {
        let mut s = state().lock().unwrap();
        resolve_env(&mut s);
        let to_hub = hub_active();
        if s.target.is_none() && !to_hub {
            return;
        }
        if !s.header_done {
            s.header_done = true;
            let header = run_meta_line(next_seq(), epoch().elapsed().as_micros() as u64);
            write_line(&mut s, &header);
            if to_hub {
                hub_publish(&header);
            }
        }
        let line = format!(
            "{{\"ev\":\"{}\",\"seq\":{},\"t_us\":{}{}}}\n",
            self.ev,
            next_seq(),
            epoch().elapsed().as_micros() as u64,
            self.tail
        );
        write_line(&mut s, &line);
        if to_hub {
            hub_publish(&line);
        }
    }
}

/// Writes one line to the resolved file sink (no-op when off).
fn write_line(s: &mut SinkState, line: &str) {
    let Some(target) = s.target.as_mut() else {
        return;
    };
    let res = match target {
        Target::Stderr => std::io::stderr().lock().write_all(line.as_bytes()),
        Target::File(f) => f.write_all(line.as_bytes()),
    };
    if let Err(e) = res {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("events: write failed, stream dropped: {e}"));
        s.target = None;
    }
}

// ---------------------------------------------------------------------------
// Broadcast hub
// ---------------------------------------------------------------------------

/// Counter incremented once per subscriber dropped for falling behind
/// (queue overflow) or for failing its socket writes.
pub const DROPPED_COUNTER: &str = "obs.http.dropped";

struct HubInner {
    /// Nested server starts keep the hub active until the last stops.
    active: usize,
    backlog: VecDeque<Arc<str>>,
    subscribers: Vec<Arc<Subscriber>>,
}

struct Subscriber {
    state: Mutex<SubState>,
    cond: Condvar,
    cap: usize,
}

struct SubState {
    queue: VecDeque<Arc<str>>,
    /// Fell behind (queue overflow) — record loss has been accounted.
    dropped: bool,
    /// Hub deactivated (server shutdown) — stream is complete.
    closed: bool,
}

fn hub() -> &'static Mutex<HubInner> {
    static HUB: OnceLock<Mutex<HubInner>> = OnceLock::new();
    HUB.get_or_init(|| {
        Mutex::new(HubInner {
            active: 0,
            backlog: VecDeque::new(),
            subscribers: Vec::new(),
        })
    })
}

/// Activates the hub (idempotent, counted): records start fanning out
/// to subscribers and accumulating in the backlog. The first activation
/// starts a fresh backlog.
pub fn hub_activate() {
    let mut h = hub().lock().unwrap();
    if h.active == 0 {
        h.backlog.clear();
    }
    h.active += 1;
}

/// Reverses one [`hub_activate`]. When the last activation is released,
/// every live subscriber is closed (its pending queue stays readable)
/// and the backlog is dropped.
pub fn hub_deactivate() {
    let mut h = hub().lock().unwrap();
    h.active = h.active.saturating_sub(1);
    if h.active == 0 {
        for sub in h.subscribers.drain(..) {
            let mut st = sub.state.lock().unwrap();
            st.closed = true;
            sub.cond.notify_all();
        }
        h.backlog.clear();
    }
}

/// Whether any server currently keeps the hub active.
pub fn hub_active() -> bool {
    hub().lock().unwrap().active > 0
}

/// Subscribes to the live stream with the default queue bound. `None`
/// when the hub is inactive.
pub fn subscribe() -> Option<Subscription> {
    subscribe_with_cap(SUBSCRIBER_QUEUE_CAP)
}

/// [`subscribe`] with an explicit per-subscriber queue bound (tests use
/// tiny caps to exercise the drop path deterministically). The new
/// subscriber's queue is seeded with the backlog, so it replays the
/// stream from (at most [`HUB_BACKLOG_CAP`] records back) the start.
pub fn subscribe_with_cap(cap: usize) -> Option<Subscription> {
    let mut h = hub().lock().unwrap();
    if h.active == 0 {
        return None;
    }
    let cap = cap.max(1);
    let mut queue: VecDeque<Arc<str>> = VecDeque::with_capacity(cap.min(64));
    // Seed with the newest records that fit; skipping the oldest is the
    // same drop-oldest policy the backlog itself applies.
    let skip = h.backlog.len().saturating_sub(cap);
    queue.extend(h.backlog.iter().skip(skip).cloned());
    let sub = Arc::new(Subscriber {
        state: Mutex::new(SubState {
            queue,
            dropped: false,
            closed: false,
        }),
        cond: Condvar::new(),
        cap,
    });
    h.subscribers.push(Arc::clone(&sub));
    Some(Subscription { sub })
}

/// Fans one record out to the backlog and every subscriber; never
/// blocks. A subscriber without room is dropped with accounting.
fn hub_publish(line: &str) {
    let mut h = hub().lock().unwrap();
    if h.active == 0 {
        return;
    }
    let line: Arc<str> = Arc::from(line);
    if h.backlog.len() >= HUB_BACKLOG_CAP {
        h.backlog.pop_front();
    }
    h.backlog.push_back(Arc::clone(&line));
    h.subscribers.retain(|sub| {
        let mut st = sub.state.lock().unwrap();
        if st.closed || st.dropped {
            return false;
        }
        if st.queue.len() >= sub.cap {
            // Backpressure rule: drop the laggard, never the worker.
            st.dropped = true;
            st.queue.clear();
            metrics::counter(DROPPED_COUNTER).inc();
            sub.cond.notify_all();
            return false;
        }
        st.queue.push_back(Arc::clone(&line));
        sub.cond.notify_all();
        true
    });
}

/// What a [`Subscription::wait`] returned.
pub enum HubWait {
    /// Records drained from the queue, in stream order.
    Batch(Vec<Arc<str>>),
    /// Nothing arrived within the timeout; poll again.
    Idle,
    /// The stream is over for this subscriber.
    Ended {
        /// True when the subscriber was dropped for falling behind (vs.
        /// a clean hub shutdown).
        dropped: bool,
    },
}

/// A live-stream subscription handle (see [`subscribe`]).
pub struct Subscription {
    sub: Arc<Subscriber>,
}

impl Subscription {
    /// Waits up to `timeout` for records. Pending records are always
    /// delivered before the end-of-stream signal.
    pub fn wait(&self, timeout: Duration) -> HubWait {
        let mut st = self.sub.state.lock().unwrap();
        if st.queue.is_empty() && !st.closed && !st.dropped {
            let (guard, _) = self
                .sub
                .cond
                .wait_timeout(st, timeout)
                .expect("subscriber lock poisoned");
            st = guard;
        }
        if !st.queue.is_empty() {
            return HubWait::Batch(st.queue.drain(..).collect());
        }
        if st.dropped {
            return HubWait::Ended { dropped: true };
        }
        if st.closed {
            return HubWait::Ended { dropped: false };
        }
        HubWait::Idle
    }

    /// Marks this subscriber as dropped-with-accounting — the `/events`
    /// handler calls it when the client's socket writes fail or time
    /// out, so a wedged client is indistinguishable from a laggard.
    pub fn drop_with_accounting(&self) {
        let mut st = self.sub.state.lock().unwrap();
        if !st.dropped && !st.closed {
            st.dropped = true;
            st.queue.clear();
            metrics::counter(DROPPED_COUNTER).inc();
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Detach quietly; hub_publish's retain sweep will unlink it.
        let mut st = self.sub.state.lock().unwrap();
        st.closed = true;
        st.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test exercising the whole lifecycle: the sink is process-global
    /// state, so splitting these into parallel #[test] fns would race.
    #[test]
    fn records_are_parseable_ndjson_lines_with_run_meta_header() {
        let path =
            std::env::temp_dir().join(format!("asap-obs-events-{}.ndjson", std::process::id()));
        let _ = std::fs::remove_file(&path);
        set_sink(Some(&path));
        assert!(enabled());
        Event::new("grid_start")
            .field_str("schema", SCHEMA)
            .field_u64("cells", 3)
            .emit();
        Event::new("cell_end")
            .field_str("fp", "deadbeef")
            .field_str("outcome", "completed")
            .field_u64("host_us", 12)
            .field_f64("ratio", 0.5)
            .field_f64("bad", f64::NAN)
            .emit();
        set_sink(None);
        // Emitting while off is a silent no-op.
        Event::new("cell_end").field_u64("x", 1).emit();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "run_meta header + 2 records");
        for line in &lines {
            json::parse(line).expect("every record parses");
        }
        // The stream starts with the run_meta header.
        let meta = json::parse(lines[0]).unwrap();
        assert_eq!(
            meta.get("ev").and_then(json::Value::as_str),
            Some("run_meta")
        );
        assert_eq!(
            meta.get("schema").and_then(json::Value::as_str),
            Some(SCHEMA)
        );
        assert!(meta.get("build").and_then(json::Value::as_str).is_some());
        assert!(meta.get("jobs").and_then(json::Value::as_u64).is_some());
        assert!(meta.get("knobs").is_some());
        let first = json::parse(lines[1]).unwrap();
        assert_eq!(
            first.get("ev").and_then(json::Value::as_str),
            Some("grid_start")
        );
        assert!(first.get("seq").and_then(json::Value::as_u64).is_some());
        assert!(first.get("t_us").and_then(json::Value::as_u64).is_some());
        let second = json::parse(lines[2]).unwrap();
        assert_eq!(second.get("bad"), Some(&json::Value::Null));
        // seq agrees with stream order.
        assert!(
            second.get("seq").and_then(json::Value::as_u64)
                > first.get("seq").and_then(json::Value::as_u64)
        );
        assert!(
            first.get("seq").and_then(json::Value::as_u64)
                > meta.get("seq").and_then(json::Value::as_u64)
        );

        // Re-pointing appends rather than truncating (append-only log),
        // and the fresh stream gets its own header.
        set_sink(Some(&path));
        Event::new("grid_end").emit();
        set_sink(None);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        let reheader = json::parse(text.lines().nth(3).unwrap()).unwrap();
        assert_eq!(
            reheader.get("ev").and_then(json::Value::as_str),
            Some("run_meta")
        );
        let _ = std::fs::remove_file(&path);

        // --- Hub fan-out --------------------------------------------------
        hub_activate();
        assert!(enabled(), "hub alone enables the stream");
        let live = subscribe().expect("hub active");
        Event::new("grid_start").field_u64("cells", 1).emit();
        let HubWait::Batch(batch) = live.wait(Duration::from_secs(1)) else {
            panic!("expected a batch");
        };
        // The hub stream also starts with the header (sink was reset).
        assert_eq!(batch.len(), 2);
        assert!(batch[0].contains("\"ev\":\"run_meta\""));
        assert!(batch[1].contains("\"ev\":\"grid_start\""));

        // A late subscriber replays the backlog.
        let late = subscribe().expect("hub active");
        let HubWait::Batch(replay) = late.wait(Duration::from_secs(1)) else {
            panic!("expected backlog replay");
        };
        assert_eq!(replay.len(), 2);
        assert!(replay[0].contains("run_meta"));

        // A subscriber with a tiny queue that never drains is dropped
        // with accounting; emitters never block.
        let before = metrics::counter_value(DROPPED_COUNTER);
        let slow = subscribe_with_cap(2).expect("hub active");
        for i in 0..8 {
            Event::new("cell_end").field_u64("i", i).emit();
        }
        assert_eq!(metrics::counter_value(DROPPED_COUNTER), before + 1);
        match slow.wait(Duration::from_millis(10)) {
            HubWait::Ended { dropped } => assert!(dropped),
            _ => panic!("slow subscriber must observe its drop"),
        }

        // Deactivation closes live subscribers after their queue drains.
        hub_deactivate();
        assert!(!hub_active());
        let HubWait::Batch(rest) = live.wait(Duration::from_secs(1)) else {
            panic!("pending records delivered before close");
        };
        assert_eq!(rest.len(), 8);
        match live.wait(Duration::from_millis(10)) {
            HubWait::Ended { dropped } => assert!(!dropped),
            _ => panic!("closed hub ends the stream"),
        }
        assert!(!enabled());
    }
}
