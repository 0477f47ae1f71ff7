//! Deterministic virtual-time simulation engine.
//!
//! This crate is the foundation of the ASAP reproduction: a small,
//! dependency-free discrete-event kernel with per-thread virtual clocks.
//! Simulated threads run ordinary Rust code; every interaction with the
//! simulated hardware carries an explicit cycle timestamp, and background
//! hardware activity (persist operations draining to persistent memory,
//! region commits, …) is modelled with a global [`EventQueue`].
//!
//! The engine is *deterministic*: given the same configuration and seed, a
//! simulation produces bit-identical statistics. Determinism comes from
//! three rules enforced by the types here:
//!
//! 1. events with equal timestamps are processed in insertion order
//!    ([`EventQueue`] is a stable priority queue);
//! 2. the thread scheduler always resumes the runnable thread with the
//!    smallest local clock ([`ThreadClocks::next_runnable`]);
//! 3. simulated locks serialize critical sections in timestamp order
//!    ([`VirtualLock`]).
//!
//! # Example
//!
//! ```
//! use asap_sim::{Cycle, EventQueue};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(Cycle(10), "b");
//! q.push(Cycle(5), "a");
//! assert_eq!(q.pop(), Some((Cycle(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle(10), "b")));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod events;
pub mod fingerprint;
pub mod json;
pub mod lock;
pub mod obs;
pub mod pool;
pub mod sched;
pub mod stats;
pub mod timeseries;
pub mod trace;

pub use clock::Cycle;
pub use config::{
    warn_unknown_asap_env, AsapConfig, CacheConfig, MemConfig, SystemConfig, KNOWN_ASAP_ENV,
};
pub use events::EventQueue;
pub use fingerprint::Fingerprint;
pub use lock::VirtualLock;
pub use sched::ThreadClocks;
pub use stats::{Histogram, Stats, Summary};
pub use timeseries::{TelemetrySettings, TimeSeries};
pub use trace::{
    chrome_trace_json, StallClass, StallReason, Trace, TraceEvent, TracePart, TraceRecord,
    TraceSettings,
};
