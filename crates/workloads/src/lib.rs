//! The Table 3 benchmarks of the ASAP paper, over the simulated PM heap.
//!
//! | Id | Benchmark | Structure |
//! |----|-----------|-----------|
//! | BN | BinaryTree | unbalanced binary search tree |
//! | BT | B-Tree | B+tree, fanout 7 |
//! | CT | C-Tree | crit-bit (bitwise trie) |
//! | EO | Echo | versioned key-value store |
//! | HM | HashMap | chained hash table, per-bucket locks |
//! | Q  | Queue | linked FIFO queue |
//! | RB | RBTree | red-black tree |
//! | SS | StringSwap | random swaps in a string array |
//! | TPCC | TPC-C | New Order transaction |
//!
//! Every benchmark implements [`Benchmark`]: a `setup` phase populating
//! persistent state and per-thread `step` closures, each step being one
//! lock-guarded atomic region (insert/update of a `value_bytes` payload —
//! 64B or 2KB in the paper's Figs. 7/8). The [`driver`] turns a
//! [`WorkloadSpec`] into a [`RunResult`] with the throughput, cycles and
//! PM-traffic numbers the figures plot.

#![warn(missing_docs)]

pub mod driver;
pub mod pmops;
pub mod resultjson;
pub mod spec;
pub mod structures;

pub use driver::{
    enumerate_crash_points, run, run_sweep_with, CrashPlan, CrashPointOutcome, RunResult,
    StallBreakdown, SweepConfig, SweepResult,
};
pub use spec::{BenchId, WorkloadSpec};
pub use structures::Benchmark;
