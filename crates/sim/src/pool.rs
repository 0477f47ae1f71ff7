//! The host worker pool: one self-scheduling scoped-thread pool for every
//! embarrassingly parallel loop of the harness — a figure grid's cells and
//! a crash sweep's fork chunks alike.
//!
//! Simulations stay single-threaded and deterministic; the pool only
//! decides which host thread runs which item. Results come back in index
//! order, so a caller whose per-item result does not depend on the worker
//! that ran it gets identical output at any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Host worker threads for a figure grid, from `ASAP_JOBS` (default: the
/// machine's available parallelism; minimum 1). An unparsable value means
/// one worker.
pub fn jobs() -> usize {
    match std::env::var("ASAP_JOBS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs `f(&mut states[w], i, w)` for every `i in 0..n` and returns the
/// results in index order.
///
/// Worker `w` owns `states[w]` for the whole call, so per-worker scratch
/// (a sweep's machine to restore snapshots into, say) is built once, on
/// the calling thread, before any worker starts. Workers self-schedule
/// indices off one shared counter: item costs vary widely (a 2 KB-payload
/// cell runs ~10× a 64 B one), and static partitioning would leave
/// workers idle. At most `min(states.len(), n)` threads are spawned; with
/// one state (or at most one item) everything runs inline on the calling
/// thread, on `states[0]`.
///
/// A panic in `f` propagates to the caller with its original payload.
///
/// # Panics
///
/// Panics if `n > 0` and `states` is empty.
pub fn map<S, R, F>(states: &mut [S], n: usize, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize, usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if states.len() == 1 || n == 1 {
        let s = states
            .first_mut()
            .expect("the pool needs at least one worker state");
        return (0..n).map(|i| f(s, i, 0)).collect();
    }
    // Relaxed: the counter only hands out distinct indices; results
    // travel back through the join, which synchronizes.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .take(n)
            .enumerate()
            .map(|(w, s)| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(s, i, w)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_width() {
        for workers in [1usize, 2, 3, 8] {
            let mut states = vec![0u64; workers];
            let out = map(&mut states, 50, |seen, i, w| {
                *seen += 1;
                assert!(w < workers);
                i * i
            });
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(states.iter().sum::<u64>(), 50, "each index ran once");
        }
    }

    #[test]
    fn one_state_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let mut states = [()];
        let ids = map(&mut states, 4, |_, _, w| (w, std::thread::current().id()));
        assert!(ids.iter().all(|&(w, id)| w == 0 && id == caller));
        assert!(map(&mut [] as &mut [()], 0, |_, i, _| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn worker_panics_keep_their_payload() {
        let mut states = [(), ()];
        map(&mut states, 6, |_, i, _| assert!(i != 3, "item {i} failed"));
    }
}
