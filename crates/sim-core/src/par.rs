//! The one ordered parallel map: fans independent items out across a
//! bounded set of scoped worker threads and returns results **in input
//! order**, so a parallel run is byte-identical to a serial one.
//!
//! Each worker claims the next unclaimed index from a shared counter
//! (dynamic scheduling: long items don't convoy short ones behind a static
//! partition). With `jobs == 1` everything executes on the calling thread
//! — that is the reference serial path determinism tests compare against.
//! The benchmark harness's `SweepRunner` and the crash checker's sharded
//! campaigns both run on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on up to `jobs` threads (at least one),
/// returning results in item order regardless of completion order.
///
/// # Panics
///
/// Propagates panics from `f` (the map aborts; no partial result with
/// holes in it is returned).
///
/// # Example
///
/// ```
/// use morlog_sim_core::par::ordered_map;
///
/// let squares = ordered_map(3, &[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn ordered_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // The claim counter publishes nothing: results travel through the
    // slots' mutexes, and the scope join orders them before the reads.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("each slot has one writer") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers that panic abort the scope first")
                .expect("every slot filled once the scope joins")
        })
        .collect()
}
