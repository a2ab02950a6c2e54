//! Parallel evaluation helpers on `std::thread::scope`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` with dynamic (work-stealing) scheduling:
/// workers claim the next unprocessed index from a shared atomic
/// cursor, so a handful of expensive items cannot strand the rest of
/// the batch behind one static chunk. Output order matches input
/// order, and the result is identical to a serial map regardless of
/// how items are interleaved across workers.
///
/// `threads == 0` or `1` falls back to a serial map.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn par_map_dynamic<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        produced.push((i, f(item)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("worker thread panicked") {
                out[i] = Some(r);
            }
        }
    });

    out.into_iter()
        .map(|v| v.expect("all slots filled"))
        .collect()
}

/// A reasonable default worker count: the machine's available
/// parallelism, capped at 16. The cap exists because ensemble
/// evaluation is partly memory-bandwidth-bound; beyond ~16 workers the
/// extra threads mostly contend for cache on large hosts. Set the
/// `CT_THREADS` environment variable (any value ≥ 1) to override both
/// the detection and the cap.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("CT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = par_map_dynamic(&items, 1, |x| x * 3 + 1);
        let parallel = par_map_dynamic(&items, 8, |x| x * 3 + 1);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[0], 1);
        assert_eq!(parallel[999], 999 * 3 + 1);
    }

    #[test]
    fn dynamic_handles_empty_tiny_and_oversubscribed() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_dynamic(&empty, 8, |x| *x).is_empty());
        assert_eq!(par_map_dynamic(&[7], 8, |x| *x * 2), vec![14]);
        assert_eq!(
            par_map_dynamic(&[1, 2, 3], 64, |x| x * 10),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn dynamic_matches_serial_on_skewed_costs() {
        // Item 0 is far more expensive than the rest; the workers must
        // still produce the serial map's output, in order.
        let items: Vec<u64> = (0..64).collect();
        let work = |x: &u64| {
            let spins = if *x == 0 { 20_000 } else { 10 };
            let mut acc = *x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        assert_eq!(
            items.iter().map(work).collect::<Vec<_>>(),
            par_map_dynamic(&items, 4, work)
        );
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn ct_threads_env_overrides_cap() {
        // Serialised within this one test to avoid races with other
        // tests reading the variable.
        std::env::set_var("CT_THREADS", "32");
        assert_eq!(default_threads(), 32);
        std::env::set_var("CT_THREADS", "not-a-number");
        assert!(default_threads() >= 1);
        std::env::remove_var("CT_THREADS");
        assert!(default_threads() <= 16);
    }
}
