//! Deterministic work-stealing parallel map, shared by the model's batch
//! scorer, the pipeline's class-pair sweep and the checkpoint loader.
//!
//! Work items are claimed in fixed-size batches off an atomic cursor —
//! netlist workloads are irregular (Jaccard-filtered survivors, mixed
//! sequence lengths), so fixed per-thread chunks would leave cores idle.
//! Results are scattered back by item index, making the output identical
//! for every thread count.
//!
//! Cancellation is cooperative: when a [`CancelToken`] is supplied,
//! every worker polls it before claiming a batch and stops claiming once
//! it trips, so an aborted map returns within one batch of work per
//! worker and never yields a partial result.
//!
//! This module is atomics-only — the claim cursor is the sole shared
//! state — so there is no lock here for `rebert_sync`'s leaf rule to
//! check; the workspace's blocking locks all live behind that wrapper.

use std::sync::atomic::{AtomicUsize, Ordering};

use rebert_obs as obs;

use crate::cancel::CancelToken;

/// Maps `f` over `items` on `threads` OS threads (`0` = all available
/// cores), returning results in item order.
///
/// Each worker owns one `mk_state()` value (e.g. an inference scratch)
/// that is reused across its items; `f` must be a pure function of the
/// item and its state for the output to be thread-count-invariant. Falls
/// back to a plain serial map when one thread suffices or the workload
/// fits in a single batch.
///
/// The scorer and the class-pair sweep thread a [`CancelToken`] through
/// [`try_par_map_batched`]; checkpoint loading, which nothing cancels,
/// decodes its tensor spans here.
pub(crate) fn par_map_batched<T, R, S, G, F>(
    items: &[T],
    threads: usize,
    batch: usize,
    mk_state: G,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    try_par_map_batched(items, threads, batch, None, mk_state, f)
        .expect("uncancellable map always completes")
}

/// [`par_map_batched`] with cooperative cancellation: returns `None` if
/// `cancel` tripped before every item was computed. A token that trips
/// only after the last batch was claimed still yields the complete
/// result — cancellation is best-effort, never a partial answer.
pub(crate) fn try_par_map_batched<T, R, S, G, F>(
    items: &[T],
    threads: usize,
    batch: usize,
    cancel: Option<&CancelToken>,
    mk_state: G,
    f: F,
) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let threads = crate::model::resolve_threads(threads);
    let n = items.len();
    if threads == 1 || n <= batch {
        let mut state = mk_state();
        let mut out = Vec::with_capacity(n);
        for chunk in items.chunks(batch.max(1)) {
            if cancelled() {
                obs::event_with(
                    obs::Level::Debug,
                    "par",
                    "batch_cancel",
                    vec![("claimed", out.len().into())],
                );
                return None;
            }
            out.extend(chunk.iter().map(|item| f(&mut state, item)));
        }
        return Some(out);
    }
    let workers = threads.min(n.div_ceil(batch));
    let cursor = AtomicUsize::new(0);
    // Workers adopt the caller's tracing context so their per-batch
    // claim/complete spans parent under the scoring (or sweep) phase —
    // one Chrome-trace duration track per worker thread.
    let trace_ctx = obs::current_ctx();
    let batches: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                let mk_state = &mk_state;
                let cancelled = &cancelled;
                let trace_ctx = &trace_ctx;
                scope.spawn(move || {
                    let _tracing = obs::enter_ctx(trace_ctx);
                    let mut state = mk_state();
                    let mut done = Vec::new();
                    loop {
                        if cancelled() {
                            obs::event_with(
                                obs::Level::Debug,
                                "par",
                                "batch_cancel",
                                vec![("claimed", done.len().into())],
                            );
                            break;
                        }
                        let start = cursor.fetch_add(batch, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + batch).min(n);
                        // One span per claimed batch: Begin = claim,
                        // End = complete, on this worker's track.
                        let sp = obs::span_with(
                            obs::Level::Debug,
                            "par",
                            "batch",
                            vec![("start", start.into()), ("len", (end - start).into())],
                        );
                        let results: Vec<R> = items[start..end]
                            .iter()
                            .map(|item| f(&mut state, item))
                            .collect();
                        sp.end();
                        done.push((start, results));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker threads do not panic"))
            .collect()
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut filled = 0usize;
    for (start, results) in batches {
        for (offset, r) in results.into_iter().enumerate() {
            out[start + offset] = Some(r);
            filled += 1;
        }
    }
    // A cancelled map leaves unclaimed holes; only a complete scatter is
    // returned (a token tripping after the final claim changes nothing).
    if filled < n {
        return None;
    }
    Some(
        out.into_iter()
            .map(|r| r.expect("every index is computed exactly once"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_in_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1usize, 2, 3, 8] {
            let got = par_map_batched(&items, threads, 16, || (), |_, &x| x * 3 + 1);
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn per_worker_state_is_reused() {
        // State counts items handled by its worker; the total over all
        // workers must equal the item count (serial path: one state).
        let items = vec![0u8; 100];
        let results = par_map_batched(
            &items,
            1,
            8,
            || 0usize,
            |count, _| {
                *count += 1;
                *count
            },
        );
        assert_eq!(*results.last().unwrap(), 100, "one serial state");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_batched(&empty, 4, 8, || (), |_, &x| x).is_empty());
        let one = vec![7u32];
        assert_eq!(par_map_batched(&one, 4, 8, || (), |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn pre_cancelled_token_aborts_for_any_thread_count() {
        let items: Vec<usize> = (0..300).collect();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 2, 4] {
            let got = try_par_map_batched(&items, threads, 16, Some(&token), || (), |_, &x| x);
            assert_eq!(got, None, "{threads} threads");
        }
    }

    #[test]
    fn untripped_token_yields_full_result() {
        let items: Vec<usize> = (0..300).collect();
        let token = CancelToken::new();
        for threads in [1usize, 3] {
            let got = try_par_map_batched(&items, threads, 16, Some(&token), || (), |_, &x| x * 2)
                .expect("completes");
            assert_eq!(got.len(), 300, "{threads} threads");
            assert_eq!(got[299], 598);
        }
    }

    #[test]
    fn mid_flight_cancellation_stops_claiming() {
        // Trip the token from inside the map after a few items; the map
        // must return None without touching every item.
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..100_000).collect();
        let token = CancelToken::new();
        let seen = AtomicUsize::new(0);
        let got = try_par_map_batched(
            &items,
            2,
            8,
            Some(&token),
            || (),
            |_, &x| {
                if seen.fetch_add(1, Ordering::Relaxed) == 20 {
                    token.cancel();
                }
                x
            },
        );
        assert_eq!(got, None);
        assert!(
            seen.load(Ordering::Relaxed) < items.len(),
            "cancellation should stop the sweep early"
        );
    }
}

/// Exhaustive interleaving checks of the batched-cursor claim protocol,
/// run with `RUSTFLAGS="--cfg loom" cargo test -p rebert --lib loom`.
///
/// `par_map_batched` itself runs on `std::thread::scope`, which loom
/// cannot instrument, so these models restate the protocol —
/// workers `fetch_add` a shared cursor to claim index batches, optionally
/// polling a cancel flag before each claim — on loom primitives and
/// assert the invariants the scatter phase relies on: every index is
/// claimed at most once, a completed sweep claimed every index, and a
/// cancelled sweep is detectable (never mistaken for a full result).
#[cfg(all(test, loom))]
mod loom_models {
    use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use loom::sync::Arc;
    use loom::thread;

    const ITEMS: usize = 3;
    const BATCH: usize = 1;

    fn worker(cursor: &AtomicUsize, claims: &[AtomicUsize], cancel: Option<&AtomicBool>) -> usize {
        let mut claimed = 0;
        loop {
            if let Some(flag) = cancel {
                if flag.load(Ordering::Relaxed) {
                    return claimed;
                }
            }
            let start = cursor.fetch_add(BATCH, Ordering::Relaxed);
            if start >= ITEMS {
                return claimed;
            }
            for i in start..(start + BATCH).min(ITEMS) {
                claims[i].fetch_add(1, Ordering::Relaxed);
                claimed += 1;
            }
        }
    }

    #[test]
    fn loom_every_index_claimed_exactly_once() {
        loom::model(|| {
            let cursor = Arc::new(AtomicUsize::new(0));
            let claims: Arc<Vec<AtomicUsize>> =
                Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let cursor = Arc::clone(&cursor);
                    let claims = Arc::clone(&claims);
                    thread::spawn(move || worker(&cursor, &claims, None))
                })
                .collect();
            let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!(total, ITEMS, "a completed sweep visits everything");
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} claimed once");
            }
        });
    }

    #[test]
    fn loom_cancellation_is_all_or_nothing() {
        loom::model(|| {
            let cursor = Arc::new(AtomicUsize::new(0));
            let cancel = Arc::new(AtomicBool::new(false));
            let claims: Arc<Vec<AtomicUsize>> =
                Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
            let w = {
                let cursor = Arc::clone(&cursor);
                let cancel = Arc::clone(&cancel);
                let claims = Arc::clone(&claims);
                thread::spawn(move || worker(&cursor, &claims, Some(&cancel)))
            };
            let canceller = {
                let cancel = Arc::clone(&cancel);
                // Pure flag, no payload — rebert-lint: allow(relaxed-publication-store)
                thread::spawn(move || cancel.store(true, Ordering::Relaxed))
            };
            let filled = w.join().unwrap();
            canceller.join().unwrap();
            // Whatever the interleaving: no duplicates, and the scatter
            // phase's `filled < n` check cleanly separates "cancelled"
            // from "complete" — a partial fill is never reported whole.
            for c in claims.iter() {
                assert!(c.load(Ordering::Relaxed) <= 1, "no index claimed twice");
            }
            assert!(filled <= ITEMS);
            let claimed_total: usize = claims.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            assert_eq!(claimed_total, filled, "claim ledger matches fill count");
        });
    }
}
