//! The deterministic chunked sweep runner.
//!
//! Monte-Carlo sweeps are split into fixed-size **chunks** of trials.
//! Each chunk gets its own RNG, derived from the parent stream by
//! [`Xoshiro256StarStar::split`] *sequentially, before any worker thread
//! runs* — so the mapping `chunk index → random stream` is a pure
//! function of `(seed, chunk size)` and never depends on which thread
//! happens to pick the chunk up. Workers pull chunk indices from an
//! atomic counter, store each chunk's result in its own slot, and the
//! slots are folded **in chunk-index order** as soon as they are ready.
//! Floating-point accumulation order is therefore fixed, making every
//! sweep bitwise-identical for any worker count (the property
//! `tests/determinism.rs` locks in).
//!
//! [`Xoshiro256StarStar::split`]: xlac_core::rng::Xoshiro256StarStar::split

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use xlac_core::rng::DefaultRng;
use xlac_obs::{obs_count, obs_span};

/// Default number of trials per chunk. Small enough to load-balance
/// across workers, large enough that the per-chunk overhead (one RNG
/// split, one slot lock) is noise.
pub const DEFAULT_CHUNK: u64 = 8192;

/// Smallest chunk [`auto_chunk_size`] will pick: one full widest plane
/// block (`[u64; 8]`, 512 lanes). The original floor of 256 assumed
/// trial counts ≫ the lane width — at 256 trials per chunk, a 512-lane
/// block sweep padded *every* chunk half-empty, so the wide-block fast
/// path ran at half its lane utilization on small sweeps. With the floor
/// at one whole block, only a sweep's final chunk can be ragged, and the
/// ragged tail goes through the same deterministic pad-and-mask
/// discipline as [`crate::batch::eval_pairs`].
pub const MIN_AUTO_CHUNK: u64 = 512;

/// Resolves the auto-tuned chunk size for a sweep of `trials` trials
/// (the `chunk = 0` sentinel of [`run_chunks`]).
///
/// The fixed [`DEFAULT_CHUNK`] leaves small-but-parallel sweeps with
/// fewer chunks than workers — a 65 536-trial sweep split 8 192 apart
/// has only 8 chunks, so the slowest worker gates the whole sweep and
/// 8-thread runs barely beat 1-thread. Targeting ~64 chunks restores
/// load balancing while keeping per-chunk overhead negligible. The
/// result never drops below [`MIN_AUTO_CHUNK`], so every non-final chunk
/// fills whole 512-lane plane blocks.
///
/// **Determinism contract:** the result is a pure function of `trials`
/// alone — never of the thread count — because the chunk size selects
/// which RNG stream each trial sees. Two sweeps over the same `trials`
/// and seed therefore stay bitwise-comparable at any worker count.
#[must_use]
pub fn auto_chunk_size(trials: u64) -> u64 {
    ((trials / 64).max(1)).next_power_of_two().clamp(MIN_AUTO_CHUNK, DEFAULT_CHUNK)
}

/// Worker-thread count used when a sweep is configured with `threads = 0`:
/// the `XLAC_SIM_THREADS` environment variable if set to a positive
/// integer, otherwise the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::env::var("XLAC_SIM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `eval` over `trials` trials split into chunks of `chunk` trials
/// (`0` → [`auto_chunk_size`]), on `threads` worker threads
/// (`0` → [`default_threads`]), and folds the per-chunk results into
/// `init` with `fold` **in chunk-index order**.
///
/// `eval(chunk_index, chunk_trials, rng)` evaluates one chunk with its
/// own pre-split RNG stream. The fold order is fixed, so the result is
/// independent of the thread count. After storing a result, a worker
/// folds every ready result in order if no other worker is folding (it
/// never waits for the fold), so only the results that finished ahead
/// of the fold's position stay alive; the caller folds what is left.
pub fn run_chunks<T, A, F, M>(
    trials: u64,
    seed: u64,
    threads: usize,
    chunk: u64,
    eval: F,
    init: A,
    fold: M,
) -> A
where
    T: Send,
    A: Send,
    F: Fn(usize, u64, DefaultRng) -> T + Sync,
    M: Fn(&mut A, T) + Sync,
{
    let _span = obs_span!("sim.run_chunks");
    let chunk = if chunk == 0 { auto_chunk_size(trials) } else { chunk };
    let n_chunks = usize::try_from(trials.div_ceil(chunk)).expect("chunk count fits usize");
    obs_count!("sim.chunks", n_chunks as u64);
    obs_count!("sim.trials", trials);
    // The stream assignment: one split per chunk, drawn sequentially from
    // the parent before any thread is spawned.
    let mut parent = DefaultRng::seed_from_u64(seed);
    let rngs: Vec<DefaultRng> = (0..n_chunks).map(|_| parent.split()).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    // The folded value and the index of the next chunk it takes.
    let folded = Mutex::new((init, 0usize));
    let fold_ready = |state: &mut (A, usize)| {
        while let Some(result) = slots
            .get(state.1)
            .and_then(|slot| slot.lock().expect("no panics hold the slot lock").take())
        {
            fold(&mut state.0, result);
            state.1 += 1;
        }
    };
    let next = AtomicUsize::new(0);
    let workers = if threads == 0 { default_threads() } else { threads }.min(n_chunks.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let lo = i as u64 * chunk;
                let n = chunk.min(trials - lo);
                let result = {
                    let _chunk_span = obs_span!("sim.chunk");
                    eval(i, n, rngs[i].clone())
                };
                *slots[i].lock().expect("no panics hold the slot lock") = Some(result);
                if let Ok(mut state) = folded.try_lock() {
                    fold_ready(&mut state);
                }
            });
        }
    });
    let mut state = folded.into_inner().expect("no panics hold the fold lock");
    fold_ready(&mut state);
    assert_eq!(state.1, n_chunks, "every chunk was evaluated and folded");
    state.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_results_are_ordered_and_cover_all_trials() {
        let results = run_chunks(10_000, 7, 4, 1024, |i, n, _| (i, n), Vec::new(), Vec::push);
        assert_eq!(results.len(), 10);
        let total: u64 = results.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 10_000);
        for (pos, &(i, n)) in results.iter().enumerate() {
            assert_eq!(i, pos);
            assert_eq!(n, if pos == 9 { 10_000 - 9 * 1024 } else { 1024 });
        }
    }

    #[test]
    fn results_are_identical_for_any_thread_count() {
        use xlac_core::rng::Rng;
        let sweep = |threads| {
            run_chunks(
                5_000,
                0xD37,
                threads,
                512,
                |_, n, mut rng| (0..n).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add),
                Vec::new(),
                Vec::push,
            )
        };
        let one = sweep(1);
        assert_eq!(one, sweep(2));
        assert_eq!(one, sweep(8));
        assert_eq!(one, sweep(0));
    }

    #[test]
    fn zero_trials_yield_no_chunks() {
        let results = run_chunks(0, 1, 4, 64, |_, _, _| 0u64, Vec::new(), Vec::push);
        assert!(results.is_empty());
    }

    #[test]
    fn auto_chunk_targets_sixty_four_chunks_within_bounds() {
        assert_eq!(auto_chunk_size(0), MIN_AUTO_CHUNK);
        assert_eq!(auto_chunk_size(1), MIN_AUTO_CHUNK);
        assert_eq!(auto_chunk_size(16_384), MIN_AUTO_CHUNK);
        assert_eq!(auto_chunk_size(65_536), 1024);
        assert_eq!(auto_chunk_size(1 << 20), 8192, "capped at DEFAULT_CHUNK");
        for trials in [0u64, 63, 4_097, 100_032, u64::from(u32::MAX)] {
            let c = auto_chunk_size(trials);
            assert!((MIN_AUTO_CHUNK..=DEFAULT_CHUNK).contains(&c), "{trials} -> {c}");
            assert!(c.is_power_of_two());
            // Every non-final chunk fills whole 512-lane plane blocks.
            assert!(c.is_multiple_of(MIN_AUTO_CHUNK), "{trials} -> {c}");
        }
    }

    #[test]
    fn auto_chunk_sweeps_are_thread_count_invariant() {
        use xlac_core::rng::Rng;
        let sweep = |threads| {
            run_chunks(
                10_000,
                0xAC4,
                threads,
                0,
                |_, n, mut rng| (0..n).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add),
                Vec::new(),
                Vec::push,
            )
        };
        let one = sweep(1);
        assert_eq!(one, sweep(2));
        assert_eq!(one, sweep(8));
    }
}
