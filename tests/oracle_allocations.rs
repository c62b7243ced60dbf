//! The scalar models behind the registry's agreement legs do per-input
//! work only: after one warm-up call, none of them allocates.
//!
//! A counting `#[global_allocator]` over [`System`] (this test binary
//! only) tallies allocations per thread, so tests running in parallel on
//! other threads cannot pollute a count. Each model runs 10 000 calls
//! over varying operands between two reads of the calling thread's
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xlac::adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor};
use xlac::multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const CALLS: u64 = 10_000;

/// Allocations made by `f` on this thread over [`CALLS`] calls, after
/// one warm-up call. Operands step through the 16-bit space.
fn allocations_per_10k(f: impl Fn(u64, u64) -> u64) -> u64 {
    std::hint::black_box(f(1, 2));
    let before = ALLOCATIONS.with(Cell::get);
    let mut acc = 0u64;
    for i in 0..CALLS {
        let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        acc = acc.wrapping_add(f(x & 0xFFFF, (x >> 16) & 0xFFFF));
    }
    std::hint::black_box(acc);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_an_allocation() {
    // The harness itself: a model that allocates on every call is caught.
    let n = allocations_per_10k(|a, b| std::hint::black_box(vec![a, b]).len() as u64);
    assert_eq!(n, CALLS);
}

#[test]
fn gear_adds_allocate_nothing() {
    for (n, r, p) in [(11usize, 1usize, 9usize), (12, 4, 4), (16, 2, 6), (63, 1, 0)] {
        let g = GeArAdder::new(n, r, p).unwrap();
        assert_eq!(allocations_per_10k(|a, b| g.add(a, b).value), 0, "{} add", g.name());
        for budget in [0, 1, usize::MAX] {
            let corrected = |a, b| g.add_with_correction(a, b, budget).value;
            assert_eq!(allocations_per_10k(corrected), 0, "{} budget {budget}", g.name());
        }
    }
}

#[test]
fn ripple_adds_and_subtractions_allocate_nothing() {
    for kind in FullAdderKind::ALL {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4).unwrap();
        assert_eq!(allocations_per_10k(|a, b| rca.add(a, b)), 0, "{}", rca.name());
        let sub = Subtractor::new(rca);
        assert_eq!(allocations_per_10k(|a, b| sub.sub(a, b).0), 0, "{}", sub.name());
    }
    let wide = RippleCarryAdder::with_approx_lsbs(64, FullAdderKind::Apx3, 6).unwrap();
    assert_eq!(allocations_per_10k(|a, b| wide.add(a << 40, b << 40)), 0);
}

#[test]
fn multipliers_allocate_nothing() {
    let rec = RecursiveMultiplier::new(
        8,
        Mul2x2Kind::ApxOur,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 3 },
    )
    .unwrap();
    assert_eq!(allocations_per_10k(|a, b| rec.mul(a, b)), 0, "{}", rec.name());
    let rec32 = RecursiveMultiplier::new(32, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
    assert_eq!(allocations_per_10k(|a, b| rec32.mul(a << 16, b)), 0, "{}", rec32.name());
    for width in [8, 32] {
        let wal = WallaceMultiplier::new(width, FullAdderKind::Apx3, 6).unwrap();
        assert_eq!(allocations_per_10k(|a, b| wal.mul(a, b)), 0, "{}", wal.name());
    }
    for compensated in [false, true] {
        let trunc = TruncatedMultiplier::new(8, 4, compensated).unwrap();
        assert_eq!(allocations_per_10k(|a, b| trunc.mul(a, b)), 0, "{}", trunc.name());
    }
}
