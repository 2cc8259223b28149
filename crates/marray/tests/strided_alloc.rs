//! Allocation gate for the strided data-movement ops.
//!
//! A counting global allocator tallies heap allocations on the calling
//! thread only (a `const`-initialised thread-local), so the test
//! harness's other threads cannot pollute a measurement. Every ported op
//! must make the same number of allocations on an 8×8 input as on a
//! 512×512 one, and at most [`MAX_ALLOCS_PER_CALL`]: the result's buffer
//! and its shared handle, plus up to two per-axis vectors (shape,
//! strides). A per-element (or per-row) allocation would scale with the
//! input and fail here.

// A global allocator can only be written as an `unsafe impl`.
#![allow(unsafe_code)]

use marray::NdArray;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counter is a plain thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound every ported op must meet, independent of element count.
const MAX_ALLOCS_PER_CALL: u64 = 4;

/// Allocations `f` makes on this thread; its result drops afterwards.
fn allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let n = ALLOCS.with(Cell::get) - before;
    drop(out);
    n
}

/// Allocation counts of every ported op on an `n`×`n` input.
fn op_allocs(n: usize) -> Vec<(&'static str, u64)> {
    let a = NdArray::from_fn(&[n, n], |ix| (ix[0] * n + ix[1]) as f64 * 0.5);
    let patch = a.subarray(&[1, 2], &[n / 2, n / 2]).unwrap();
    let mut dst = NdArray::<f64>::zeros(&[n, n]);
    let positions: Vec<usize> = (0..n).rev().step_by(2).collect();
    // An (x, y, z, volume) stack that grows with `n`.
    let cube = NdArray::<f64>::zeros(&[n / 8, n / 8, 2, (n / 16).max(2)]);
    vec![
        ("subarray", allocs(|| a.subarray(&[1, 2], &[n / 2, n / 2]))),
        (
            "write_subarray",
            allocs(|| dst.write_subarray(&[3, 1], &patch)),
        ),
        ("slice_axis 0", allocs(|| a.slice_axis(0, 3))),
        ("slice_axis 1", allocs(|| a.slice_axis(1, 3))),
        ("take_axis 0", allocs(|| a.take_axis(0, &positions))),
        ("take_axis 1", allocs(|| a.take_axis(1, &positions))),
        ("permute_axes [1,0]", allocs(|| a.permute_axes(&[1, 0]))),
        (
            "permute_axes [3,0,1,2]",
            allocs(|| cube.permute_axes(&[3, 0, 1, 2])),
        ),
        (
            "fold_axis 0",
            allocs(|| a.fold_axis(0, 0.0, |x, v| x * 0.5 + v, |x, _| x)),
        ),
        ("mean_axis 1", allocs(|| a.mean_axis(1))),
        ("max_axis 0", allocs(|| a.max_axis(0))),
    ]
}

#[test]
fn strided_ops_allocate_independently_of_element_count() {
    let small = op_allocs(8);
    let large = op_allocs(512);
    for ((name, s), (_, l)) in small.iter().zip(&large) {
        assert_eq!(s, l, "{name}: {s} allocations at 8x8 but {l} at 512x512");
        assert!(
            *l <= MAX_ALLOCS_PER_CALL,
            "{name}: {l} allocations per call, bound {MAX_ALLOCS_PER_CALL}"
        );
    }
}
