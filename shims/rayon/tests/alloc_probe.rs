//! Steady-state allocation regression test for the pool executor.
//!
//! The multi-block dispatch path queues POD `Unit`s into a
//! capacity-retained deque and computes block ranges arithmetically, so
//! after warmup a parallel `for_each` performs zero heap allocations at
//! any thread count. This test pins that invariant with a counting
//! global allocator (which is why it lives in its own integration-test
//! binary). The binary runs without the libtest harness
//! (`harness = false`): `main` runs the probe on the main thread, so no
//! runner thread allocates inside the measured window, while the pool's
//! worker threads are counted.

use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;
static COUNT: AtomicUsize = AtomicUsize::new(0);
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }
}
#[global_allocator]
static A: Counting = Counting;

fn parallel_dispatch_allocates_nothing_after_warmup() {
    let mut data = vec![1.0f32; 1 << 20];
    let mut measure = move || {
        for _ in 0..10 {
            data.par_iter_mut().for_each(|x| *x += 1.0);
        }
        let before = COUNT.load(Ordering::Relaxed);
        for _ in 0..100 {
            data.par_iter_mut().for_each(|x| *x += 1.0);
        }
        COUNT.load(Ordering::Relaxed) - before
    };
    // On an oversubscribed host the submitting thread can help-drain every
    // warmup unit before a sleeping worker is ever scheduled, pushing that
    // worker's one-time lazy init into the measured window. One re-measure
    // absorbs such one-off init; a genuine per-call allocation fails both.
    let mut allocs = measure();
    if allocs != 0 {
        allocs = measure();
    }
    assert_eq!(
        allocs,
        0,
        "multi-block dispatch allocated {} times over 100 calls at {} threads",
        allocs,
        rayon::current_num_threads()
    );
}

fn main() {
    run_probes(&[(
        "parallel_dispatch_allocates_nothing_after_warmup",
        parallel_dispatch_allocates_nothing_after_warmup,
    )]);
}

/// Run the probes in order, reporting in libtest's line format (`--list`
/// only lists them). A failing probe panics, which fails the binary.
fn run_probes(probes: &[(&str, fn())]) {
    if std::env::args().any(|a| a == "--list") {
        for (name, _) in probes {
            println!("{name}: test");
        }
        return;
    }
    let plural = if probes.len() == 1 { "" } else { "s" };
    println!("\nrunning {} test{plural}", probes.len());
    for (name, probe) in probes {
        probe();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n",
        probes.len()
    );
}
