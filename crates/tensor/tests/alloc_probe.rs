//! Steady-state allocation regression test for the GEMM kernels.
//!
//! Packing scratch comes from per-thread pooled buffers
//! (`with_scratch`), so after warmup every matmul variant performs zero
//! heap allocations into caller-provided outputs — at any thread count
//! and even when the parallel path is forced on. Pins the invariant
//! with a counting global allocator (hence its own test binary). The
//! binary runs without the libtest harness (`harness = false`): `main`
//! runs the probes on the main thread, so no runner thread allocates
//! inside a measured window, while the pool's worker threads are counted.

use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use trkx_tensor::Matrix;

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

fn steady_state_allocs(label: &str, mut f: impl FnMut()) {
    let measure = |f: &mut dyn FnMut()| {
        for _ in 0..10 {
            f();
        }
        let before = COUNT.load(Ordering::Relaxed);
        for _ in 0..100 {
            f();
        }
        COUNT.load(Ordering::Relaxed) - before
    };
    // On an oversubscribed host the submitting thread can help-drain every
    // warmup block before a sleeping pool worker is ever scheduled, pushing
    // that worker's first packing-scratch allocation into the measured
    // window. One re-measure absorbs such one-time init; a genuine per-call
    // allocation fails both.
    let mut allocs = measure(&mut f);
    if allocs != 0 {
        allocs = measure(&mut f);
    }
    assert_eq!(
        allocs,
        0,
        "{label} allocated {} times over 100 calls at {} threads",
        allocs,
        rayon::current_num_threads()
    );
}

fn matmul_kernels_allocate_nothing_after_warmup() {
    // IGNN backward shapes: edge count x fan-in/out widths.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let a = Matrix::randn(4096, 66, 1.0, &mut rng);
    let b = Matrix::randn(66, 32, 1.0, &mut rng);
    let g = Matrix::randn(4096, 32, 1.0, &mut rng);
    let mut out = Matrix::zeros(4096, 32);
    let mut wgrad = Matrix::zeros(66, 32);
    let mut xgrad = Matrix::zeros(4096, 66);
    steady_state_allocs("matmul_into", || a.matmul_into(&b, &mut out));
    steady_state_allocs("matmul_acc", || a.matmul_acc(&b, &mut out));
    steady_state_allocs("matmul_tn_acc", || a.matmul_tn_acc(&g, &mut wgrad));
    steady_state_allocs("matmul_nt_acc", || g.matmul_nt_acc(&b, &mut xgrad));
}

fn main() {
    run_probes(&[(
        "matmul_kernels_allocate_nothing_after_warmup",
        matmul_kernels_allocate_nothing_after_warmup,
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
