//! Steady-state allocation regression test for the DDP gradient-sync
//! path. Every strategy routes through one persistent [`BucketLayout`]
//! cached per rank, and the reducer's deposit/sum scratch keeps its
//! capacity across collectives — so after the first step, a DDP
//! gradient sync performs **zero** heap allocations: per-tensor,
//! bucketed, and coalesced alike, single-rank and multi-rank, and the
//! overlapped scheduler's fire path too. Pinned with a counting global
//! allocator (hence its own test binary). The binary runs without the
//! libtest harness (`harness = false`): `main` runs the probes one after
//! another on the main thread, so no runner thread allocates inside a
//! measured window, while the threads a probe starts itself are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use trkx_ddp::{AllReduceStrategy, AllReducer, BucketScheduler, CommCostModel, CommLink};
use trkx_nn::{BucketLayout, Param};
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
    // One re-measure absorbs one-time lazy init (e.g. a parker the OS
    // scheduler surfaced late); a genuine per-call allocation fails both.
    let mut allocs = measure(&mut f);
    if allocs != 0 {
        allocs = measure(&mut f);
    }
    assert_eq!(allocs, 0, "{label}: {allocs} steady-state allocations");
}

fn mk_params(sizes: &[usize]) -> Vec<Param> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut p = Param::new(format!("p{i}"), Matrix::zeros(1, n));
            p.grad = Matrix::from_fn(1, n, |_, c| (i * 31 + c) as f32 * 0.5 - 3.0);
            p
        })
        .collect()
    // Uneven sizes exercise multi-bucket layouts below.
}

const SIZES: &[usize] = &[64, 7, 128, 33, 16, 250];

fn single_rank_sync_is_alloc_free_for_every_strategy() {
    let reducer = AllReducer::new(1, CommCostModel::nvlink3());
    for strategy in [
        AllReduceStrategy::PerTensor,
        AllReduceStrategy::Bucketed { bucket_bytes: 256 },
        AllReduceStrategy::Coalesced,
    ] {
        let mut params = mk_params(SIZES);
        let mut refs: Vec<&mut Param> = params.iter_mut().collect();
        steady_state_allocs(&format!("{strategy:?}"), || {
            reducer.sync_gradients(0, &mut refs, strategy);
        });
    }
}

fn multi_rank_sync_is_alloc_free_for_every_strategy() {
    const P: usize = 2;
    for strategy in [
        AllReduceStrategy::PerTensor,
        AllReduceStrategy::Bucketed { bucket_bytes: 256 },
        AllReduceStrategy::Coalesced,
    ] {
        let reducer = AllReducer::new(P, CommCostModel::nvlink3());
        let start = Barrier::new(P + 1);
        let done = Barrier::new(P + 1);
        std::thread::scope(|s| {
            for rank in 0..P {
                let (reducer, start, done) = (&reducer, &start, &done);
                s.spawn(move || {
                    let mut params = mk_params(SIZES);
                    let mut refs: Vec<&mut Param> = params.iter_mut().collect();
                    // Warmup builds the layout cache and any lazy parker
                    // state before the measured window opens.
                    for _ in 0..10 {
                        reducer.sync_gradients(rank, &mut refs, strategy);
                    }
                    start.wait();
                    for _ in 0..100 {
                        reducer.sync_gradients(rank, &mut refs, strategy);
                    }
                    done.wait();
                });
            }
            start.wait();
            let before = COUNT.load(Ordering::Relaxed);
            done.wait();
            let allocs = COUNT.load(Ordering::Relaxed) - before;
            assert_eq!(
                allocs, 0,
                "{strategy:?} x{P} ranks: {allocs} steady-state allocations"
            );
        });
    }
}

fn overlapped_scheduler_fire_path_is_alloc_free() {
    let mut params = mk_params(SIZES);
    let mut refs: Vec<&mut Param> = params.iter_mut().collect();
    let mut sched = BucketScheduler::new(BucketLayout::from_sizes(SIZES, 256));
    let link = CommLink::Model {
        cost: CommCostModel::nvlink3(),
        workers: 4,
    };
    steady_state_allocs("scheduler fire path", || {
        sched.begin_step();
        for i in (0..SIZES.len()).rev() {
            sched.param_final(i, &mut refs, &link);
        }
        sched.finish(&mut refs, &link);
        sched.take_stats();
    });
}

fn main() {
    run_probes(&[
        (
            "single_rank_sync_is_alloc_free_for_every_strategy",
            single_rank_sync_is_alloc_free_for_every_strategy,
        ),
        (
            "multi_rank_sync_is_alloc_free_for_every_strategy",
            multi_rank_sync_is_alloc_free_for_every_strategy,
        ),
        (
            "overlapped_scheduler_fire_path_is_alloc_free",
            overlapped_scheduler_fire_path_is_alloc_free,
        ),
    ]);
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
