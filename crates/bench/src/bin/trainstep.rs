//! Train-step microbenchmark with allocation accounting.
//!
//! Runs repeated IGNN train steps on a deterministic synthetic graph,
//! measuring steady-state wall-clock per step and heap allocations per
//! step (via a counting global allocator), and writes the results to
//! `BENCH_trainstep.json`.
//!
//! Usage: `trainstep [--nodes N] [--edges M] [--steps S] [--out PATH]
//! [--max-allocs A]`
//!
//! With `--max-allocs`, exits non-zero when steady-state allocations per
//! step exceed the bound — CI uses this to gate hot-path regressions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use trkx_bench::arg_value;
use trkx_bench::trainstep::{run_step, StepScratch, SyntheticGraph};
use trkx_ignn::{IgnnConfig, InteractionGnn};

/// System allocator wrapped with an allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static TRACE_LEFT: AtomicU64 = AtomicU64::new(0);
std::thread_local! {
    static IN_TRACE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        if TRACE.load(Ordering::Relaxed)
            && !IN_TRACE.with(|c| c.get())
            && TRACE_LEFT
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        {
            IN_TRACE.with(|c| c.set(true));
            eprintln!(
                "--- alloc {} bytes ---\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
            IN_TRACE.with(|c| c.set(false));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes: usize = arg_value(&args, "--nodes", 1024);
    let edges: usize = arg_value(&args, "--edges", 4096);
    let steps: usize = arg_value(&args, "--steps", 20);
    let out: String = arg_value(&args, "--out", "BENCH_trainstep.json".to_string());
    let max_allocs: f64 = arg_value(&args, "--max-allocs", f64::INFINITY);

    let g = SyntheticGraph::generate(nodes, edges, 7);
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = IgnnConfig::new(g.x.cols(), g.y.cols())
        .with_hidden(32)
        .with_gnn_layers(4)
        .with_mlp_depth(2);
    let mut model = InteractionGnn::new(cfg, &mut rng);
    let mut scratch = StepScratch::new(1e-3);

    // Warmup: populate pools, fault in pages, settle the thread pool.
    for _ in 0..3 {
        run_step(&mut model, &g, &mut scratch);
    }

    if std::env::var("TRKX_TRACE_ALLOCS").is_ok() {
        TRACE_LEFT.store(600, Ordering::Relaxed);
        TRACE.store(true, Ordering::Relaxed);
    }
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let mut loss = 0.0;
    for _ in 0..steps {
        loss = run_step(&mut model, &g, &mut scratch);
    }
    let elapsed = t0.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;

    let ns_per_step = elapsed.as_nanos() as f64 / steps as f64;
    let allocs_per_step = allocs as f64 / steps as f64;
    let report = serde_json::json!({
        "bench": "trainstep",
        "nodes": nodes,
        "edges": edges,
        "steps": steps,
        "ns_per_step": ns_per_step,
        "ms_per_step": ns_per_step / 1e6,
        "allocations_per_step": allocs_per_step,
        "alloc_bytes_per_step": bytes as f64 / steps as f64,
        "final_loss": loss,
        // The kernel pool actually in use (`RAYON_NUM_THREADS` honoured),
        // not the host's core count.
        "threads": rayon::current_num_threads(),
    });
    std::fs::write(&out, format!("{report}\n")).expect("write bench report");
    println!(
        "trainstep {nodes}n/{edges}e: {:.3} ms/step, {:.0} allocs/step -> {out}",
        ns_per_step / 1e6,
        allocs_per_step
    );
    if allocs_per_step > max_allocs {
        eprintln!("FAIL: {allocs_per_step:.0} allocs/step exceeds --max-allocs {max_allocs:.0}");
        std::process::exit(1);
    }
}
