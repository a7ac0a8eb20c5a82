//! Message-passing kernel microbenchmark with allocation accounting.
//!
//! Times the kernels the fused message-passing path replaced against
//! their references — serial vs plan-driven scatter and unfused vs
//! fused edge-input assembly (with the activation floats each assembly
//! leaves on its tape) — plus the fused IGNN forward+backward with its
//! steady-state heap allocations and tape activation floats per step.
//! Results go to `BENCH_mp.json`.
//!
//! The shim thread pool is sized once per process (`RAYON_NUM_THREADS`),
//! so thread scaling is measured by re-executing this binary as a child
//! per requested thread count and collecting one record per pool size.
//!
//! Usage: `mp [--nodes N] [--edges M] [--hidden H] [--layers L]
//! [--reps R] [--threads 1,4] [--out PATH]`
//!
//! Exits non-zero if the fused assembly does not strictly reduce tape
//! activation floats — a deterministic structural gate CI relies on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use trkx_bench::{arg_flag, arg_value};
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{bce_with_logits, Bindings};
use trkx_tensor::{EdgePlans, Matrix, Tape};

/// System allocator wrapped with an allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Best-of-`reps` wall time in milliseconds, after one warmup call.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct Sizes {
    nodes: usize,
    edges: usize,
    hidden: usize,
    layers: usize,
    reps: usize,
}

/// One measurement pass at the current process's pool size.
fn measure(s: &Sizes) -> serde_json::Value {
    let mut rng = StdRng::seed_from_u64(7);
    let src: Arc<Vec<u32>> = Arc::new(
        (0..s.edges)
            .map(|_| rng.gen_range(0..s.nodes as u32))
            .collect(),
    );
    let dst: Arc<Vec<u32>> = Arc::new(
        (0..s.edges)
            .map(|_| rng.gen_range(0..s.nodes as u32))
            .collect(),
    );
    let labels: Vec<f32> = (0..s.edges).map(|_| f32::from(rng.gen_bool(0.3))).collect();
    let x = Matrix::randn(s.nodes, 3, 1.0, &mut rng);
    let y = Matrix::randn(s.edges, 2, 1.0, &mut rng);
    let plans = Arc::new(EdgePlans::new(src.clone(), dst.clone(), s.nodes));

    // Per-kernel timings at the hidden width the MP layers run at.
    let h = s.hidden;
    let edge_feat = Matrix::randn(s.edges, h, 1.0, &mut rng);
    let node_feat = Matrix::randn(s.nodes, 2 * h, 1.0, &mut rng);
    let edge_state = Matrix::randn(s.edges, 2 * h, 1.0, &mut rng);

    let plan_build_ms = time_ms(s.reps, || {
        std::hint::black_box(EdgePlans::new(src.clone(), dst.clone(), s.nodes));
    });
    let scatter_serial_ms = time_ms(s.reps, || {
        std::hint::black_box(edge_feat.scatter_add_rows(&src, s.nodes));
    });
    let scatter_planned_ms = time_ms(s.reps, || {
        let mut out = Matrix::zeros(s.nodes, h);
        edge_feat.scatter_rows_planned_acc(&plans.src_plan, &mut out);
        std::hint::black_box(out);
    });
    // Edge-MLP input assembly both ways; returns the floats the
    // assembly leaves on its tape (the structural gate's measure).
    let assemble = |fused: bool| -> usize {
        let mut t = Tape::new();
        let xv = t.constant_copied(&node_feat);
        let yv = t.constant_copied(&edge_state);
        if fused {
            std::hint::black_box(t.gather_concat(yv, xv, plans.clone()));
        } else {
            let xs = t.gather(xv, src.clone());
            let xd = t.gather(xv, dst.clone());
            std::hint::black_box(t.concat_cols(&[yv, xs, xd]));
        }
        t.activation_floats()
    };
    let msg_assembly_unfused_ms = time_ms(s.reps, || {
        assemble(false);
    });
    let msg_assembly_fused_ms = time_ms(s.reps, || {
        assemble(true);
    });

    // Whole-model forward+backward, reusing one tape so the buffer pool
    // reaches steady state and the alloc counter measures the hot path.
    let cfg = IgnnConfig::new(x.cols(), y.cols())
        .with_hidden(s.hidden)
        .with_gnn_layers(s.layers)
        .with_mlp_depth(2);
    let model = InteractionGnn::new(cfg, &mut rng);
    let mut tape = Tape::new();
    let mut run_fb = || -> usize {
        tape.reset();
        let mut bind = Bindings::new();
        let logits = model.forward_planned(&mut tape, &mut bind, &x, &y, &plans);
        let loss = bce_with_logits(&mut tape, logits, &labels, 1.0);
        let floats = tape.activation_floats();
        tape.backward(loss);
        floats
    };

    let mut activation_floats_fused = 0;
    let model_fb_fused_ms = time_ms(s.reps, || {
        activation_floats_fused = run_fb();
    });
    let a0 = ALLOCS.load(Ordering::Relaxed);
    run_fb();
    let allocs_fused = ALLOCS.load(Ordering::Relaxed) - a0;

    serde_json::json!({
        "threads": rayon::current_num_threads(),
        "plan_build_ms": plan_build_ms,
        "scatter_serial_ms": scatter_serial_ms,
        "scatter_planned_ms": scatter_planned_ms,
        "msg_assembly_unfused_ms": msg_assembly_unfused_ms,
        "msg_assembly_fused_ms": msg_assembly_fused_ms,
        "model_fb_fused_ms": model_fb_fused_ms,
        "allocs_fused_per_step": allocs_fused,
        "activation_floats_fused": activation_floats_fused,
        "assembly_floats_unfused": assemble(false),
        "assembly_floats_fused": assemble(true),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sizes = Sizes {
        nodes: arg_value(&args, "--nodes", 1024),
        edges: arg_value(&args, "--edges", 4096),
        hidden: arg_value(&args, "--hidden", 64),
        layers: arg_value(&args, "--layers", 8),
        reps: arg_value(&args, "--reps", 5),
    };

    if arg_flag(&args, "--child") {
        let record = measure(&sizes);
        println!("{record}");
        return;
    }

    let out: String = arg_value(&args, "--out", "BENCH_mp.json".to_string());
    // Children pin their pool size via RAYON_NUM_THREADS, so the sweep
    // covers oversubscribed pools too — scaling numbers on a smaller
    // machine then mostly measure scheduling overhead, but the record
    // keeps the same shape everywhere.
    let threads_arg: String = arg_value(&args, "--threads", "1,2,4,8".to_string());
    let max_alloc_spread: f64 = arg_value(&args, "--max-alloc-spread", f64::INFINITY);
    let thread_counts: Vec<usize> = threads_arg
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    assert!(
        !thread_counts.is_empty(),
        "--threads parsed to an empty list"
    );

    // One child process per pool size: the shim pool is sized once per
    // process, so in-process sweeps are impossible by design.
    let exe = std::env::current_exe().expect("current_exe");
    let mut runs = Vec::new();
    for &n in &thread_counts {
        let output = std::process::Command::new(&exe)
            .args([
                "--child",
                "--nodes",
                &sizes.nodes.to_string(),
                "--edges",
                &sizes.edges.to_string(),
                "--hidden",
                &sizes.hidden.to_string(),
                "--layers",
                &sizes.layers.to_string(),
                "--reps",
                &sizes.reps.to_string(),
            ])
            .env("RAYON_NUM_THREADS", n.to_string())
            .output()
            .expect("spawn child bench");
        assert!(
            output.status.success(),
            "child bench (threads={n}) failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let record = serde_json::parse_value(stdout.trim()).expect("parse child record");
        runs.push(record);
    }

    // Thread-scaling factor relative to the single-thread fused run,
    // computed here in the parent (children only know their own pool
    // size). >1 means the pool is helping at that size.
    let fused_ms = |run: &serde_json::Value| run.get("model_fb_fused_ms").and_then(|v| v.as_f64());
    let t1_fused = runs
        .iter()
        .find(|r| r.get("threads").and_then(|v| v.as_u64()) == Some(1))
        .and_then(&fused_ms);
    for run in &mut runs {
        let scaling = match (t1_fused, fused_ms(run)) {
            (Some(t1), Some(tn)) if tn > 0.0 => t1 / tn,
            _ => 0.0,
        };
        if let serde_json::Value::Map(fields) = run {
            fields.push((
                "model_fb_scaling_x".to_string(),
                serde_json::Value::F64(scaling),
            ));
        }
        let ms = |key: &str| run.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let n = run.get("threads").and_then(|v| v.as_u64()).unwrap_or(0);
        println!(
            "mp threads={n}: scatter {:.3}→{:.3} ms, assembly {:.3}→{:.3} ms, \
             model f+b {:.1} ms ({scaling:.2}x vs 1 thread)",
            ms("scatter_serial_ms"),
            ms("scatter_planned_ms"),
            ms("msg_assembly_unfused_ms"),
            ms("msg_assembly_fused_ms"),
            ms("model_fb_fused_ms"),
        );
    }

    // Physical core count caps the scaling any pool size can show; record
    // it so readings from core-starved hosts aren't mistaken for kernel
    // regressions.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let report = serde_json::json!({
        "bench": "message_passing",
        "nodes": sizes.nodes,
        "edges": sizes.edges,
        "hidden": sizes.hidden,
        "layers": sizes.layers,
        "reps": sizes.reps,
        "host_cores": host_cores,
        "runs": runs,
    });
    std::fs::write(&out, format!("{report}\n")).expect("write bench report");
    println!("wrote {out}");

    // Structural gate: fused assembly must strictly shrink the live tape.
    for run in report.get("runs").and_then(|r| r.as_seq()).unwrap_or(&[]) {
        let floats = |key: &str| run.get(key).and_then(|v| v.as_u64());
        let fused = floats("assembly_floats_fused").unwrap_or(u64::MAX);
        let unfused = floats("assembly_floats_unfused").unwrap_or(0);
        if fused >= unfused {
            eprintln!("FAIL: fused assembly holds {fused} activation floats, unfused {unfused}");
            std::process::exit(1);
        }
    }

    // Alloc-flatness gate: per-thread pooled scratch means the fused
    // step's allocation count must not grow with the pool size.
    let fused_allocs: Vec<u64> = report
        .get("runs")
        .and_then(|r| r.as_seq())
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("allocs_fused_per_step").and_then(|v| v.as_u64()))
        .collect();
    if let (Some(&lo), Some(&hi)) = (fused_allocs.iter().min(), fused_allocs.iter().max()) {
        let spread = hi - lo;
        if spread as f64 > max_alloc_spread {
            eprintln!(
                "FAIL: fused allocs/step spread {spread} across pool sizes \
                 ({fused_allocs:?}) exceeds --max-alloc-spread {max_alloc_spread}"
            );
            std::process::exit(1);
        }
    }
}
