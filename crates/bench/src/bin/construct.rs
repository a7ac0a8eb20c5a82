//! Stage-2 graph-construction benchmark with parity and allocation
//! gates.
//!
//! Sweeps event size × embedding dimension over three arms: the pooled
//! grid FRNN engine, the brute-force oracle `radius_graph_brute` (a
//! parity reference), and a faithful replica of the seed kd-tree path
//! (sort-based recursive build, allocating per-query result vectors,
//! flat-map collect + global parallel sort). The shim thread pool is
//! sized once per process, so thread scaling runs one child process per
//! pool size (the `mp` bench pattern) — which doubles as the
//! cross-thread-count determinism check: every arm must produce the same
//! FNV-1a edge hash at every thread count.
//!
//! Results go to `BENCH_construct.json`. Exit is non-zero when
//! - any arm/thread-count pair disagrees on an edge hash (parity),
//! - the pooled grid engine's steady-state allocations per event exceed
//!   `--max-allocs`, or
//! - the grid engine's speedup over the seed path at the funnel-scale
//!   case falls below `--min-speedup` (default 3; `--tiny` skips this
//!   gate and shrinks the sweep for CI smoke runs).
//!
//! Usage: `construct [--ns 352,1408,5632] [--dims 3,8] [--threads 1,4]
//! [--reps 5] [--radius 0.25] [--max-allocs 8] [--min-speedup 3.0]
//! [--tiny] [--out PATH]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use trkx_bench::{arg_flag, arg_value};
use trkx_graph::{radius_graph_brute, GraphIndex};

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

/// Faithful replica of the pre-engine stage-2 path, kept as the
/// benchmark baseline: per-node-sorting tree build, recursive queries
/// that allocate a result `Vec` per point, and a globally sorted
/// flat-map edge collection.
mod seed_baseline {
    use rayon::prelude::*;

    fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    pub struct SeedKdTree {
        dim: usize,
        points: Vec<f32>,
        ids: Vec<u32>,
    }

    impl SeedKdTree {
        pub fn build(points: &[f32], dim: usize) -> Self {
            let n = points.len() / dim;
            let mut ids: Vec<u32> = (0..n as u32).collect();
            let mut pts = points.to_vec();
            if n > 0 {
                build_recursive(&mut pts, &mut ids, dim, 0, 0, n);
            }
            Self {
                dim,
                points: pts,
                ids,
            }
        }

        fn point(&self, slot: usize) -> &[f32] {
            &self.points[slot * self.dim..(slot + 1) * self.dim]
        }

        pub fn radius_query(&self, query: &[f32], r: f32) -> Vec<u32> {
            let mut out = Vec::new();
            if !self.ids.is_empty() {
                self.radius_rec(query, r * r, 0, 0, self.ids.len(), &mut out);
            }
            out
        }

        fn radius_rec(
            &self,
            q: &[f32],
            r2: f32,
            depth: usize,
            lo: usize,
            hi: usize,
            out: &mut Vec<u32>,
        ) {
            if lo >= hi {
                return;
            }
            let mid = lo + (hi - lo) / 2;
            let p = self.point(mid);
            if sq_dist(p, q) <= r2 {
                out.push(self.ids[mid]);
            }
            let axis = depth % self.dim;
            let delta = q[axis] - p[axis];
            let (near, far) = if delta < 0.0 {
                ((lo, mid), (mid + 1, hi))
            } else {
                ((mid + 1, hi), (lo, mid))
            };
            self.radius_rec(q, r2, depth + 1, near.0, near.1, out);
            if delta * delta <= r2 {
                self.radius_rec(q, r2, depth + 1, far.0, far.1, out);
            }
        }
    }

    fn build_recursive(
        pts: &mut [f32],
        ids: &mut [u32],
        dim: usize,
        depth: usize,
        lo: usize,
        hi: usize,
    ) {
        if hi - lo <= 1 {
            return;
        }
        let axis = depth % dim;
        let mid = lo + (hi - lo) / 2;
        let mut order: Vec<usize> = (lo..hi).collect();
        order.sort_by(|&a, &b| {
            pts[a * dim + axis]
                .partial_cmp(&pts[b * dim + axis])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut new_pts = Vec::with_capacity((hi - lo) * dim);
        let mut new_ids = Vec::with_capacity(hi - lo);
        for &slot in &order {
            new_pts.extend_from_slice(&pts[slot * dim..(slot + 1) * dim]);
            new_ids.push(ids[slot]);
        }
        pts[lo * dim..hi * dim].copy_from_slice(&new_pts);
        ids[lo..hi].copy_from_slice(&new_ids);
        build_recursive(pts, ids, dim, depth + 1, lo, mid);
        build_recursive(pts, ids, dim, depth + 1, mid + 1, hi);
    }

    pub fn radius_graph_seed(points: &[f32], dim: usize, r: f32) -> Vec<(u32, u32)> {
        let n = points.len() / dim;
        let tree = SeedKdTree::build(points, dim);
        let mut edges: Vec<(u32, u32)> = (0..n)
            .into_par_iter()
            .flat_map_iter(|i| {
                let q = &points[i * dim..(i + 1) * dim];
                tree.radius_query(q, r)
                    .into_iter()
                    .filter(move |&j| (j as usize) > i)
                    .map(move |j| (i as u32, j))
                    .collect::<Vec<_>>()
                    .into_iter()
            })
            .collect();
        edges.par_sort_unstable();
        edges
    }
}

/// Synthetic embedding-space event: ~`n / 8` particle clusters, eight
/// hits each, jittered around a uniform cluster centre — same shape the
/// trained embedding produces (same-particle hits pulled together).
fn cloud(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(n * dim);
    let mut center = vec![0.0f32; dim];
    for i in 0..n {
        if i % 8 == 0 {
            for c in center.iter_mut() {
                *c = rng.gen_range(-1.0f32..1.0);
            }
        }
        for &c in &center {
            pts.push(c + rng.gen_range(-0.05f32..0.05));
        }
    }
    pts
}

/// FNV-1a over the edge list — the cross-arm / cross-thread-count
/// parity fingerprint.
fn edge_hash(edges: &[(u32, u32)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(a, b) in edges {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Best-of-`reps` wall time in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Measure the pooled grid engine on one cloud: per-event time for the
/// full serving pattern (rebuild index + emit edges into a pooled
/// buffer), steady-state allocations per event, and the parity hash.
fn measure_engine(points: &[f32], dim: usize, r: f32, reps: usize) -> (f64, u64, u64, usize) {
    let mut idx = GraphIndex::default();
    let mut edges = Vec::new();
    let mut event = || {
        idx.rebuild(points, dim, r);
        idx.radius_edges_into(r, &mut edges);
    };
    // Warm twice: index/scratch buffers reach capacity, and every pool
    // thread populates its thread-local query scratch.
    event();
    event();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..4 {
        event();
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - a0) / 4;
    let ms = time_ms(reps, &mut event);
    (ms, allocs, edge_hash(&edges), edges.len())
}

/// Measure a one-shot edge builder (the oracle or the seed replica):
/// per-call time, allocations per call, and the parity hash.
fn measure_fn(build: impl Fn() -> Vec<(u32, u32)>, reps: usize) -> (f64, u64, u64, usize) {
    let mut edges = build();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..4 {
        edges = build();
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - a0) / 4;
    let ms = time_ms(reps, || {
        std::hint::black_box(build());
    });
    (ms, allocs, edge_hash(&edges), edges.len())
}

struct Sweep {
    ns: Vec<usize>,
    dims: Vec<usize>,
    radius: f32,
    reps: usize,
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',').filter_map(|t| t.trim().parse().ok()).collect()
}

/// One measurement pass at the current process's pool size: every
/// (n, dim) case × {grid, brute, seed-kd}.
fn child_pass(s: &Sweep) -> serde_json::Value {
    let mut cases = Vec::new();
    for &n in &s.ns {
        for &dim in &s.dims {
            let points = cloud(n, dim, 31 + n as u64 * 8 + dim as u64);
            let r = s.radius;
            let arms = [
                ("grid", measure_engine(&points, dim, r, s.reps)),
                (
                    "brute",
                    measure_fn(|| radius_graph_brute(&points, dim, r), s.reps),
                ),
                (
                    "seed-kd",
                    measure_fn(|| seed_baseline::radius_graph_seed(&points, dim, r), s.reps),
                ),
            ];
            for (backend, (ms, allocs, hash, edges)) in arms {
                cases.push(serde_json::json!({
                    "n": n,
                    "dim": dim,
                    "backend": backend,
                    "event_ms": ms,
                    "edges": edges,
                    "edges_per_s": if ms > 0.0 { edges as f64 / (ms * 1e-3) } else { 0.0 },
                    "allocs_per_event": allocs,
                    "edge_hash": format!("{hash:016x}"),
                }));
            }
        }
    }
    serde_json::Value::Map(vec![
        (
            "threads".to_string(),
            serde_json::Value::U64(rayon::current_num_threads() as u64),
        ),
        ("cases".to_string(), serde_json::Value::Seq(cases)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = arg_flag(&args, "--tiny");
    let sweep = Sweep {
        ns: parse_list(&arg_value(
            &args,
            "--ns",
            if tiny { "352" } else { "352,1408,5632" }.to_string(),
        )),
        dims: parse_list(&arg_value(
            &args,
            "--dims",
            if tiny { "8" } else { "3,8" }.to_string(),
        )),
        radius: arg_value(&args, "--radius", 0.25f32),
        reps: arg_value(&args, "--reps", if tiny { 3 } else { 9 }),
    };
    assert!(
        !sweep.ns.is_empty() && !sweep.dims.is_empty(),
        "--ns / --dims parsed to an empty list"
    );

    if arg_flag(&args, "--child") {
        println!("{}", child_pass(&sweep).to_json_string());
        return;
    }

    let out: String = arg_value(&args, "--out", "BENCH_construct.json".to_string());
    let threads_arg: String = arg_value(&args, "--threads", "1,4".to_string());
    let max_allocs: u64 = arg_value(&args, "--max-allocs", 8u64);
    let min_speedup: f64 = arg_value(&args, "--min-speedup", if tiny { 0.0 } else { 3.0 });
    let thread_counts = parse_list(&threads_arg);
    assert!(
        !thread_counts.is_empty(),
        "--threads parsed to an empty list"
    );

    // One child process per pool size (the shim pool is sized once per
    // process); forward the sweep so every child measures the same
    // cases.
    let exe = std::env::current_exe().expect("current_exe");
    let ns_arg: String = sweep
        .ns
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let dims_arg: String = sweep
        .dims
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut runs = Vec::new();
    for &t in &thread_counts {
        let output = std::process::Command::new(&exe)
            .args([
                "--child",
                "--ns",
                &ns_arg,
                "--dims",
                &dims_arg,
                "--radius",
                &sweep.radius.to_string(),
                "--reps",
                &sweep.reps.to_string(),
            ])
            .env("RAYON_NUM_THREADS", t.to_string())
            .output()
            .expect("spawn child bench");
        assert!(
            output.status.success(),
            "child bench (threads={t}) failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let record = serde_json::parse_value(stdout.trim()).expect("parse child record");
        runs.push(record);
    }

    // Gate 1 — parity: for each (n, dim), every arm in every child
    // (thread count) must report the same edge hash.
    let case_field = |case: &serde_json::Value, key: &str| -> String {
        case.get(key)
            .and_then(|v| {
                v.as_str()
                    .map(str::to_string)
                    .or_else(|| v.as_u64().map(|u| u.to_string()))
            })
            .unwrap_or_default()
    };
    let mut failures = Vec::new();
    let mut reference: std::collections::HashMap<String, (String, String)> =
        std::collections::HashMap::new();
    for run in &runs {
        let threads = run.get("threads").and_then(|v| v.as_u64()).unwrap_or(0);
        for case in run.get("cases").and_then(|c| c.as_seq()).unwrap_or(&[]) {
            let key = format!("{}x{}", case_field(case, "n"), case_field(case, "dim"));
            let hash = case_field(case, "edge_hash");
            let who = format!("{} @ {threads}t", case_field(case, "backend"));
            match reference.get(&key) {
                None => {
                    reference.insert(key, (hash, who));
                }
                Some((want, from)) if *want != hash => {
                    failures.push(format!(
                        "parity: case {key}: {who} hash {hash} != {from} hash {want}"
                    ));
                }
                Some(_) => {}
            }
        }
    }

    // Gate 2 — the pooled grid engine allocates (almost) nothing per
    // event once warm. The one-shot oracle and seed replica allocate
    // their output by design and are not gated.
    for run in &runs {
        let threads = run.get("threads").and_then(|v| v.as_u64()).unwrap_or(0);
        for case in run.get("cases").and_then(|c| c.as_seq()).unwrap_or(&[]) {
            let backend = case_field(case, "backend");
            if backend != "grid" {
                continue;
            }
            let allocs = case
                .get("allocs_per_event")
                .and_then(|v| v.as_u64())
                .unwrap_or(u64::MAX);
            if allocs > max_allocs {
                failures.push(format!(
                    "allocs: {backend} @ {threads}t n={} dim={}: {allocs} allocs/event > {max_allocs}",
                    case_field(case, "n"),
                    case_field(case, "dim"),
                ));
            }
        }
    }

    // Gate 3 — grid engine speedup over the seed path at the smallest
    // (funnel-scale) case. Below the engine's serial cutoff that case
    // runs the same code at every thread count, so each thread run is
    // one more sample of the same path: take the best across runs to
    // reject scheduler jitter.
    let mut speedup_at_funnel = 0.0f64;
    if let (Some(&n0), Some(&d0)) = (sweep.ns.first(), sweep.dims.last()) {
        for run in &runs {
            let find_ms = |backend: &str| -> Option<f64> {
                run.get("cases")?
                    .as_seq()?
                    .iter()
                    .find(|case| {
                        case_field(case, "backend") == backend
                            && case_field(case, "n") == n0.to_string()
                            && case_field(case, "dim") == d0.to_string()
                    })?
                    .get("event_ms")?
                    .as_f64()
            };
            if let (Some(seed_ms), Some(grid_ms)) = (find_ms("seed-kd"), find_ms("grid")) {
                if grid_ms > 0.0 {
                    speedup_at_funnel = speedup_at_funnel.max(seed_ms / grid_ms);
                }
            }
        }
        if min_speedup > 0.0 && speedup_at_funnel < min_speedup {
            failures.push(format!(
                "speedup: grid vs seed-kd at n={n0} dim={d0}: {speedup_at_funnel:.2}x < {min_speedup:.2}x"
            ));
        }
    }

    let report = serde_json::Value::Map(vec![
        (
            "radius".to_string(),
            serde_json::Value::F64(f64::from(sweep.radius)),
        ),
        (
            "speedup_at_funnel_scale_x".to_string(),
            serde_json::Value::F64(speedup_at_funnel),
        ),
        ("runs".to_string(), serde_json::Value::Seq(runs)),
    ]);
    std::fs::write(&out, report.to_json_string()).expect("write bench json");
    println!("wrote {out}");
    println!("grid speedup over seed kd path at funnel scale: {speedup_at_funnel:.2}x");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!("all construct gates passed");
}
