//! Criterion microbenchmarks for the fused message-passing kernels:
//! serial vs plan-driven scatter-add, unfused vs fused edge-input
//! assembly, and one fused IGNN forward+backward. The `mp`
//! binary (`src/bin/mp.rs`) measures the same kernels with allocation
//! accounting and thread-count sweeps; this harness gives statistically
//! sound single-configuration timings.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{bce_with_logits, Bindings};
use trkx_tensor::{EdgePlans, Matrix, Tape};

const NODES: usize = 1024;
const EDGES: usize = 4096;
const HIDDEN: usize = 64;

struct Fixture {
    x: Matrix,
    y: Matrix,
    src: Arc<Vec<u32>>,
    dst: Arc<Vec<u32>>,
    labels: Vec<f32>,
    plans: Arc<EdgePlans>,
    edge_feat: Matrix,
    node_feat: Matrix,
    edge_state: Matrix,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(7);
    let src: Arc<Vec<u32>> = Arc::new((0..EDGES).map(|_| rng.gen_range(0..NODES as u32)).collect());
    let dst: Arc<Vec<u32>> = Arc::new((0..EDGES).map(|_| rng.gen_range(0..NODES as u32)).collect());
    let plans = Arc::new(EdgePlans::new(src.clone(), dst.clone(), NODES));
    Fixture {
        x: Matrix::randn(NODES, 3, 1.0, &mut rng),
        y: Matrix::randn(EDGES, 2, 1.0, &mut rng),
        src,
        dst,
        labels: (0..EDGES).map(|_| f32::from(rng.gen_bool(0.3))).collect(),
        plans,
        edge_feat: Matrix::randn(EDGES, HIDDEN, 1.0, &mut rng),
        node_feat: Matrix::randn(NODES, 2 * HIDDEN, 1.0, &mut rng),
        edge_state: Matrix::randn(EDGES, 2 * HIDDEN, 1.0, &mut rng),
    }
}

fn bench_scatter(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("mp_scatter_add");
    group.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(f.edge_feat.scatter_add_rows(&f.src, NODES)))
    });
    group.bench_function("planned", |b| {
        b.iter(|| {
            let mut out = Matrix::zeros(NODES, HIDDEN);
            f.edge_feat
                .scatter_rows_planned_acc(&f.plans.src_plan, &mut out);
            std::hint::black_box(out)
        })
    });
    group.finish();
}

fn bench_msg_assembly(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("mp_msg_assembly");
    group.bench_function("unfused", |b| {
        b.iter(|| {
            let mut t = Tape::new();
            let xv = t.constant_copied(&f.node_feat);
            let yv = t.constant_copied(&f.edge_state);
            let xs = t.gather(xv, f.src.clone());
            let xd = t.gather(xv, f.dst.clone());
            std::hint::black_box(t.concat_cols(&[yv, xs, xd]))
        })
    });
    group.bench_function("fused", |b| {
        b.iter(|| {
            let mut t = Tape::new();
            let xv = t.constant_copied(&f.node_feat);
            let yv = t.constant_copied(&f.edge_state);
            std::hint::black_box(t.gather_concat(yv, xv, f.plans.clone()))
        })
    });
    group.finish();
}

fn bench_model_step(c: &mut Criterion) {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = IgnnConfig::new(f.x.cols(), f.y.cols())
        .with_hidden(32)
        .with_gnn_layers(4)
        .with_mlp_depth(2);
    let model = InteractionGnn::new(cfg, &mut rng);
    let mut tape = Tape::new();
    let mut group = c.benchmark_group("mp_forward_backward");
    group.sample_size(10);
    group.bench_function("fused", |b| {
        b.iter(|| {
            tape.reset();
            let mut bind = Bindings::new();
            let logits = model.forward_planned(&mut tape, &mut bind, &f.x, &f.y, &f.plans);
            let loss = bce_with_logits(&mut tape, logits, &f.labels, 1.0);
            tape.backward(loss);
            std::hint::black_box(tape.value(loss).as_scalar())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scatter, bench_msg_assembly, bench_model_step);
criterion_main!(benches);
