//! `reco-pileup`: closed-loop offline reconstruction through
//! `TrainedPipeline::reconstruct_batch_pooled` in micro-batches of 8, on
//! events whose particle multiplicity is drawn from a seeded spread of
//! 50–150 (about 0.5–1.6k hits).
//!
//! Set-up trains the five-stage pipeline on events of the same family in
//! a child process (so this process's peak RSS is the reconstruction's,
//! not the trainer's), loads the saved bundle, and computes every
//! event's reference `reconstruct` result, which each batch must match.
//! The traced variant runs the stages one public call at a time and must
//! reproduce `reconstruct_batch_pooled` exactly.

use crate::report::{Provenance, Report};
use crate::trace::{self, Tracer};
use crate::{mem, stats, timed_setup, Args};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trkx_core::{
    build_tracks, ConstructionMethod, EmbeddingConfig, FilterConfig, GnnTrainConfig,
    PipelineConfig, TrackBuildResult, TrackMetrics, TrainedPipeline,
};
use trkx_detector::{
    edge_features, simulate_event, vertex_features, DetectorGeometry, Event, EventGraph, GunConfig,
};
use trkx_nn::Bindings;
use trkx_sampling::ShadowConfig;
use trkx_tensor::{EdgePlans, Matrix, Tape};

pub const BATCH: usize = 8;
/// Distinct events the batches are drawn from.
const POOL_EVENTS: usize = 48;
/// Distinct batch compositions the closed loop cycles through.
const DISTINCT_BATCHES: usize = 24;
/// Batches run before the measured loop.
const WARM_BATCHES: usize = 4;
/// The measured loop runs for `--seconds` and at least this many batches,
/// so the p90 always has ten samples beyond it on a slow host.
const MIN_BATCHES: usize = 110;
const TRAIN_EVENTS: usize = 3;
const VAL_EVENTS: usize = 1;
const SETUP_REPS: usize = 3;
/// Batches of the traced comparison: every distinct composition once.
const TRACED_BATCHES: usize = DISTINCT_BATCHES;

/// Events of one seeded family: `n` events whose multiplicities are
/// drawn uniformly from `particles`; `stream` separates independent
/// draws (training, evaluation, requests) under one seed.
pub fn events(seed: u64, stream: u64, n: usize, particles: (usize, usize)) -> Vec<Event> {
    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n)
        .map(|_| {
            let p = rng.gen_range(particles.0..=particles.1);
            simulate_event(&geometry, &gun, p, 0.1, &mut rng)
        })
        .collect()
}

pub const PILEUP: (usize, usize) = (50, 150);

/// Seed of the pipeline's training events and weights. The model is part
/// of the system under test, not of the workload's inputs: every run
/// trains the same one, so `--seed` varies only the events it is given.
const MODEL_SEED: u64 = 2024;

/// Small enough to train three times within set-up (about 4 s each on a
/// 2-core host), trained enough that track building finds real tracks.
fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        embedding: EmbeddingConfig {
            epochs: 8,
            seed,
            ..Default::default()
        },
        filter: FilterConfig {
            epochs: 3,
            seed,
            ..Default::default()
        },
        gnn: GnnTrainConfig {
            hidden: 16,
            gnn_layers: 2,
            epochs: 5,
            batch_size: 128,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 4,
            },
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Child-process entry point: train the pipeline on pileup-family events
/// and save the bundle to `path`.
pub fn train_bundle(path: &Path) -> Result<(), String> {
    let evs = events(MODEL_SEED, 1, TRAIN_EVENTS + VAL_EVENTS, PILEUP);
    let (train, val) = evs.split_at(TRAIN_EVENTS);
    let (pipeline, _) = trkx_core::train_pipeline(pipeline_config(MODEL_SEED), train, val);
    pipeline
        .save_json(path)
        .map_err(|e| format!("save bundle {path:?}: {e}"))
}

/// Train a bundle in a child process (this binary, `--train-bundle`).
pub fn bundle_in_child(args: &Args, name: &str) -> Result<PathBuf, String> {
    let path = args.out.join(name);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--train-bundle")
        .arg(&path)
        .output()
        .map_err(|e| format!("spawn bundle trainer: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "bundle trainer failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(path)
}

struct Setup {
    pipeline: TrainedPipeline,
    pool: Vec<Event>,
    reference: Vec<TrackBuildResult>,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let path = bundle_in_child(args, &format!("reco-bundle-seed{}.json", args.seed))?;
    let pipeline = TrainedPipeline::load_json(&path).map_err(|e| format!("load bundle: {e}"))?;
    let pool = events(args.seed, 2, POOL_EVENTS, PILEUP);
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let reference = pool
        .iter()
        .map(|e| pipeline.reconstruct_with(&mut tape, &mut bind, e))
        .collect();
    Ok(Setup {
        pipeline,
        pool,
        reference,
    })
}

fn same(a: &TrackBuildResult, b: &TrackBuildResult) -> bool {
    a.component_of_hit == b.component_of_hit
        && a.edges_kept == b.edges_kept
        && a.metrics.num_true_tracks == b.metrics.num_true_tracks
        && a.metrics.num_reco_tracks == b.metrics.num_reco_tracks
        && a.metrics.num_matched == b.metrics.num_matched
}

/// Event indices of batch `b`: one of `DISTINCT_BATCHES` seeded draws of
/// `BATCH` distinct pool events. Changing compositions change the union
/// sizes every stage sees, as fresh events would; cycling a bounded set
/// of them bounds the tape pool's per-shape growth (see the memory note)
/// while leaving most of it after warm-up, where `rss_growth_mb` sees it.
fn batch_events(seed: u64, b: usize) -> Vec<usize> {
    let b = (b % DISTINCT_BATCHES) as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ (b + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut idx: Vec<usize> = Vec::with_capacity(BATCH);
    while idx.len() < BATCH {
        let i = rng.gen_range(0..POOL_EVENTS);
        if !idx.contains(&i) {
            idx.push(i);
        }
    }
    idx
}

fn threads_note(p: &mut Provenance) {
    p.threads.push((
        "reco-pileup".into(),
        format!(
            "1 caller thread with kernel pool {} (caller included) = {} busy threads",
            p.kernel_pool, p.kernel_pool
        ),
    ));
}

pub fn run(args: &Args, prov: &mut Provenance, r: &mut Report) -> Result<(), String> {
    threads_note(prov);
    let (s, setup_s) = timed_setup(SETUP_REPS, || setup(args))?;
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let mut ctor = s.pipeline.new_constructor();

    let warm_batches = WARM_BATCHES;
    let mut b = 0usize;
    let mut mismatches = 0usize;
    let mut run_batch = |b: usize, tape: &mut Tape, bind: &mut Bindings| -> (f64, usize) {
        let idx = batch_events(args.seed, b);
        let evs: Vec<&Event> = idx.iter().map(|&i| &s.pool[i]).collect();
        let t = Instant::now();
        let (res, _) = s
            .pipeline
            .reconstruct_batch_pooled(tape, bind, &mut ctor, &evs);
        let dt = t.elapsed().as_secs_f64();
        let bad = res
            .iter()
            .zip(&idx)
            .filter(|(got, &i)| !same(got, &s.reference[i]))
            .count();
        (dt, bad)
    };
    while b < warm_batches {
        mismatches += run_batch(b, &mut tape, &mut bind).1;
        b += 1;
    }
    let warm = mem::read(None)?;

    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut batch_ms = Vec::new();
    while t0.elapsed() < budget || batch_ms.len() < MIN_BATCHES {
        let (dt, bad) = run_batch(b, &mut tape, &mut bind);
        batch_ms.push(dt * 1e3);
        mismatches += bad;
        b += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let m = mem::read(None)?;
    let measured = batch_ms.len();
    r.attempted = (b * BATCH) as u64;
    r.failed = 0;
    r.check(mismatches == 0, || {
        format!("{mismatches} reconstructed events differ from their per-event reconstruct")
    });
    let tail_p = 90.0;
    r.check(
        stats::samples_beyond(measured, tail_p) >= stats::MIN_BEYOND,
        || format!("{measured} batches are too few for a p{tail_p}"),
    );
    let mut tm = TrackMetrics {
        num_true_tracks: 0,
        num_reco_tracks: 0,
        num_matched: 0,
    };
    for res in &s.reference {
        tm.merge(&res.metrics);
    }
    let eps = (measured * BATCH) as f64 / wall;

    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", m.hwm_mb, "MB");
    r.metric("rss_growth_mb", m.hwm_mb - warm.hwm_mb, "MB");
    r.metric("p50_ms", stats::percentile(&batch_ms, 50.0), "ms");
    r.metric("tail_ms", stats::percentile(&batch_ms, tail_p), "ms");
    r.metric("rate_per_s", eps, "1/s");
    r.metric("quality", tm.efficiency(), "ratio");
    r.metric("purity", tm.purity(), "ratio");

    r.named("setup_s", setup_s, "s");
    r.named("peak_rss_mb", m.hwm_mb, "MB");
    r.named("rss_growth_mb", m.hwm_mb - warm.hwm_mb, "MB");
    r.named("reco_events_per_s", eps, "ev/s");
    r.named(
        "reco_batch_p50_ms",
        stats::percentile(&batch_ms, 50.0),
        "ms",
    );
    r.named(
        "reco_batch_p90_ms",
        stats::percentile(&batch_ms, tail_p),
        "ms",
    );
    r.named("track_eff", tm.efficiency(), "ratio");
    r.named("track_purity", tm.purity(), "ratio");
    let hits: usize = s.pool.iter().map(Event::num_hits).sum();
    r.note(format!(
        "{POOL_EVENTS} pileup events ({}..={} particles, {:.0} hits/event mean) drawn into \
         {DISTINCT_BATCHES} distinct batches of {BATCH}, cycled; {warm_batches} warm-up batches, then {measured} measured (at least {MIN_BATCHES}) over \
         {wall:.2}s; track metrics are double-majority over the pool, every batch checked \
         against per-event reconstruct; rss_growth_mb = VmHWM after the run minus after warm-up",
        PILEUP.0,
        PILEUP.1,
        hits as f64 / POOL_EVENTS as f64
    ));
    Ok(())
}

// ---------------------------------------------------------------- traced

/// `reconstruct_batch_pooled`, one public call per span.
fn traced_batch(
    p: &TrainedPipeline,
    pools: &mut Pools,
    events: &[&Event],
    tr: &mut Tracer,
    id: u64,
    counts: &mut Counts,
) -> Vec<TrackBuildResult> {
    let Pools { tape, bind, ctor } = pools;
    let (nf, ef) = (p.config.vertex_features, p.config.edge_features);
    let feats: Vec<Matrix> = tr.span("detector.features", id, || {
        events
            .iter()
            .map(|e| Matrix::from_vec(e.num_hits(), nf, vertex_features(e, nf)))
            .collect()
    });
    let total_hits: usize = feats.iter().map(Matrix::rows).sum();
    let x_union = tr.span("detector.features", id, || {
        let mut xcat = Vec::with_capacity(total_hits * nf);
        for f in &feats {
            xcat.extend_from_slice(f.data());
        }
        Matrix::from_vec(total_hits, nf, xcat)
    });
    let dim = p.config.embedding.dim;
    let emb_all = tr.span("core.embed", id, || {
        p.embedding.embed_with(tape, bind, &x_union)
    });

    let mut node_base = Vec::with_capacity(events.len());
    let (mut cand_src, mut cand_dst) = (Vec::new(), Vec::new());
    let (mut cand_labels, mut ycat) = (Vec::new(), Vec::new());
    let mut edge_range = Vec::with_capacity(events.len());
    let mut base = 0usize;
    for (i, event) in events.iter().enumerate() {
        node_base.push(base);
        let n = feats[i].rows();
        let g = tr.span("graph.construct", id, || {
            let emb = Matrix::from_vec(
                n,
                dim,
                emb_all.data()[base * dim..(base + n) * dim].to_vec(),
            );
            ctor.construct(
                event,
                &emb,
                ConstructionMethod::FixedRadius { radius: p.radius },
            )
        });
        tr.span("detector.features", id, || {
            ycat.extend_from_slice(&edge_features(event, &g.src, &g.dst, ef))
        });
        let start = cand_src.len();
        cand_src.extend(g.src.iter().map(|&s| s + base as u32));
        cand_dst.extend(g.dst.iter().map(|&d| d + base as u32));
        cand_labels.extend_from_slice(&g.labels);
        edge_range.push((start, cand_src.len()));
        base += n;
    }
    counts.candidates += cand_src.len();
    counts.true_candidates += cand_labels.iter().filter(|&&l| l > 0.5).count();
    let y_union = Matrix::from_vec(cand_src.len(), ef, ycat);
    let cand_src = Arc::new(cand_src);
    let cand_dst = Arc::new(cand_dst);
    let kept: Vec<usize> = tr.span("core.filter", id, || {
        let cut = p.filter.logit_cut();
        p.filter
            .logits_arrays_with(
                tape,
                bind,
                &x_union,
                &y_union,
                Arc::clone(&cand_src),
                Arc::clone(&cand_dst),
            )
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > cut)
            .map(|(i, _)| i)
            .collect()
    });
    counts.kept += kept.len();

    let (pruned_src, pruned_dst, pruned_labels, pruned_y, plans) =
        tr.span("core.prune", id, || {
            let kept_ids: Vec<u32> = kept.iter().map(|&i| i as u32).collect();
            let ps: Arc<Vec<u32>> = Arc::new(kept.iter().map(|&i| cand_src[i]).collect());
            let pd: Arc<Vec<u32>> = Arc::new(kept.iter().map(|&i| cand_dst[i]).collect());
            let pl: Vec<f32> = kept.iter().map(|&i| cand_labels[i]).collect();
            let py = y_union.gather_rows(&kept_ids);
            let plans = Arc::new(EdgePlans::new(Arc::clone(&ps), Arc::clone(&pd), total_hits));
            (ps, pd, pl, py, plans)
        });
    let logits: Vec<f32> = tr.span("ignn.forward", id, || {
        tape.reset();
        bind.reset();
        let v = p
            .gnn
            .forward_planned(tape, bind, &x_union, &pruned_y, &plans);
        tape.value(v).data().to_vec()
    });

    tr.span("core.tracks", id, || {
        let mut results = Vec::with_capacity(events.len());
        let mut cursor = 0usize;
        for (i, event) in events.iter().enumerate() {
            let (_, e_end) = edge_range[i];
            let p_start = cursor;
            while cursor < kept.len() && kept[cursor] < e_end {
                cursor += 1;
            }
            let nb = node_base[i] as u32;
            let graph = EventGraph {
                num_nodes: event.num_hits(),
                src: pruned_src[p_start..cursor]
                    .iter()
                    .map(|&s| s - nb)
                    .collect(),
                dst: pruned_dst[p_start..cursor]
                    .iter()
                    .map(|&d| d - nb)
                    .collect(),
                labels: pruned_labels[p_start..cursor].to_vec(),
                x: feats[i].data().to_vec(),
                num_vertex_features: nf,
                y: pruned_y.data()[p_start * ef..cursor * ef].to_vec(),
                num_edge_features: ef,
                event: (*event).clone(),
            };
            results.push(build_tracks(
                &graph,
                &logits[p_start..cursor],
                p.config.track_threshold,
                p.config.min_hits,
            ));
        }
        results
    })
}

/// Pooled inference state, reused across batches as a serve worker does.
struct Pools {
    tape: Tape,
    bind: Bindings,
    ctor: trkx_core::GraphConstructor,
}

#[derive(Default)]
struct Counts {
    candidates: usize,
    true_candidates: usize,
    kept: usize,
}

/// GEMM rate at the IGNN's edge-MLP shape: [m x 3h] * [3h x h].
fn gemm_gflops(edges: usize, hidden: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::randn(edges.max(1), 3 * hidden, 1.0, &mut rng);
    let b = Matrix::randn(3 * hidden, hidden, 1.0, &mut rng);
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(std::hint::black_box(&a).matmul(std::hint::black_box(&b)));
    }
    let flops = 2.0 * a.rows() as f64 * a.cols() as f64 * b.cols() as f64 * reps as f64;
    flops / t.elapsed().as_secs_f64() / 1e9
}

pub fn traced(args: &Args, prov: &mut Provenance, r: &mut Report) -> Result<(), String> {
    threads_note(prov);
    let s = setup(args)?;
    let p = &s.pipeline;
    let mut pools = Pools {
        tape: Tape::new(),
        bind: Bindings::new(),
        ctor: p.new_constructor(),
    };
    let batch_of = |b: usize| -> Vec<&Event> {
        batch_events(args.seed, b)
            .into_iter()
            .map(|i| &s.pool[i])
            .collect()
    };

    // A warm pass (whose outputs are the traced pass's oracle), then the
    // same batches untraced and traced, so both timed passes see warm
    // buffer pools.
    let mut oracle = Vec::new();
    for b in 0..TRACED_BATCHES {
        let (res, _) = p.reconstruct_batch_pooled(
            &mut pools.tape,
            &mut pools.bind,
            &mut pools.ctor,
            &batch_of(b),
        );
        oracle.push(res);
    }
    let mut rss = vec![("warm", mem::read(None)?)];
    let mut untraced_ms = Vec::new();
    for b in 0..TRACED_BATCHES {
        let evs = batch_of(b);
        let t = Instant::now();
        std::hint::black_box(p.reconstruct_batch_pooled(
            &mut pools.tape,
            &mut pools.bind,
            &mut pools.ctor,
            &evs,
        ));
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rss.push(("untraced", mem::read(None)?));

    let origin = Instant::now();
    let mut tr = Tracer::new(origin, "reco");
    let mut counts = Counts::default();
    let mut mismatches = 0usize;
    for (b, want) in oracle.iter().enumerate() {
        let evs = batch_of(b);
        let root = tr.begin("reco.batch", b as u64);
        let got = traced_batch(p, &mut pools, &evs, &mut tr, b as u64, &mut counts);
        tr.end(root);
        mismatches += got.iter().zip(want).filter(|(g, w)| !same(g, w)).count();
    }
    r.check(mismatches == 0, || {
        format!("{mismatches} events differ between the traced stages and reconstruct_batch_pooled")
    });
    r.attempted = (3 * TRACED_BATCHES * BATCH) as u64;
    rss.push(("traced", mem::read(None)?));
    let phases: Vec<String> = rss
        .iter()
        .map(|(name, m)| {
            format!(
                "{{\"phase\":{name:?},\"rss_mb\":{:.1},\"hwm_mb\":{:.1}}}",
                m.rss_mb, m.hwm_mb
            )
        })
        .collect();
    r.section("reco_rss_mb_by_phase", format!("[{}]", phases.join(",")));

    let all = |_: &trace::Span| true;
    let tracers = [tr];
    let tot = trace::totals(&tracers, all);
    let batches = tot.get("reco.batch").map_or(0, |t| t.calls).max(1) as f64;
    let per_batch = |name: &str| {
        tot.get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6 / batches)
    };
    let coverage = trace::coverage(&tracers, "reco.batch", all);
    r.check(coverage >= 0.9, || {
        format!(
            "reco-pileup layer self times cover only {:.1}% of batch wall time",
            coverage * 100.0
        )
    });
    let traced_ms: Vec<f64> = tracers[0]
        .spans
        .iter()
        .filter(|sp| sp.name == "reco.batch")
        .map(|sp| sp.dur_ns() as f64 / 1e6)
        .collect();
    let n = TRACED_BATCHES as f64;
    let gflops = gemm_gflops((counts.kept as f64 / n) as usize, p.config.gnn.hidden);

    r.metric(
        "reco.detector.features_ms",
        per_batch("detector.features"),
        "ms",
    );
    r.metric("reco.core.embed_ms", per_batch("core.embed"), "ms");
    r.metric(
        "reco.graph.construct_ms",
        per_batch("graph.construct"),
        "ms",
    );
    r.metric(
        "reco.graph.construct_edges",
        counts.candidates as f64 / n,
        "count",
    );
    r.metric(
        "reco.graph.construct_purity",
        counts.true_candidates as f64 / counts.candidates.max(1) as f64,
        "ratio",
    );
    r.metric("reco.core.filter_ms", per_batch("core.filter"), "ms");
    r.metric(
        "reco.core.filter_keep_frac",
        counts.kept as f64 / counts.candidates.max(1) as f64,
        "ratio",
    );
    r.metric("reco.core.prune_ms", per_batch("core.prune"), "ms");
    r.metric("reco.ignn.forward_ms", per_batch("ignn.forward"), "ms");
    r.metric("reco.core.tracks_ms", per_batch("core.tracks"), "ms");
    r.metric("reco.tensor.gemm_gflops", gflops, "GFLOP/s");
    r.metric(
        "reco.trace_overhead_frac",
        stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0,
        "ratio",
    );
    r.metric("reco.span_coverage", coverage, "ratio");
    r.note(format!(
        "reco-pileup traced: {TRACED_BATCHES} batches run warm, untraced, then traced; traced \
         outputs identical to reconstruct_batch_pooled; gemm probe at the GNN's \
         edge-MLP shape [{} x {}] x [{} x {}]",
        counts.kept / TRACED_BATCHES,
        3 * p.config.gnn.hidden,
        3 * p.config.gnn.hidden,
        p.config.gnn.hidden
    ));
    std::fs::write(
        args.out
            .join(format!("trace-reco-pileup-seed{}.json", args.seed)),
        trace::to_json(&tracers),
    )
    .map_err(|e| format!("write trace: {e}"))?;
    Ok(())
}
