//! `train-ctd`: closed-loop GNN-stage minibatch training on CTD-like
//! graphs through `train_minibatch_opts` (bulk ShaDow k=4, batch 64, d=2,
//! s=4, h=32, L=4, two threaded DDP ranks with coalesced all-reduce, Sync
//! batching, kernel pool of 1).
//!
//! The traced variant re-runs the same schedule through the public
//! pieces the trainer is built from (`vertex_batches`, `plan_chunks`,
//! `ShardChunks`, `Sampler::sample_bulk`, `PreparedGraph::subgraph_matrices`,
//! `EdgePlans::new`, `EpochCtx::forward_backward`/`update_with`,
//! `AllReducer::sync_gradients`, `evaluate_with`) with a span around each
//! call, and checks that its per-epoch losses equal the trainer's bit for
//! bit.

use crate::report::{Provenance, Report};
use crate::trace::{self, Tracer};
use crate::{mem, stats, timed_setup, Args};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trkx_core::train::{
    plan_chunks, BatchingMode, EpochCtx, EpochReport, EpochStats, Hook, HookCtx, ShardChunks,
    TrainLoop, TrainStep, ValMetrics,
};
use trkx_core::{
    evaluate_with, prepare_graphs, train_minibatch_opts, GnnTrainConfig, PreparedGraph, SamplerKind,
};
use trkx_ddp::{run_workers, AllReduceStrategy, AllReducer, DdpConfig};
use trkx_detector::DatasetConfig;
use trkx_ignn::InteractionGnn;
use trkx_nn::{bce_with_logits, Adam, Bindings, Param};
use trkx_sampling::{vertex_batches, Sampler, ShadowConfig};
use trkx_tensor::{EdgePlans, Tape};

/// CTD-like family scale: ~1.1k hits and ~23k candidate edges per event
/// (about 20 edges per vertex, 14 vertex / 8 edge features).
const SCALE: f64 = 0.0017;
const TRAIN_EVENTS: usize = 4;
const VAL_EVENTS: usize = 4;
const RANKS: usize = 2;
const BULK_K: usize = 4;
const SETUP_REPS: usize = 5;
/// Epochs per run, the first a warm-up. Fixed rather than derived from
/// `--seconds`: the tape pool grows ~1 GB per epoch here, and a fixed
/// count keeps a run's work (so its final F1) independent of timing.
/// Four measured epochs give at least 4 x 32 steps, enough for a p90
/// with ten samples beyond it at any seed's event sizes.
const EPOCHS: usize = 5;
/// Epochs of the traced comparison (each runs untraced and traced).
const TRACED_EPOCHS: usize = 3;

pub struct Setup {
    train: Vec<PreparedGraph>,
    val: Vec<PreparedGraph>,
    train_vertices: usize,
    edges_per_vertex: f64,
    pos_weight: f32,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let ds = DatasetConfig::ctd_like(SCALE);
    let graphs = ds.generate(TRAIN_EVENTS + VAL_EVENTS, seed);
    let (train, val) = graphs.split_at(TRAIN_EVENTS);
    let train = prepare_graphs(train);
    let val = prepare_graphs(val);
    let train_vertices: usize = train.iter().map(|g| g.num_nodes).sum();
    let edges: usize = train.iter().map(|g| g.num_edges()).sum();
    // The trainer's own label-balance rule, fixed here so the traced
    // loop uses the identical weight.
    let pos: f64 = train
        .iter()
        .map(|g| g.labels.iter().filter(|&&l| l > 0.5).count() as f64)
        .sum();
    let neg = (edges as f64 - pos).max(1.0);
    let pos_weight = ((neg / pos.max(1.0)) as f32).clamp(1.0, 20.0);
    Ok(Setup {
        train,
        val,
        train_vertices,
        edges_per_vertex: edges as f64 / train_vertices.max(1) as f64,
        pos_weight,
    })
}

fn config(seed: u64, epochs: usize, pos_weight: f32) -> GnnTrainConfig {
    GnnTrainConfig {
        hidden: 32,
        gnn_layers: 4,
        mlp_depth: DatasetConfig::ctd_like(SCALE).mlp_layers,
        epochs,
        batch_size: 64,
        learning_rate: 1e-3,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 4,
        },
        threshold: 0.5,
        pos_weight: Some(pos_weight),
        seed,
    }
}

fn ddp() -> DdpConfig {
    DdpConfig::new(RANKS, AllReduceStrategy::Coalesced)
}

/// Rank-0 epoch and step clock, read from trainer hooks.
#[derive(Default)]
struct Clock {
    epoch_start: Vec<Instant>,
    epoch_end: Vec<Instant>,
    /// Per epoch, the instant each optimizer step ended.
    step_end: Vec<Vec<Instant>>,
    rss_mb: Vec<f64>,
    hwm_mb: Vec<f64>,
    losses: Vec<f32>,
    val: Vec<(f64, f64)>,
}

impl Clock {
    fn epoch_s(&self) -> Vec<f64> {
        self.epoch_start
            .iter()
            .zip(&self.epoch_end)
            .map(|(s, e)| (*e - *s).as_secs_f64())
            .collect()
    }

    /// Step wall times (ms) of epochs `from..`.
    fn step_ms(&self, from: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for e in from..self.step_end.len() {
            let mut prev = self.epoch_start[e];
            for &t in &self.step_end[e] {
                out.push((t - prev).as_secs_f64() * 1e3);
                prev = t;
            }
        }
        out
    }
}

struct ClockHook(Arc<Mutex<Clock>>);

impl Hook for ClockHook {
    fn on_epoch_start(&mut self, _epoch: usize, _ctx: &mut HookCtx) {
        let mut c = self.0.lock().expect("clock lock");
        c.epoch_start.push(Instant::now());
        c.step_end.push(Vec::new());
    }

    fn on_step_end(&mut self, _epoch: usize, _step: usize, _loss: f32) {
        let now = Instant::now();
        let mut c = self.0.lock().expect("clock lock");
        c.step_end.last_mut().expect("epoch started").push(now);
    }

    fn on_epoch_end(
        &mut self,
        report: &EpochReport,
        _ctx: &mut HookCtx,
    ) -> trkx_core::train::Control {
        let now = Instant::now();
        let m = mem::read(None).ok();
        let mut c = self.0.lock().expect("clock lock");
        c.epoch_end.push(now);
        c.rss_mb.push(m.map_or(f64::NAN, |m| m.rss_mb));
        c.hwm_mb.push(m.map_or(f64::NAN, |m| m.hwm_mb));
        c.losses.push(report.train_loss);
        c.val.push((report.val_precision, report.val_recall));
        trkx_core::train::Control::Continue
    }
}

/// Per-rank hook stacks: a clock on rank 0 only. Attaching hooks makes
/// the trainer validate on every rank (its lockstep rule for metric-driven
/// hooks); the traced loop does the same so both runs do equal work.
fn clock_hooks(clock: &Arc<Mutex<Clock>>) -> impl Fn(usize) -> Vec<Box<dyn Hook>> + Sync {
    let clock = Arc::clone(clock);
    move |rank| {
        if rank == 0 {
            vec![Box::new(ClockHook(Arc::clone(&clock))) as Box<dyn Hook>]
        } else {
            Vec::new()
        }
    }
}

/// One untraced training run; returns the rank-0 clock.
fn train_untraced(s: &Setup, seed: u64, epochs: usize) -> Clock {
    let cfg = config(seed, epochs, s.pos_weight);
    let clock = Arc::new(Mutex::new(Clock::default()));
    let hooks = clock_hooks(&clock);
    let result = train_minibatch_opts(
        &cfg,
        SamplerKind::Bulk { k: BULK_K },
        BatchingMode::Sync,
        ddp(),
        &s.train,
        &s.val,
        Some(&hooks),
    );
    drop(result);
    drop(hooks);
    Arc::try_unwrap(clock)
        .ok()
        .expect("hooks dropped with the trainer")
        .into_inner()
        .expect("clock lock")
}

fn threads_note(p: &mut Provenance) {
    p.threads.push((
        "train-ctd".into(),
        format!(
            "{RANKS} DDP rank threads x kernel pool {} = {} busy threads",
            p.kernel_pool,
            RANKS * p.kernel_pool
        ),
    ));
}

fn memory_note(r: &mut Report) {
    r.note(
        "known defect: the tape BufferPool buckets buffers by exact length, so sampled \
         minibatches (a new shape every step) are never recycled and RSS grows every epoch; \
         run length, batch size and sampler depth are the workload's own, not chosen to hide it",
    );
}

fn series_json(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
    format!("[{}]", parts.join(","))
}

pub fn run(args: &Args, prov: &mut Provenance, r: &mut Report) -> Result<(), String> {
    threads_note(prov);
    let (s, setup_s) = timed_setup(SETUP_REPS, || setup(args.seed))?;
    let epochs = EPOCHS;
    let clock = train_untraced(&s, args.seed, epochs);
    let peak = mem::read(None)?.hwm_mb;

    let epoch_s = clock.epoch_s();
    r.check(epoch_s.len() == epochs, || {
        format!("trained {} epochs, expected {epochs}", epoch_s.len())
    });
    r.check(clock.losses.iter().all(|l| l.is_finite()), || {
        format!("non-finite training loss in {:?}", clock.losses)
    });
    let (prec, rec) = *clock.val.last().ok_or("no epochs")?;
    let f1 = if prec + rec > 0.0 {
        2.0 * prec * rec / (prec + rec)
    } else {
        0.0
    };
    r.check(f1.is_finite() && f1 > 0.0, || {
        format!("validation F1 {f1} after {epochs} epochs")
    });
    let steady = &epoch_s[1..];
    let epoch_med = stats::median(steady);
    let step_ms = clock.step_ms(1);
    let (p50, tail_p) = (50.0, 90.0);
    r.check(
        stats::samples_beyond(step_ms.len(), tail_p) >= stats::MIN_BEYOND,
        || format!("{} steps are too few for a p{tail_p}", step_ms.len()),
    );
    // Growth of the resident peak after the warm-up epoch: the allocator
    // may hand freed pages back at any moment, so the end-of-run RSS
    // reading is noisier than the peak the growth reached.
    let growth = clock.hwm_mb.last().copied().unwrap_or(f64::NAN) - clock.hwm_mb[0];
    let steps: usize = clock.step_end.iter().map(Vec::len).sum();
    r.attempted = steps as u64;

    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak, "MB");
    r.metric("rss_growth_mb", growth, "MB");
    r.metric("p50_ms", stats::percentile(&step_ms, p50), "ms");
    r.metric("tail_ms", stats::percentile(&step_ms, tail_p), "ms");
    r.metric("rate_per_s", s.train_vertices as f64 / epoch_med, "1/s");
    r.metric("quality", f1, "ratio");
    r.metric("purity", prec, "ratio");

    r.named("setup_s", setup_s, "s");
    r.named("peak_rss_mb", peak, "MB");
    r.named("rss_growth_mb", growth, "MB");
    r.named("epoch_s", epoch_med, "s");
    r.named("val_edge_f1", f1, "ratio");
    r.named("val_edge_precision", prec, "ratio");
    r.named("train.step_p50_ms", stats::percentile(&step_ms, p50), "ms");
    r.named(
        "train.step_p90_ms",
        stats::percentile(&step_ms, tail_p),
        "ms",
    );
    r.named(
        "train_vertices_per_s",
        s.train_vertices as f64 / epoch_med,
        "1/s",
    );
    r.note(format!(
        "{TRAIN_EVENTS} train + {VAL_EVENTS} val CTD-like(x{SCALE}) events, {} train vertices, \
         {:.1} edges/vertex; {epochs} epochs, first excluded from epoch_s and step times; \
         rss_growth_mb = VmHWM after the last epoch minus VmHWM after epoch 0",
        s.train_vertices, s.edges_per_vertex
    ));
    memory_note(r);
    r.section("rss_mb_by_epoch", series_json(&clock.rss_mb));
    r.section("hwm_mb_by_epoch", series_json(&clock.hwm_mb));
    r.section("epoch_s", series_json(&epoch_s));
    Ok(())
}

// ---------------------------------------------------------------- traced

/// The trainer's per-epoch schedule, rebuilt from `vertex_batches` with
/// the trainer's seed expression (the loss check proves they agree).
fn schedule(
    train: &[PreparedGraph],
    batch: usize,
    seed: u64,
    epoch: usize,
) -> Vec<(usize, Vec<u32>)> {
    let mut out = Vec::new();
    for (gi, g) in train.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (epoch as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ (gi as u64) << 32,
        );
        for b in vertex_batches(g.num_nodes, batch, &mut rng) {
            out.push((gi, b));
        }
    }
    out
}

struct Batch {
    x: trkx_tensor::Matrix,
    y: trkx_tensor::Matrix,
    labels: Vec<f32>,
    plans: Arc<EdgePlans>,
}

/// Step id of a span: epoch in the high half, step in the low half.
fn step_id(epoch: usize, step: usize) -> u64 {
    (epoch as u64) << 32 | step as u64
}

struct TracedRank<'a> {
    rank: usize,
    model: InteractionGnn,
    cfg: &'a GnnTrainConfig,
    sampler: &'a dyn Sampler,
    reducer: &'a AllReducer,
    train: &'a [PreparedGraph],
    val: &'a [PreparedGraph],
    pos_weight: f32,
    tracer: Tracer,
    val_tape: Tape,
    val_bind: Bindings,
    edges: Vec<usize>,
}

impl TrainStep for TracedRank<'_> {
    fn train_epoch(&mut self, epoch: usize, ctx: &mut EpochCtx) -> EpochStats {
        let sched = schedule(self.train, self.cfg.batch_size, self.cfg.seed, epoch);
        let chunks = plan_chunks(&sched, BULK_K, self.cfg.seed, epoch);
        let mut chunks = ShardChunks::new(chunks.into_iter(), self.rank, RANKS);
        let mut ready: VecDeque<Batch> = VecDeque::new();
        let mut loss_sum = 0.0f32;
        loop {
            let id = step_id(epoch, ctx.steps());
            let step = self.tracer.begin("train.step", id);
            if ready.is_empty() {
                let Some(chunk) = chunks.next() else {
                    self.tracer.discard(step);
                    break;
                };
                let g = &self.train[chunk.graph];
                let (sampler, tracer) = (self.sampler, &mut self.tracer);
                let sgs = tracer.span("sampling.sample", id, || {
                    sampler.sample_bulk(&g.sampler, &chunk.batches, chunk.seed)
                });
                for sg in sgs {
                    self.edges.push(sg.sub_src.len());
                    let b = self.tracer.span("core.gather", id, || {
                        let (x, y, labels) = g.subgraph_matrices(&sg);
                        let src = Arc::new(sg.sub_src.clone());
                        let dst = Arc::new(sg.sub_dst.clone());
                        let plans = Arc::new(EdgePlans::new(src, dst, x.rows()));
                        Batch {
                            x,
                            y,
                            labels,
                            plans,
                        }
                    });
                    ready.push_back(b);
                }
            }
            let b = ready
                .pop_front()
                .expect("a chunk yields one batch per schedule entry");
            let (model, tracer, pw) = (&self.model, &mut self.tracer, self.pos_weight);
            let fb = tracer.begin("tensor.backward", id);
            loss_sum += ctx.forward_backward(|tape, bind| {
                if b.labels.is_empty() {
                    return None;
                }
                let f = tracer.begin("ignn.forward", id);
                let logits = model.forward_planned(tape, bind, &b.x, &b.y, &b.plans);
                let loss = bce_with_logits(tape, logits, &b.labels, pw);
                tracer.end(f);
                Some(loss)
            });
            tracer.end(fb);
            let opt = tracer.begin("nn.optim", id);
            let (reducer, rank) = (self.reducer, self.rank);
            ctx.update_with(&mut self.model.params_mut(), |params| {
                tracer.span("ddp.allreduce", id, || {
                    reducer.sync_gradients(rank, params, AllReduceStrategy::Coalesced)
                })
            });
            tracer.end(opt);
            tracer.end(step);
        }
        EpochStats {
            loss_sum,
            loss_denom: ctx.steps(),
            steps: ctx.steps(),
            ..Default::default()
        }
    }

    fn validate(&mut self, epoch: usize) -> Option<ValMetrics> {
        let (tape, bind, model, val, thr) = (
            &mut self.val_tape,
            &mut self.val_bind,
            &self.model,
            self.val,
            self.cfg.threshold,
        );
        let st = self.tracer.span("core.validate", epoch as u64, || {
            evaluate_with(tape, bind, model, val, thr)
        });
        Some(ValMetrics {
            precision: st.precision(),
            recall: st.recall(),
        })
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.model.params_mut()
    }
}

pub fn traced(args: &Args, prov: &mut Provenance, r: &mut Report) -> Result<(), String> {
    threads_note(prov);
    let s = setup(args.seed)?;
    let epochs = TRACED_EPOCHS;
    let untraced = train_untraced(&s, args.seed, epochs);
    let rss_before = mem::read(None)?.rss_mb;

    let cfg = config(args.seed, epochs, s.pos_weight);
    let (nf, ef) = (s.train[0].x.cols(), s.train[0].y.cols());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let init = InteractionGnn::new(cfg.ignn_config(nf, ef), &mut rng);
    let sampler = SamplerKind::Bulk { k: BULK_K }.build(cfg.shadow);
    let reducer = AllReducer::new(RANKS, ddp().cost_model);
    let origin = Instant::now();
    let clock = Arc::new(Mutex::new(Clock::default()));
    let hooks = clock_hooks(&clock);
    let ranks = run_workers(RANKS, |rank| {
        let mut step = TracedRank {
            rank,
            model: init.clone(),
            cfg: &cfg,
            sampler: &*sampler,
            reducer: &reducer,
            train: &s.train,
            val: &s.val,
            pos_weight: s.pos_weight,
            tracer: Tracer::new(origin, format!("ctd-rank{rank}")),
            val_tape: Tape::new(),
            val_bind: Bindings::new(),
            edges: Vec::new(),
        };
        let reports = TrainLoop::new(Adam::new(cfg.learning_rate), cfg.epochs)
            .with_hooks(hooks(rank))
            .run(&mut step);
        (step.tracer, step.edges, reports)
    });
    drop(hooks);
    let traced_clock = Arc::try_unwrap(clock)
        .ok()
        .expect("hooks dropped")
        .into_inner()
        .expect("clock lock");

    // Bit-for-bit loss parity with the trainer, epoch by epoch.
    let traced_losses: Vec<f32> = ranks[0].2.iter().map(|e| e.train_loss).collect();
    r.check(
        traced_losses.len() == untraced.losses.len()
            && traced_losses
                .iter()
                .zip(&untraced.losses)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        || {
            format!(
                "train-ctd traced losses {traced_losses:?} differ from the trainer's {:?}",
                untraced.losses
            )
        },
    );
    r.check(traced_losses.iter().all(|l| l.is_finite()), || {
        format!("non-finite traced loss {traced_losses:?}")
    });

    r.attempted = 2 * traced_clock.step_end.iter().map(Vec::len).sum::<usize>() as u64;
    // Per-layer self times over steady epochs (epoch 0 excluded).
    let mut tracers: Vec<Tracer> = Vec::new();
    let mut edges: Vec<usize> = Vec::new();
    for (t, e, _) in ranks {
        tracers.push(t);
        edges.extend(e);
    }
    // Steady epochs only: epoch 0 warms the pools.
    let steady = |sp: &trace::Span| sp.name == "core.validate" || sp.id >> 32 >= 1;
    let tot = trace::totals(&tracers, steady);
    let steps = tot.get("train.step").map_or(0, |t| t.calls) as f64;
    let per_step = |name: &str| {
        tot.get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6 / steps.max(1.0))
    };
    let coverage = trace::coverage(&tracers, "train.step", steady);
    r.check(coverage >= 0.9, || {
        format!(
            "train-ctd layer self times cover only {:.1}% of step wall time",
            coverage * 100.0
        )
    });
    let step_ms: Vec<f64> = tracers[0]
        .spans
        .iter()
        .filter(|sp| sp.name == "train.step" && steady(sp))
        .map(|sp| sp.dur_ns() as f64 / 1e6)
        .collect();
    let calls_per_step = {
        let calls = reducer.num_calls() as f64;
        // Both the untraced run and the traced run used separate
        // reducers; this one saw only the traced run's steps (all epochs).
        let all_steps: usize = traced_clock.step_end.iter().map(Vec::len).sum();
        calls / all_steps.max(1) as f64
    };
    let param_bytes: usize = init.params().iter().map(|p| p.numel() * 4).sum();
    let validations = tot.get("core.validate").map_or(1, |t| t.calls) as f64;
    let t_epoch = stats::median(&traced_clock.epoch_s()[1..]);
    let u_epoch = stats::median(&untraced.epoch_s()[1..]);
    let rss = &traced_clock.rss_mb;
    let rss_slope = (rss[rss.len() - 1] - rss[0]) / (rss.len() - 1).max(1) as f64;

    r.metric("ctd.sampling.sample_ms", per_step("sampling.sample"), "ms");
    r.metric(
        "ctd.sampling.subgraph_edges",
        stats::mean(&edges.iter().map(|&e| e as f64).collect::<Vec<_>>()),
        "count",
    );
    r.metric("ctd.core.gather_ms", per_step("core.gather"), "ms");
    r.metric("ctd.ignn.forward_ms", per_step("ignn.forward"), "ms");
    r.metric("ctd.tensor.backward_ms", per_step("tensor.backward"), "ms");
    r.metric("ctd.ddp.allreduce_ms", per_step("ddp.allreduce"), "ms");
    r.metric("ctd.ddp.allreduce_calls", calls_per_step, "count");
    r.metric("ctd.ddp.allreduce_bytes", param_bytes as f64, "bytes");
    r.metric("ctd.nn.optim_ms", per_step("nn.optim"), "ms");
    r.metric(
        "ctd.core.validate_ms",
        tot.get("core.validate")
            .map_or(0.0, |t| t.self_ns as f64 / 1e6)
            / validations,
        "ms",
    );
    r.metric(
        "ctd.train.step_p50_ms",
        stats::percentile(&step_ms, 50.0),
        "ms",
    );
    r.metric(
        "ctd.train.step_p90_ms",
        stats::percentile(&step_ms, 90.0),
        "ms",
    );
    r.metric("ctd.train.rss_mb_by_epoch", rss_slope, "MB/epoch");
    r.metric("ctd.trace_overhead_frac", t_epoch / u_epoch - 1.0, "ratio");
    r.metric("ctd.span_coverage", coverage, "ratio");
    r.note(format!(
        "train-ctd traced: {epochs} epochs untraced then traced, losses bit-identical; \
         epoch {u_epoch:.3}s untraced vs {t_epoch:.3}s traced; RSS {rss_before:.0} MB before the \
         traced loop"
    ));
    memory_note(r);
    r.section("ctd_rss_mb_by_epoch", series_json(rss));
    std::fs::write(
        args.out
            .join(format!("trace-train-ctd-seed{}.json", args.seed)),
        trace::to_json(&tracers),
    )
    .map_err(|e| format!("write trace: {e}"))?;
    Ok(())
}
