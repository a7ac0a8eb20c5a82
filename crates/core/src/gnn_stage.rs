//! Stage 4: Interaction-GNN edge classification — full-graph training
//! (the original Exa.TrkX approach, with OOM-skip emulation), minibatch
//! ShaDow training with the PyG-style baseline sampler, and minibatch
//! training with matrix-based bulk sampling plus coalesced all-reduce
//! (the paper's contributions). Produces the per-epoch convergence curves
//! of Figure 4 and the epoch-time breakdowns of Figure 3.
//!
//! All of these, plus Hogwild, are one training loop that differs only in
//! where batches come from and how gradients are synchronised: a single
//! rank-step driver run by the executor in [`DdpConfig::executor`].

use crate::train::{
    plan_chunks, with_batch_source, BatchSource, BatchingMode, EpochCtx, EpochReport, EpochStats,
    FullGraphSource, HogwildShared, Hook, SampledBatchSource, ShardChunks, TrainLoop, TrainStep,
    ValMetrics,
};
use rand::{rngs::StdRng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use trkx_ddp::{
    run_workers, AllReduceStrategy, AllReducer, BucketScheduler, CommLink, DdpConfig, EpochTiming,
    Executor,
};
use trkx_detector::EventGraph;
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{bce_with_logits, Adam, BinaryStats, Bindings, BucketLayout, Param, Sgd};
use trkx_sampling::{
    vertex_batches, BulkShadowSampler, SampledSubgraph, Sampler, SamplerGraph, ShadowConfig,
    ShadowSampler,
};
use trkx_tensor::{EdgePlans, Matrix, Tape};

/// An event graph converted to training-ready matrices plus the sampler
/// view of its adjacency. Built once, reused every epoch.
pub struct PreparedGraph {
    pub num_nodes: usize,
    pub x: Matrix,
    pub y: Matrix,
    pub src: Arc<Vec<u32>>,
    pub dst: Arc<Vec<u32>>,
    pub labels: Vec<f32>,
    pub sampler: SamplerGraph,
    /// Edge plans for the full graph's adjacency, built once here and
    /// reused by every full-graph forward pass (training and inference).
    pub plans: Arc<EdgePlans>,
}

impl PreparedGraph {
    /// Assemble from already-built matrices and index arrays; the edge
    /// plans are derived here so every constructor path caches them.
    pub fn new(
        num_nodes: usize,
        x: Matrix,
        y: Matrix,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        labels: Vec<f32>,
        sampler: SamplerGraph,
    ) -> Self {
        let plans = Arc::new(EdgePlans::new(src.clone(), dst.clone(), num_nodes));
        Self {
            num_nodes,
            x,
            y,
            src,
            dst,
            labels,
            sampler,
            plans,
        }
    }

    pub fn from_event_graph(g: &EventGraph) -> Self {
        let sampler = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
        Self::from_event_graph_with_sampler(g, sampler)
    }

    /// Assemble with a caller-built sampler view — the out-of-core path:
    /// node/edge feature matrices stay in RAM (they are streamed row-wise
    /// by batch gather), while `sampler` reads its adjacency through
    /// whatever [`trkx_sparse::RowStore`]s it was constructed over, e.g.
    /// a pair of on-disk [`trkx_sparse::ShardedCsr`] stores.
    pub fn from_event_graph_with_sampler(g: &EventGraph, sampler: SamplerGraph) -> Self {
        assert_eq!(sampler.num_nodes, g.num_nodes, "sampler/event node count");
        let x = Matrix::from_vec(g.num_nodes, g.num_vertex_features, g.x.clone());
        let y = Matrix::from_vec(g.num_edges(), g.num_edge_features, g.y.clone());
        Self::new(
            g.num_nodes,
            x,
            y,
            Arc::new(g.src.clone()),
            Arc::new(g.dst.clone()),
            g.labels.clone(),
            sampler,
        )
    }

    pub fn num_edges(&self) -> usize {
        self.labels.len()
    }

    /// Gather the sub-matrices a sampled subgraph trains on.
    pub fn subgraph_matrices(&self, sg: &SampledSubgraph) -> (Matrix, Matrix, Vec<f32>) {
        let x_sub = self.x.gather_rows(&sg.node_map);
        let y_sub = self.y.gather_rows(&sg.orig_edge_ids);
        let labels: Vec<f32> = sg
            .orig_edge_ids
            .iter()
            .map(|&id| self.labels[id as usize])
            .collect();
        (x_sub, y_sub, labels)
    }
}

/// Convert a dataset slice.
pub fn prepare_graphs(graphs: &[EventGraph]) -> Vec<PreparedGraph> {
    graphs.iter().map(PreparedGraph::from_event_graph).collect()
}

/// Out-of-core variant of [`prepare_graphs`]: each event's two adjacency
/// orientations are spilled to sharded files under `dir` (never built in
/// core) and read back through per-store LRU caches holding
/// `cache_shards` shards each. Sampling reads fault shards on demand —
/// off the critical path when prefetch mode is on, since the prefetch
/// thread does the faulting — and the sampled subgraphs, hence the loss
/// curves, are bit-identical to the in-core path.
pub fn prepare_graphs_sharded(
    graphs: &[EventGraph],
    dir: &std::path::Path,
    shard_nodes: usize,
    cache_shards: usize,
) -> std::io::Result<Vec<PreparedGraph>> {
    graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let spec =
                trkx_detector::spill_event_adjacency(g, dir, &format!("event{i}"), shard_nodes)?;
            let open = |p: &std::path::Path| {
                trkx_sparse::ShardedCsr::<u32>::open(p, cache_shards).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })
            };
            let sampler = SamplerGraph::from_stores(
                g.num_nodes,
                Arc::new(open(&spec.directed)?),
                Arc::new(open(&spec.undirected)?),
            );
            Ok(PreparedGraph::from_event_graph_with_sampler(g, sampler))
        })
        .collect()
}

/// Aggregate shard-cache counters across the training graphs' sampler
/// views. `None` when every adjacency is in-core (no counters exist), so
/// telemetry only grows a `shard_cache` field on sharded runs; counters
/// are cumulative since each store was opened.
fn shard_cache_stats(train: &[PreparedGraph]) -> Option<crate::train::ShardCacheStats> {
    let mut total: Option<trkx_sparse::CacheCounters> = None;
    for g in train {
        if let Some(c) = g.sampler.cache_counters() {
            let t = total.get_or_insert_with(trkx_sparse::CacheCounters::default);
            *t = t.merged(c);
        }
    }
    total.map(Into::into)
}

/// Which minibatch sampler implementation to use (Fig. 3/4 compare them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SamplerKind {
    /// Per-batch sequential ShaDow (the PyG-implementation baseline).
    Baseline,
    /// Matrix-based bulk ShaDow, sampling `k` minibatches per call.
    Bulk { k: usize },
}

impl SamplerKind {
    /// Number of schedule batches sampled per `sample_bulk` call.
    pub fn chunk_size(&self) -> usize {
        match self {
            SamplerKind::Baseline => 1,
            SamplerKind::Bulk { k } => (*k).max(1),
        }
    }

    /// Build the sampler implementation behind the unified trait.
    pub fn build(&self, shadow: ShadowConfig) -> Box<dyn Sampler> {
        match self {
            SamplerKind::Baseline => Box::new(ShadowSampler::new(shadow)),
            SamplerKind::Bulk { .. } => Box::new(BulkShadowSampler::new(shadow)),
        }
    }
}

/// GNN-stage hyperparameters (paper §IV-A: batch 256, hidden 64, 30
/// epochs, d = 3, s = 6, 8 GNN layers).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GnnTrainConfig {
    pub hidden: usize,
    pub gnn_layers: usize,
    pub mlp_depth: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub shadow: ShadowConfig,
    /// Classification threshold for validation metrics.
    pub threshold: f32,
    /// Positive-class weight; `None` = derive from label balance.
    pub pos_weight: Option<f32>,
    pub seed: u64,
}

impl Default for GnnTrainConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            gnn_layers: 8,
            mlp_depth: 2,
            epochs: 30,
            batch_size: 256,
            learning_rate: 1e-3,
            shadow: ShadowConfig {
                depth: 3,
                fanout: 6,
            },
            threshold: 0.5,
            pos_weight: None,
            seed: 0,
        }
    }
}

impl GnnTrainConfig {
    pub fn ignn_config(&self, node_features: usize, edge_features: usize) -> IgnnConfig {
        IgnnConfig::new(node_features, edge_features)
            .with_hidden(self.hidden)
            .with_gnn_layers(self.gnn_layers)
            .with_mlp_depth(self.mlp_depth)
    }

    fn derive_pos_weight(&self, graphs: &[PreparedGraph]) -> f32 {
        if let Some(w) = self.pos_weight {
            return w;
        }
        let pos: f64 = graphs
            .iter()
            .map(|g| g.labels.iter().filter(|&&l| l > 0.5).count() as f64)
            .sum();
        let total: f64 = graphs.iter().map(|g| g.labels.len() as f64).sum();
        let neg = (total - pos).max(1.0);
        ((neg / pos.max(1.0)) as f32).clamp(1.0, 20.0)
    }
}

/// Outcome of a training run.
pub struct TrainResult {
    pub model: InteractionGnn,
    pub epochs: Vec<EpochReport>,
    /// Full-graph training only: events skipped by the activation-memory
    /// budget (the paper's skip-too-large-graphs behaviour).
    pub skipped_graphs: usize,
}

/// Run full-graph inference, returning per-edge logits.
pub fn infer_logits(model: &InteractionGnn, g: &PreparedGraph) -> Vec<f32> {
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    infer_logits_with(&mut tape, &mut bind, model, g)
}

/// [`infer_logits`] against a caller-pooled tape/bindings pair, so
/// repeated inference recycles buffers instead of allocating fresh ones.
pub fn infer_logits_with(
    tape: &mut Tape,
    bind: &mut Bindings,
    model: &InteractionGnn,
    g: &PreparedGraph,
) -> Vec<f32> {
    tape.reset();
    bind.reset();
    let logits = model.forward_planned(tape, bind, &g.x, &g.y, &g.plans);
    tape.value(logits).data().to_vec()
}

/// Edge-classification metrics of `model` over `graphs`.
pub fn evaluate(model: &InteractionGnn, graphs: &[PreparedGraph], threshold: f32) -> BinaryStats {
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    evaluate_with(&mut tape, &mut bind, model, graphs, threshold)
}

/// [`evaluate`] against a caller-pooled tape/bindings pair (one tape
/// serves all graphs; epoch-end validation reuses the same buffers).
pub fn evaluate_with(
    tape: &mut Tape,
    bind: &mut Bindings,
    model: &InteractionGnn,
    graphs: &[PreparedGraph],
    threshold: f32,
) -> BinaryStats {
    let mut stats = BinaryStats::default();
    for g in graphs {
        let logits = infer_logits_with(tape, bind, model, g);
        stats.merge(&BinaryStats::from_logits(&logits, &g.labels, threshold));
    }
    stats
}

/// Full-graph training (the original Exa.TrkX baseline): each training
/// step feeds one entire event graph; graphs whose estimated activation
/// footprint exceeds `activation_budget_floats` are skipped, shrinking
/// the effective training set exactly as on a memory-limited GPU. Runs
/// the rank-step driver at one rank over a [`FullGraphSource`].
pub fn train_full_graph(
    cfg: &GnnTrainConfig,
    train: &[PreparedGraph],
    val: &[PreparedGraph],
    activation_budget_floats: Option<usize>,
) -> TrainResult {
    let icfg = cfg.ignn_config(train[0].x.cols(), train[0].y.cols());
    let usable: Vec<usize> = (0..train.len())
        .filter(|&i| {
            activation_budget_floats
                .map(|b| {
                    icfg.estimate_activation_floats(train[i].num_nodes, train[i].num_edges()) <= b
                })
                .unwrap_or(true)
        })
        .collect();
    let skipped_graphs = train.len() - usable.len();
    let ddp = DdpConfig::single().with_executor(Executor::Sequential);
    let batches = Batches::FullGraph(usable);
    TrainResult {
        skipped_graphs,
        ..drive(
            cfg,
            batches,
            BatchingMode::Sync,
            ddp,
            false,
            train,
            val,
            None,
        )
    }
}

/// Per-rank hook factory: called once per rank (on that rank's thread
/// under [`Executor::Threads`], once for rank 0 under
/// [`Executor::Sequential`]) to build its hook stack. Hooks must be
/// deterministic functions of the reports they observe — every rank sees
/// identical metrics (replicas stay synchronised), so identical hook
/// stacks make identical stop/LR decisions and the collectives stay
/// aligned.
pub type HookFactory = dyn Fn(usize) -> Vec<Box<dyn Hook>> + Sync;

/// Minibatch ShaDow training with distributed data parallelism.
///
/// `sampler` picks the Fig. 3 comparison arm: `Baseline` is the
/// sequential per-batch ShaDow (PyG-style), `Bulk { k }` samples `k`
/// minibatches per bulk call with matrix-based sampling. The DDP
/// strategy (per-tensor vs coalesced all-reduce) and the executor
/// (threaded replicas or the sequential single-model run) come from
/// `ddp`.
pub fn train_minibatch(
    cfg: &GnnTrainConfig,
    sampler: SamplerKind,
    ddp: DdpConfig,
    train: &[PreparedGraph],
    val: &[PreparedGraph],
) -> TrainResult {
    train_minibatch_opts(cfg, sampler, BatchingMode::Sync, ddp, train, val, None)
}

/// [`train_minibatch`] with an explicit [`BatchingMode`] and a per-rank
/// hook factory.
///
/// Under [`Executor::Threads`], `Prefetch` gives every rank its own
/// background sampling thread feeding a bounded queue, so step *t+1*'s
/// sampling overlaps step *t*'s forward/backward. The sampler seeds are
/// pure functions of the schedule, so prefetching reproduces sync-mode
/// loss curves bit for bit. Under [`Executor::Sequential`] nothing runs
/// concurrently: `Prefetch` only marks each epoch's [`EpochTiming`] as
/// overlapped, so `total_s` charges `max(sampling, train)` the way a
/// real prefetching loader would.
///
/// When hooks are attached, *every* threaded rank runs the validation
/// pass (not just rank 0) so metric-driven hooks make the same decision
/// on every replica.
pub fn train_minibatch_opts(
    cfg: &GnnTrainConfig,
    sampler: SamplerKind,
    mode: BatchingMode,
    ddp: DdpConfig,
    train: &[PreparedGraph],
    val: &[PreparedGraph],
    hook_factory: Option<&HookFactory>,
) -> TrainResult {
    let batches = Batches::sampled(sampler, cfg.shadow);
    drive(cfg, batches, mode, ddp, false, train, val, hook_factory)
}

/// Lock-free asynchronous minibatch training (Hogwild!): `workers`
/// threads train replicas against one [`HogwildShared`] parameter store
/// with **no** replica lockstep — each step pulls the current shared
/// weights, runs its own forward/backward, and writes a racy SGD update
/// straight back. No collectives, no barriers, zero communication cost;
/// the price is gradient staleness and occasional lost updates, so
/// convergence is noisier than synchronous DDP (the EXPERIMENTS.md §fig4
/// study quantifies the trade).
///
/// Same driver as [`train_minibatch`]: identical schedule construction
/// and sharding, so mode comparisons hold the per-worker workload fixed.
pub fn train_minibatch_hogwild(
    cfg: &GnnTrainConfig,
    sampler: SamplerKind,
    workers: usize,
    train: &[PreparedGraph],
    val: &[PreparedGraph],
) -> TrainResult {
    let batches = Batches::sampled(sampler, cfg.shadow);
    let ddp = DdpConfig::new(workers.max(1), AllReduceStrategy::Coalesced);
    drive(
        cfg,
        batches,
        BatchingMode::Sync,
        ddp,
        true,
        train,
        val,
        None,
    )
}

/// Where a rank's batches come from.
enum Batches {
    /// ShaDow minibatches: the epoch's schedule → [`plan_chunks`] → the
    /// rank's [`ShardChunks`] → a [`SampledBatchSource`]. One sampler
    /// serves every rank (and every prefetch thread): `Sampler` is `Sync`
    /// and holds no mutable state.
    Sampled {
        sampler: Box<dyn Sampler>,
        chunk_size: usize,
    },
    /// One whole event graph per step: the indices of the training
    /// graphs that fit the activation budget.
    FullGraph(Vec<usize>),
}

impl Batches {
    fn sampled(kind: SamplerKind, shadow: ShadowConfig) -> Self {
        Batches::Sampled {
            sampler: kind.build(shadow),
            chunk_size: kind.chunk_size(),
        }
    }
}

/// How a step turns the ranks' gradients into a parameter update.
#[derive(Clone, Copy)]
enum Update<'a> {
    /// Threaded DDP: the rank all-reduces its gradients with its peers,
    /// after backward or bucket by bucket during it.
    AllReduce(&'a AllReducer),
    /// Sequential DDP: every rank's gradients accumulate into the one
    /// model, are averaged, and the α–β model charges the collective.
    Accumulate,
    /// Hogwild!: pull the shared weights before forward, push a racy
    /// SGD update after backward.
    Hogwild(&'a HogwildShared),
}

/// The rank-independent part of a training run.
struct RunSpec<'a> {
    cfg: &'a GnnTrainConfig,
    batches: Batches,
    mode: BatchingMode,
    ddp: DdpConfig,
    train: &'a [PreparedGraph],
    val: &'a [PreparedGraph],
    pos_weight: f32,
    /// Gradient bytes per parameter tensor (the α–β charge's input).
    tensor_bytes: Vec<usize>,
}

impl RunSpec<'_> {
    /// One batch stream per rank in `ranks` for `epoch`.
    fn sources(&self, epoch: usize, ranks: Range<usize>) -> Vec<Box<dyn BatchSource + Send + '_>> {
        let train = self.train;
        match &self.batches {
            Batches::Sampled {
                sampler,
                chunk_size,
            } => {
                let (seed, p) = (self.cfg.seed, self.ddp.workers);
                let schedule = build_schedule(train, self.cfg.batch_size, seed, epoch);
                let chunks = plan_chunks(&schedule, *chunk_size, seed, epoch);
                ranks
                    .map(|rank| {
                        let sharded = ShardChunks::new(chunks.clone().into_iter(), rank, p);
                        Box::new(SampledBatchSource::new(train, &**sampler, sharded)) as Box<_>
                    })
                    .collect()
            }
            Batches::FullGraph(usable) => {
                debug_assert_eq!(ranks.len(), 1, "full-graph training runs one rank");
                let items = usable.iter().map(|&i| (i, &train[i])).collect();
                vec![Box::new(FullGraphSource::new(items))]
            }
        }
    }
}

/// Initialise the model and run the rank-step driver on `ddp.executor`.
/// `Threads` runs one [`RankStep`] per rank on [`run_workers`] and
/// assembles rank 0's model and reports, with timings maxed across ranks
/// (synchronous DDP advances at the slowest worker's pace). `Sequential`
/// runs a single `RankStep` driving every rank in order.
#[allow(clippy::too_many_arguments)]
fn drive(
    cfg: &GnnTrainConfig,
    batches: Batches,
    mode: BatchingMode,
    ddp: DdpConfig,
    hogwild: bool,
    train: &[PreparedGraph],
    val: &[PreparedGraph],
    hook_factory: Option<&HookFactory>,
) -> TrainResult {
    let icfg = cfg.ignn_config(train[0].x.cols(), train[0].y.cols());
    let mut model = InteractionGnn::new(icfg, &mut StdRng::seed_from_u64(cfg.seed));
    let spec = RunSpec {
        cfg,
        batches,
        mode,
        ddp,
        train,
        val,
        pos_weight: cfg.derive_pos_weight(train),
        tensor_bytes: model.params().iter().map(|prm| prm.numel() * 4).collect(),
    };
    let p = ddp.workers;
    let shared = hogwild.then(|| HogwildShared::new(&model.params()));
    let reducer = AllReducer::new(p, ddp.cost_model);
    let run_ranks = |model: InteractionGnn, ranks: Range<usize>| {
        let update = match (&shared, ddp.executor) {
            (Some(shared), _) => Update::Hogwild(shared),
            (None, Executor::Threads) => Update::AllReduce(&reducer),
            (None, Executor::Sequential) => Update::Accumulate,
        };
        let hooks = hook_factory.map_or_else(Vec::new, |f| f(ranks.start));
        let mut step = RankStep {
            spec: &spec,
            update,
            sched: ddp.comm_overlap.then(|| build_scheduler(&model, &ddp)),
            run_validation: ranks.start == 0 || hook_factory.is_some(),
            ranks,
            model,
            comm_seen: 0.0,
            val_tape: Tape::new(),
            val_bind: Bindings::new(),
        };
        // Plain SGD matches Hogwild's racy shared update rule; the local
        // optimizer step is overwritten by the next pull anyway.
        let train_loop = if hogwild {
            TrainLoop::new(Sgd::new(cfg.learning_rate), cfg.epochs)
        } else {
            TrainLoop::new(Adam::new(cfg.learning_rate), cfg.epochs)
        };
        let reports = train_loop.with_hooks(hooks).run(&mut step);
        (step.model, reports)
    };
    let epochs = match ddp.executor {
        Executor::Sequential => {
            let (trained, reports) = run_ranks(model, 0..p);
            model = trained;
            reports
        }
        Executor::Threads => {
            let mut results = run_workers(p, |rank| run_ranks(model.clone(), rank..rank + 1));
            let (trained, mut epochs) = results.remove(0);
            for (_, reports) in &results {
                // Deterministic hooks stop every rank at the same epoch,
                // so each rank reports the same number of epochs.
                for (report, other) in epochs.iter_mut().zip(reports) {
                    report.timing.max_merge(&other.timing);
                }
            }
            model = trained;
            epochs
        }
    };
    // Hogwild's trained model is whatever the shared store converged to.
    if let Some(shared) = &shared {
        shared.pull(&mut model.params_mut());
    }
    TrainResult {
        model,
        epochs,
        skipped_graphs: 0,
    }
}

/// The per-epoch step schedule: `(graph index, global batch)` pairs.
fn build_schedule(
    train: &[PreparedGraph],
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> Vec<(usize, Vec<u32>)> {
    let mut schedule = Vec::new();
    for (gi, g) in train.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (epoch as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ (gi as u64) << 32,
        );
        for batch in vertex_batches(g.num_nodes, batch_size, &mut rng) {
            schedule.push((gi, batch));
        }
    }
    schedule
}

/// One scheduler per replica, bucketed to the strategy's budget: layout
/// and canonical fire order are pure functions of the (identical)
/// parameter sizes, so every rank issues the same collective sequence.
fn build_scheduler(model: &InteractionGnn, ddp: &DdpConfig) -> BucketScheduler {
    let sizes: Vec<usize> = model.params().iter().map(|prm| prm.numel()).collect();
    BucketScheduler::new(BucketLayout::from_sizes(
        &sizes,
        ddp.strategy.bucket_bytes(),
    ))
}

/// The one GNN training step. Every optimizer step, each rank in `ranks`
/// pulls its next batch from its own source and runs forward/backward
/// once; the last rank then applies the [`Update`] rule. Under
/// `Threads` each rank thread owns a `RankStep` driving just itself;
/// under `Sequential` one `RankStep` drives all ranks in order.
struct RankStep<'a> {
    spec: &'a RunSpec<'a>,
    update: Update<'a>,
    ranks: Range<usize>,
    model: InteractionGnn,
    /// `Some` when gradient communication overlaps backward: the last
    /// rank's backward fires bucket collectives through the engine's
    /// grad-ready bridge — real ones over [`CommLink::Reduce`] under
    /// `AllReduce`, account-only ones over [`CommLink::Model`] under
    /// `Accumulate`. Gradients are bit-identical either way.
    sched: Option<BucketScheduler>,
    /// Reducer-reported virtual comm seconds already attributed to past
    /// epochs (the reducer's counter is cumulative and shared).
    comm_seen: f64,
    run_validation: bool,
    val_tape: Tape,
    val_bind: Bindings,
}

/// What one epoch of steps measured.
struct EpochRun {
    loss_sum: f32,
    sampling_s: f64,
    train_s: f64,
    /// α–β charge of the post-hoc `Accumulate` collectives.
    comm_s: f64,
}

impl RankStep<'_> {
    /// Run the epoch's steps in lockstep over `sources` (one per rank).
    fn run_steps(&mut self, ctx: &mut EpochCtx, sources: &mut [&mut dyn BatchSource]) -> EpochRun {
        let spec = self.spec;
        let (p, strategy, lr) = (spec.ddp.workers, spec.ddp.strategy, spec.cfg.learning_rate);
        let last = sources.len() - 1;
        let mut train_rank = vec![0.0f64; sources.len()];
        let (mut loss_sum, mut comm_s) = (0.0f32, 0.0f64);
        'steps: loop {
            for (i, src) in sources.iter_mut().enumerate() {
                let Some(batch) = src.next_batch() else {
                    // Rank streams are equal length by construction (one
                    // batch per schedule entry, empty shards included).
                    debug_assert_eq!(i, 0, "rank batch streams differ in length");
                    break 'steps;
                };
                let rank = self.ranks.start + i;
                let t = Instant::now();
                if let Update::Hogwild(shared) = self.update {
                    shared.pull(&mut self.model.params_mut());
                }
                let model = &self.model;
                let forward = |tape: &mut Tape, bind: &mut Bindings| {
                    if batch.labels.is_empty() {
                        return None;
                    }
                    let logits =
                        model.forward_planned(tape, bind, &batch.x, &batch.y, &batch.plans);
                    Some(bce_with_logits(
                        tape,
                        logits,
                        &batch.labels,
                        spec.pos_weight,
                    ))
                };
                let (loss, mut params) = match self.sched.as_mut().filter(|_| i == last) {
                    Some(sched) => {
                        // Buckets all-reduce mid-backward as their last
                        // parameter's gradient finalizes; empty shards
                        // still flush every bucket at finish, so all ranks
                        // issue the same collective sequence.
                        let loss = ctx.forward_only(forward);
                        let link = match self.update {
                            Update::AllReduce(reducer) => CommLink::Reduce { reducer, rank },
                            _ => CommLink::Model {
                                cost: spec.ddp.cost_model,
                                workers: p,
                            },
                        };
                        let mut params = self.model.params_mut();
                        (ctx.backward_comm(loss, &mut params, sched, &link), params)
                    }
                    None => {
                        let loss = ctx.forward_backward(forward);
                        let mut params = self.model.params_mut();
                        ctx.harvest(&mut params);
                        (loss, params)
                    }
                };
                if i == 0 {
                    loss_sum += loss;
                }
                if i == last {
                    // The sync runs unconditionally inside the step so
                    // every rank makes the same number of collective calls
                    // even when its shard sampled no edges.
                    let overlapped = self.sched.is_some();
                    ctx.apply_with(&mut params, |params| match self.update {
                        Update::AllReduce(reducer) if !overlapped => {
                            reducer.sync_gradients(rank, params, strategy)
                        }
                        Update::AllReduce(_) => {}
                        Update::Accumulate if p > 1 => {
                            let inv = 1.0 / p as f32;
                            for prm in params.iter_mut() {
                                prm.grad.apply(|v| v * inv);
                            }
                            if !overlapped {
                                comm_s += spec.ddp.cost_model.bucketed_time(
                                    &spec.tensor_bytes,
                                    strategy.bucket_bytes(),
                                    p,
                                );
                            }
                        }
                        Update::Accumulate => {}
                        Update::Hogwild(shared) => shared.apply_grads(lr, params),
                    });
                }
                train_rank[i] += t.elapsed().as_secs_f64();
            }
        }
        EpochRun {
            loss_sum,
            sampling_s: sources
                .iter()
                .map(|s| s.sample_busy_s())
                .fold(0.0, f64::max),
            train_s: train_rank.iter().copied().fold(0.0, f64::max),
            comm_s,
        }
    }
}

impl TrainStep for RankStep<'_> {
    fn train_epoch(&mut self, epoch: usize, ctx: &mut EpochCtx) -> EpochStats {
        let spec = self.spec;
        let mut sources = spec.sources(epoch, self.ranks.clone());
        // A threaded rank may prefetch on a background thread; the
        // sequential executor samples inline so per-rank times stay exact.
        let run = match (spec.ddp.executor, spec.mode) {
            (Executor::Threads, mode @ BatchingMode::Prefetch { .. }) => {
                let source = sources.pop().expect("a threaded rank drives one source");
                with_batch_source(mode, source, |src| self.run_steps(ctx, &mut [src]))
            }
            _ => {
                let mut srcs: Vec<&mut dyn BatchSource> =
                    sources.iter_mut().map(|s| &mut **s as _).collect();
                self.run_steps(ctx, &mut srcs)
            }
        };
        // Exposed comm is per-rank (it depends on this rank's own compute
        // gaps); `max_merge` across threaded ranks keeps the slowest.
        let (comm_virtual_s, comm_exposed_s) = match (self.update, self.sched.as_mut()) {
            (Update::AllReduce(reducer), sched) => {
                let total = reducer.virtual_comm_seconds();
                let epoch_s = total - self.comm_seen;
                self.comm_seen = total;
                (
                    epoch_s,
                    sched.map_or(epoch_s, |s| s.take_stats().exposed_comm_s),
                )
            }
            (Update::Accumulate, Some(sched)) => {
                let st = sched.take_stats();
                (st.serial_comm_s, st.exposed_comm_s)
            }
            (Update::Accumulate, None) => (run.comm_s, run.comm_s),
            // Hogwild's communication cost is exactly zero.
            (Update::Hogwild(_), _) => (0.0, 0.0),
        };
        EpochStats {
            loss_sum: run.loss_sum,
            loss_denom: ctx.steps(),
            steps: ctx.steps(),
            timing: EpochTiming {
                sampling_s: run.sampling_s,
                train_s: run.train_s,
                comm_virtual_s,
                comm_exposed_s,
                overlapped: spec.mode.is_prefetch(),
                comm_overlap: self.sched.is_some(),
            },
            cache: shard_cache_stats(spec.train),
        }
    }

    fn validate(&mut self, _epoch: usize) -> Option<ValMetrics> {
        if !self.run_validation {
            return None;
        }
        if let Update::Hogwild(shared) = self.update {
            // Validate the *shared* state, not this replica's local copy.
            shared.pull(&mut self.model.params_mut());
        }
        let stats = evaluate_with(
            &mut self.val_tape,
            &mut self.val_bind,
            &self.model,
            self.spec.val,
            self.spec.cfg.threshold,
        );
        Some(ValMetrics {
            precision: stats.precision(),
            recall: stats.recall(),
        })
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.model.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_detector::DatasetConfig;

    fn tiny_dataset() -> (Vec<PreparedGraph>, Vec<PreparedGraph>) {
        let cfg = DatasetConfig::ex3_like(0.01); // ~130 hits
        let graphs = cfg.generate(3, 21);
        let prepared = prepare_graphs(&graphs);
        let mut it = prepared.into_iter();
        let train: Vec<_> = vec![it.next().unwrap(), it.next().unwrap()];
        let val: Vec<_> = vec![it.next().unwrap()];
        (train, val)
    }

    fn quick_cfg() -> GnnTrainConfig {
        GnnTrainConfig {
            hidden: 16,
            gnn_layers: 2,
            mlp_depth: 2,
            epochs: 2,
            batch_size: 32,
            learning_rate: 2e-3,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 4,
            },
            threshold: 0.5,
            pos_weight: None,
            seed: 3,
        }
    }

    #[test]
    fn full_graph_training_improves_loss() {
        let (train, val) = tiny_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 5;
        let r = train_full_graph(&cfg, &train, &val, None);
        assert_eq!(r.epochs.len(), 5);
        assert!(
            r.epochs.last().unwrap().train_loss < r.epochs[0].train_loss,
            "loss did not improve: {:?}",
            r.epochs.iter().map(|e| e.train_loss).collect::<Vec<_>>()
        );
        assert_eq!(r.skipped_graphs, 0);
    }

    #[test]
    fn activation_budget_skips_graphs() {
        let (train, val) = tiny_dataset();
        let cfg = quick_cfg();
        let r = train_full_graph(&cfg, &train, &val, Some(1));
        assert_eq!(r.skipped_graphs, train.len());
        // With every graph skipped, the loss is exactly zero.
        assert_eq!(r.epochs[0].train_loss, 0.0);
    }

    #[test]
    fn minibatch_baseline_trains() {
        let (train, val) = tiny_dataset();
        let cfg = quick_cfg();
        let r = train_minibatch(
            &cfg,
            SamplerKind::Baseline,
            DdpConfig::single(),
            &train,
            &val,
        );
        assert_eq!(r.epochs.len(), cfg.epochs);
        assert!(r.epochs.iter().all(|e| e.train_loss.is_finite()));
        assert!(r.epochs[0].timing.sampling_s > 0.0);
        assert!(r.epochs[0].timing.train_s > 0.0);
        // Single worker: no modeled comm.
        assert_eq!(r.epochs[0].timing.comm_virtual_s, 0.0);
    }

    #[test]
    fn minibatch_bulk_trains_and_matches_baseline_quality() {
        let (train, val) = tiny_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 3;
        let base = train_minibatch(
            &cfg,
            SamplerKind::Baseline,
            DdpConfig::single(),
            &train,
            &val,
        );
        let bulk = train_minibatch(
            &cfg,
            SamplerKind::Bulk { k: 4 },
            DdpConfig::single(),
            &train,
            &val,
        );
        let b = base.epochs.last().unwrap();
        let k = bulk.epochs.last().unwrap();
        // Same training quality ballpark (identical distribution, noisy).
        assert!((b.val_recall - k.val_recall).abs() < 0.35, "{b:?} vs {k:?}");
    }

    #[test]
    fn ddp_replicas_stay_synchronised() {
        let (train, val) = tiny_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 1;
        cfg.batch_size = 16;
        let r = train_minibatch(
            &cfg,
            SamplerKind::Bulk { k: 2 },
            DdpConfig::new(2, AllReduceStrategy::Coalesced),
            &train,
            &val,
        );
        // Comm time was modeled.
        assert!(r.epochs[0].timing.comm_virtual_s > 0.0);
        assert!(r.epochs[0].train_loss.is_finite());
    }

    #[test]
    fn coalesced_comm_is_cheaper_than_per_tensor() {
        let (train, val) = tiny_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 1;
        cfg.batch_size = 16;
        let per = train_minibatch(
            &cfg,
            SamplerKind::Bulk { k: 2 },
            DdpConfig::new(2, AllReduceStrategy::PerTensor),
            &train,
            &val,
        );
        let coal = train_minibatch(
            &cfg,
            SamplerKind::Bulk { k: 2 },
            DdpConfig::new(2, AllReduceStrategy::Coalesced),
            &train,
            &val,
        );
        assert!(
            coal.epochs[0].timing.comm_virtual_s < per.epochs[0].timing.comm_virtual_s,
            "coalesced {} !< per-tensor {}",
            coal.epochs[0].timing.comm_virtual_s,
            per.epochs[0].timing.comm_virtual_s
        );
    }

    #[test]
    fn sequential_ddp_scales_training_time_down() {
        // Per-rank compute drops as work is sharded: max-over-ranks train
        // time at P=4 should be well below P=1 for the same schedule.
        let (train, val) = tiny_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 1;
        cfg.batch_size = 64;
        let t1 = train_minibatch(
            &cfg,
            SamplerKind::Bulk { k: 2 },
            DdpConfig::new(1, AllReduceStrategy::Coalesced).with_executor(Executor::Sequential),
            &train,
            &val,
        );
        let t4 = train_minibatch(
            &cfg,
            SamplerKind::Bulk { k: 2 },
            DdpConfig::new(4, AllReduceStrategy::Coalesced).with_executor(Executor::Sequential),
            &train,
            &val,
        );
        let s1 = t1.epochs[0].timing.train_s;
        let s4 = t4.epochs[0].timing.train_s;
        assert!(
            s4 < s1,
            "train time did not shrink: P=1 {s1:.3}s vs P=4 {s4:.3}s"
        );
    }

    #[test]
    fn sharded_store_training_is_bit_identical_to_in_core() {
        let dcfg = DatasetConfig::ex3_like(0.01);
        let graphs = dcfg.generate(3, 21);
        let incore = prepare_graphs(&graphs);
        let dir = std::env::temp_dir().join(format!("trkx-gnn-sharded-{}", std::process::id()));
        // Small shards + a 2-shard cache force faults and evictions.
        let sharded = prepare_graphs_sharded(&graphs, &dir, 16, 2).unwrap();
        let cfg = quick_cfg();
        let kind = SamplerKind::Bulk { k: 2 };
        let a = train_minibatch(&cfg, kind, DdpConfig::single(), &incore[..2], &incore[2..]);
        let b = train_minibatch(
            &cfg,
            kind,
            DdpConfig::single(),
            &sharded[..2],
            &sharded[2..],
        );
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(
                x.train_loss.to_bits(),
                y.train_loss.to_bits(),
                "epoch {} loss diverged: {} vs {}",
                x.epoch,
                x.train_loss,
                y.train_loss
            );
            assert_eq!(x.val_precision.to_bits(), y.val_precision.to_bits());
            assert_eq!(x.val_recall.to_bits(), y.val_recall.to_bits());
        }
        // Telemetry: in-core runs report no cache; sharded runs report
        // real traffic (cold stores guarantee at least one miss).
        assert!(a.epochs.last().unwrap().shard_cache.is_none());
        let cache = b.epochs.last().unwrap().shard_cache.expect("cache stats");
        assert!(cache.misses > 0, "{cache:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inference_logit_count_matches_edges() {
        let (train, _) = tiny_dataset();
        let cfg = quick_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let model = InteractionGnn::new(cfg.ignn_config(6, 2), &mut rng);
        let logits = infer_logits(&model, &train[0]);
        assert_eq!(logits.len(), train[0].num_edges());
    }
}
