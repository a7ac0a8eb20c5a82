//! Unified-training-harness tests: golden-seed determinism (the ported
//! trainers must reproduce the pre-harness per-epoch loss curves
//! bit-for-bit), hook dispatch order, and the early-stop →
//! best-checkpoint-restore interplay.

use std::cell::RefCell;
use std::rc::Rc;

use rand::{rngs::StdRng, SeedableRng};
use trkx_core::train::{
    BestCheckpointHook, Control, EarlyStoppingHook, EpochCtx, EpochReport, EpochStats, Hook,
    HookCtx, LrScheduleHook, Monitor, TrainLoop, TrainStep, ValMetrics,
};
use trkx_core::{
    prepare_graphs, train_full_graph, train_minibatch, train_minibatch_opts, BatchingMode,
    EmbeddingConfig, EmbeddingStage, FilterConfig, FilterStage, GnnTrainConfig, PreparedGraph,
    SamplerKind, TrainResult,
};
use trkx_ddp::{AllReduceStrategy, DdpConfig, Executor};
use trkx_detector::{simulate_event, vertex_features, DatasetConfig, DetectorGeometry, GunConfig};
use trkx_nn::{Adam, Param, StepDecay};
use trkx_sampling::ShadowConfig;
use trkx_tensor::Matrix;

// ---------------------------------------------------------------------
// Golden-seed determinism: curves captured from the pre-harness trainers
// (hand-rolled epoch loops) on 2026-08-06; the `TrainLoop` ports must
// reproduce them exactly.
// ---------------------------------------------------------------------

#[test]
fn embedding_curve_matches_pre_harness_golden() {
    let mut rng = StdRng::seed_from_u64(3);
    let ev = simulate_event(
        &DetectorGeometry::default(),
        &GunConfig::default(),
        25,
        0.1,
        &mut rng,
    );
    let x = Matrix::from_vec(ev.num_hits(), 6, vertex_features(&ev, 6));
    let cfg = EmbeddingConfig {
        epochs: 4,
        seed: 5,
        ..Default::default()
    };
    let mut stage = EmbeddingStage::new(6, cfg);
    let reports = stage.train_with_hooks(&[(&ev, &x)], Vec::new());
    let losses: Vec<f32> = reports.iter().map(|r| r.train_loss).collect();
    assert_eq!(losses, [0.071708046, 0.053873174, 0.054308865, 0.04587508]);
    // No validation pass: val fields are NaN, steps were taken.
    assert!(reports.iter().all(|r| !r.has_val()));
    assert!(reports.iter().all(|r| r.steps == 1));
}

#[test]
fn filter_curve_matches_pre_harness_golden() {
    let graphs = prepare_graphs(&DatasetConfig::ex3_like(0.02).generate(2, 31));
    let cfg = FilterConfig {
        epochs: 4,
        ..Default::default()
    };
    let mut stage = FilterStage::new(6, 2, cfg);
    let reports = stage.train_with_hooks(&graphs, Vec::new());
    let losses: Vec<f32> = reports.iter().map(|r| r.train_loss).collect();
    assert_eq!(losses, [1.2431761, 1.1880053, 1.1489801, 1.116729]);
}

fn tiny_dataset() -> (Vec<PreparedGraph>, Vec<PreparedGraph>) {
    let prepared = prepare_graphs(&DatasetConfig::ex3_like(0.01).generate(3, 21));
    let mut it = prepared.into_iter();
    let train = vec![it.next().unwrap(), it.next().unwrap()];
    let val = vec![it.next().unwrap()];
    (train, val)
}

fn quick_cfg() -> GnnTrainConfig {
    GnnTrainConfig {
        hidden: 16,
        gnn_layers: 2,
        mlp_depth: 2,
        epochs: 3,
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

fn assert_curves(r: &TrainResult, golden_loss: &[f32], golden_val: &[(f64, f64)]) {
    let losses: Vec<f32> = r.epochs.iter().map(|e| e.train_loss).collect();
    assert_eq!(losses, golden_loss);
    let vals: Vec<(f64, f64)> = r
        .epochs
        .iter()
        .map(|e| (e.val_precision, e.val_recall))
        .collect();
    assert_eq!(vals, golden_val);
}

#[test]
fn full_graph_curve_matches_pre_harness_golden() {
    let (train, val) = tiny_dataset();
    let mut cfg = quick_cfg();
    cfg.epochs = 4;
    let r = train_full_graph(&cfg, &train, &val, None);
    assert_curves(
        &r,
        &[2.3289871, 1.4372379, 1.1029276, 0.9608987],
        &[
            (0.2138157894736842, 0.6132075471698113),
            (0.2483221476510067, 0.6981132075471698),
            (0.3352601156069364, 0.5471698113207547),
            (0.46153846153846156, 0.4528301886792453),
        ],
    );
}

const DDP_GOLDEN_LOSS: [f32; 3] = [0.95322967, 0.57031566, 0.3207678];
const DDP_GOLDEN_VAL: [(f64, f64); 3] = [
    (0.4947916666666667, 0.8962264150943396),
    (0.6134969325153374, 0.9433962264150944),
    (0.7482014388489209, 0.9811320754716981),
];

#[test]
fn threaded_ddp_curve_matches_pre_harness_golden() {
    let (train, val) = tiny_dataset();
    let mut cfg = quick_cfg();
    cfg.batch_size = 16;
    let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced);
    let r = train_minibatch(&cfg, SamplerKind::Bulk { k: 2 }, ddp, &train, &val);
    assert_curves(&r, &DDP_GOLDEN_LOSS, &DDP_GOLDEN_VAL);
}

#[test]
fn simulated_ddp_curve_matches_pre_harness_golden() {
    let (train, val) = tiny_dataset();
    let mut cfg = quick_cfg();
    cfg.batch_size = 16;
    let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced).with_executor(Executor::Sequential);
    let r = train_minibatch(&cfg, SamplerKind::Bulk { k: 2 }, ddp, &train, &val);
    assert_curves(&r, &DDP_GOLDEN_LOSS, &DDP_GOLDEN_VAL);
}

#[test]
fn baseline_sampler_curve_matches_pre_harness_golden() {
    let (train, val) = tiny_dataset();
    let cfg = quick_cfg();
    let r = train_minibatch(
        &cfg,
        SamplerKind::Baseline,
        DdpConfig::single(),
        &train,
        &val,
    );
    let losses: Vec<f32> = r.epochs.iter().map(|e| e.train_loss).collect();
    assert_eq!(losses, [1.162513, 0.8109751, 0.61612874]);
}

#[test]
fn prefetch_ddp_curve_matches_pre_harness_golden() {
    // Background-thread sampling must not change what is sampled: the
    // prefetching loader reproduces the sync golden curves bit for bit.
    let (train, val) = tiny_dataset();
    let mut cfg = quick_cfg();
    cfg.batch_size = 16;
    let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced);
    let r = train_minibatch_opts(
        &cfg,
        SamplerKind::Bulk { k: 2 },
        BatchingMode::prefetch(),
        ddp,
        &train,
        &val,
        None,
    );
    assert_curves(&r, &DDP_GOLDEN_LOSS, &DDP_GOLDEN_VAL);
    // Prefetched epochs are accounted as overlapped by the virtual clock.
    for e in &r.epochs {
        assert!(e.timing.overlapped);
        let serial = e.timing.sampling_s + e.timing.train_s + e.timing.comm_virtual_s;
        assert!(e.timing.total_s() <= serial);
    }
}

#[test]
fn prefetch_baseline_curve_matches_pre_harness_golden() {
    let (train, val) = tiny_dataset();
    let cfg = quick_cfg();
    let r = train_minibatch_opts(
        &cfg,
        SamplerKind::Baseline,
        BatchingMode::prefetch(),
        DdpConfig::single(),
        &train,
        &val,
        None,
    );
    let losses: Vec<f32> = r.epochs.iter().map(|e| e.train_loss).collect();
    assert_eq!(losses, [1.162513, 0.8109751, 0.61612874]);
}

#[test]
fn simulated_overlap_keeps_curves_and_charges_max() {
    // The sequential executor models prefetching purely in the virtual
    // clock: identical math, epoch time max(sampling, train) + comm.
    let (train, val) = tiny_dataset();
    let mut cfg = quick_cfg();
    cfg.batch_size = 16;
    let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced).with_executor(Executor::Sequential);
    let r = train_minibatch_opts(
        &cfg,
        SamplerKind::Bulk { k: 2 },
        BatchingMode::prefetch(),
        ddp,
        &train,
        &val,
        None,
    );
    assert_curves(&r, &DDP_GOLDEN_LOSS, &DDP_GOLDEN_VAL);
    for e in &r.epochs {
        assert!(e.timing.overlapped);
        let t = &e.timing;
        let expect = t.sampling_s.max(t.train_s) + t.comm_virtual_s;
        assert!((t.total_s() - expect).abs() < 1e-12);
        assert!(t.total_s() <= t.sampling_s + t.train_s + t.comm_virtual_s);
    }
}

#[test]
fn threaded_ddp_early_stops_in_lockstep() {
    // A huge min_delta makes epoch 1 count as stale -> stop after epoch 1.
    // Every rank runs the same hook, so the collectives stay aligned and
    // the truncated run matches the full run's prefix exactly.
    let (train, val) = tiny_dataset();
    let mut cfg = quick_cfg();
    cfg.batch_size = 16;
    let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced);
    let r = train_minibatch_opts(
        &cfg,
        SamplerKind::Bulk { k: 2 },
        BatchingMode::Sync,
        ddp,
        &train,
        &val,
        Some(&|_rank| -> Vec<Box<dyn Hook>> {
            vec![Box::new(EarlyStoppingHook::new(
                Monitor::ValPrecision,
                1,
                10.0,
            ))]
        }),
    );
    assert_eq!(r.epochs.len(), 2);
    let losses: Vec<f32> = r.epochs.iter().map(|e| e.train_loss).collect();
    assert_eq!(losses, DDP_GOLDEN_LOSS[..2].to_vec());
    let vals: Vec<(f64, f64)> = r
        .epochs
        .iter()
        .map(|e| (e.val_precision, e.val_recall))
        .collect();
    assert_eq!(vals, DDP_GOLDEN_VAL[..2].to_vec());
}

// ---------------------------------------------------------------------
// Hook mechanics on a scripted TrainStep (no real model needed).
// ---------------------------------------------------------------------

/// One weight nudged per epoch, with a scripted validation curve.
struct ScriptedStep {
    weight: Param,
    vals: Vec<f64>,
    steps_per_epoch: usize,
}

impl ScriptedStep {
    fn new(vals: Vec<f64>) -> Self {
        Self {
            weight: Param::new("w", Matrix::from_vec(1, 1, vec![0.0])),
            vals,
            steps_per_epoch: 2,
        }
    }
}

impl TrainStep for ScriptedStep {
    fn train_epoch(&mut self, _epoch: usize, ctx: &mut EpochCtx) -> EpochStats {
        // "Training" nudges the weight so snapshots differ per epoch; the
        // empty updates keep the step counter and step hooks honest.
        self.weight.value.apply(|v| v + 1.0);
        for _ in 0..self.steps_per_epoch {
            let mut no_params: Vec<&mut Param> = Vec::new();
            ctx.update(&mut no_params);
        }
        EpochStats {
            loss_sum: 1.0,
            loss_denom: 1,
            steps: ctx.steps(),
            timing: Default::default(),
            cache: None,
        }
    }

    fn validate(&mut self, epoch: usize) -> Option<ValMetrics> {
        let v = self.vals[epoch];
        Some(ValMetrics {
            precision: v,
            recall: v,
        })
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }
}

/// Records every callback invocation into a shared log.
struct RecordingHook(Rc<RefCell<Vec<String>>>);

impl Hook for RecordingHook {
    fn on_epoch_start(&mut self, epoch: usize, _ctx: &mut HookCtx) {
        self.0.borrow_mut().push(format!("start:{epoch}"));
    }
    fn on_step_end(&mut self, epoch: usize, step: usize, _loss: f32) {
        self.0.borrow_mut().push(format!("step:{epoch}.{step}"));
    }
    fn on_epoch_end(&mut self, report: &EpochReport, _ctx: &mut HookCtx) -> Control {
        self.0.borrow_mut().push(format!("end:{}", report.epoch));
        Control::Continue
    }
    fn on_train_end(&mut self, reports: &[EpochReport], _ctx: &mut HookCtx) {
        self.0
            .borrow_mut()
            .push(format!("train_end:{}", reports.len()));
    }
}

#[test]
fn hooks_fire_in_order() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut step = ScriptedStep::new(vec![0.1, 0.2]);
    let reports = TrainLoop::new(Adam::new(1e-3), 2)
        .with_hook(RecordingHook(Rc::clone(&log)))
        .run(&mut step);
    assert_eq!(reports.len(), 2);
    assert_eq!(
        *log.borrow(),
        [
            "start:0",
            "step:0.0",
            "step:0.1",
            "end:0",
            "start:1",
            "step:1.0",
            "step:1.1",
            "end:1",
            "train_end:2",
        ]
    );
}

#[test]
fn early_stop_restores_best_checkpoint() {
    // Metric peaks at epoch 1, then goes stale; patience 1 stops the run
    // at epoch 2 and the restore hook rolls the weight back to the
    // epoch-1 snapshot (weight 2.0: two epochs of +1 nudges).
    let mut step = ScriptedStep::new(vec![0.5, 0.9, 0.4, 0.3, 0.2]);
    let reports = TrainLoop::new(Adam::new(1e-3), 5)
        .with_hook(BestCheckpointHook::new(Monitor::ValPrecision))
        .with_hook(EarlyStoppingHook::new(Monitor::ValPrecision, 1, 0.0))
        .run(&mut step);
    assert_eq!(
        reports.len(),
        3,
        "patience 1 stops after the first stale epoch"
    );
    assert_eq!(step.weight.value.data(), [2.0]);
}

#[test]
fn without_early_stop_last_weights_survive_when_not_restoring() {
    let mut step = ScriptedStep::new(vec![0.5, 0.9, 0.4]);
    TrainLoop::new(Adam::new(1e-3), 3)
        .with_hook(BestCheckpointHook::new(Monitor::ValPrecision).without_restore())
        .run(&mut step);
    assert_eq!(step.weight.value.data(), [3.0]);
}

#[test]
fn lr_schedule_hook_drives_reported_lr() {
    let mut step = ScriptedStep::new(vec![0.1, 0.2, 0.3, 0.4]);
    let reports = TrainLoop::new(Adam::new(1.0), 4)
        .with_hook(LrScheduleHook::new(
            1.0,
            StepDecay {
                period: 2,
                gamma: 0.5,
            },
        ))
        .run(&mut step);
    let lrs: Vec<f32> = reports.iter().map(|r| r.lr).collect();
    assert_eq!(lrs, [1.0, 1.0, 0.5, 0.5]);
}
