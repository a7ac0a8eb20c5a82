//! Built-in [`Hook`]s for the [`TrainLoop`](crate::train::TrainLoop):
//! early stopping, best-checkpoint tracking with end-of-run restore,
//! learning-rate schedules, and structured per-epoch telemetry.

use crate::checkpoint::Checkpoint;
use crate::train::engine::EpochReport;
use trkx_nn::{LrSchedule, Optimizer, Param, Scheduler};

/// Flow-control verdict of an epoch-end hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    Continue,
    Stop,
}

/// Mutable training state exposed to hooks: the optimizer (for LR
/// schedules) and the model parameters (for checkpoint/restore).
pub struct HookCtx<'a, 'p> {
    pub opt: &'a mut dyn Optimizer,
    pub params: &'a mut [&'p mut Param],
}

/// Observer/controller callbacks around the
/// [`TrainLoop`](crate::train::TrainLoop) epoch loop.
/// All methods default to no-ops so hooks implement only what they need.
pub trait Hook {
    /// Before the epoch's first step.
    fn on_epoch_start(&mut self, _epoch: usize, _ctx: &mut HookCtx) {}

    /// After each optimizer step; `loss` is the step's forward loss (mean
    /// over the accumulated forward passes under gradient accumulation).
    fn on_step_end(&mut self, _epoch: usize, _step: usize, _loss: f32) {}

    /// After the epoch's validation pass. Returning [`Control::Stop`]
    /// ends training after this epoch.
    fn on_epoch_end(&mut self, _report: &EpochReport, _ctx: &mut HookCtx) -> Control {
        Control::Continue
    }

    /// Once, after the final epoch (regardless of how the run ended).
    fn on_train_end(&mut self, _reports: &[EpochReport], _ctx: &mut HookCtx) {}
}

/// Which scalar of an [`EpochReport`] a metric-driven hook watches.
/// All variants are higher-is-better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monitor {
    ValPrecision,
    ValRecall,
    ValF1,
    /// Negated training loss (for stages without a validation pass).
    NegTrainLoss,
}

impl Monitor {
    /// Extract the monitored value; NaN when the report lacks it.
    pub fn value(self, report: &EpochReport) -> f64 {
        match self {
            Monitor::ValPrecision => report.val_precision,
            Monitor::ValRecall => report.val_recall,
            Monitor::ValF1 => {
                if report.has_val() {
                    report.val_f1()
                } else {
                    f64::NAN
                }
            }
            Monitor::NegTrainLoss => -f64::from(report.train_loss),
        }
    }
}

/// Stop training as soon as the monitored metric has gone `patience`
/// consecutive checked epochs (at least one) without improving by more
/// than `min_delta`. Epochs whose report lacks the metric (NaN) are
/// ignored. Must stay **opt-out** for the Fig. 4 reproduction, which
/// needs full fixed-length loss curves.
pub struct EarlyStoppingHook {
    monitor: Monitor,
    patience: usize,
    min_delta: f64,
    best: f64,
    best_epoch: usize,
    checks: usize,
    stale: usize,
    stopped: bool,
}

impl EarlyStoppingHook {
    pub fn new(monitor: Monitor, patience: usize, min_delta: f64) -> Self {
        Self {
            monitor,
            patience,
            min_delta,
            best: f64::NEG_INFINITY,
            best_epoch: 0,
            checks: 0,
            stale: 0,
            stopped: false,
        }
    }

    /// Did this hook end the run?
    pub fn stopped_early(&self) -> bool {
        self.stopped
    }

    /// Best value seen so far.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// 0-based index of the best value among the checked epochs.
    pub fn best_epoch(&self) -> usize {
        self.best_epoch
    }
}

impl Hook for EarlyStoppingHook {
    fn on_epoch_end(&mut self, report: &EpochReport, _ctx: &mut HookCtx) -> Control {
        let value = self.monitor.value(report);
        if value.is_nan() {
            return Control::Continue;
        }
        self.checks += 1;
        if value > self.best + self.min_delta {
            self.best = value;
            self.best_epoch = self.checks - 1;
            self.stale = 0;
        } else {
            self.stale += 1;
        }
        // `patience` stale checks suffice (a `>` here would tolerate one
        // extra stale epoch); `max(1)` keeps patience 0 from stopping on
        // an improving check where `stale` resets to 0.
        if self.stale >= self.patience.max(1) {
            self.stopped = true;
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Snapshot the model parameters whenever the monitored metric improves;
/// on train end, restore the best snapshot (so an early-stopped run ends
/// holding its best-validation weights, not its last ones).
pub struct BestCheckpointHook {
    monitor: Monitor,
    restore: bool,
    best: f64,
    best_epoch: Option<usize>,
    snapshot: Option<Checkpoint>,
}

impl BestCheckpointHook {
    pub fn new(monitor: Monitor) -> Self {
        Self {
            monitor,
            restore: true,
            best: f64::NEG_INFINITY,
            best_epoch: None,
            snapshot: None,
        }
    }

    /// Keep the snapshot available but leave the final weights in place.
    pub fn without_restore(mut self) -> Self {
        self.restore = false;
        self
    }

    /// Epoch of the best snapshot, if any improved epoch was seen.
    pub fn best_epoch(&self) -> Option<usize> {
        self.best_epoch
    }

    pub fn best(&self) -> f64 {
        self.best
    }

    /// The best-epoch state dict, if any.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        self.snapshot.as_ref()
    }
}

impl Hook for BestCheckpointHook {
    fn on_epoch_end(&mut self, report: &EpochReport, ctx: &mut HookCtx) -> Control {
        let value = self.monitor.value(report);
        if !value.is_nan() && value > self.best {
            self.best = value;
            self.best_epoch = Some(report.epoch);
            let view: Vec<&Param> = ctx.params.iter().map(|p| &**p).collect();
            self.snapshot = Some(Checkpoint::from_params(&view));
        }
        Control::Continue
    }

    fn on_train_end(&mut self, _reports: &[EpochReport], ctx: &mut HookCtx) {
        if self.restore {
            if let Some(ckpt) = &self.snapshot {
                ckpt.apply_to(ctx.params)
                    .expect("best-checkpoint snapshot matches the params it was captured from");
            }
        }
    }
}

/// Drive the optimizer's learning rate from an [`LrSchedule`], advancing
/// one schedule step per epoch.
pub struct LrScheduleHook<S: LrSchedule> {
    sched: Scheduler<S>,
}

impl<S: LrSchedule> LrScheduleHook<S> {
    pub fn new(base_lr: f32, schedule: S) -> Self {
        Self {
            sched: Scheduler::new(base_lr, schedule),
        }
    }
}

impl<S: LrSchedule> Hook for LrScheduleHook<S> {
    fn on_epoch_start(&mut self, _epoch: usize, ctx: &mut HookCtx) {
        self.sched.apply(ctx.opt);
    }
}

/// Stream structured per-epoch records to a sink (stderr-style progress
/// lines, JSONL files, in-memory collectors — anything `FnMut`).
pub struct TelemetryHook {
    sink: Box<dyn FnMut(&EpochReport)>,
}

impl TelemetryHook {
    pub fn new(sink: impl FnMut(&EpochReport) + 'static) -> Self {
        Self {
            sink: Box::new(sink),
        }
    }

    /// Append one JSON object per epoch to `path`.
    pub fn jsonl(path: impl Into<std::path::PathBuf>) -> Self {
        let path = path.into();
        Self::new(move |report| {
            if let Ok(line) = serde_json::to_string(report) {
                use std::io::Write;
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                {
                    let _ = writeln!(f, "{line}");
                }
            }
        })
    }
}

impl Hook for TelemetryHook {
    fn on_epoch_end(&mut self, report: &EpochReport, _ctx: &mut HookCtx) -> Control {
        (self.sink)(report);
        Control::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_nn::Sgd;

    /// Feed one epoch whose negated training loss is `value` (so the
    /// hook's higher-is-better metric equals `value`); true on Stop.
    fn check(hook: &mut EarlyStoppingHook, value: f64) -> bool {
        let report = EpochReport {
            epoch: 0,
            train_loss: -value as f32,
            val_precision: f64::NAN,
            val_recall: f64::NAN,
            steps: 0,
            lr: 0.0,
            timing: Default::default(),
            shard_cache: None,
        };
        let mut opt = Sgd::new(0.0);
        let mut ctx = HookCtx {
            opt: &mut opt,
            params: &mut [],
        };
        hook.on_epoch_end(&report, &mut ctx) == Control::Stop
    }

    fn early_stop(patience: usize, min_delta: f64) -> EarlyStoppingHook {
        EarlyStoppingHook::new(Monitor::NegTrainLoss, patience, min_delta)
    }

    #[test]
    fn stops_once_patience_is_reached() {
        let mut es = early_stop(2, 0.0);
        assert!(!check(&mut es, 0.5));
        assert!(!check(&mut es, 0.625)); // improvement
        assert!(!check(&mut es, 0.5625)); // stale 1
        assert!(check(&mut es, 0.59375)); // stale 2 == patience 2: stop
        assert!(es.stopped_early());
        assert_eq!(es.best(), 0.625);
        assert_eq!(es.best_epoch(), 1);
    }

    #[test]
    fn min_delta_requires_real_improvement() {
        let mut es = early_stop(1, 0.05);
        assert!(!check(&mut es, 0.5));
        assert!(check(&mut es, 0.53125)); // below min_delta: stale 1 == patience 1
    }

    #[test]
    fn improvement_resets_the_stale_counter() {
        let mut es = early_stop(2, 0.0);
        assert!(!check(&mut es, 0.5));
        assert!(!check(&mut es, 0.375)); // stale 1
        assert!(!check(&mut es, 0.625)); // improvement: stale resets
        assert!(!check(&mut es, 0.5)); // stale 1
        assert!(check(&mut es, 0.5)); // stale 2
        assert_eq!(es.best_epoch(), 2);
    }

    #[test]
    fn continual_improvement_never_stops() {
        let mut es = early_stop(0, 0.0);
        for i in 0..100 {
            assert!(!check(&mut es, i as f64), "stopped at {i}");
        }
        assert!(!es.stopped_early());
        assert_eq!(es.best_epoch(), 99);
    }

    #[test]
    fn epochs_without_the_metric_are_not_checks() {
        let mut es = EarlyStoppingHook::new(Monitor::ValF1, 1, 0.0);
        // NaN validation: ignored, so it neither counts as stale nor
        // shifts the best-epoch index.
        for _ in 0..3 {
            assert!(!check(&mut es, 1.0));
        }
        assert!(!es.stopped_early());
        assert_eq!(es.best(), f64::NEG_INFINITY);
    }
}
