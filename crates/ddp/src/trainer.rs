//! DDP configuration and timing types shared by the pipeline trainers.

use crate::allreduce::AllReduceStrategy;
use crate::comm::{CommCostModel, VirtualClock};
use serde::{Deserialize, Serialize};

/// How the ranks of a DDP run execute. Both executors compute the same
/// losses, validation metrics and parameters bit for bit; they differ
/// only in what the timings measure and how many replicas exist.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Executor {
    /// One model replica per rank, each on its own worker thread, with a
    /// real shared-memory all-reduce between them.
    #[default]
    Threads,
    /// One model on the calling thread: every optimizer step runs the
    /// ranks' forward/backward passes in order, accumulates their
    /// gradients, averages them, and charges the α–β model for the
    /// collective. Per-rank compute time is exact even on hosts with
    /// fewer cores than ranks.
    Sequential,
}

/// Distributed-data-parallel run configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DdpConfig {
    /// Number of simulated GPUs (worker threads).
    pub workers: usize,
    /// Gradient synchronisation strategy.
    pub strategy: AllReduceStrategy,
    /// Interconnect model for the virtual clock.
    pub cost_model: CommCostModel,
    /// Fire each gradient bucket's all-reduce during backward (as its
    /// last parameter finalizes) instead of as one post-backward sync.
    /// Gradients are bit-identical either way; only the virtual-clock
    /// exposure of communication changes.
    #[serde(default)]
    pub comm_overlap: bool,
    /// Threaded replicas or the sequential single-model run.
    #[serde(default)]
    pub executor: Executor,
}

impl DdpConfig {
    /// Single-worker baseline (no communication).
    pub fn single() -> Self {
        Self {
            workers: 1,
            strategy: AllReduceStrategy::Coalesced,
            cost_model: CommCostModel::nvlink3(),
            comm_overlap: false,
            executor: Executor::Threads,
        }
    }

    pub fn new(workers: usize, strategy: AllReduceStrategy) -> Self {
        Self {
            workers,
            strategy,
            cost_model: CommCostModel::nvlink3(),
            comm_overlap: false,
            executor: Executor::Threads,
        }
    }

    /// Toggle backward-overlapped bucket reduction.
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.comm_overlap = on;
        self
    }

    /// Run the ranks on `executor`.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }
}

/// Wall-clock and virtual-clock breakdown of one epoch (Figure 3's bars:
/// sampling time vs training time, plus modeled communication).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochTiming {
    /// Seconds spent sampling minibatches (measured).
    pub sampling_s: f64,
    /// Seconds spent in forward/backward/optimizer (measured).
    pub train_s: f64,
    /// Modeled interconnect seconds from the all-reduce cost model (the
    /// serial account: every collective on the critical path).
    pub comm_virtual_s: f64,
    /// Modeled interconnect seconds left exposed on the critical path
    /// after bucket reductions overlap backward compute
    /// (`Σ max(0, bucket_comm − compute_since_prev_bucket)`). Equals
    /// `comm_virtual_s` when communication did not overlap.
    #[serde(default)]
    pub comm_exposed_s: f64,
    /// Whether sampling ran on a background thread overlapping compute.
    /// When set, [`EpochTiming::total_s`] charges `max(sampling, train)`
    /// instead of their sum.
    pub overlapped: bool,
    /// Whether gradient communication overlapped backward; when set,
    /// [`EpochTiming::total_s`] charges `comm_exposed_s` instead of the
    /// serial `comm_virtual_s`.
    #[serde(default)]
    pub comm_overlap: bool,
}

impl EpochTiming {
    /// Total epoch time as reported in Figure 3, accounted through the
    /// [`VirtualClock`]: serial loaders pay sampling + training back to
    /// back; overlapped (prefetching) loaders pay `max(sampling, train)`
    /// because sampling hides behind compute. Communication adds the
    /// serial account — or only its exposed remainder when bucket
    /// reductions overlapped backward.
    pub fn total_s(&self) -> f64 {
        let mut clock = VirtualClock::new();
        if self.overlapped {
            clock.advance_overlapped(self.sampling_s, self.train_s);
        } else {
            clock.advance_serial(self.sampling_s, self.train_s);
        }
        clock.advance(if self.comm_overlap {
            self.comm_exposed_s
        } else {
            self.comm_virtual_s
        });
        clock.seconds()
    }

    /// Merge a per-worker maximum: synchronous DDP advances at the pace
    /// of the slowest worker.
    pub fn max_merge(&mut self, other: &EpochTiming) {
        self.sampling_s = self.sampling_s.max(other.sampling_s);
        self.train_s = self.train_s.max(other.train_s);
        self.comm_virtual_s = self.comm_virtual_s.max(other.comm_virtual_s);
        self.comm_exposed_s = self.comm_exposed_s.max(other.comm_exposed_s);
        self.overlapped |= other.overlapped;
        self.comm_overlap |= other.comm_overlap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let t = EpochTiming {
            sampling_s: 1.0,
            train_s: 2.0,
            comm_virtual_s: 0.5,
            ..Default::default()
        };
        assert_eq!(t.total_s(), 3.5);
    }

    #[test]
    fn overlapped_total_charges_max_of_sample_and_train() {
        let mut t = EpochTiming {
            sampling_s: 1.0,
            train_s: 2.0,
            comm_virtual_s: 0.5,
            comm_exposed_s: 0.5,
            overlapped: true,
            ..Default::default()
        };
        // Compute-bound epoch: sampling hides entirely.
        assert_eq!(t.total_s(), 2.5);
        // Sampling-bound epoch: compute hides instead.
        t.sampling_s = 4.0;
        assert_eq!(t.total_s(), 4.5);
        // Overlap can never cost more than the serial schedule.
        t.overlapped = false;
        assert!(t.total_s() > 4.5);
    }

    #[test]
    fn max_merge_takes_slowest() {
        let mut a = EpochTiming {
            sampling_s: 1.0,
            train_s: 5.0,
            comm_virtual_s: 0.1,
            ..Default::default()
        };
        let b = EpochTiming {
            sampling_s: 2.0,
            train_s: 4.0,
            comm_virtual_s: 0.2,
            comm_exposed_s: 0.15,
            overlapped: true,
            ..Default::default()
        };
        a.max_merge(&b);
        assert_eq!(
            a,
            EpochTiming {
                sampling_s: 2.0,
                train_s: 5.0,
                comm_virtual_s: 0.2,
                comm_exposed_s: 0.15,
                overlapped: true,
                ..Default::default()
            }
        );
    }

    #[test]
    fn comm_overlap_charges_only_exposed_seconds() {
        let mut t = EpochTiming {
            sampling_s: 1.0,
            train_s: 2.0,
            comm_virtual_s: 0.5,
            comm_exposed_s: 0.1,
            ..Default::default()
        };
        assert_eq!(t.total_s(), 3.5); // serial comm without the flag
        t.comm_overlap = true;
        assert_eq!(t.total_s(), 3.1); // exposed remainder with it
    }

    #[test]
    fn config_constructors() {
        let c = DdpConfig::single();
        assert_eq!(c.workers, 1);
        let c = DdpConfig::new(4, AllReduceStrategy::PerTensor);
        assert_eq!(c.workers, 4);
        assert_eq!(c.strategy, AllReduceStrategy::PerTensor);
        assert_eq!(c.executor, Executor::Threads);
        let c = c.with_executor(Executor::Sequential);
        assert_eq!(c.executor, Executor::Sequential);
    }
}
