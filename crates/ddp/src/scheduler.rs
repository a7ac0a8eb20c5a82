//! Bucket-by-bucket gradient reduction overlapped with backward.
//!
//! A [`BucketScheduler`] owns a persistent [`BucketLayout`] and, fed
//! per-parameter "gradient is final" events by the engine's backward
//! bridge, fires each bucket's all-reduce the moment its last member
//! parameter finalizes — while the backward pass is still running over
//! the earlier layers. Buckets fire in a **canonical order** (descending
//! bucket index, i.e. decoder-side first, which is the order backward
//! naturally finalizes parameters in): a completed bucket whose turn has
//! not come is held, and [`BucketScheduler::finish`] flushes whatever
//! never fired. The canonical order is a pure function of the (identical)
//! bucket layout, so every rank issues the same collective sequence even
//! when its local shard was empty and its backward never ran — the
//! collectives always line up, with no deadlock.
//!
//! ## Virtual-clock accounting
//!
//! Each fire records the rank's measured compute time since the previous
//! fire event (wall time *outside* the collective call — barrier waits in
//! the shared-memory reduction are excluded) and charges
//!
//! `exposed += max(0, bucket_comm − compute_since_prev_bucket)`
//!
//! the pipelined account: a bucket's reduction hides behind the backward
//! compute segment adjacent to its launch, and only the overhang is
//! exposed on the critical path. The serial account (`Σ bucket_comm`) is
//! kept alongside, so Figure 3 can show both; `exposed ≤ serial` always,
//! and strictly less whenever any bucket fired mid-backward.

use crate::allreduce::AllReducer;
use crate::comm::CommCostModel;
use std::time::Instant;
use trkx_nn::{BucketLayout, Param};

/// Where a fired bucket's reduction goes.
pub enum CommLink<'a> {
    /// Real shared-memory collective (the threaded DDP trainer): pack the
    /// bucket, `allreduce` it, unpack the averaged gradients.
    Reduce {
        reducer: &'a AllReducer,
        rank: usize,
    },
    /// Account-only (the single-threaded simulated trainer): no data
    /// moves, the α–β model charges what a real ring would take.
    Model { cost: CommCostModel, workers: usize },
}

impl CommLink<'_> {
    fn workers(&self) -> usize {
        match self {
            CommLink::Reduce { reducer, .. } => reducer.num_workers(),
            CommLink::Model { workers, .. } => *workers,
        }
    }

    fn cost(&self) -> CommCostModel {
        match self {
            CommLink::Reduce { reducer, .. } => reducer.cost_model(),
            CommLink::Model { cost, .. } => *cost,
        }
    }
}

/// Serial vs exposed communication accumulated by a scheduler (per rank;
/// the exposed account depends on this rank's own compute gaps).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapStats {
    /// `Σ bucket_comm` — what the post-backward path would charge.
    pub serial_comm_s: f64,
    /// `Σ max(0, bucket_comm − compute_since_prev_bucket)` — what stays
    /// on the critical path when reductions overlap backward.
    pub exposed_comm_s: f64,
    /// Collective calls issued.
    pub calls: usize,
}

impl OverlapStats {
    pub fn merge(&mut self, other: &OverlapStats) {
        self.serial_comm_s += other.serial_comm_s;
        self.exposed_comm_s += other.exposed_comm_s;
        self.calls += other.calls;
    }
}

/// Per-step bucket state machine: counts down each bucket's outstanding
/// parameters, fires ready buckets in canonical order, and keeps the
/// overlap account. Persistent — build once per trainer rank, call
/// [`BucketScheduler::begin_step`] each step.
pub struct BucketScheduler {
    layout: BucketLayout,
    /// Per-bucket outstanding parameter count this step.
    remaining: Vec<usize>,
    fired: Vec<bool>,
    /// Canonical cursor: buckets fire strictly in descending index order;
    /// `next` is one past the next bucket to fire (0 = all fired).
    next: usize,
    stats: OverlapStats,
    /// Timestamp of the last fire event (or step begin), with collective
    /// wall time excluded by re-stamping after each call.
    last_event: Instant,
    in_step: bool,
}

impl BucketScheduler {
    pub fn new(layout: BucketLayout) -> Self {
        let n = layout.num_buckets();
        Self {
            layout,
            remaining: vec![0; n],
            fired: vec![false; n],
            next: n,
            stats: OverlapStats::default(),
            last_event: Instant::now(),
            in_step: false,
        }
    }

    pub fn layout(&self) -> &BucketLayout {
        &self.layout
    }

    /// Arm the per-step state: every bucket owes all of its parameters.
    pub fn begin_step(&mut self) {
        for (b, r) in self.remaining.iter_mut().enumerate() {
            *r = self.layout.params_in(b).len();
        }
        self.fired.iter_mut().for_each(|f| *f = false);
        self.next = self.layout.num_buckets();
        self.last_event = Instant::now();
        self.in_step = true;
    }

    /// Record that `param_idx`'s gradient is final (fully accumulated in
    /// `params[param_idx].grad`). Fires the owning bucket — and any
    /// lower-index buckets already complete — once the canonical order
    /// reaches them.
    pub fn param_final(&mut self, param_idx: usize, params: &mut [&mut Param], link: &CommLink) {
        debug_assert!(self.in_step, "param_final outside begin_step/finish");
        let b = self.layout.bucket_of(param_idx);
        debug_assert!(self.remaining[b] > 0, "parameter finalized twice");
        self.remaining[b] -= 1;
        // Cascade: fire the canonical-next bucket while it is complete.
        while self.next > 0 && self.remaining[self.next - 1] == 0 && !self.fired[self.next - 1] {
            self.fire(self.next - 1, params, link);
        }
    }

    /// Flush every bucket that never fired (empty-shard ranks flush all
    /// of them), in the same canonical order, then close the step.
    pub fn finish(&mut self, params: &mut [&mut Param], link: &CommLink) {
        debug_assert!(self.in_step, "finish outside begin_step");
        while self.next > 0 {
            self.fire(self.next - 1, params, link);
        }
        self.in_step = false;
    }

    fn fire(&mut self, b: usize, params: &mut [&mut Param], link: &CommLink) {
        debug_assert_eq!(b + 1, self.next, "buckets must fire in canonical order");
        let gap = self.last_event.elapsed().as_secs_f64();
        let p = link.workers();
        let comm = link
            .cost()
            .ring_allreduce_time(self.layout.bucket_payload_bytes(b), p);
        if let CommLink::Reduce { reducer, rank } = link {
            if p > 1 {
                self.layout.pack(b, params);
                reducer.allreduce(*rank, self.layout.buf_mut(b));
                self.layout.unpack(b, params);
            }
        }
        self.stats.serial_comm_s += comm;
        self.stats.exposed_comm_s += (comm - gap).max(0.0);
        self.stats.calls += 1;
        self.fired[b] = true;
        self.next = b;
        // Re-stamp after the collective so barrier waits inside it don't
        // count as compute toward the next bucket's overlap window.
        self.last_event = Instant::now();
    }

    /// Read and reset the accumulated overlap account (per epoch).
    pub fn take_stats(&mut self) -> OverlapStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_tensor::Matrix;

    fn mk_params(n: usize, elems: usize) -> Vec<Param> {
        (0..n)
            .map(|i| {
                let mut p = Param::new(format!("p{i}"), Matrix::zeros(1, elems));
                p.grad = Matrix::from_fn(1, elems, |_, c| (i * 10 + c) as f32);
                p
            })
            .collect()
    }

    #[test]
    fn model_link_fires_every_bucket_once() {
        let mut ps = mk_params(4, 4);
        let mut refs: Vec<&mut Param> = ps.iter_mut().collect();
        let layout = BucketLayout::from_sizes(&[4, 4, 4, 4], 32); // 2 per bucket
        let mut sched = BucketScheduler::new(layout);
        let link = CommLink::Model {
            cost: CommCostModel::nvlink3(),
            workers: 4,
        };
        sched.begin_step();
        // Finalize in backward order (descending parameter index).
        for i in (0..4).rev() {
            sched.param_final(i, &mut refs, &link);
        }
        sched.finish(&mut refs, &link);
        let stats = sched.take_stats();
        assert_eq!(stats.calls, 2);
        assert!(stats.serial_comm_s > 0.0);
        assert!(stats.exposed_comm_s <= stats.serial_comm_s);
    }

    #[test]
    fn out_of_order_completion_respects_canonical_order_via_finish() {
        // Bucket 0 completes first; it must not fire before bucket 1.
        let mut ps = mk_params(2, 4);
        let mut refs: Vec<&mut Param> = ps.iter_mut().collect();
        let layout = BucketLayout::from_sizes(&[4, 4], 16); // singleton buckets
        let mut sched = BucketScheduler::new(layout);
        let link = CommLink::Model {
            cost: CommCostModel::nvlink3(),
            workers: 2,
        };
        sched.begin_step();
        sched.param_final(0, &mut refs, &link); // held: bucket 1 not done
        assert_eq!(sched.take_stats().calls, 0);
        sched.param_final(1, &mut refs, &link); // fires 1 then cascades to 0
        sched.finish(&mut refs, &link);
        assert_eq!(sched.take_stats().calls, 2);
    }

    #[test]
    fn empty_step_flushes_all_buckets_at_finish() {
        let mut ps = mk_params(3, 2);
        let mut refs: Vec<&mut Param> = ps.iter_mut().collect();
        let layout = BucketLayout::from_sizes(&[2, 2, 2], 0);
        let mut sched = BucketScheduler::new(layout);
        let link = CommLink::Model {
            cost: CommCostModel::nvlink3(),
            workers: 2,
        };
        sched.begin_step();
        sched.finish(&mut refs, &link);
        assert_eq!(sched.take_stats().calls, 3);
    }

    #[test]
    fn serial_account_matches_cost_model_formulas() {
        let sizes = [16usize, 16, 16, 16, 16];
        let cost = CommCostModel::nvlink3();
        let bytes: Vec<usize> = sizes.iter().map(|s| s * 4).collect();
        for budget in [0usize, 128, usize::MAX] {
            let expect = cost.bucketed_time(&bytes, budget, 4);
            let mut ps = mk_params(5, 16);
            let mut refs: Vec<&mut Param> = ps.iter_mut().collect();
            let mut sched = BucketScheduler::new(BucketLayout::from_sizes(&sizes, budget));
            let link = CommLink::Model { cost, workers: 4 };
            sched.begin_step();
            sched.finish(&mut refs, &link);
            let got = sched.take_stats().serial_comm_s;
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "{budget}: {got} vs {expect}"
            );
        }
    }
}
