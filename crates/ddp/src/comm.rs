//! Communication cost model for the simulated multi-GPU interconnect.
//!
//! The paper's all-reduce optimisation is a latency argument: an IGNN
//! holds many separate `f x f` parameter matrices (distinct MLPs per
//! layer), and reducing each in its own NCCL call pays the per-call
//! latency `α` every time, while one call over the stacked buffer pays it
//! once. The standard α–β model for a ring all-reduce of `B` bytes over
//! `p` ranks is
//!
//! `T = 2(p-1)·α + 2·(p-1)/p · B/β`
//!
//! (2(p-1) ring steps of latency; reduce-scatter + all-gather each move
//! `(p-1)/p · B` bytes per rank at bandwidth β). The arithmetic of every
//! reduction is performed for real by [`crate::AllReducer`]; this model
//! only supplies the *virtual clock* time a real interconnect would take.

/// α–β interconnect model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommCostModel {
    /// Per-message latency α in seconds.
    pub latency_s: f64,
    /// Link bandwidth β in bytes/second.
    pub bandwidth_bytes_per_s: f64,
}

impl CommCostModel {
    /// NVLink 3.0-like constants: 100 GB/s unidirectional per pair
    /// (paper §IV-A), ~10 µs effective per-call launch+sync latency
    /// (typical measured NCCL small-message latency).
    pub fn nvlink3() -> Self {
        Self {
            latency_s: 10e-6,
            bandwidth_bytes_per_s: 100e9,
        }
    }

    /// A slower PCIe/Ethernet-like interconnect (for ablations).
    pub fn pcie() -> Self {
        Self {
            latency_s: 30e-6,
            bandwidth_bytes_per_s: 16e9,
        }
    }

    /// Ring all-reduce time for one message of `bytes` over `p` ranks.
    pub fn ring_allreduce_time(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let steps = 2.0 * (p as f64 - 1.0);
        steps * self.latency_s + steps / p as f64 * bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Time under greedy bucketing (one call per bucket of at most
    /// `bucket_bytes`, matching `AllReduceStrategy::Bucketed` packing).
    /// A zero budget is the per-tensor path (one call per tensor);
    /// `usize::MAX` is one coalesced call over the stacked buffer.
    pub fn bucketed_time(&self, tensor_bytes: &[usize], bucket_bytes: usize, p: usize) -> f64 {
        let mut total = 0.0;
        let mut i = 0;
        while i < tensor_bytes.len() {
            let mut bytes = 0usize;
            let mut j = i;
            while j < tensor_bytes.len() {
                if j > i && bytes + tensor_bytes[j] > bucket_bytes {
                    break;
                }
                bytes += tensor_bytes[j];
                j += 1;
            }
            total += self.ring_allreduce_time(bytes, p);
            i = j;
        }
        total
    }
}

/// Per-worker virtual clock accumulating modeled communication seconds on
/// top of measured compute seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtualClock {
    seconds: f64,
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot advance clock backwards");
        self.seconds += seconds;
    }

    /// Account a serial sample-then-compute phase: the worker pays for
    /// both stages back to back (today's synchronous loader).
    pub fn advance_serial(&mut self, sample_s: f64, compute_s: f64) {
        self.advance(sample_s);
        self.advance(compute_s);
    }

    /// Account an overlapped phase: sampling runs on a background thread
    /// while the worker computes, so wall time is `max(sample, compute)`
    /// — the pipelined-loader model (cf. Serafini & Guan 2021).
    pub fn advance_overlapped(&mut self, sample_s: f64, compute_s: f64) {
        self.advance(sample_s.max(compute_s));
    }

    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_is_free() {
        let m = CommCostModel::nvlink3();
        assert_eq!(m.ring_allreduce_time(1 << 20, 1), 0.0);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = CommCostModel::nvlink3();
        let t_small = m.ring_allreduce_time(64, 4);
        // 6 ring steps of 10 µs ≈ 60 µs; payload term is negligible.
        assert!((t_small - 60e-6).abs() / 60e-6 < 0.01, "{t_small}");
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let m = CommCostModel::nvlink3();
        let bytes = 1usize << 30;
        let t = m.ring_allreduce_time(bytes, 4);
        let payload = 2.0 * 3.0 / 4.0 * bytes as f64 / 100e9;
        assert!((t - payload).abs() / payload < 0.01, "{t} vs {payload}");
    }

    #[test]
    fn coalescing_saves_latency_not_bandwidth() {
        let m = CommCostModel::nvlink3();
        // 50 tensors of 64x64 f32 = 16 KiB each (the IGNN's parameter
        // shape census).
        let sizes = vec![64 * 64 * 4; 50];
        let per_tensor = m.bucketed_time(&sizes, 0, 4);
        let coalesced = m.bucketed_time(&sizes, usize::MAX, 4);
        assert!(coalesced < per_tensor);
        // The saving is exactly 49 messages' worth of latency.
        let saving = per_tensor - coalesced;
        let expected = 49.0 * 6.0 * m.latency_s;
        assert!(
            (saving - expected).abs() / expected < 1e-6,
            "{saving} vs {expected}"
        );
    }

    #[test]
    fn cost_grows_with_ranks() {
        let m = CommCostModel::nvlink3();
        let t2 = m.ring_allreduce_time(1 << 20, 2);
        let t4 = m.ring_allreduce_time(1 << 20, 4);
        let t8 = m.ring_allreduce_time(1 << 20, 8);
        assert!(t2 < t4 && t4 < t8);
    }

    #[test]
    fn bucketed_time_interpolates() {
        let m = CommCostModel::nvlink3();
        let sizes = vec![16 * 1024; 40];
        // Reference formulas: one call per tensor, one call in total.
        let per: f64 = sizes.iter().map(|&b| m.ring_allreduce_time(b, 4)).sum();
        let coal = m.ring_allreduce_time(sizes.iter().sum(), 4);
        // Zero and tiny budgets = per-tensor; unbounded = coalesced.
        for budget in [0, 1] {
            assert_eq!(m.bucketed_time(&sizes, budget, 4).to_bits(), per.to_bits());
        }
        assert_eq!(
            m.bucketed_time(&sizes, usize::MAX, 4).to_bits(),
            coal.to_bits()
        );
        // Intermediate bucket strictly between.
        let mid = m.bucketed_time(&sizes, 64 * 1024, 4);
        assert!(coal < mid && mid < per, "{coal} < {mid} < {per}");
    }

    #[test]
    fn virtual_clock_accumulates() {
        let mut c = VirtualClock::new();
        c.advance(1.5);
        c.advance(0.25);
        assert!((c.seconds() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn serial_phase_sums_sample_and_compute() {
        let mut c = VirtualClock::new();
        c.advance_serial(1.0, 3.0);
        assert!((c.seconds() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn overlapped_phase_costs_the_slower_stage() {
        // Compute-bound: sampling hides entirely behind compute.
        let mut c = VirtualClock::new();
        c.advance_overlapped(1.0, 3.0);
        assert!((c.seconds() - 3.0).abs() < 1e-12);
        // Sampling-bound: compute hides behind sampling.
        let mut c = VirtualClock::new();
        c.advance_overlapped(5.0, 3.0);
        assert!((c.seconds() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_never_exceeds_serial() {
        for (s, t) in [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (1.5, 1.5), (2.0, 7.0)] {
            let mut serial = VirtualClock::new();
            serial.advance_serial(s, t);
            let mut overlapped = VirtualClock::new();
            overlapped.advance_overlapped(s, t);
            assert!(overlapped.seconds() <= serial.seconds(), "({s}, {t})");
        }
    }
}
