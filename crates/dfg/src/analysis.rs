//! Scheduling analyses: ASAP/ALAP levels, mobility and resource lower
//! bounds.
//!
//! These drive both the exact solver's search windows and the heuristic list
//! scheduler. All cycles are 1-based to match the paper's schedule step `l`.

use crate::graph::{Dfg, NodeId};
use crate::op::IpTypeId;

/// Per-node scheduling ranges for a latency bound.
///
/// `asap[i] ..= alap[i]` is the window of cycles in which operation `i` can
/// legally execute in a schedule of length `latency` (unit-latency ops).
///
/// # Examples
///
/// ```
/// use troy_dfg::{benchmarks, ScheduleWindows};
///
/// let g = benchmarks::polynom();
/// let w = ScheduleWindows::compute(&g, 4).expect("depth 3 fits in 4 cycles");
/// for n in g.node_ids() {
///     assert!(w.asap(n) <= w.alap(n));
///     assert!(w.alap(n) <= 4);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleWindows {
    latency: usize,
    asap: Vec<usize>,
    alap: Vec<usize>,
}

impl ScheduleWindows {
    /// Computes ASAP/ALAP levels for a schedule of `latency` cycles.
    ///
    /// Returns `None` when the latency is shorter than the critical path
    /// (no feasible schedule exists).
    #[must_use]
    pub fn compute(dfg: &Dfg, latency: usize) -> Option<Self> {
        Self::compute_in(dfg, &dfg.topo_order(), latency)
    }

    /// [`ScheduleWindows::compute`] along `order`, a topological order of
    /// `dfg` the caller already holds (see [`Dfg::topo_order`]).
    #[must_use]
    pub fn compute_in(dfg: &Dfg, order: &[NodeId], latency: usize) -> Option<Self> {
        let mut asap = vec![1usize; dfg.len()];
        for &n in order {
            for &s in dfg.succs(n) {
                asap[s.index()] = asap[s.index()].max(asap[n.index()] + 1);
            }
        }
        // The deepest ASAP level is the critical path.
        if asap.iter().copied().max().unwrap_or(0) > latency {
            return None;
        }
        let mut alap = vec![latency; dfg.len()];
        for &n in order.iter().rev() {
            for &s in dfg.succs(n) {
                alap[n.index()] = alap[n.index()].min(alap[s.index()] - 1);
            }
        }
        Some(ScheduleWindows {
            latency,
            asap,
            alap,
        })
    }

    /// The latency bound these windows were computed for.
    #[must_use]
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// Earliest feasible cycle for `n` (1-based).
    #[must_use]
    pub fn asap(&self, n: NodeId) -> usize {
        self.asap[n.index()]
    }

    /// Latest feasible cycle for `n` (1-based).
    #[must_use]
    pub fn alap(&self, n: NodeId) -> usize {
        self.alap[n.index()]
    }

    /// Mobility of `n`: slack between its ALAP and ASAP cycles.
    #[must_use]
    pub fn mobility(&self, n: NodeId) -> usize {
        self.alap[n.index()] - self.asap[n.index()]
    }

    /// Interval lower bound on concurrent units of `ip_type` when every op
    /// of that type runs `copies_per_op` times inside its window.
    ///
    /// For every cycle interval `[lo, hi]`, the ops whose windows lie
    /// entirely inside it need `⌈copies_per_op · confined / width⌉` units;
    /// the bound is the maximum over all intervals. A table of op counts
    /// per `(asap, alap)` pair, summed into 2-D prefix sums, gives every
    /// interval's count in O(1), so the whole bound costs O(n + λ²).
    ///
    /// `dfg` must be the graph these windows were computed for.
    ///
    /// # Examples
    ///
    /// ```
    /// use troy_dfg::{benchmarks, IpTypeId, ScheduleWindows};
    ///
    /// let g = benchmarks::fir16();
    /// let w = ScheduleWindows::compute(&g, 6).expect("feasible");
    /// let single = w.interval_bound(&g, IpTypeId::MULTIPLIER, 1);
    /// assert!(single >= 3);
    /// assert!(w.interval_bound(&g, IpTypeId::MULTIPLIER, 2) >= single);
    /// ```
    #[must_use]
    pub fn interval_bound(&self, dfg: &Dfg, ip_type: IpTypeId, copies_per_op: usize) -> usize {
        let latency = self.latency;
        // confined[lo][hi] = #ops with lo <= asap and alap <= hi, built
        // from per-(asap, alap) counts as a suffix sum over `lo` and a
        // prefix sum over `hi`. Row `latency + 1` and column 0 stay zero.
        let side = latency + 2;
        let mut confined = vec![0usize; side * side];
        for n in dfg.node_ids() {
            if dfg.kind(n).ip_type() == ip_type {
                confined[self.asap(n) * side + self.alap(n)] += 1;
            }
        }
        let mut best = 0usize;
        for lo in (1..=latency).rev() {
            for hi in 1..=latency {
                let at = lo * side + hi;
                confined[at] =
                    confined[at] + confined[at + side] + confined[at - 1] - confined[at + side - 1];
                if hi >= lo {
                    let width = hi - lo + 1;
                    best = best.max((copies_per_op * confined[at]).div_ceil(width));
                }
            }
        }
        best
    }
}

/// Lower bound on concurrent operations of one IP type, over all cycles.
///
/// The interval bound ([`ScheduleWindows::interval_bound`]) of the windows
/// at `latency`, one copy per op: for every cycle interval, the ops whose
/// windows force them into it, divided by its width. Used to prune
/// area-infeasible license sets.
///
/// # Examples
///
/// ```
/// use troy_dfg::{benchmarks, min_concurrency, IpTypeId};
///
/// let g = benchmarks::fir16();
/// // 16 multiplies cannot fit into 6 cycles with fewer than 3 multipliers.
/// assert!(min_concurrency(&g, 6, IpTypeId::MULTIPLIER) >= 3);
/// ```
#[must_use]
pub fn min_concurrency(dfg: &Dfg, latency: usize, ip_type: IpTypeId) -> usize {
    match ScheduleWindows::compute(dfg, latency) {
        Some(w) => w.interval_bound(dfg, ip_type, 1),
        None => usize::MAX, // infeasible latency: no finite resource count helps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dfg;
    use crate::op::OpKind;

    fn chain(len: usize) -> Dfg {
        let mut g = Dfg::new("chain");
        let mut prev = g.add_op(OpKind::Add);
        for _ in 1..len {
            let next = g.add_op(OpKind::Add);
            g.add_edge(prev, next).unwrap();
            prev = next;
        }
        g
    }

    #[test]
    fn windows_of_chain_have_zero_mobility_at_tight_latency() {
        let g = chain(4);
        let w = ScheduleWindows::compute(&g, 4).unwrap();
        for n in g.node_ids() {
            assert_eq!(w.mobility(n), 0);
            assert_eq!(w.asap(n), n.index() + 1);
        }
    }

    #[test]
    fn windows_gain_slack_with_extra_latency() {
        let g = chain(3);
        let w = ScheduleWindows::compute(&g, 5).unwrap();
        for n in g.node_ids() {
            assert_eq!(w.mobility(n), 2);
        }
    }

    #[test]
    fn infeasible_latency_returns_none() {
        let g = chain(4);
        assert!(ScheduleWindows::compute(&g, 3).is_none());
    }

    #[test]
    fn asap_never_exceeds_alap() {
        let g = chain(4);
        let w = ScheduleWindows::compute(&g, 6).unwrap();
        for n in g.node_ids() {
            assert!(w.asap(n) <= w.alap(n));
        }
    }

    #[test]
    fn min_concurrency_parallel_ops() {
        // 6 independent multiplies in 2 cycles need >= 3 multipliers.
        let mut g = Dfg::new("par");
        for _ in 0..6 {
            g.add_op(OpKind::Mul);
        }
        assert_eq!(min_concurrency(&g, 2, IpTypeId::MULTIPLIER), 3);
        assert_eq!(min_concurrency(&g, 6, IpTypeId::MULTIPLIER), 1);
        assert_eq!(min_concurrency(&g, 2, IpTypeId::ADDER), 0);
    }

    #[test]
    fn min_concurrency_infeasible_latency_is_max() {
        let g = chain(4);
        assert_eq!(min_concurrency(&g, 2, IpTypeId::ADDER), usize::MAX);
    }

    #[test]
    fn min_concurrency_interval_bound_beats_single_cycle() {
        // Two 2-chains of adds in 3 cycles: cycles 1..=3, each chain occupies
        // 2 of 3 cycles; interval [1,3] confines 4 ops width 3 -> ceil(4/3)=2.
        let mut g = Dfg::new("two-chains");
        for _ in 0..2 {
            let a = g.add_op(OpKind::Add);
            let b = g.add_op(OpKind::Add);
            g.add_edge(a, b).unwrap();
        }
        assert_eq!(min_concurrency(&g, 3, IpTypeId::ADDER), 2);
        assert_eq!(min_concurrency(&g, 2, IpTypeId::ADDER), 2);
        assert_eq!(min_concurrency(&g, 4, IpTypeId::ADDER), 1);
    }
}
