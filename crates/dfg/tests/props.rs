//! Property tests over randomly generated DFGs.

use proptest::prelude::*;
use troy_dfg::{
    min_concurrency, parse_dfg, random_dfg, write_dfg, Dfg, IpTypeId, RandomDfgConfig,
    ScheduleWindows,
};

fn config() -> impl Strategy<Value = (RandomDfgConfig, u64)> {
    (1usize..=40, 1usize..=8, 0u8..=100, 0u8..=100, any::<u64>()).prop_map(
        |(ops, max_depth, mul, bias, seed)| {
            (
                RandomDfgConfig {
                    ops,
                    max_depth,
                    mul_ratio_percent: mul,
                    edge_bias_percent: bias,
                },
                seed,
            )
        },
    )
}

/// The interval bound by direct scan, O(λ²·n): for every interval
/// `[lo, hi]`, count the ops of `t` whose windows lie inside it. This is
/// the reference that `ScheduleWindows::interval_bound` must agree with.
fn interval_bound_by_scan(g: &Dfg, w: &ScheduleWindows, t: IpTypeId, copies: usize) -> usize {
    let latency = w.latency();
    let mut best = 0usize;
    for lo in 1..=latency {
        for hi in lo..=latency {
            let confined = g
                .node_ids()
                .filter(|&n| g.kind(n).ip_type() == t && w.asap(n) >= lo && w.alap(n) <= hi)
                .count();
            best = best.max((copies * confined).div_ceil(hi - lo + 1));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_dfgs_validate_and_respect_bounds((cfg, seed) in config()) {
        let g = random_dfg(&cfg, seed);
        prop_assert_eq!(g.len(), cfg.ops);
        prop_assert!(g.critical_path_len() <= cfg.max_depth);
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn topo_order_is_a_valid_linearization((cfg, seed) in config()) {
        let g = random_dfg(&cfg, seed);
        let order = g.topo_order();
        prop_assert_eq!(order.len(), g.len());
        let pos = |n: troy_dfg::NodeId| order.iter().position(|&x| x == n).unwrap();
        for (a, b) in g.edges() {
            prop_assert!(pos(a) < pos(b));
        }
    }

    #[test]
    fn windows_are_consistent_at_any_feasible_latency((cfg, seed) in config(), slack in 0usize..4) {
        let g = random_dfg(&cfg, seed);
        let latency = g.critical_path_len() + slack;
        let w = ScheduleWindows::compute(&g, latency).expect("latency >= critical path");
        for n in g.node_ids() {
            prop_assert!(w.asap(n) >= 1);
            prop_assert!(w.asap(n) <= w.alap(n));
            prop_assert!(w.alap(n) <= latency);
            // Parents strictly precede children in both bounds.
            for &s in g.succs(n) {
                prop_assert!(w.asap(n) < w.asap(s));
                prop_assert!(w.alap(n) < w.alap(s));
            }
        }
    }

    #[test]
    fn tighter_latency_never_reduces_min_concurrency((cfg, seed) in config()) {
        let g = random_dfg(&cfg, seed);
        let cp = g.critical_path_len();
        for t in [IpTypeId::ADDER, IpTypeId::MULTIPLIER] {
            let tight = min_concurrency(&g, cp, t);
            let loose = min_concurrency(&g, cp + 3, t);
            prop_assert!(loose <= tight);
        }
    }

    #[test]
    fn interval_bound_matches_the_direct_scan((cfg, seed) in config()) {
        let g = random_dfg(&cfg, seed);
        let cp = g.critical_path_len();
        for latency in cp..=cp + 6 {
            let w = ScheduleWindows::compute(&g, latency).expect("latency >= critical path");
            for t in IpTypeId::all() {
                for copies in [1, 2] {
                    prop_assert_eq!(
                        w.interval_bound(&g, t, copies),
                        interval_bound_by_scan(&g, &w, t, copies)
                    );
                }
                prop_assert_eq!(min_concurrency(&g, latency, t), w.interval_bound(&g, t, 1));
            }
        }
    }

    #[test]
    fn text_format_round_trips((cfg, seed) in config()) {
        let g = random_dfg(&cfg, seed);
        let text = write_dfg(&g);
        let back = parse_dfg(&text).expect("own output parses");
        prop_assert_eq!(back.len(), g.len());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        prop_assert_eq!(back.critical_path_len(), g.critical_path_len());
        for n in g.node_ids() {
            prop_assert_eq!(back.kind(n), g.kind(n));
        }
    }

    #[test]
    fn sibling_pairs_are_symmetric_and_real((cfg, seed) in config()) {
        let g = random_dfg(&cfg, seed);
        for (a, b) in g.sibling_pairs() {
            prop_assert!(a < b);
            // They must genuinely share a child.
            let share = g
                .node_ids()
                .any(|n| g.preds(n).contains(&a) && g.preds(n).contains(&b));
            prop_assert!(share);
        }
    }
}
