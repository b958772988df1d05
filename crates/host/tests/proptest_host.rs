//! Property-based tests of the arbitration QoS guarantees.
//!
//! Whatever the queue depth, workload size or dispatch overhead, two
//! properties must hold under saturation (every tenant has work at t=0 and
//! the serial dispatcher is the bottleneck):
//!
//! * round-robin over equal-weight tenants is fair — per-tenant throughputs
//!   stay within a small ratio bound of each other, and
//! * strict priority starves the low class — no bulk request dispatches
//!   before the urgent class has drained, so fairness collapses (while every
//!   request still completes: starvation delays, it never drops).
//!
//! Two more hold for any load: the outcome log is the dispatch-order log
//! sorted by `(completion, tenant, seq)`, and the sink of
//! `run_closed_loop_with`, reading arrival times from any request type,
//! receives exactly that log, in that order.

use ipu_host::{run_closed_loop, run_closed_loop_with, ArbitrationPolicy, HostConfig, TenantSpec};
use proptest::prelude::*;

/// Saturated arrivals: `m` requests per tenant, all wanting service at t=0.
fn saturated(tenants: usize, m: usize) -> Vec<Vec<u64>> {
    vec![vec![0; m]; tenants]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rr_equal_tenants_get_equal_throughput(
        n in 2usize..=4,
        m in 20usize..=60,
        qd in 1usize..=8,
        overhead in 50u64..=200,
        service in 1u64..=100,
    ) {
        let tenants = (0..n).map(|i| TenantSpec::new(format!("t{i}"))).collect();
        let cfg = HostConfig::new(qd, ArbitrationPolicy::RoundRobin, tenants)
            .with_dispatch_overhead(overhead);
        let (report, _) = run_closed_loop(&cfg, &saturated(n, m), |_, _, d| d + service);

        for t in &report.tenants {
            prop_assert_eq!(t.completed, m as u64, "tenant {} dropped requests", t.name);
        }
        // Equal weights + identical workloads: the only spread left is the
        // final partial round of the interleave, which vanishes as m grows.
        prop_assert!(
            report.fairness >= 0.85,
            "round-robin fairness {} below bound (n={n}, m={m}, qd={qd})",
            report.fairness
        );
    }

    #[test]
    fn strict_priority_starves_low_class_under_saturation(
        m in 20usize..=60,
        qd in 1usize..=4,
        overhead in 50u64..=200,
    ) {
        let tenants = vec![
            TenantSpec::new("urgent").with_priority(0),
            TenantSpec::new("bulk").with_priority(1),
        ];
        let cfg = HostConfig::new(qd, ArbitrationPolicy::StrictPriority, tenants)
            .with_dispatch_overhead(overhead);
        // Device service below the dispatch overhead: the urgent queue is
        // always refilled by the time the dispatcher frees, so it never
        // yields a turn to the bulk class.
        let (report, outcomes) =
            run_closed_loop(&cfg, &saturated(2, m), |_, _, d| d + overhead / 2);

        let urgent_last = outcomes.iter().filter(|o| o.tenant == 0).map(|o| o.dispatch_ns).max();
        let bulk_first = outcomes.iter().filter(|o| o.tenant == 1).map(|o| o.dispatch_ns).min();
        prop_assert!(
            bulk_first >= urgent_last,
            "bulk dispatched at {bulk_first:?} before urgent drained at {urgent_last:?}"
        );
        prop_assert!(
            report.fairness < 0.75,
            "fairness {} does not reflect starvation", report.fairness
        );
        // Starvation delays the low class; it must not drop it.
        prop_assert_eq!(report.total_completed(), 2 * m as u64);
    }

    /// The engine hands out outcomes as completions pop, sorting only each
    /// instant's few: the log must equal the one the device callback sees in
    /// dispatch order,
    /// sorted by `(completion, tenant, seq)`. Arrivals on a 10 ns grid and
    /// service times of 0–30 ns make many completions share an instant,
    /// including zero-time services that complete at their own dispatch.
    #[test]
    fn outcome_log_is_the_dispatch_log_in_completion_order(
        streams in proptest::collection::vec(
            proptest::collection::vec((0u64..8, 0u64..4), 1..25),
            1..=4,
        ),
        qd in 1usize..=6,
        policy in prop_oneof![
            Just(ArbitrationPolicy::RoundRobin),
            Just(ArbitrationPolicy::WeightedRoundRobin),
            Just(ArbitrationPolicy::StrictPriority)
        ],
        overhead in prop_oneof![Just(0u64), Just(5u64), Just(10u64)],
    ) {
        let tenants = (0..streams.len())
            .map(|i| {
                TenantSpec::new(format!("t{i}"))
                    .with_weight(i as u32 + 1)
                    .with_priority(i as u32 % 2)
            })
            .collect();
        let cfg = HostConfig::new(qd, policy, tenants).with_dispatch_overhead(overhead);
        let arrivals: Vec<Vec<u64>> = streams
            .iter()
            .map(|s| {
                let mut a: Vec<u64> = s.iter().map(|&(slot, _)| slot * 10).collect();
                a.sort_unstable();
                a
            })
            .collect();
        let mut dispatched = Vec::new();
        let (report, outcomes) = run_closed_loop(&cfg, &arrivals, |t, seq, dispatch| {
            let completion = dispatch + streams[t][seq].1 * 10;
            dispatched.push((completion, t, seq, dispatch));
            completion
        });
        dispatched.sort_unstable();
        let logged: Vec<_> = outcomes
            .iter()
            .map(|o| (o.completion_ns, o.tenant, o.seq, o.dispatch_ns))
            .collect();
        prop_assert_eq!(logged, dispatched);
        prop_assert_eq!(outcomes.len() as u64, report.total_completed());
        for o in &outcomes {
            prop_assert_eq!(o.arrival_ns, arrivals[o.tenant][o.seq]);
            prop_assert!(o.arrival_ns <= o.admit_ns && o.admit_ns <= o.dispatch_ns);
        }
    }

    /// The sink sees the log `run_closed_loop` returns, element by element,
    /// when the engine reads each arrival time from the request it belongs
    /// to instead of from a copied list of times; the reports agree too.
    #[test]
    fn sink_receives_the_outcome_log(
        streams in proptest::collection::vec(
            proptest::collection::vec((0u64..8, 0u64..4), 1..25),
            1..=4,
        ),
        qd in 1usize..=6,
        policy in prop_oneof![
            Just(ArbitrationPolicy::RoundRobin),
            Just(ArbitrationPolicy::WeightedRoundRobin),
            Just(ArbitrationPolicy::StrictPriority)
        ],
        overhead in prop_oneof![Just(0u64), Just(5u64), Just(10u64)],
    ) {
        let tenants = (0..streams.len())
            .map(|i| {
                TenantSpec::new(format!("t{i}"))
                    .with_weight(i as u32 + 1)
                    .with_priority(i as u32 % 2)
            })
            .collect();
        let cfg = HostConfig::new(qd, policy, tenants).with_dispatch_overhead(overhead);
        // Each request is `(arrival, service)`, sorted by arrival.
        let requests: Vec<Vec<(u64, u64)>> = streams
            .iter()
            .map(|s| {
                let mut r: Vec<(u64, u64)> =
                    s.iter().map(|&(slot, service)| (slot * 10, service * 10)).collect();
                r.sort_unstable();
                r
            })
            .collect();
        let arrivals: Vec<Vec<u64>> = requests
            .iter()
            .map(|r| r.iter().map(|&(arrival, _)| arrival).collect())
            .collect();
        let (report, log) =
            run_closed_loop(&cfg, &arrivals, |t, seq, d| d + requests[t][seq].1);
        let mut sunk = Vec::new();
        let streamed = run_closed_loop_with(
            &cfg,
            &requests,
            |&(arrival, _)| arrival,
            |t, seq, d| d + requests[t][seq].1,
            |o| sunk.push(*o),
        );
        prop_assert_eq!(sunk, log);
        prop_assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&report).unwrap()
        );
    }
}
