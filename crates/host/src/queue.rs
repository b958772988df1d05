//! Closed-loop multi-queue engine.
//!
//! Models the NVMe-style host side: each tenant owns a submission queue with
//! a bounded depth; a request occupies a slot from *admission* until
//! *completion*, and a new request is admitted only when a slot frees —
//! closed-loop, so arrival times shift under backpressure instead of the
//! open-loop assumption that the host fires regardless. A serial dispatcher
//! (the controller's command fetch path) drains submitted requests in
//! arbitration order and hands each to a device model supplied as a callback.
//!
//! The device callback receives `(tenant, seq, dispatch_ns)` and returns the
//! completion time; the engine owns all queueing, arbitration, admission and
//! metric bookkeeping, which keeps it independently testable with synthetic
//! service-time models.
//!
//! [`run_closed_loop_with`] keeps no per-request log. It borrows each
//! tenant's request stream as it is, reading arrival times through an
//! accessor, and hands each request's [`RequestOutcome`] to a sink as the
//! request completes; only the completions of the current simulated instant
//! are buffered, to put them in `(tenant, seq)` order. A caller keeps what
//! it needs: latency populations, a filtered log, nothing.
//! [`run_closed_loop`] is the same engine over plain arrival times, with a
//! sink that collects the whole log.

use std::collections::{BinaryHeap, VecDeque};

use ipu_flash::Nanos;
use serde::{Deserialize, Serialize};

use crate::arbiter::Arbiter;
use crate::config::HostConfig;
use crate::metrics::{fairness_ratio, LatencyStats, TenantMetrics};

/// Full life cycle of one request through the host interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    pub tenant: usize,
    /// Index into the tenant's arrival stream.
    pub seq: usize,
    /// When the host produced the request.
    pub arrival_ns: Nanos,
    /// When a queue slot was granted (= arrival unless the queue was full).
    pub admit_ns: Nanos,
    /// When the controller dispatched it to the device.
    pub dispatch_ns: Nanos,
    pub completion_ns: Nanos,
}

/// Aggregated result of one closed-loop run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostReport {
    pub queue_depth: usize,
    pub arbitration: String,
    pub tenants: Vec<TenantMetrics>,
    /// Min/max per-tenant throughput ratio (see [`fairness_ratio`]).
    pub fairness: f64,
    /// Last completion time of the run.
    pub horizon_ns: Nanos,
}

impl HostReport {
    /// Submission-to-completion latency over all tenants combined.
    pub fn overall_service_latency(&self) -> LatencyStats {
        let mut all = LatencyStats::new();
        for t in &self.tenants {
            all.merge(&t.service_latency);
        }
        all
    }

    pub fn total_completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }
}

/// A dispatched request in the completion heap: `(completion, tenant, seq,
/// arrival, admit, dispatch)`. The first three are unique per request, so
/// they alone decide the heap order; the times fill its outcome record.
type Pending = (Nanos, usize, usize, Nanos, Nanos, Nanos);

/// Per-tenant run state, over the tenant's borrowed request stream.
struct TenantQueue<'a, T> {
    /// Requests sorted by arrival time; `next_arrival` indexes the first not
    /// yet admitted.
    arrivals: &'a [T],
    next_arrival: usize,
    /// Admitted, waiting for the dispatcher: `(seq, arrival_ns, admit_ns)`.
    submitted: VecDeque<(usize, Nanos, Nanos)>,
    /// Dispatched to the device, not yet completed.
    inflight: usize,
    metrics: TenantMetrics,
}

impl<T> TenantQueue<'_, T> {
    fn occupancy(&self) -> usize {
        self.submitted.len() + self.inflight
    }

    fn exhausted(&self) -> bool {
        self.next_arrival == self.arrivals.len() && self.occupancy() == 0
    }
}

/// Runs the closed-loop simulation. `arrivals[t]` is tenant `t`'s sorted
/// request arrival times; `service(t, seq, dispatch_ns) -> completion_ns`
/// models the device (it is invoked in dispatch order with nondecreasing
/// dispatch times, so it may carry mutable device state).
///
/// Returns the per-tenant report and the per-request outcome log in
/// completion order: by `(completion, tenant, seq)`, which is unique.
pub fn run_closed_loop(
    cfg: &HostConfig,
    arrivals: &[Vec<Nanos>],
    service: impl FnMut(usize, usize, Nanos) -> Nanos,
) -> (HostReport, Vec<RequestOutcome>) {
    let mut outcomes = Vec::with_capacity(arrivals.iter().map(Vec::len).sum());
    let report = run_closed_loop_with(cfg, arrivals, |&t| t, service, |o| outcomes.push(*o));
    (report, outcomes)
}

/// [`run_closed_loop`] over streams of any request type, without a log.
/// `streams[t]` is tenant `t`'s requests, sorted by `arrival_ns(request)`;
/// `seq` indexes into it. `on_complete` receives every request's outcome
/// once, in completion order: by `(completion, tenant, seq)`, which is
/// unique. Returns the per-tenant report.
pub fn run_closed_loop_with<T>(
    cfg: &HostConfig,
    streams: &[Vec<T>],
    arrival_ns: impl Fn(&T) -> Nanos,
    mut service: impl FnMut(usize, usize, Nanos) -> Nanos,
    mut on_complete: impl FnMut(&RequestOutcome),
) -> HostReport {
    // Covers the whole closed loop; the FTL/device work the service callback
    // performs opens its own (nested) spans, so exclusive-time accounting
    // leaves this span with just the queue/arbitration/admission machinery.
    let _span = ipu_obs::span(ipu_obs::Phase::HostArbitration);
    assert_eq!(
        streams.len(),
        cfg.tenants.len(),
        "one arrival stream per configured tenant"
    );
    for stream in streams {
        assert!(
            stream
                .windows(2)
                .all(|w| arrival_ns(&w[0]) <= arrival_ns(&w[1])),
            "arrival times must be sorted"
        );
    }

    let depth = cfg.queue_depth;
    let mut queues: Vec<TenantQueue<T>> = cfg
        .tenants
        .iter()
        .zip(streams)
        .map(|(spec, stream)| {
            let mut metrics = TenantMetrics::new(spec.name.clone(), depth);
            metrics.first_arrival_ns = stream.first().map_or(0, &arrival_ns);
            TenantQueue {
                arrivals: stream,
                next_arrival: 0,
                submitted: VecDeque::new(),
                inflight: 0,
                metrics,
            }
        })
        .collect();
    let mut arbiter = Arbiter::new(cfg.arbitration, &cfg.tenants);

    // Pending completions, min-heap by (completion, tenant, seq). `Reverse`
    // flips `BinaryHeap`'s max ordering.
    use std::cmp::Reverse;
    let mut completions: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
    // The current instant's completions, reused from instant to instant.
    let mut done: Vec<RequestOutcome> = Vec::new();
    let mut dispatcher_free: Nanos = 0;
    let mut now: Nanos = 0;
    let mut ready = vec![false; queues.len()];

    loop {
        // Settle everything that can happen at the current instant, in causal
        // order: completions free slots → admissions fill them → the
        // dispatcher drains submitted work. Dispatching may produce another
        // same-instant completion, so iterate to a fixpoint.
        loop {
            let mut progressed = false;

            // Every completion popped here is at `now` (each completion time
            // is visited as an instant), in (tenant, seq) order within a pass.
            while let Some(&Reverse((t_done, tenant, seq, arrival, admit, dispatch))) =
                completions.peek()
            {
                if t_done > now {
                    break;
                }
                completions.pop();
                queues[tenant].inflight -= 1;
                done.push(RequestOutcome {
                    tenant,
                    seq,
                    arrival_ns: arrival,
                    admit_ns: admit,
                    dispatch_ns: dispatch,
                    completion_ns: t_done,
                });
                progressed = true;
            }

            for q in queues.iter_mut() {
                while q.next_arrival < q.arrivals.len()
                    && arrival_ns(&q.arrivals[q.next_arrival]) <= now
                    && q.occupancy() < depth
                {
                    let arrival = arrival_ns(&q.arrivals[q.next_arrival]);
                    q.next_arrival += 1;
                    let admit = now;
                    if admit > arrival {
                        q.metrics.admission_stall_ns += (admit - arrival) as u128;
                        q.metrics.stalled_requests += 1;
                    }
                    q.submitted.push_back((q.next_arrival - 1, arrival, admit));
                    progressed = true;
                }
            }

            while dispatcher_free <= now {
                for (i, q) in queues.iter().enumerate() {
                    ready[i] = !q.submitted.is_empty();
                }
                let Some(t) = arbiter.pick(&ready) else { break };
                let (seq, arrival, admit) = queues[t]
                    .submitted
                    .pop_front()
                    .expect("picked tenant has work");
                queues[t].inflight += 1;
                let completion = service(t, seq, now);
                assert!(completion >= now, "device completed before dispatch");
                completions.push(Reverse((completion, t, seq, arrival, admit, now)));
                let m = &mut queues[t].metrics;
                m.completed += 1;
                m.service_latency.record(completion - admit);
                m.e2e_latency.record(completion - arrival);
                m.last_completion_ns = m.last_completion_ns.max(completion);
                dispatcher_free = now + cfg.dispatch_overhead_ns;
                progressed = true;
                if cfg.dispatch_overhead_ns > 0 {
                    break;
                }
            }

            if !progressed {
                break;
            }
        }
        // A service that completes at its own dispatch instant pops in a
        // later pass than earlier same-instant completions, possibly after a
        // larger (tenant, seq). Sorting this instant's few records hands the
        // sink every outcome in (completion, tenant, seq) order.
        done.sort_unstable_by_key(|o| (o.tenant, o.seq));
        done.iter().for_each(&mut on_complete);
        done.clear();

        // Next instant anything can happen.
        let mut next: Option<Nanos> = completions.peek().map(|&Reverse((t, ..))| t);
        for q in &queues {
            if q.next_arrival < q.arrivals.len() && q.occupancy() < depth {
                let t = arrival_ns(&q.arrivals[q.next_arrival]);
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        }
        if queues.iter().any(|q| !q.submitted.is_empty()) && dispatcher_free > now {
            next = Some(next.map_or(dispatcher_free, |n| n.min(dispatcher_free)));
        }

        let Some(next) = next else {
            debug_assert!(
                queues.iter().all(TenantQueue::exhausted),
                "deadlocked queues"
            );
            break;
        };
        debug_assert!(next > now, "time must advance between fixpoints");
        let dt = next - now;
        for q in queues.iter_mut() {
            q.metrics.occupancy.observe(q.occupancy(), dt);
        }
        now = next;
    }

    let tenants: Vec<TenantMetrics> = queues.into_iter().map(|q| q.metrics).collect();
    HostReport {
        queue_depth: depth,
        arbitration: cfg.arbitration.label().to_string(),
        fairness: fairness_ratio(&tenants),
        horizon_ns: tenants
            .iter()
            .map(|t| t.last_completion_ns)
            .max()
            .unwrap_or(0),
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArbitrationPolicy, HostConfig, TenantSpec};

    /// Device with one serial resource: each request takes `service_ns` and
    /// requests execute one at a time in dispatch order.
    fn serial_device(service_ns: Nanos) -> impl FnMut(usize, usize, Nanos) -> Nanos {
        let mut busy_until: Nanos = 0;
        move |_t, _seq, dispatch| {
            let start = dispatch.max(busy_until);
            busy_until = start + service_ns;
            busy_until
        }
    }

    #[test]
    fn qd1_serializes_requests() {
        // One tenant, QD=1: each request admits only after the previous
        // completes, regardless of how bursty arrivals are.
        let cfg = HostConfig::single(1);
        let arrivals = vec![vec![0, 0, 0, 0]];
        let (report, outcomes) = run_closed_loop(&cfg, &arrivals, serial_device(100));
        assert_eq!(report.total_completed(), 4);
        assert_eq!(
            outcomes.iter().map(|o| o.dispatch_ns).collect::<Vec<_>>(),
            vec![0, 100, 200, 300]
        );
        // All but the first stalled for a slot; service latency stays flat.
        let t = &report.tenants[0];
        assert_eq!(t.stalled_requests, 3);
        assert_eq!(t.admission_stall_ns, (100 + 200 + 300) as u128);
        assert_eq!(t.service_latency.max_ns(), 100);
        assert_eq!(t.e2e_latency.max_ns(), 400);
    }

    #[test]
    fn deep_queue_absorbs_burst_without_stall() {
        let cfg = HostConfig::single(8);
        let arrivals = vec![vec![0, 0, 0, 0]];
        let (report, outcomes) = run_closed_loop(&cfg, &arrivals, serial_device(100));
        let t = &report.tenants[0];
        assert_eq!(t.stalled_requests, 0);
        assert_eq!(t.admission_stall_ns, 0);
        // All dispatched immediately; the device itself queues them.
        assert!(outcomes.iter().all(|o| o.dispatch_ns == 0));
        // Service latency now *includes* device queueing: 100..400.
        assert_eq!(t.service_latency.max_ns(), 400);
    }

    #[test]
    fn closed_loop_shifts_arrivals_under_backpressure() {
        // Open loop would fire at 0,10,20,30; closed loop QD=1 with 100 ns
        // service must push every admission to the prior completion.
        let cfg = HostConfig::single(1);
        let arrivals = vec![vec![0, 10, 20, 30]];
        let (_, outcomes) = run_closed_loop(&cfg, &arrivals, serial_device(100));
        assert_eq!(
            outcomes.iter().map(|o| o.admit_ns).collect::<Vec<_>>(),
            vec![0, 100, 200, 300]
        );
        assert_eq!(
            outcomes
                .iter()
                .map(|o| o.admit_ns - o.arrival_ns)
                .collect::<Vec<_>>(),
            vec![0, 90, 180, 270]
        );
    }

    #[test]
    fn occupancy_histogram_is_time_weighted() {
        let cfg = HostConfig::single(2);
        // One request at t=0 (service 100), idle to t=1000, then one more.
        let arrivals = vec![vec![0, 1_000]];
        let (report, _) = run_closed_loop(&cfg, &arrivals, serial_device(100));
        let occ = &report.tenants[0].occupancy;
        assert_eq!(occ.levels()[1], 200); // two requests × 100 ns in flight
        assert_eq!(occ.levels()[0], 900); // the idle gap
        assert_eq!(occ.levels()[2], 0);
        assert!((occ.mean() - 200.0 / 1100.0).abs() < 1e-9);
    }

    #[test]
    fn dispatcher_overhead_serializes_command_fetch() {
        // Infinite device parallelism; the 50 ns dispatcher is the bottleneck.
        let cfg = HostConfig::single(8).with_dispatch_overhead(50);
        let arrivals = vec![vec![0, 0, 0, 0]];
        let (_, outcomes) = run_closed_loop(&cfg, &arrivals, |_, _, d| d + 10);
        assert_eq!(
            outcomes.iter().map(|o| o.dispatch_ns).collect::<Vec<_>>(),
            vec![0, 50, 100, 150]
        );
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let cfg = HostConfig::new(
            4,
            ArbitrationPolicy::RoundRobin,
            vec![TenantSpec::new("a"), TenantSpec::new("b")],
        );
        let arrivals = vec![vec![0; 30], vec![0; 30]];
        let (report, outcomes) = run_closed_loop(&cfg, &arrivals, serial_device(10));
        let order: Vec<usize> = outcomes.iter().map(|o| o.tenant).collect();
        assert_eq!(&order[..6], &[0, 1, 0, 1, 0, 1]);
        assert!(
            order.chunks(2).all(|c| c == [0, 1]),
            "strict alternation expected"
        );
        assert!(
            (report.fairness - 1.0).abs() < 0.05,
            "fairness {}",
            report.fairness
        );
    }

    #[test]
    fn strict_priority_defers_bulk_class() {
        let cfg = HostConfig::new(
            4,
            ArbitrationPolicy::StrictPriority,
            vec![
                TenantSpec::new("urgent").with_priority(0),
                TenantSpec::new("bulk").with_priority(1),
            ],
        )
        .with_dispatch_overhead(100);
        // Device far faster than the dispatcher → the dispatcher is the
        // contended resource and priority decides who gets it.
        let arrivals = vec![vec![0; 20], vec![0; 20]];
        let (report, outcomes) = run_closed_loop(&cfg, &arrivals, |_, _, d| d + 10);
        let urgent_last_dispatch = outcomes
            .iter()
            .filter(|o| o.tenant == 0)
            .map(|o| o.dispatch_ns)
            .max()
            .unwrap();
        let bulk_first_dispatch = outcomes
            .iter()
            .filter(|o| o.tenant == 1)
            .map(|o| o.dispatch_ns)
            .min()
            .unwrap();
        assert!(
            bulk_first_dispatch > urgent_last_dispatch,
            "bulk dispatched at {bulk_first_dispatch} before urgent finished at \
             {urgent_last_dispatch}"
        );
        assert!(
            report.fairness < 0.7,
            "starvation must show in fairness: {}",
            report.fairness
        );
        assert_eq!(report.total_completed(), 40, "starved ≠ dropped");
    }

    #[test]
    fn empty_workloads_produce_empty_report() {
        let cfg = HostConfig::single(4);
        let (report, outcomes) = run_closed_loop(&cfg, &[Vec::new()], |_, _, d| d);
        assert_eq!(report.total_completed(), 0);
        assert!(outcomes.is_empty());
        assert_eq!(report.horizon_ns, 0);
        assert_eq!(report.fairness, 1.0);
    }

    #[test]
    fn outcome_log_is_complete_and_causal() {
        let cfg = HostConfig::new(
            2,
            ArbitrationPolicy::WeightedRoundRobin,
            vec![TenantSpec::new("a").with_weight(3), TenantSpec::new("b")],
        );
        let arrivals = vec![vec![0, 5, 10, 15, 20], vec![0, 7, 14]];
        let (report, outcomes) = run_closed_loop(&cfg, &arrivals, serial_device(25));
        assert_eq!(outcomes.len(), 8);
        assert_eq!(report.total_completed(), 8);
        for o in &outcomes {
            assert!(o.arrival_ns <= o.admit_ns);
            assert!(o.admit_ns <= o.dispatch_ns);
            assert!(o.dispatch_ns < o.completion_ns);
        }
        // Per-tenant seqs each appear exactly once.
        let mut seen = vec![Vec::new(); 2];
        for o in &outcomes {
            seen[o.tenant].push(o.seq);
        }
        seen.iter_mut().for_each(|s| s.sort_unstable());
        assert_eq!(seen[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(seen[1], vec![0, 1, 2]);
    }
}
