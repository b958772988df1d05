//! The discrete-event replay core against its oracle.
//!
//! Two pins from ISSUE 9: (1) with the default timing model the event core is
//! **bit-identical** to the retained inline engine (`replay_oracle`) — checked
//! as full `SimReport` JSON equality over random small traces × all four
//! schemes; (2) preemptible GC strictly improves write p999 over
//! run-to-completion GC on a bursty write trace.

use ipu_ftl::SchemeKind;
use ipu_sim::{replay, replay_oracle, GcMode, ReplayConfig, TimingConfig};
use ipu_trace::{IoRequest, OpKind};
use proptest::prelude::*;

/// Builds a trace from proptest raw material: per request a time gap, an
/// op selector, a slot in a small working set (overwrites force GC), and a
/// size class.
fn build_trace(raw: &[(u64, u8, u64, u8)]) -> Vec<IoRequest> {
    let mut t = 0u64;
    raw.iter()
        .map(|&(gap, op, slot, size)| {
            t += gap;
            let op = if op % 4 == 3 {
                OpKind::Read
            } else {
                OpKind::Write
            };
            IoRequest::new(t, op, slot * 65536, 4096 * (1 + size as u32 % 4))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit-identity: the event core's `SimReport` serializes to exactly the
    /// oracle's JSON for every scheme on random small traces.
    #[test]
    fn event_core_report_is_bit_identical_to_oracle(
        raw in proptest::collection::vec(
            (0u64..200_000, 0u8..4, 0u64..14, 0u8..4),
            1..80,
        )
    ) {
        let reqs = build_trace(&raw);
        for scheme in SchemeKind::all_extended() {
            let cfg = ReplayConfig::small_for_tests(scheme);
            let ours = serde_json::to_string(&replay(&cfg, &reqs, "eq")).unwrap();
            let oracle = serde_json::to_string(&replay_oracle(&cfg, &reqs, "eq")).unwrap();
            prop_assert_eq!(&ours, &oracle, "{} diverged from oracle", scheme);
        }
    }
}

/// A write burst dense enough that GC rounds are in flight when host writes
/// arrive: overwrites within a small working set at tight spacing.
fn bursty_writes(n: u64, spacing_ns: u64) -> Vec<IoRequest> {
    (0..n)
        .map(|i| IoRequest::new(i * spacing_ns, OpKind::Write, (i % 10) * 65536, 8192))
        .collect()
}

/// Preemptible GC strictly improves the write-latency tail: under
/// run-to-completion a host write arriving mid-round waits for the whole
/// remainder, under preemption at most one pulse.
#[test]
fn preemptible_gc_strictly_improves_p999_over_run_to_completion() {
    // Spaced so the device keeps up between GC rounds: the tail is then the
    // GC-interference wait, not unbounded queue growth. A short erase keeps
    // rounds genuinely multi-pulse (many relocation reads/programs + erase),
    // so "one pulse" and "whole round" are far apart.
    let reqs = bursty_writes(600, 1_000_000);
    let mut preempt_cfg = ReplayConfig::small_for_tests(SchemeKind::Baseline);
    preempt_cfg.device.timing.erase_ms = 2.0;
    preempt_cfg.timing = TimingConfig {
        gc_mode: GcMode::Preemptible,
        suspend_granularity_ns: 0,
    };
    let mut rtc_cfg = preempt_cfg.clone();
    rtc_cfg.timing.gc_mode = GcMode::RunToCompletion;

    let preempt = replay(&preempt_cfg, &reqs, "bursty");
    let rtc = replay(&rtc_cfg, &reqs, "bursty");

    // Same work reaches the device either way; only the interleaving moves.
    assert_eq!(preempt.ftl, rtc.ftl);
    assert_eq!(preempt.busy.background_ns, rtc.busy.background_ns);

    let p_tail = preempt.write_latency.percentile_ns(99.9);
    let r_tail = rtc.write_latency.percentile_ns(99.9);
    assert!(
        p_tail < r_tail,
        "preemptible p999 {p_tail} must be strictly below run-to-completion {r_tail}"
    );
    // The worst-case wait shrinks too: one pulse versus a whole round.
    assert!(preempt.write_latency.max_ns() < rtc.write_latency.max_ns());
}

/// `suspend_granularity_ns = 0` (the default) is bit-identical to the legacy
/// model; a positive granularity only ever delays reads.
#[test]
fn zero_suspend_granularity_preserves_legacy_timings() {
    let mut reqs = bursty_writes(200, 12_000);
    let base_t = reqs.last().unwrap().timestamp_ns;
    for i in 0..120u64 {
        reqs.push(IoRequest::new(
            base_t + i * 3_000,
            OpKind::Read,
            (i % 10) * 65536,
            4096,
        ));
    }

    let default_cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
    let mut zero_cfg = default_cfg.clone();
    zero_cfg.timing.suspend_granularity_ns = 0;
    let mut pos_cfg = default_cfg.clone();
    pos_cfg.timing.suspend_granularity_ns = 20_000;

    let default_rep = serde_json::to_string(&replay(&default_cfg, &reqs, "s")).unwrap();
    let zero_rep = serde_json::to_string(&replay(&zero_cfg, &reqs, "s")).unwrap();
    assert_eq!(default_rep, zero_rep, "explicit 0 must equal the default");

    let legacy = replay(&default_cfg, &reqs, "s");
    let suspended = replay(&pos_cfg, &reqs, "s");
    // Suspension never accelerates reads and never touches the write channel.
    assert!(suspended.read_latency.sum_ns() >= legacy.read_latency.sum_ns());
    assert_eq!(
        suspended.write_latency.sum_ns(),
        legacy.write_latency.sum_ns()
    );
    assert_eq!(suspended.ftl, legacy.ftl);
}

/// Round tagging invariants across schemes: host ops always carry round 0,
/// background ops a valid 1-based round whose origin is recorded, and round
/// ids are non-decreasing within a batch.
#[test]
fn op_batches_carry_wellformed_round_tags() {
    use ipu_ftl::{FtlConfig, OpBatch};

    for scheme in SchemeKind::all_extended() {
        let cfg = ReplayConfig::small_for_tests(scheme);
        let mut dev = ipu_flash::FlashDevice::new(cfg.device.clone());
        let mut ftl = scheme.build(&mut dev, FtlConfig::default());
        let mut batch = OpBatch::new();
        let mut saw_background = false;
        for req in bursty_writes(300, 10_000) {
            batch.clear();
            ftl.on_write_into(&req, req.timestamp_ns, &mut dev, &mut batch);
            let mut last_round = 0u32;
            for op in &batch.ops {
                if op.kind.is_host() {
                    assert_eq!(op.round, 0, "{scheme}: host op tagged round {}", op.round);
                } else if op.round > 0 {
                    saw_background = true;
                    assert!(
                        batch.round_origin(op.round).is_some(),
                        "{scheme}: background op in unrecorded round {}",
                        op.round
                    );
                    assert!(
                        op.round >= last_round,
                        "{scheme}: round ids must be non-decreasing"
                    );
                    last_round = op.round;
                }
            }
            assert!(batch.rounds_used() as usize == batch.round_origins.len());
        }
        assert!(saw_background, "{scheme}: workload never triggered GC");
    }
}
