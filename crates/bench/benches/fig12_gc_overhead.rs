//! `cargo bench -p ipu-bench --bench fig12_gc_overhead`
//!
//! Regenerates the paper's Figure 12 — the computational overhead of GC
//! victim selection — with Criterion. The paper reports that IPU's ISR policy
//! costs only ~1.2% more than Baseline's greedy policy (their measurement:
//! <2.48 ms per selection at paper scale).
//!
//! The benchmark replays ts0 through an IPU FTL (the bench configuration,
//! `IPU_BENCH_SCALE` of the paper's device and request count) until the first
//! SLC GC round has run, so the SLC region holds the valid/invalid mix and
//! update history a real workload leaves. On that state it times the two
//! selectors production calls: the indexed greedy pick and the
//! Jensen-bounded ISR pick. The full-scan ISR oracle the property tests
//! compare against is timed as a labelled reference and must pick the same
//! victim.

use criterion::{criterion_group, criterion_main, Criterion};
use ipu_bench::bench_config;
use ipu_core::experiment::generate_trace;
use ipu_core::flash::FlashDevice;
use ipu_core::ftl::{FtlScheme, SchemeKind};
use ipu_core::trace::{OpKind, PaperTrace};
use std::time::{Duration, Instant};

/// Replays ts0 through IPU until the first SLC GC round has run; returns the
/// device, the FTL, the simulated time reached and the requests replayed.
fn populate() -> (FlashDevice, Box<dyn FtlScheme>, u64, usize) {
    let cfg = bench_config();
    let requests = generate_trace(&cfg, PaperTrace::Ts0);
    let mut dev = FlashDevice::new(cfg.device.clone());
    let mut ftl = SchemeKind::Ipu.build(&mut dev, cfg.ftl.clone());
    for (n, req) in requests.iter().enumerate() {
        match req.op {
            OpKind::Write => ftl.on_write(req, req.timestamp_ns, &mut dev),
            OpKind::Read => ftl.on_read(req, req.timestamp_ns, &mut dev),
        };
        if ftl.core().stats.gc_runs_slc > 0 {
            return (dev, ftl, req.timestamp_ns, n + 1);
        }
    }
    panic!("ts0 at scale {} never ran SLC GC", cfg.scale);
}

/// Mean wall time of `f` over `n` calls.
fn mean_time(n: u32, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed() / n
}

fn gc_selection(c: &mut Criterion) {
    let (dev, mut ftl, now, replayed) = populate();
    let slc_blocks = ftl.core().meta.slc_blocks().count();
    let scale = bench_config().scale;
    eprintln!(
        "[fig12] ts0 at scale {scale}: first SLC GC round after {replayed} requests, \
         {slc_blocks} SLC blocks"
    );
    let isr = ftl.core_mut().select_slc_victim_isr(&dev, now);
    assert_eq!(
        isr,
        ftl.core().oracle_slc_victim_isr(&dev, now),
        "indexed ISR pick must match the full-scan oracle"
    );

    let mut group = c.benchmark_group("fig12_gc_victim_selection");
    group.sample_size(20);
    group.bench_function("baseline_greedy", |b| {
        b.iter(|| criterion::black_box(ftl.core().select_slc_victim_greedy()))
    });
    group.bench_function("ipu_isr", |b| {
        b.iter(|| criterion::black_box(ftl.core_mut().select_slc_victim_isr(&dev, now)))
    });
    group.bench_function("ipu_isr_full_scan_oracle", |b| {
        b.iter(|| criterion::black_box(ftl.core().oracle_slc_victim_isr(&dev, now)))
    });
    group.finish();

    // Print the Figure 12 comparison explicitly. The indexed greedy pick is
    // a bucket lookup, so the ISR pick's extra cost is reported in absolute
    // time rather than as a ratio of the two.
    let greedy = mean_time(100_000, || {
        std::hint::black_box(ftl.core().select_slc_victim_greedy());
    });
    let isr = mean_time(200, || {
        std::hint::black_box(ftl.core_mut().select_slc_victim_isr(&dev, now));
    });
    let oracle = mean_time(20, || {
        std::hint::black_box(ftl.core().oracle_slc_victim_isr(&dev, now));
    });
    println!(
        "Figure 12 — GC victim-selection compute overhead \
         (ts0 at scale {scale}, {slc_blocks} SLC blocks, state after the first SLC GC round)"
    );
    println!("  Baseline greedy (indexed)       : {greedy:?} per selection");
    println!("  IPU ISR (Jensen-bounded)        : {isr:?} per selection");
    println!(
        "  ISR extra cost                  : {:?} per selection  (paper: +1.2%, both < 2.48 ms)",
        isr.saturating_sub(greedy)
    );
    println!("  reference: ISR full-scan oracle : {oracle:?} per selection (same victim)");
}

criterion_group!(benches, gc_selection);
criterion_main!(benches);
