//! The measured runs: scheme passes interleaved round-robin until the time
//! budget is spent, reduced to medians per scheme and per round.

use std::time::{Duration, Instant};

use ipu_ftl::SchemeKind;
use ipu_host::LatencyStats;
use ipu_obs::Phase;

use crate::calib::{Reference, REFERENCE_NOMINAL_S};
use crate::checks::fingerprint;
use crate::drive::{traced_pass, untraced_pass, LayerSample, PassOutput};
use crate::stats::{interpolated_percentile_ns, median, peak_rss_mb, percentile};
use crate::workload::Setup;

/// Rounds a run makes even when its time budget is already spent: the
/// repeated-pass identity check needs two, a median wants three.
pub const MIN_ROUNDS: usize = 3;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line of one benchmark run.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Pass outputs and check outcomes gathered over a run.
struct Ledger {
    /// The first pass of each scheme; later passes must serialize the same.
    first: Vec<Option<PassOutput>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn new(schemes: usize) -> Ledger {
        Ledger {
            first: (0..schemes).map(|_| None).collect(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn absorb(&mut self, i: usize, scheme: SchemeKind, out: PassOutput, what: &str) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        if let Err(e) = &out.check {
            self.errors.push(format!("{what} pass: {e}"));
        }
        match &self.first[i] {
            None => self.first[i] = Some(out),
            Some(first) if first.json != out.json => self.errors.push(format!(
                "{scheme}: {what} pass report differs from the first untraced pass"
            )),
            Some(_) => {}
        }
    }

    fn first(&self, setup: &Setup, scheme: SchemeKind) -> &PassOutput {
        let i = scheme_index(setup, scheme);
        self.first[i].as_ref().expect("every scheme ran")
    }

    fn firsts(&self) -> impl Iterator<Item = &PassOutput> {
        self.first.iter().flatten()
    }

    fn finish(self, setup: &Setup, metrics: Vec<Metric>) -> RunResult {
        for (scheme, out) in setup.schemes.iter().zip(&self.first) {
            if let Some(out) = out {
                let counters: Vec<String> = fingerprint(&out.sims)
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                eprintln!("fingerprint {scheme}: {}", counters.join(" "));
            }
        }
        let correct = self.errors.is_empty();
        for e in &self.errors {
            eprintln!("check failed: {e}");
        }
        RunResult {
            correct,
            attempted: self.attempted,
            // A failed check fails every operation of the run.
            failed: if correct { self.failed } else { self.attempted },
            metrics,
        }
    }
}

fn scheme_index(setup: &Setup, scheme: SchemeKind) -> usize {
    setup
        .schemes
        .iter()
        .position(|&s| s == scheme)
        .expect("scheme is part of the workload")
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The passes of a run, one row per round, each with the factor that
/// scales its host times to the reference speed, and the set-up timings
/// taken between rounds.
struct Rounds<T> {
    passes: Vec<Vec<(f64, T)>>,
    /// Input preparation (`setup_s`), at the reference speed.
    setup_s: Vec<f64>,
    /// Trace synthesis within it (`trace.gen_s`), at the reference speed.
    gen_s: Vec<f64>,
    /// Raw host seconds of each reference run, for the diagnostics line.
    reference_s: Vec<f64>,
}

/// Runs rounds of passes, rotating which scheme goes first, until `budget`
/// is spent (and at least `min_rounds` ran). `pass(i)` runs scheme `i`.
/// Each round starts by preparing the inputs again, so set-up is timed
/// across the whole run rather than once at its start. The reference runs
/// between every two timed steps; a step's scale factor uses the reference
/// runs on either side of it.
fn rounds<T>(
    setup: &Setup,
    ledger: &mut Ledger,
    budget: Duration,
    min_rounds: usize,
    mut pass: impl FnMut(&mut Ledger, usize) -> T,
) -> Rounds<T> {
    let n = setup.schemes.len();
    let start = Instant::now();
    let mut out = Rounds {
        passes: Vec::new(),
        setup_s: Vec::new(),
        gen_s: Vec::new(),
        reference_s: Vec::new(),
    };
    let mut reference = Reference::new();
    let mut last = reference.seconds();
    out.reference_s.push(last);
    let mut factor = |out: &mut Rounds<T>| {
        let now = reference.seconds();
        out.reference_s.push(now);
        let f = REFERENCE_NOMINAL_S / ((last + now) / 2.0);
        last = now;
        f
    };
    while out.passes.len() < min_rounds || start.elapsed() < budget {
        let prepared = setup.prepare_again();
        let f = factor(&mut out);
        match prepared {
            Some((prepare_s, gen_s)) => {
                out.setup_s.push(prepare_s * f);
                out.gen_s.push(gen_s * f);
            }
            None => ledger
                .errors
                .push("the same seed synthesized different requests".to_string()),
        }
        let r = out.passes.len();
        let mut slots: Vec<Option<(f64, T)>> = (0..n).map(|_| None).collect();
        for k in 0..n {
            let i = (r + k) % n;
            let t = pass(ledger, i);
            slots[i] = Some((factor(&mut out), t));
        }
        out.passes.push(
            slots
                .into_iter()
                .map(|s| s.expect("every slot ran"))
                .collect(),
        );
    }
    out
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end run: untraced passes through the public entry points.
pub fn end_to_end(setup: &Setup, budget: Duration, min_rounds: usize) -> RunResult {
    let mut ledger = Ledger::new(setup.schemes.len());
    let run = rounds(setup, &mut ledger, budget, min_rounds, |ledger, i| {
        let scheme = setup.schemes[i];
        let t = Instant::now();
        let out = untraced_pass(setup, scheme);
        let dt = t.elapsed().as_secs_f64();
        ledger.absorb(i, scheme, out, "untraced");
        dt
    });
    let round_s = |scale: bool| {
        let sums: Vec<f64> = run
            .passes
            .iter()
            .map(|r| r.iter().map(|(f, t)| if scale { f * t } else { *t }).sum())
            .collect();
        median(&sums)
    };
    let pass_s = |scheme| {
        let i = scheme_index(setup, scheme);
        median(
            &run.passes
                .iter()
                .map(|r| r[i].0 * r[i].1)
                .collect::<Vec<_>>(),
        )
    };
    eprintln!(
        "{} rounds; raw wall_s {:.4} s; reference median {:.5} s (nominal {REFERENCE_NOMINAL_S} s)",
        run.passes.len(),
        round_s(false),
        median(&run.reference_s)
    );
    let ipu = ledger.first(setup, SchemeKind::Ipu);
    let mga = ledger.first(setup, SchemeKind::Mga);
    let metrics = vec![
        metric("setup_s", median(&run.setup_s), "s"),
        metric("wall_s", round_s(true), "s"),
        metric("wall_s.ipu", pass_s(SchemeKind::Ipu), "s"),
        metric("wall_s.mga", pass_s(SchemeKind::Mga), "s"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
        metric("sim_resp_us.ipu", ipu.response.mean_ns() / 1e3, "us"),
        metric("sim_resp_us.mga", mga.response.mean_ns() / 1e3, "us"),
        metric(
            "sim_p99_us.ipu",
            interpolated_percentile_ns(&ipu.response, 99.0) / 1e3,
            "us",
        ),
        metric("sim_read_err.ipu", ipu.read_error_rate(), "ratio"),
    ];
    ledger.finish(setup, metrics)
}

/// The traced run: each round runs every scheme untraced and traced; the
/// traced pass must reproduce the untraced one's reports exactly.
pub fn per_layer(setup: &Setup, budget: Duration, min_rounds: usize) -> RunResult {
    let mut ledger = Ledger::new(setup.schemes.len());
    let run = rounds(setup, &mut ledger, budget, min_rounds, |ledger, i| {
        let scheme = setup.schemes[i];
        let t = Instant::now();
        let plain = untraced_pass(setup, scheme);
        let untraced_s = t.elapsed().as_secs_f64();
        let (traced, sample) = traced_pass(setup, scheme);
        // The traced loop's reports must equal the program's: `absorb`
        // compares them with the scheme's first untraced pass.
        ledger.absorb(i, scheme, plain, "untraced");
        ledger.absorb(i, scheme, traced, "traced");
        (untraced_s, sample)
    });
    let samples = &run.passes;

    // Host times at the reference speed: medians over rounds, of one scheme
    // or summed over all.
    let per_scheme = |scheme: SchemeKind, f: &dyn Fn(&LayerSample) -> f64| {
        let i = scheme_index(setup, scheme);
        median(
            &samples
                .iter()
                .map(|r| r[i].0 * f(&r[i].1 .1))
                .collect::<Vec<_>>(),
        )
    };
    let all = |f: &dyn Fn(&LayerSample) -> f64| {
        median(
            &samples
                .iter()
                .map(|r| r.iter().map(|(k, (_, s))| k * f(s)).sum())
                .collect::<Vec<f64>>(),
        )
    };
    let write_call_p99 = median(
        &samples
            .iter()
            .map(|r| {
                let mut calls: Vec<u64> = r
                    .iter()
                    .flat_map(|(k, (_, s))| {
                        s.write_calls_ns
                            .iter()
                            .map(move |&ns| (k * ns as f64) as u64)
                    })
                    .collect();
                micros(percentile(&mut calls, 99.0))
            })
            .collect::<Vec<_>>(),
    );
    let overhead = all(&|s| s.wall)
        - median(
            &samples
                .iter()
                .map(|r| r.iter().map(|(k, (u, _))| k * u).sum())
                .collect::<Vec<f64>>(),
        );
    let (covered, wall) = samples
        .iter()
        .flatten()
        .fold((0.0, 0.0), |(c, w), (_, (_, s))| {
            (c + s.covered(), w + s.wall)
        });
    let first_round = &samples[0];

    // Simulated counts: deterministic, from the first pass of each scheme.
    let sims = |scheme: SchemeKind| ledger.first(setup, scheme).sims.iter();
    let all_sims = || ledger.firsts().flat_map(|o| o.sims.iter());
    let sum = |it: &mut dyn Iterator<Item = u64>| it.sum::<u64>() as f64;
    let gc_rounds = |s| sum(&mut sims(s).map(|r| r.ftl.gc_runs_slc + r.ftl.gc_runs_mlc));
    let gc_moved = |s| sum(&mut sims(s).map(|r| r.ftl.gc_moved_subpages));
    let waf = |s| {
        let programmed = sum(&mut sims(s).map(|r| r.device.subpages_programmed));
        let host =
            sum(&mut sims(s).map(|r| r.ftl.host_subpages_to_slc + r.ftl.host_subpages_to_mlc));
        if host > 0.0 {
            programmed / host
        } else {
            0.0
        }
    };
    let requests = sum(&mut all_sims().map(|r| r.requests));
    let flash_ops =
        sum(&mut all_sims().map(|r| r.device.programs + r.device.reads + r.device.erases));
    let chips = setup.cfg.device.geometry.total_chips() as f64;
    let background = sum(&mut all_sims().map(|r| r.busy.background_ns));
    let device_time: f64 = all_sims()
        .map(|r| chips * r.simulated_horizon_ns as f64)
        .sum();
    let mut admit = LatencyStats::new();
    for o in ledger.firsts() {
        admit.merge(&o.admit_stall);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let tenants = |s| ledger.first(setup, s).tenants_at_slo as f64;
    let (ipu, mga) = (SchemeKind::Ipu, SchemeKind::Mga);

    let metrics = vec![
        metric("trace.gen_s", median(&run.gen_s), "s"),
        metric("trace.requests", setup.requests.len() as f64, "count"),
        metric("ftl.build_s", all(&|s| s.build), "s"),
        metric(
            "ftl.write_s.ipu",
            per_scheme(ipu, &|s| s.phase_s(Phase::FtlWrite)),
            "s",
        ),
        metric(
            "ftl.write_s.mga",
            per_scheme(mga, &|s| s.phase_s(Phase::FtlWrite)),
            "s",
        ),
        metric(
            "ftl.read_s.ipu",
            per_scheme(ipu, &|s| s.phase_s(Phase::FtlRead)),
            "s",
        ),
        metric(
            "ftl.read_s.mga",
            per_scheme(mga, &|s| s.phase_s(Phase::FtlRead)),
            "s",
        ),
        metric(
            "ftl.gc_s.ipu",
            per_scheme(ipu, &|s| s.phase_s(Phase::Gc)),
            "s",
        ),
        metric(
            "ftl.gc_s.mga",
            per_scheme(mga, &|s| s.phase_s(Phase::Gc)),
            "s",
        ),
        metric("ftl.write_call_p99_us", write_call_p99, "us"),
        metric("ftl.gc_rounds.ipu", gc_rounds(ipu), "count"),
        metric("ftl.gc_rounds.mga", gc_rounds(mga), "count"),
        metric("ftl.gc_moved_subpages.ipu", gc_moved(ipu), "count"),
        metric("ftl.gc_moved_subpages.mga", gc_moved(mga), "count"),
        metric("ftl.waf.ipu", waf(ipu), "ratio"),
        metric("ftl.waf.mga", waf(mga), "ratio"),
        metric(
            "ftl.intra_page_updates.ipu",
            sum(&mut sims(ipu).map(|r| r.ftl.intra_page_updates)),
            "count",
        ),
        metric("ftl.ops_per_req", ratio(flash_ops, requests), "ratio"),
        metric(
            "flash.programs",
            sum(&mut all_sims().map(|r| r.device.programs)),
            "count",
        ),
        metric(
            "flash.reads",
            sum(&mut all_sims().map(|r| r.device.reads)),
            "count",
        ),
        metric(
            "flash.erases",
            sum(&mut all_sims().map(|r| r.device.erases)),
            "count",
        ),
        metric(
            "flash.read_retries",
            sum(&mut all_sims().map(|r| r.ftl.read_retries)),
            "count",
        ),
        metric(
            "flash.ecc_retry_s",
            all(&|s| s.phase_s(Phase::EccRetry)),
            "s",
        ),
        metric("sim.advance_s", all(&|s| s.advance), "s"),
        metric("sim.dispatch_s", all(&|s| s.dispatch), "s"),
        metric("sim.finish_s", all(&|s| s.finish), "s"),
        metric("sim.gc_busy_frac", ratio(background, device_time), "ratio"),
        metric("host.self_s", all(&|s| s.host_self), "s"),
        metric(
            "host.admit_stall_p99_us",
            interpolated_percentile_ns(&admit, 99.0) / 1e3,
            "us",
        ),
        metric("host.dispatches", admit.count() as f64, "count"),
        metric("fleet.route_s", all(&|s| s.route), "s"),
        metric("fleet.merge_s", all(&|s| s.phase_s(Phase::Report)), "s"),
        metric("fleet.run_s.ipu", per_scheme(ipu, &|s| s.fleet_run), "s"),
        metric("fleet.run_s.mga", per_scheme(mga, &|s| s.fleet_run), "s"),
        metric(
            "fleet.rungs",
            first_round.iter().map(|(_, (_, s))| s.rungs).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "fleet.device_worlds",
            first_round
                .iter()
                .map(|(_, (_, s))| s.device_worlds)
                .sum::<u64>() as f64,
            "count",
        ),
        metric("fleet.tenants_at_slo.ipu", tenants(ipu), "count"),
        metric("fleet.tenants_at_slo.mga", tenants(mga), "count"),
        metric("bench.trace_overhead_s", overhead, "s"),
        metric("bench.span_coverage", ratio(covered, wall), "ratio"),
    ];
    ledger.finish(setup, metrics)
}
