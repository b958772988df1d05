//! Command implementations for the `ipu-sim` binary.

use std::fs::File;
use std::io::BufReader;

use ipu_core::ftl::SchemeKind;
use ipu_core::host::{ArbitrationPolicy, TenantSpec};
use ipu_core::sim::{replay_with_progress, ReplayConfig, SimReport};
use ipu_core::trace::{parse_msr_reader, PaperTrace, SplitStrategy};
use ipu_core::{
    experiment, report, run_profile, run_qd_sweep_with, ExperimentConfig, ExperimentRecord,
    QdSweepHostSpec, QdSweepResult, ReplayCache, TraceSet, PAPER_PE_POINTS, PAPER_QD_POINTS,
};

use crate::args::{ArgError, ParsedArgs};

/// Top-level usage text.
pub const USAGE: &str = "\
ipu-sim — reproduction of 'Intra-page Cache Update in SLC-mode with Partial
Programming in High Density SSDs' (ICPP 2021)

USAGE: ipu-sim <command> [options]

COMMANDS
  tables                Regenerate Tables 1 & 3 (trace calibration)
  figure <N>            Regenerate figure N ∈ {2,5,6,7,8,9,10,11,13,14}
  run                   One (trace, scheme) replay with a detailed report
  sweep                 The §4.5 P/E-cycle sweep (Figures 13 & 14)
  simulate              Closed-loop multi-queue host replay: QD × scheme sweep
                        with per-tenant latency, occupancy and fairness
  reliability           Fault-injection experiment: request completion status,
                        read-retry recovery and bad-block retirement per scheme
                        (defaults to --fault-profile light)
  replay <trace.csv>    Replay a real MSR-format trace file
  ablate <levels|gc|nop>  Design-choice ablations (DESIGN.md A1–A3)
  figures               Render the main figures as SVG files (--out <dir>)
  profile               Wall-clock phase report: replay with the ipu-obs
                        instrumentation armed, write BENCH_profile.json
                        (throughput + per-phase wall time)
  scorecard             Check the paper's claims against a measured matrix
                        (--save writes the JSON the CI scorecard gate diffs)
  fleet                 Sharded multi-device serving simulation: route tenants
                        onto N devices and binary-search the max tenant count
                        meeting a p99 SLO per scheme (or run a fixed fleet
                        with --tenants); caches by default
  help                  Show this text

COMMON OPTIONS (commands accept only the options they use; anything else
is rejected rather than silently ignored)
  --scale <f>           Fraction of the published request counts (default 0.1;
                        the device scales along, preserving cache pressure)
  --traces <a,b,...>    Subset of ts0,wdev0,lun1,usr0,ads,lun2 (default: all)
  --schemes <a,b,...>   Subset of baseline,mga,ipu,ipu+ (default: the paper's
                        three; ipu+ is this repo's §5 future-work extension)
  --pe <n>              Pre-aged P/E cycles (default 4000)
  --threads <n>         Sweep parallelism (default: cores − 1)
  --save <file.json>    Also write the raw results as JSON
  --fault-profile <p>   Media fault injection: none | light | heavy
                        (default none; light/heavy also arm the read-retry
                        ladder — see DESIGN.md §10)
  --cache | --no-cache  Force the on-disk replay cache on/off. Replays are
                        pure functions of (device, FTL, scheme, trace spec);
                        figure/figures/sweep cache by default, everything
                        else opts in with --cache. Cache hits are reported;
                        corrupt entries are re-simulated, never trusted.
  --cache-dir <dir>     Cache location (default .ipu-cache; implies --cache)

PROFILE OPTIONS
  --out <file.json>     Where to write the benchmark profile
                        (default BENCH_profile.json)
  --events <file.jsonl> Also dump the structured span/counter/event log as
                        JSON Lines (one object per line, `type`-tagged)

FLEET OPTIONS
  --devices <n>         Fleet size (default 64)
  --policy <p>          Shard router: hash | range | lba-stripe (default hash)
  --queue-depth <n>     Per-tenant queue depth on each device (default 1:
                        p99 then measures sharing cost, not self-queueing)
  --arbitration <p>     rr | wrr | prio (default rr)
  --slo-p99-ms <ms>     Capacity-search SLO on fleet p99 service latency
                        (default 1.0)
  --max-tenants <n>     Capacity-search upper bound (default 65536)
  --tenants <n>         Skip the search; run one fleet at exactly n tenants
  --replication <p>     none | mirror-pair (default none): duplicate writes
                        onto the mirror device, arm retries + hedged reads
  --fault-plan <spec>   none | failstop:<k>@<frac> | failslow:<k>x<f>@<frac>
                        | brownout:<k>@<from>-<until> (default none)
  --faulty <k>          Also search degraded capacity with k devices
                        fail-stopped mid-run (pairs with --replication)
  --out <dir>           Also render the fleet SVG figures into <dir>
  --from <run.json>     Re-render figures from a --save file, no simulation

SIMULATE OPTIONS
  --queue-depth <a,b>   Queue depths to sweep (default 1,4,16,64)
  --tenants <spec>      Count (`4`) or `name[:weight[:priority]]` list
                        (`fg:4:0,bg:1:1`); default one tenant
  --arbitration <p>     rr | wrr | prio (default rr)
  --dispatch-overhead <ns>  Serial command-fetch cost per dispatch (default 0)
  --split <s>           Trace → tenant streams: rr | lba | clone (default rr)
  --out <dir>           Also render a qd_sweep_<trace>.svg tail-latency chart
                        (per-tenant p99/p999 vs queue depth) into <dir>

EXAMPLES
  ipu-sim figure 5 --scale 0.25
  ipu-sim run --traces ts0 --schemes ipu --scale 0.1
  ipu-sim replay /data/msr/ts0.csv --schemes ipu
  ipu-sim ablate gc --scale 0.05
  ipu-sim simulate --traces ts0 --queue-depth 1,16 --tenants fg:4:0,bg:1:1 \\
          --arbitration wrr --scale 0.01
  ipu-sim reliability --fault-profile heavy --traces ts0 --scale 0.05
  ipu-sim profile --traces ts0 --scale 0.02 --threads 1
  ipu-sim scorecard --traces ts0 --scale 0.02 --save scorecard.json
  ipu-sim fleet --traces ts0 --scale 0.02 --devices 64 --policy hash \\
          --slo-p99-ms 1.0 --save fleet.json --out figures
  ipu-sim fleet --tenants 4096 --devices 64 --policy lba-stripe --scale 0.02
  ipu-sim fleet --traces ts0 --scale 0.02 --devices 8 --faulty 1 \\
          --replication mirror-pair --save fleet_degraded.json
";

/// Builds the experiment config from the common flags.
fn config_from(args: &ParsedArgs) -> Result<ExperimentConfig, ArgError> {
    let scale: f64 = args.flag_parsed("scale", 0.1)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(ArgError(format!("--scale {scale} out of (0, 1]")));
    }
    let mut cfg = ExperimentConfig::scaled(scale);
    cfg.device.initial_pe_cycles = args.flag_parsed("pe", 4000u32)?;
    cfg.threads = args.flag_parsed("threads", 0usize)?;
    if let Some(names) = args.flag_list("traces") {
        cfg.traces = names
            .iter()
            .map(|n| parse_trace(n))
            .collect::<Result<_, _>>()?;
    }
    if let Some(names) = args.flag_list("schemes") {
        cfg.schemes = names
            .iter()
            .map(|n| parse_scheme(n))
            .collect::<Result<_, _>>()?;
    }
    if let Some(name) = args.flag("fault-profile") {
        apply_fault_profile(&mut cfg.device, name)?;
    }
    cfg.validate().map_err(ArgError)?;
    Ok(cfg)
}

/// Resolves the replay-cache flags. `default_on` is the command's policy
/// (pure figure-regeneration commands cache by default); `--cache`,
/// `--cache-dir` and `--no-cache` override it.
fn cache_from(args: &ParsedArgs, default_on: bool) -> Result<Option<ReplayCache>, ArgError> {
    let force_on = args.switch("cache") || args.flag("cache-dir").is_some();
    let force_off = args.switch("no-cache");
    if args.switch("cache") && force_off {
        return Err(ArgError("--cache and --no-cache conflict".into()));
    }
    if force_off {
        return Ok(None);
    }
    if force_on || default_on {
        let dir = args.flag("cache-dir").unwrap_or(ReplayCache::DEFAULT_DIR);
        return Ok(Some(ReplayCache::new(dir)));
    }
    Ok(None)
}

/// The hit/miss summary line appended to a cached command's output.
fn cache_line(cache: &ReplayCache) -> String {
    format!(
        "replay cache ({}): {}\n",
        cache.dir().display(),
        cache.stats()
    )
}

/// Applies a named fault profile (and its read-retry ladder) to the device.
fn apply_fault_profile(
    device: &mut ipu_core::flash::DeviceConfig,
    name: &str,
) -> Result<(), ArgError> {
    let (fault, retry) = ipu_core::flash::FaultProfile::named(name).ok_or_else(|| {
        ArgError(format!(
            "unknown fault profile `{name}` (expected one of: {})",
            ipu_core::flash::FaultProfile::NAMES.join(", ")
        ))
    })?;
    device.fault = fault;
    device.retry = retry;
    Ok(())
}

fn parse_trace(name: &str) -> Result<PaperTrace, ArgError> {
    PaperTrace::all()
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| ArgError(format!("unknown trace `{name}`")))
}

fn parse_scheme(name: &str) -> Result<SchemeKind, ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "baseline" => Ok(SchemeKind::Baseline),
        "mga" => Ok(SchemeKind::Mga),
        "ipu" => Ok(SchemeKind::Ipu),
        "ipu+" | "ipuplus" => Ok(SchemeKind::IpuPlus),
        other => Err(ArgError(format!("unknown scheme `{other}`"))),
    }
}

fn maybe_save<T: serde::Serialize + serde::de::DeserializeOwned>(
    args: &ParsedArgs,
    cfg: &ExperimentConfig,
    experiment: &str,
    result: T,
) -> Result<(), ArgError> {
    if let Some(path) = args.flag("save") {
        ExperimentRecord::new(experiment, cfg.clone(), result)
            .save(path)
            .map_err(|e| ArgError(format!("cannot save {path}: {e}")))?;
        eprintln!("saved raw results to {path}");
    }
    Ok(())
}

/// `ipu-sim tables`
pub fn cmd_tables(args: &ParsedArgs) -> Result<String, ArgError> {
    let cfg = config_from(args)?;
    let traces = TraceSet::generate(&cfg);
    let rows = experiment::run_trace_tables_with(&cfg, &traces);
    maybe_save(args, &cfg, "tables", rows.clone())?;
    Ok(format!(
        "{}\n{}",
        report::render_table1(&rows),
        report::render_table3(&rows)
    ))
}

/// `ipu-sim figure <N>`
pub fn cmd_figure(args: &ParsedArgs) -> Result<String, ArgError> {
    let n = args
        .positionals
        .first()
        .ok_or_else(|| ArgError("figure needs a number, e.g. `ipu-sim figure 5`".into()))?
        .as_str();
    if n == "2" {
        let points: Vec<u32> = (0..=10).map(|i| i * 1000).collect();
        return Ok(report::render_fig2(&experiment::run_ber_curve(&points)));
    }
    let cfg = config_from(args)?;
    let cache = cache_from(args, true)?;
    let traces = TraceSet::generate(&cfg);
    if n == "13" || n == "14" {
        let sweep = experiment::run_pe_sweep_with(&cfg, &PAPER_PE_POINTS, &traces, cache.as_ref());
        maybe_save(args, &cfg, "pe_sweep", sweep.clone())?;
        let mut text = report::render_pe_sweep(&sweep);
        if let Some(cache) = &cache {
            text.push_str(&cache_line(cache));
        }
        return Ok(text);
    }
    let matrix = experiment::run_main_matrix_with(&cfg, &traces, cache.as_ref());
    let mut text = match n {
        "5" => report::render_fig5(&matrix),
        "6" => report::render_fig6(&matrix),
        "7" => report::render_fig7(&matrix),
        "8" => report::render_fig8(&matrix),
        "9" => report::render_fig9(&matrix),
        "10" => report::render_fig10(&matrix),
        "11" => report::render_fig11(&matrix),
        other => return Err(ArgError(format!("no figure `{other}` (2,5..11,13,14)"))),
    };
    maybe_save(args, &cfg, &format!("fig{n}"), matrix)?;
    if let Some(cache) = &cache {
        text.push_str(&cache_line(cache));
    }
    Ok(text)
}

/// `ipu-sim run`
pub fn cmd_run(args: &ParsedArgs) -> Result<String, ArgError> {
    let cfg = config_from(args)?;
    let cache = cache_from(args, false)?;
    // Arm the observability layer so the detailed report can say where the
    // replay's wall time went, not just what the simulation computed.
    ipu_core::obs::reset();
    ipu_core::obs::enable();
    let t0 = std::time::Instant::now();
    // One generation per trace, shared across all schemes of the row.
    let traces = TraceSet::generate(&cfg);
    let reports = experiment::run_matrix_with(&cfg, &traces, cache.as_ref());
    let mut out = String::new();
    for row in &reports {
        for r in row {
            out.push_str(&detailed_report(r));
            out.push('\n');
        }
    }
    let total = t0.elapsed().as_secs_f64();
    ipu_core::obs::disable();
    let snapshot = ipu_core::obs::snapshot();
    // Span time is summed over the worker threads, so shares are fractions
    // of the thread time the run had; no more than one worker per replay
    // cell ever runs.
    let cells = cfg.traces.len() * cfg.schemes.len();
    let threads = cfg.effective_threads().clamp(1, cells.max(1));
    let phases = ipu_core::profile::phase_breakdown(&snapshot, total * threads as f64);
    out.push_str(&report::render_phase_breakdown(&phases, total, threads));
    if let Some(cache) = &cache {
        out.push_str(&cache_line(cache));
    }
    Ok(out)
}

/// `ipu-sim profile`: the wall-clock phase report. Writes
/// `BENCH_profile.json` and prints the human-readable throughput and phase
/// breakdown.
pub fn cmd_profile(args: &ParsedArgs) -> Result<String, ArgError> {
    let mut cfg = config_from(args)?;
    if args.flag_list("schemes").is_none() {
        // Profile the extension scheme too: profile defaults to the full
        // set, unlike the paper-trio default of other commands.
        cfg.schemes = SchemeKind::all_extended().to_vec();
    }
    let profile = run_profile(&cfg);

    let out_path = args.flag("out").unwrap_or("BENCH_profile.json");
    let json = serde_json::to_string_pretty(&profile)
        .map_err(|e| ArgError(format!("cannot serialize profile: {e}")))?;
    std::fs::write(out_path, json)
        .map_err(|e| ArgError(format!("cannot write {out_path}: {e}")))?;

    if let Some(events_path) = args.flag("events") {
        // One JSON object per line: the aggregate snapshot + counter
        // fingerprint first, then every buffered event in record order.
        let mut jsonl =
            ipu_core::obs::snapshot_jsonl(&ipu_core::obs::snapshot(), Some(&profile.counters));
        jsonl.push_str(&ipu_core::obs::events_jsonl());
        std::fs::write(events_path, jsonl)
            .map_err(|e| ArgError(format!("cannot write {events_path}: {e}")))?;
        eprintln!("wrote event log to {events_path}");
    }

    let mut s = String::new();
    s.push_str(&format!(
        "Benchmark profile — {} requests over {} trace(s) × {} scheme(s) at scale {}\n\
         wall time {:.3}s, throughput {:.0} simulated ops/sec\n\n",
        profile.requests,
        profile.traces.len(),
        profile.schemes.len(),
        profile.scale,
        profile.wall_seconds,
        profile.sim_ops_per_sec,
    ));
    // The profile runs sequentially: its shares are of the wall time.
    s.push_str(&report::render_phase_breakdown(
        &profile.phases,
        profile.wall_seconds,
        1,
    ));
    s.push('\n');
    let mut t = report::TextTable::new(&["Trace", "Scheme", "requests", "wall(s)", "ops/sec"]);
    for r in &profile.runs {
        t.row(vec![
            r.trace.clone(),
            r.scheme.label().to_string(),
            r.requests.to_string(),
            format!("{:.3}", r.wall_seconds),
            format!("{:.0}", r.ops_per_sec),
        ]);
    }
    s.push_str(&t.render());
    s.push_str(&format!("\nwrote benchmark profile to {out_path}\n"));
    Ok(s)
}

/// `ipu-sim scorecard`: evaluate the paper's claims on a measured matrix and
/// (with --save) write the JSON the CI scorecard gate compares.
pub fn cmd_scorecard(args: &ParsedArgs) -> Result<String, ArgError> {
    let cfg = config_from(args)?;
    let cache = cache_from(args, false)?;
    let traces = TraceSet::generate(&cfg);
    let matrix = experiment::run_main_matrix_with(&cfg, &traces, cache.as_ref());
    let results = ipu_core::evaluate_scorecard(&matrix);
    maybe_save(args, &cfg, "scorecard", results.clone())?;
    let mut text = ipu_core::scorecard::render(&results);
    if let Some(cache) = &cache {
        text.push_str(&cache_line(cache));
    }
    Ok(text)
}

/// Formats the detailed single-run report used by `run` and `replay`.
pub fn detailed_report(r: &SimReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("=== {} on {} ===\n", r.scheme, r.trace));
    s.push_str(&format!("requests            : {}\n", r.requests));
    for (label, lat) in [
        ("read", &r.read_latency),
        ("write", &r.write_latency),
        ("overall", &r.overall_latency),
    ] {
        s.push_str(&format!(
            "{label:<8} latency    : mean {:.4} ms  p50 {:.3}  p95 {:.3}  p99 {:.3} ms  (n={})\n",
            lat.mean_ms(),
            lat.percentile_ns(50.0) as f64 / 1e6,
            lat.percentile_ns(95.0) as f64 / 1e6,
            lat.percentile_ns(99.0) as f64 / 1e6,
            lat.count()
        ));
    }
    s.push_str(&format!(
        "read error rate     : {:.3e}\n",
        r.read_error_rate()
    ));
    s.push_str(&format!(
        "host writes         : {} SLC / {} MLC subpages\n",
        r.ftl.host_subpages_to_slc, r.ftl.host_subpages_to_mlc
    ));
    s.push_str(&format!(
        "level distribution  : {:?} (HighDensity/Work/Monitor/Hot)\n",
        r.ftl
            .level_distribution()
            .map(|f| format!("{:.1}%", f * 100.0))
    ));
    s.push_str(&format!(
        "intra-page / upgrade: {} / {}\n",
        r.ftl.intra_page_updates, r.ftl.upgraded_writes
    ));
    s.push_str(&format!(
        "GC                  : {} SLC runs, {} MLC runs, util {:.1}%\n",
        r.ftl.gc_runs_slc,
        r.ftl.gc_runs_mlc,
        r.gc_page_utilization() * 100.0
    ));
    s.push_str(&format!(
        "erases              : {} SLC / {} MLC\n",
        r.wear.slc_erases, r.wear.mlc_erases
    ));
    s.push_str(&format!(
        "mapping table       : {} bytes\n",
        r.mapping.total()
    ));
    let horizon = r.simulated_horizon_ns.max(1);
    s.push_str(&format!(
        "device busy         : host-writes {:.1}s, host-reads {:.1}s, GC {:.1}s \
         over {:.1}s simulated\n",
        r.busy.host_write_ns as f64 / 1e9,
        r.busy.host_read_ns as f64 / 1e9,
        r.busy.background_ns as f64 / 1e9,
        horizon as f64 / 1e9,
    ));
    s.push_str(&format!(
        "reliability         : {} success / {} recovered / {} failed \
         (availability {:.6})\n",
        r.reliability.success,
        r.reliability.recovered,
        r.reliability.failed,
        r.reliability.availability(),
    ));
    s.push_str(&format!(
        "recovery counters   : {} read retries ({} recovered, {:.3} ms ladder), \
         {} uncorrectable, {} retired blocks, {} program retries, {} data-loss, \
         {} scrub rewrites\n",
        r.ftl.read_retries,
        r.ftl.recovered_reads,
        r.ftl.retry_latency_ns as f64 / 1e6,
        r.ftl.host_uncorrectable_reads,
        r.ftl.retired_blocks,
        r.ftl.program_retries,
        r.ftl.data_loss_events,
        r.ftl.scrub_rewrites,
    ));
    s
}

/// `ipu-sim figures --out <dir>`
pub fn cmd_figures(args: &ParsedArgs) -> Result<String, ArgError> {
    let out = args.flag("out").unwrap_or("figures");
    let cfg = config_from(args)?;
    let cache = cache_from(args, true)?;
    // One trace generation serves the main matrix and all four P/E matrices.
    let traces = TraceSet::generate(&cfg);
    let matrix = experiment::run_main_matrix_with(&cfg, &traces, cache.as_ref());
    let sweep = experiment::run_pe_sweep_with(&cfg, &PAPER_PE_POINTS, &traces, cache.as_ref());
    let written = ipu_core::svg::write_figures(std::path::Path::new(out), &matrix, Some(&sweep))
        .map_err(|e| ArgError(format!("cannot write figures: {e}")))?;
    let mut text = written
        .iter()
        .map(|p| format!("wrote {}", p.display()))
        .collect::<Vec<_>>()
        .join("\n");
    if let Some(cache) = &cache {
        text.push('\n');
        text.push_str(&cache_line(cache));
    }
    Ok(text)
}

/// `ipu-sim sweep`
pub fn cmd_sweep(args: &ParsedArgs) -> Result<String, ArgError> {
    let cfg = config_from(args)?;
    let cache = cache_from(args, true)?;
    let traces = TraceSet::generate(&cfg);
    let sweep = experiment::run_pe_sweep_with(&cfg, &PAPER_PE_POINTS, &traces, cache.as_ref());
    maybe_save(args, &cfg, "pe_sweep", sweep.clone())?;
    let mut text = report::render_pe_sweep(&sweep);
    if let Some(cache) = &cache {
        text.push_str(&cache_line(cache));
    }
    Ok(text)
}

/// `ipu-sim simulate`: the closed-loop host-interface QD sweep.
pub fn cmd_simulate(args: &ParsedArgs) -> Result<String, ArgError> {
    let cfg = config_from(args)?;
    let qd_points: Vec<usize> = match args.flag_list("queue-depth") {
        None => PAPER_QD_POINTS.to_vec(),
        Some(raw) => raw
            .iter()
            .map(|s| {
                s.parse::<usize>()
                    .ok()
                    .filter(|&q| q >= 1)
                    .ok_or_else(|| ArgError(format!("bad queue depth `{s}`")))
            })
            .collect::<Result<_, _>>()?,
    };
    if qd_points.is_empty() {
        return Err(ArgError("--queue-depth needs at least one depth".into()));
    }
    let tenants = TenantSpec::parse_list(args.flag("tenants").unwrap_or("1")).map_err(ArgError)?;
    let arbitration =
        ArbitrationPolicy::parse(args.flag("arbitration").unwrap_or("rr")).map_err(ArgError)?;
    let split = SplitStrategy::parse(args.flag("split").unwrap_or("rr")).map_err(ArgError)?;
    let host = QdSweepHostSpec {
        tenants,
        arbitration,
        dispatch_overhead_ns: args.flag_parsed("dispatch-overhead", 0u64)?,
        split: split.label().to_string(),
    };

    // Closed-loop reports are not cached (the cache keys open-loop replays),
    // but the streams are still generated once and shared across all sweeps.
    let traces = TraceSet::generate(&cfg);
    let fig_dir = args.flag("out").map(std::path::PathBuf::from);
    if let Some(dir) = &fig_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
    }
    let mut out = String::new();
    let mut results: Vec<QdSweepResult> = Vec::new();
    for &trace in &cfg.traces {
        let sweep = run_qd_sweep_with(&cfg, trace, &host, &qd_points, &traces);
        out.push_str(&report::render_qd_sweep(&sweep));
        out.push('\n');
        if let Some(dir) = &fig_dir {
            let path = dir.join(format!("qd_sweep_{}.svg", trace.name()));
            std::fs::write(&path, ipu_core::svg::qd_sweep_chart(&sweep))
                .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
            out.push_str(&format!("wrote {}\n", path.display()));
        }
        results.push(sweep);
    }
    maybe_save(args, &cfg, "qd_sweep", results)?;
    Ok(out)
}

/// `ipu-sim reliability`: the trace × scheme matrix under fault injection,
/// reported as completion status plus the recovery-path counters.
pub fn cmd_reliability(args: &ParsedArgs) -> Result<String, ArgError> {
    let mut cfg = config_from(args)?;
    if args.flag("fault-profile").is_none() {
        apply_fault_profile(&mut cfg.device, "light")?;
    }
    let cache = cache_from(args, false)?;
    let traces = TraceSet::generate(&cfg);
    let matrix = experiment::run_main_matrix_with(&cfg, &traces, cache.as_ref());
    let mut text = report::render_reliability(&matrix);
    maybe_save(args, &cfg, "reliability", matrix)?;
    if let Some(cache) = &cache {
        text.push_str(&cache_line(cache));
    }
    Ok(text)
}

/// `ipu-sim replay <trace.csv>`
pub fn cmd_replay(args: &ParsedArgs) -> Result<String, ArgError> {
    let path = args
        .positionals
        .first()
        .ok_or_else(|| ArgError("replay needs a trace file path".into()))?;
    let scheme = match args.flag_list("schemes").as_deref() {
        None => SchemeKind::Ipu,
        Some([one]) => parse_scheme(one)?,
        Some(_) => return Err(ArgError("replay takes exactly one scheme".into())),
    };
    let file = File::open(path).map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
    let requests = parse_msr_reader(BufReader::new(file))
        .map_err(|e| ArgError(format!("cannot parse {path}: {e}")))?;
    eprintln!("replaying {} requests under {scheme} ...", requests.len());
    let mut cfg = ReplayConfig::paper_scale(scheme);
    if let Some(name) = args.flag("fault-profile") {
        apply_fault_profile(&mut cfg.device, name)?;
    }
    let r = replay_with_progress(&cfg, &requests, path, |done, total| {
        if total > 0 && done % (1 << 18) == 0 {
            eprintln!("  {done}/{total}");
        }
    });
    Ok(detailed_report(&r))
}

/// `ipu-sim ablate <levels|gc|nop>`
pub fn cmd_ablate(args: &ParsedArgs) -> Result<String, ArgError> {
    let which = args
        .positionals
        .first()
        .ok_or_else(|| ArgError("ablate needs one of: levels, gc, nop".into()))?
        .as_str();
    let base = config_from(args)?;
    let cache = cache_from(args, false)?;
    let cache = cache.as_ref();
    // The ablations vary FTL/device knobs, never the traces — one generation
    // serves every variant.
    let traces = TraceSet::generate(&base);
    let mut out = String::new();
    match which {
        "levels" => {
            for max_level in [1u8, 2, 3] {
                let mut cfg = base.clone();
                cfg.ftl.ipu_max_level = max_level;
                for &trace in &cfg.traces {
                    let r = experiment::run_one_with(&cfg, trace, SchemeKind::Ipu, &traces, cache);
                    out.push_str(&format!(
                        "{} levels≤{}: overall {:.4} ms, intra {}, upgrades {}\n",
                        trace.name(),
                        max_level,
                        r.overall_latency.mean_ms(),
                        r.ftl.intra_page_updates,
                        r.ftl.upgraded_writes
                    ));
                }
            }
        }
        "gc" => {
            for (label, isr) in [("isr", true), ("greedy", false)] {
                let mut cfg = base.clone();
                cfg.ftl.ipu_use_isr_gc = isr;
                for &trace in &cfg.traces {
                    let r = experiment::run_one_with(&cfg, trace, SchemeKind::Ipu, &traces, cache);
                    out.push_str(&format!(
                        "{} gc={label}: overall {:.4} ms, evicted {}, SLC erases {}\n",
                        trace.name(),
                        r.overall_latency.mean_ms(),
                        r.ftl.gc_evicted_subpages,
                        r.wear.slc_erases
                    ));
                }
            }
        }
        "nop" => {
            for limit in [1u8, 2, 4] {
                let mut cfg = base.clone();
                cfg.device.max_partial_programs = limit;
                for &trace in &cfg.traces {
                    for &scheme in &cfg.schemes {
                        let r = experiment::run_one_with(&cfg, trace, scheme, &traces, cache);
                        out.push_str(&format!(
                            "{} {} nop={limit}: overall {:.4} ms, util {:.1}%\n",
                            trace.name(),
                            scheme.label(),
                            r.overall_latency.mean_ms(),
                            r.gc_page_utilization() * 100.0
                        ));
                    }
                }
            }
        }
        other => return Err(ArgError(format!("unknown ablation `{other}`"))),
    }
    Ok(out)
}

/// `ipu-sim fleet`: the sharded multi-device serving simulation. Default
/// mode binary-searches, per trace × scheme, the max tenant count whose
/// fleet-wide p99 service latency stays under the SLO; `--tenants <n>` pins
/// the fleet size instead; `--from <run.json>` re-renders the figures of a
/// saved run without simulating anything.
pub fn cmd_fleet(args: &ParsedArgs) -> Result<String, ArgError> {
    use ipu_fleet::{
        render_capacity, render_degradation, render_fleet_report, run_capacity_search,
        run_degraded_capacity_search, run_fleet_cached, write_fleet_charts, FleetFaultPlan,
        FleetRunResult, FleetSpec, ReplicationPolicy, ShardPolicy, SloTarget,
    };

    // Chart-only mode: replot a saved run.
    if let Some(path) = args.flag("from") {
        let out = args.flag("out").unwrap_or("figures");
        let record: ExperimentRecord<FleetRunResult> = ExperimentRecord::load(path)
            .map_err(|e| ArgError(format!("cannot load {path}: {e}")))?;
        let written = write_fleet_charts(std::path::Path::new(out), &record.result)
            .map_err(|e| ArgError(format!("cannot write charts: {e}")))?;
        return Ok(written
            .iter()
            .map(|p| format!("wrote {}", p.display()))
            .collect::<Vec<_>>()
            .join("\n"));
    }

    let mut cfg = config_from(args)?;
    // The fleet question is per-scheme capacity, so default to every scheme
    // (incl. ipu+) but only the headline trace — a 6-trace × 4-scheme
    // capacity search is an explicit ask, not a default.
    if args.flag_list("traces").is_none() {
        cfg.traces = vec![PaperTrace::Ts0];
    }
    if args.flag_list("schemes").is_none() {
        cfg.schemes = SchemeKind::all_extended().to_vec();
    }
    let devices: usize = args.flag_parsed("devices", 64usize)?;
    if devices < 1 {
        return Err(ArgError("--devices must be ≥ 1".into()));
    }
    let policy = ShardPolicy::parse(args.flag("policy").unwrap_or("hash")).map_err(ArgError)?;
    let queue_depth: usize = args.flag_parsed("queue-depth", 1usize)?;
    if queue_depth < 1 {
        return Err(ArgError("--queue-depth must be ≥ 1".into()));
    }
    let arbitration =
        ArbitrationPolicy::parse(args.flag("arbitration").unwrap_or("rr")).map_err(ArgError)?;
    let slo_ms: f64 = args.flag_parsed("slo-p99-ms", 1.0f64)?;
    if slo_ms <= 0.0 || slo_ms.is_nan() {
        return Err(ArgError(format!("--slo-p99-ms {slo_ms} must be > 0")));
    }
    let slo_p99_ns = (slo_ms * 1e6) as u64;
    let tenant_cap: u64 = args.flag_parsed("max-tenants", 65_536u64)?;
    if tenant_cap < 1 {
        return Err(ArgError("--max-tenants must be ≥ 1".into()));
    }
    let fixed: Option<usize> = match args.flag("tenants") {
        None => None,
        Some(s) => Some(
            s.parse::<usize>()
                .ok()
                .filter(|&t| t >= 1)
                .ok_or_else(|| ArgError(format!("bad tenant count `{s}`")))?,
        ),
    };
    let replication =
        ReplicationPolicy::parse(args.flag("replication").unwrap_or("none")).map_err(ArgError)?;
    // The fault-plan seed is fixed: degraded runs must be reproducible and
    // comparable across invocations, and per-device fault seeds already
    // decorrelate below it.
    let fault_plan = FleetFaultPlan::parse(args.flag("fault-plan").unwrap_or("none"), devices, 7)
        .map_err(ArgError)?;
    let faulty: usize = args.flag_parsed("faulty", 0usize)?;
    if faulty > devices / 2 {
        return Err(ArgError(format!(
            "--faulty {faulty} exceeds the {} mirror pairs of {devices} devices",
            devices / 2
        )));
    }
    if faulty > 0 && fixed.is_some() {
        return Err(ArgError(
            "--faulty runs a degraded capacity search; it cannot combine with --tenants \
             (use --fault-plan to fault a fixed-size fleet)"
                .into(),
        ));
    }

    // Fleet runs are pure functions of their inputs and a capacity search
    // re-probes many of the same shapes, so the cache defaults on.
    let cache = cache_from(args, true)?;
    let traces = TraceSet::generate(&cfg);
    let spec_for = |tenants: usize| {
        FleetSpec::new(devices, tenants, policy)
            .with_queue_depth(queue_depth)
            .with_arbitration(arbitration)
            .with_replication(replication)
            .with_fault_plan(fault_plan.clone())
    };

    let mut run = FleetRunResult {
        devices,
        policy: policy.label().to_string(),
        queue_depth,
        slo_p99_ns,
        replication: replication.label().to_string(),
        fault_plan: fault_plan.label(),
        faulty_devices: faulty,
        ..FleetRunResult::default()
    };
    let mut out = String::new();
    match fixed {
        Some(tenants) => {
            for &trace in &cfg.traces {
                for &scheme in &cfg.schemes {
                    let report = run_fleet_cached(
                        &cfg,
                        scheme,
                        trace,
                        &spec_for(tenants),
                        &traces,
                        cache.as_ref(),
                    );
                    out.push_str(&render_fleet_report(&report));
                    out.push('\n');
                    run.reports.push(report);
                }
            }
        }
        None => {
            let target = SloTarget {
                p99_ns: slo_p99_ns,
                tenant_cap,
            };
            for &trace in &cfg.traces {
                for &scheme in &cfg.schemes {
                    run.capacity.push(run_capacity_search(
                        &cfg,
                        trace,
                        scheme,
                        &spec_for(1),
                        target,
                        &traces,
                        cache.as_ref(),
                    ));
                    if faulty > 0 {
                        run.degraded.push(run_degraded_capacity_search(
                            &cfg,
                            trace,
                            scheme,
                            &spec_for(1),
                            target,
                            faulty,
                            0.5,
                            replication,
                            &traces,
                            cache.as_ref(),
                        ));
                    }
                }
            }
            out.push_str(&render_capacity(&run.capacity));
            if faulty > 0 {
                out.push('\n');
                out.push_str(&render_degradation(
                    &run.capacity,
                    &run.degraded,
                    faulty,
                    replication.label(),
                ));
            }
        }
    }
    maybe_save(args, &cfg, "fleet", run.clone())?;
    if let Some(dir) = args.flag("out") {
        let written = write_fleet_charts(std::path::Path::new(dir), &run)
            .map_err(|e| ArgError(format!("cannot write charts: {e}")))?;
        for p in &written {
            out.push_str(&format!("wrote {}\n", p.display()));
        }
    }
    if let Some(cache) = &cache {
        out.push_str(&cache_line(cache));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(s: &str, flags: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(s.split_whitespace().map(str::to_string), flags).unwrap()
    }

    const COMMON: &[&str] = &[
        "scale",
        "traces",
        "schemes",
        "pe",
        "threads",
        "save",
        "fault-profile",
    ];

    #[test]
    fn config_respects_flags() {
        let p = parsed(
            "run --scale 0.01 --traces ts0,lun2 --schemes ipu --pe 8000",
            COMMON,
        );
        let cfg = config_from(&p).unwrap();
        assert_eq!(cfg.scale, 0.01);
        assert_eq!(cfg.traces, vec![PaperTrace::Ts0, PaperTrace::Lun2]);
        assert_eq!(cfg.schemes, vec![SchemeKind::Ipu]);
        assert_eq!(cfg.device.initial_pe_cycles, 8000);
    }

    #[test]
    fn config_rejects_nonsense() {
        assert!(config_from(&parsed("run --scale 2.0", COMMON)).is_err());
        assert!(config_from(&parsed("run --traces nosuch", COMMON)).is_err());
        assert!(config_from(&parsed("run --schemes nosuch", COMMON)).is_err());
        assert!(config_from(&parsed("run --pe pony", COMMON)).is_err());
        assert!(config_from(&parsed("run --pe 21000", COMMON)).is_err());
        assert!(config_from(&parsed("run --fault-profile pony", COMMON)).is_err());
    }

    #[test]
    fn fault_profile_arms_injection_and_retry() {
        let cfg = config_from(&parsed("run --fault-profile light", COMMON)).unwrap();
        assert!(!cfg.device.fault.is_inert());
        assert!(!cfg.device.retry.steps.is_empty());
        // Default stays the pre-fault-model device.
        let cfg = config_from(&parsed("run", COMMON)).unwrap();
        assert!(cfg.device.fault.is_inert());
        assert!(cfg.device.retry.steps.is_empty());
    }

    #[test]
    fn tiny_reliability_run_reports_recovery() {
        let p = parsed(
            "reliability --scale 0.002 --traces lun2 --threads 1",
            COMMON,
        );
        let text = cmd_reliability(&p).unwrap();
        assert!(text.contains("Reliability"));
        assert!(text.contains("recovered"));
        assert!(text.contains("retry-ladder latency"));
    }

    #[test]
    fn figure_2_runs_instantly() {
        let p = parsed("figure 2", COMMON);
        let text = cmd_figure(&p).unwrap();
        assert!(text.contains("Figure 2"));
        assert!(text.contains("4000"));
    }

    #[test]
    fn unknown_figure_is_an_error() {
        let p = parsed("figure 42 --scale 0.001", COMMON);
        assert!(cmd_figure(&p).is_err());
    }

    #[test]
    fn tiny_run_produces_detailed_report() {
        let p = parsed(
            "run --scale 0.001 --traces lun2 --schemes ipu --threads 1",
            COMMON,
        );
        let text = cmd_run(&p).unwrap();
        assert!(text.contains("IPU on lun2"));
        assert!(text.contains("read error rate"));
        assert!(text.contains("mapping table"));
    }

    const SIMULATE: &[&str] = &[
        "scale",
        "traces",
        "schemes",
        "pe",
        "threads",
        "save",
        "queue-depth",
        "tenants",
        "arbitration",
        "dispatch-overhead",
        "split",
        "fault-profile",
        "out",
    ];

    #[test]
    fn tiny_simulate_reports_every_tenant() {
        let p = parsed(
            "simulate --scale 0.001 --traces lun2 --schemes ipu --queue-depth 2 \
             --tenants alpha,beta --threads 1",
            SIMULATE,
        );
        let text = cmd_simulate(&p).unwrap();
        assert!(text.contains("Queue-depth sweep"));
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("fairness"));
        assert!(text.contains("svc p999(ms)"), "tail column missing");
    }

    #[test]
    fn simulate_out_writes_tail_latency_svg() {
        let dir = std::env::temp_dir().join("ipu_cli_qd_svg_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = parsed(
            &format!(
                "simulate --scale 0.001 --traces lun2 --schemes ipu \
                 --queue-depth 1,4 --threads 1 --out {}",
                dir.display()
            ),
            SIMULATE,
        );
        let text = cmd_simulate(&p).unwrap();
        let svg_path = dir.join("qd_sweep_lun2.svg");
        assert!(text.contains("qd_sweep_lun2.svg"));
        let body = std::fs::read_to_string(&svg_path).unwrap();
        assert!(body.starts_with("<svg"), "not an SVG document");
        assert!(body.contains("p999"), "chart must plot the p999 series");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_bad_specs() {
        for bad in [
            "simulate --scale 0.001 --queue-depth 0",
            "simulate --scale 0.001 --queue-depth pony",
            "simulate --scale 0.001 --arbitration fifo",
            "simulate --scale 0.001 --split hash",
            "simulate --scale 0.001 --tenants a:0",
        ] {
            assert!(
                cmd_simulate(&parsed(bad, SIMULATE)).is_err(),
                "`{bad}` must fail"
            );
        }
    }

    const PROFILE: &[&str] = &[
        "scale",
        "traces",
        "schemes",
        "pe",
        "threads",
        "out",
        "events",
        "fault-profile",
    ];

    #[test]
    fn tiny_profile_writes_benchmark_json_and_events() {
        let dir = std::env::temp_dir().join("ipu_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_profile.json");
        let events = dir.join("events.jsonl");
        let p = parsed(
            &format!(
                "profile --scale 0.002 --traces ts0 --schemes ipu --threads 1 \
                 --out {} --events {}",
                out.display(),
                events.display()
            ),
            PROFILE,
        );
        let text = cmd_profile(&p).unwrap();
        assert!(text.contains("Phase breakdown"));
        assert!(text.contains("ops/sec"));

        let profile: ipu_core::BenchProfile =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(profile.requests > 0);
        assert!(profile.sim_ops_per_sec > 0.0);
        assert!(profile.counters.get("requests").unwrap_or(0) > 0);

        // The JSONL log: one `type`-tagged JSON object per line.
        let log = std::fs::read_to_string(&events).unwrap();
        assert!(!log.is_empty());
        for line in log.lines() {
            assert!(line.contains("\"type\""), "untagged JSONL line: {line}");
        }
    }

    #[test]
    fn tiny_scorecard_renders_and_saves() {
        let dir = std::env::temp_dir().join("ipu_cli_scorecard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let save = dir.join("scorecard.json");
        let p = parsed(
            &format!(
                "scorecard --scale 0.01 --traces ts0 --threads 1 --save {}",
                save.display()
            ),
            COMMON,
        );
        let text = cmd_scorecard(&p).unwrap();
        assert!(text.contains("scorecard"));
        assert!(text.contains("REPRODUCED"));
        // The saved JSON is what CI's scorecard gate parses (in Python, where
        // the NaN→null sentinels of ordering claims are fine); spot-check the
        // fields it reads.
        let json = std::fs::read_to_string(&save).unwrap();
        assert!(json.contains("\"outcome\""));
        assert!(json.contains("\"claim\""));
        assert!(json.contains("Reproduced"));
    }

    fn parsed_with_switches(s: &str, flags: &[&str], switches: &[&str]) -> ParsedArgs {
        ParsedArgs::parse_with_switches(s.split_whitespace().map(str::to_string), flags, switches)
            .unwrap()
    }

    #[test]
    fn figure_caches_replays_across_invocations() {
        let dir = std::env::temp_dir().join(format!("ipu_cli_cache_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut flags = COMMON.to_vec();
        flags.push("cache-dir");
        let argv = format!(
            "figure 5 --scale 0.002 --traces lun2 --schemes ipu --threads 1 --cache-dir {}",
            dir.display()
        );
        // First run simulates and fills the cache; second serves every cell
        // from disk and renders the identical figure.
        let p = parsed_with_switches(&argv, &flags, &["cache", "no-cache"]);
        let cold = cmd_figure(&p).unwrap();
        assert!(
            cold.contains("misses"),
            "cold run must report misses: {cold}"
        );
        let warm = cmd_figure(&p).unwrap();
        assert!(warm.contains("1 hits, 0 misses"), "warm run: {warm}");
        let strip = |s: &str| s.lines().filter(|l| !l.contains("replay cache")).count();
        assert_eq!(strip(&cold), strip(&warm));

        // --no-cache wins over a default-on command.
        let p = parsed_with_switches(
            "figure 5 --scale 0.002 --traces lun2 --schemes ipu --threads 1 --no-cache",
            COMMON,
            &["cache", "no-cache"],
        );
        let off = cmd_figure(&p).unwrap();
        assert!(!off.contains("replay cache"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conflicting_cache_switches_error() {
        let p = parsed_with_switches(
            "figure 5 --scale 0.002 --cache --no-cache",
            COMMON,
            &["cache", "no-cache"],
        );
        assert!(cmd_figure(&p).is_err());
    }

    #[test]
    fn ablate_rejects_unknown_kind() {
        let p = parsed("ablate nosuch --scale 0.001", COMMON);
        assert!(cmd_ablate(&p).is_err());
    }

    #[test]
    fn replay_requires_a_path() {
        let p = parsed("replay", COMMON);
        assert!(cmd_replay(&p).is_err());
        let p = parsed("replay /definitely/missing.csv", COMMON);
        assert!(cmd_replay(&p).is_err());
    }

    const FLEET: &[&str] = &[
        "scale",
        "traces",
        "schemes",
        "pe",
        "threads",
        "save",
        "fault-profile",
        "devices",
        "policy",
        "queue-depth",
        "arbitration",
        "slo-p99-ms",
        "max-tenants",
        "tenants",
        "replication",
        "fault-plan",
        "faulty",
        "out",
        "from",
        "cache-dir",
    ];

    #[test]
    fn tiny_fixed_fleet_reports_every_scheme() {
        let p = parsed_with_switches(
            "fleet --scale 0.002 --traces ts0 --schemes baseline,ipu --tenants 4 \
             --devices 2 --queue-depth 2 --threads 1 --no-cache",
            FLEET,
            &["cache", "no-cache"],
        );
        let text = cmd_fleet(&p).unwrap();
        assert!(text.contains("fleet ts0 / Baseline [hash]"), "{text}");
        assert!(text.contains("fleet ts0 / IPU [hash]"), "{text}");
        assert!(text.contains("2 devices, 4 tenants, QD 2"));
        assert!(text.contains("Hot shard"));
        assert!(!text.contains("replay cache"));
    }

    #[test]
    fn fleet_capacity_search_saves_and_replots() {
        let dir = std::env::temp_dir().join(format!("ipu_cli_fleet_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let save = dir.join("fleet.json");
        // A generous SLO so the tiny search saturates at the 4-tenant cap.
        let p = parsed_with_switches(
            &format!(
                "fleet --scale 0.002 --traces ts0 --schemes ipu --devices 2 \
                 --max-tenants 4 --slo-p99-ms 10000 --threads 1 --no-cache --save {}",
                save.display()
            ),
            FLEET,
            &["cache", "no-cache"],
        );
        let text = cmd_fleet(&p).unwrap();
        assert!(text.contains("max tenants"), "{text}");
        assert!(text.contains("4"), "{text}");

        // --from replots the saved run without simulating.
        let figs = dir.join("figs");
        let p = parsed_with_switches(
            &format!("fleet --from {} --out {}", save.display(), figs.display()),
            FLEET,
            &["cache", "no-cache"],
        );
        let text = cmd_fleet(&p).unwrap();
        assert!(text.contains("fleet_capacity.svg"), "{text}");
        assert!(text.contains("fleet_load_ts0.svg"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_fleet_search_pairs_healthy_and_faulted_capacity() {
        // 2 devices = 1 mirror pair; a generous SLO keeps both searches at
        // the 2-tenant cap fast.
        let p = parsed_with_switches(
            "fleet --scale 0.002 --traces ts0 --schemes ipu --devices 2 \
             --max-tenants 2 --slo-p99-ms 10000 --threads 1 --no-cache \
             --faulty 1 --replication mirror-pair",
            FLEET,
            &["cache", "no-cache"],
        );
        let text = cmd_fleet(&p).unwrap();
        assert!(text.contains("max tenants"), "{text}");
        assert!(
            text.contains("k=1 faulty (mirror-pair)"),
            "missing degradation table:\n{text}"
        );
        assert!(text.contains("retained"), "{text}");
    }

    #[test]
    fn faulted_fixed_fleet_reports_the_reliability_ledger() {
        let p = parsed_with_switches(
            "fleet --scale 0.002 --traces ts0 --schemes ipu --tenants 4 \
             --devices 2 --threads 1 --no-cache \
             --fault-plan failstop:1@0.5 --replication mirror-pair",
            FLEET,
            &["cache", "no-cache"],
        );
        let text = cmd_fleet(&p).unwrap();
        assert!(text.contains("faults failstop:1@0.50"), "{text}");
        assert!(text.contains("replication mirror-pair"), "{text}");
        assert!(text.contains("health:"), "{text}");
    }

    #[test]
    fn fleet_rejects_bad_specs() {
        for bad in [
            "fleet --scale 0.002 --devices 0",
            "fleet --scale 0.002 --policy pony",
            "fleet --scale 0.002 --queue-depth 0",
            "fleet --scale 0.002 --tenants 0",
            "fleet --scale 0.002 --tenants pony",
            "fleet --scale 0.002 --slo-p99-ms 0",
            "fleet --scale 0.002 --max-tenants 0",
            "fleet --scale 0.002 --arbitration fifo",
            "fleet --scale 0.002 --replication raid6",
            "fleet --scale 0.002 --fault-plan explode:1@0.5",
            "fleet --scale 0.002 --devices 4 --faulty 3",
            "fleet --scale 0.002 --tenants 4 --faulty 1",
            "fleet --from /definitely/missing.json",
        ] {
            assert!(
                cmd_fleet(&parsed_with_switches(bad, FLEET, &["cache", "no-cache"])).is_err(),
                "`{bad}` must fail"
            );
        }
    }
}
