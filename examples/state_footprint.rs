//! State footprint probe: the bytes each scheme's simulation state holds at
//! the end of a replay, split into the forward map, the OOB tags, the cache
//! metadata and the device's page state.
//!
//! ```text
//! cargo run --release --example state_footprint [-- <trace> <scale>]
//! ```
//!
//! The default, ts0 at 8%, is the open-loop `write-gc` benchmark's input at
//! the trace's calibrated seed. FTL and device state do not depend on
//! simulated timing, so the probe drives each scheme's FTL directly, without
//! the event core. Each figure is allocated capacity, as the structures'
//! byte counts define it (`MappingTable::heap_bytes`, `FtlCore::oob_bytes`,
//! `CacheMeta::heap_bytes`, `FlashDevice::page_state_bytes`).

use ipu_core::flash::FlashDevice;
use ipu_core::ftl::{OpBatch, SchemeKind};
use ipu_core::trace::{OpKind, PaperTrace};
use ipu_core::{experiment, ExperimentConfig};

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let trace = match args.next() {
        Some(name) => match PaperTrace::all().into_iter().find(|t| t.name() == name) {
            Some(t) => t,
            None => {
                eprintln!("unknown trace {name:?}");
                std::process::exit(2);
            }
        },
        None => PaperTrace::Ts0,
    };
    let scale: f64 = match args.next().map(|s| s.parse()) {
        Some(Ok(s)) if s > 0.0 && s <= 1.0 => s,
        None => 0.08,
        Some(_) => {
            eprintln!("the scale must be a number in (0, 1]");
            std::process::exit(2);
        }
    };
    let cfg = ExperimentConfig::scaled(scale);
    let requests = experiment::generate_trace(&cfg, trace);
    println!(
        "{} at scale {scale}: {} requests; MiB held at the end of the replay",
        trace.name(),
        requests.len()
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "scheme", "map", "OOB tags", "metadata", "page state", "total"
    );
    for scheme in SchemeKind::all_extended() {
        let replay = cfg.replay_config(scheme);
        let mut dev = FlashDevice::new(replay.device.clone());
        let mut ftl = scheme.build(&mut dev, replay.ftl.clone());
        let mut batch = OpBatch::new();
        for req in &requests {
            batch.clear();
            match req.op {
                OpKind::Write => ftl.on_write_into(req, req.timestamp_ns, &mut dev, &mut batch),
                OpKind::Read => ftl.on_read_into(req, req.timestamp_ns, &mut dev, &mut batch),
            }
        }
        let core = ftl.core();
        let parts = [
            core.map.heap_bytes(),
            core.oob_bytes(),
            core.meta.heap_bytes(),
            dev.page_state_bytes(),
        ];
        println!(
            "{:<10} {:>9.2} {:>9.2} {:>9.2} {:>11.2} {:>9.2}",
            scheme.label(),
            mib(parts[0]),
            mib(parts[1]),
            mib(parts[2]),
            mib(parts[3]),
            mib(parts.iter().sum())
        );
    }
}
