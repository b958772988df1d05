//! The four workloads: what each replays, and how its inputs follow from
//! the benchmark seed. Why each workload exists, and which layer it loads or
//! bypasses, is recorded in `perfbench/README.md`.

use std::hint::black_box;
use std::time::Instant;

use ipu_core::ExperimentConfig;
use ipu_fleet::{FleetSpec, ShardPolicy};
use ipu_ftl::SchemeKind;
use ipu_host::{ArbitrationPolicy, HostConfig, TenantSpec};
use ipu_trace::{split_round_robin, IoRequest, PaperTrace, SyntheticTraceSpec, TraceGenerator};

/// Every scheme the program implements; the open- and closed-loop workloads
/// replay all of them in each round.
pub const ALL_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Baseline,
    SchemeKind::Mga,
    SchemeKind::Ipu,
    SchemeKind::IpuPlus,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WriteGc,
    ReadMostly,
    ClosedQd64,
    FleetLadder,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WriteGc,
        Workload::ReadMostly,
        Workload::ClosedQd64,
        Workload::FleetLadder,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteGc => "write-gc",
            Workload::ReadMostly => "read-mostly",
            Workload::ClosedQd64 => "closed-qd64",
            Workload::FleetLadder => "fleet-ladder",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The trace and the fraction of its published request count replayed.
    fn trace_and_scale(self) -> (PaperTrace, f64) {
        match self {
            Workload::WriteGc => (PaperTrace::Ts0, 0.08),
            Workload::ReadMostly => (PaperTrace::Lun2, 0.1),
            Workload::ClosedQd64 => (PaperTrace::Ts0, 0.08),
            Workload::FleetLadder => (PaperTrace::Ts0, 0.04),
        }
    }

    /// How many times faster than the calibrated trace requests arrive.
    /// `closed-qd64` compresses arrivals so its 64-deep queues fill and
    /// admission stalls: at the calibrated rate the device is mostly idle
    /// and the host layer never pushes back.
    fn arrival_speedup(self) -> u64 {
        match self {
            Workload::ClosedQd64 => CLOSED_ARRIVAL_SPEEDUP,
            Workload::WriteGc | Workload::ReadMostly | Workload::FleetLadder => 1,
        }
    }
}

/// Closed-loop host shape of `closed-qd64`: four tenants sharing one volume
/// (round-robin split), two foreground tenants weighted over two background.
pub const CLOSED_QUEUE_DEPTH: usize = 64;
const CLOSED_ARRIVAL_SPEEDUP: u64 = 8;
const CLOSED_TENANTS: [(&str, u32); 4] = [("fg0", 4), ("fg1", 2), ("bg0", 1), ("bg1", 1)];

/// Fleet shape of `fleet-ladder`: hash routing over many small devices, the
/// healthy (inert) fault plan, and a fixed ladder of tenant counts.
pub const FLEET_DEVICES: usize = 16;
pub const FLEET_LADDER: [usize; 4] = [4, 16, 64, 256];
/// A rung meets the SLO when its pooled fleet p99 is strictly below this.
pub const FLEET_SLO_P99_NS: u64 = 1_000_000;

/// What one pass replays.
pub enum Inputs {
    Open(Vec<IoRequest>),
    Closed {
        host: HostConfig,
        streams: Vec<Vec<IoRequest>>,
    },
    Fleet {
        base: Vec<IoRequest>,
        specs: Vec<FleetSpec>,
    },
}

/// A workload ready to measure: configuration, schemes and inputs.
pub struct Setup {
    pub trace: PaperTrace,
    pub cfg: ExperimentConfig,
    pub schemes: Vec<SchemeKind>,
    pub inputs: Inputs,
    /// The synthesized trace the inputs were prepared from.
    pub requests: Vec<IoRequest>,
    workload: Workload,
    spec: SyntheticTraceSpec,
}

impl Setup {
    /// Builds `workload` at its benchmark size.
    pub fn new(workload: Workload, seed: u64) -> Setup {
        let (_, scale) = workload.trace_and_scale();
        Setup::with_scale(workload, seed, scale)
    }

    /// Builds `workload` at `scale` (tests use small ones).
    pub fn with_scale(workload: Workload, seed: u64, scale: f64) -> Setup {
        let (trace, _) = workload.trace_and_scale();
        let mut cfg = ExperimentConfig::scaled(scale);
        cfg.traces = vec![trace];
        cfg.threads = 1;
        let mut spec = trace_spec(trace, scale, seed);
        spec.mean_interarrival_ns /= workload.arrival_speedup();
        let requests = TraceGenerator::new(spec.clone()).generate();
        let schemes = match workload {
            Workload::FleetLadder => vec![SchemeKind::Ipu, SchemeKind::Mga],
            _ => ALL_SCHEMES.to_vec(),
        };
        Setup {
            trace,
            cfg,
            schemes,
            inputs: build_inputs(workload, requests.clone()),
            requests,
            workload,
            spec,
        }
    }

    /// Synthesizes and prepares the inputs again, as set-up did. Returns the
    /// host seconds of the whole preparation and of the trace synthesis in
    /// it, or `None` when the same seed produced different requests.
    pub fn prepare_again(&self) -> Option<(f64, f64)> {
        let t0 = Instant::now();
        let requests = TraceGenerator::new(self.spec.clone()).generate();
        let generated = t0.elapsed().as_secs_f64();
        let same = requests == self.requests;
        let t1 = Instant::now();
        black_box(build_inputs(self.workload, requests));
        let prepared = generated + t1.elapsed().as_secs_f64();
        same.then_some((prepared, generated))
    }
}

/// The calibrated spec of `trace` at `scale`, its seed derived from the
/// benchmark seed: the program only ever sees the generated requests.
pub fn trace_spec(trace: PaperTrace, scale: f64, seed: u64) -> SyntheticTraceSpec {
    let published = ipu_trace::paper_trace(trace);
    let requests = ((published.requests as f64) * scale).max(1.0) as u64;
    let mut spec = published.with_requests(requests);
    spec.seed = splitmix64(spec.seed ^ splitmix64(seed));
    spec
}

fn build_inputs(workload: Workload, requests: Vec<IoRequest>) -> Inputs {
    match workload {
        Workload::WriteGc | Workload::ReadMostly => Inputs::Open(requests),
        Workload::ClosedQd64 => {
            let tenants = CLOSED_TENANTS
                .iter()
                .map(|&(name, weight)| TenantSpec::new(name).with_weight(weight))
                .collect::<Vec<_>>();
            let streams = split_round_robin(&requests, tenants.len());
            Inputs::Closed {
                host: HostConfig::new(
                    CLOSED_QUEUE_DEPTH,
                    ArbitrationPolicy::WeightedRoundRobin,
                    tenants,
                ),
                streams,
            }
        }
        Workload::FleetLadder => Inputs::Fleet {
            base: requests,
            specs: FLEET_LADDER
                .iter()
                .map(|&tenants| FleetSpec::new(FLEET_DEVICES, tenants, ShardPolicy::Hash))
                .collect(),
        },
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
