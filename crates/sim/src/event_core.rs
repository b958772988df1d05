//! Discrete-event replay core: host operations interleaved with background
//! GC and wear-leveling rounds, timed NAND pulse by NAND pulse.
//!
//! The inline engine ([`ChipSchedule`](crate::resources::ChipSchedule)) drains
//! background work lazily, as a side effect of host scheduling. [`EventCore`]
//! keeps every background round as a resumable queue of pulses on each chip
//! and runs them explicitly as simulated time passes their start, so GC
//! interference is a part of the timeline that preemption policies and
//! suspension models act on.
//!
//! There is no event queue. A request's latency is known as soon as
//! [`dispatch`](EventCore::dispatch) has scheduled its host operations, so
//! `dispatch` records it. Background pulses wait in per-chip FIFOs, and
//! [`advance_to`](EventCore::advance_to) runs them chip by chip.
//!
//! # What `advance_to(t)` runs
//!
//! Every queued pulse whose start, `max(busy_until, enq)` on its chip, is
//! **strictly** before `t`, in FIFO order per chip. A pulse that could start
//! exactly at `t` waits: a host operation issued at `t` wins the write
//! channel, exactly like the inline engine's strict-`<` drain. Under
//! [`GcMode::RunToCompletion`] the rest of a started round runs
//! back-to-back behind its first pulse. [`finish`](EventCore::finish) runs
//! everything still queued, as an idle drive would.
//!
//! A pulse's start only grows as host work lands on its chip, so the core
//! keeps a lower bound on the earliest start of any queued pulse and returns
//! from `advance_to` in O(1) until `t` passes it.
//!
//! # Why cross-chip order cannot matter
//!
//! Running a pulse reads and writes only its own chip's state
//! (`busy_until` and the last background span) and adds its duration to the
//! total background time. Chips share nothing else, and a sum does not
//! depend on the order of its terms. So draining chip 0 completely before
//! chip 1 leaves the same state as any time-ordered interleaving. Under the
//! default [`TimingConfig`] the core is **bit-identical** to the inline
//! oracle engine ([`replay_oracle`](crate::engine::replay_oracle)): the
//! property test `crates/sim/tests/event_core_equivalence.rs` pins this for
//! all schemes, and the scheme goldens in `crates/core/tests` pin the
//! run-to-completion and read-suspension paths.
//!
//! # Adding a background source
//!
//! 1. Have the FTL open a round with [`OpBatch::begin_background_round`]
//!    and a [`RoundOrigin`](ipu_ftl::RoundOrigin) naming the source, then
//!    push its pulses as background ops. `dispatch` queues them on their
//!    chips; nothing here changes.
//! 2. If the source needs a timing rule of its own, apply it in the per-chip
//!    drain (`ChipState::run_before`). The rule may read its own chip's
//!    state and `t`, never another chip's: that is what keeps the drain
//!    order free.
//! 3. Add a config that exercises the rule to the scheme goldens.

use std::collections::VecDeque;

use ipu_flash::Nanos;
use ipu_ftl::{FlashOpKind, OpBatch};
use ipu_host::metrics::LatencyStats;
use ipu_trace::OpKind;
use serde::{Deserialize, Serialize};

/// How the write channel shares time between host operations and an
/// in-progress background (GC / wear-leveling) round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum GcMode {
    /// Background rounds yield to host work at every NAND pulse boundary: a
    /// host write arriving mid-round waits at most for the pulse in flight.
    /// This matches the inline oracle engine and is the default.
    #[default]
    Preemptible,
    /// Once a round's first pulse starts on a chip, every remaining pulse of
    /// that round on the chip runs back-to-back: a host write arriving
    /// mid-round waits for the whole remainder. The tail-latency cliff this
    /// produces is what preemptible GC exists to avoid.
    RunToCompletion,
}

/// Timing-model knobs of the event core. The defaults reproduce the inline
/// oracle engine bit-for-bit, so adding this struct to a config is inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Background-round preemption policy.
    #[serde(default)]
    pub gc_mode: GcMode,
    /// Program/erase suspension boundary granularity for host reads, in
    /// nanoseconds. `0` (default) keeps the legacy model: reads never wait
    /// for the write channel. When positive, a read arriving while a
    /// background pulse is in flight on its chip waits until the pulse
    /// reaches its next suspension boundary (`start + k·granularity`, capped
    /// at the pulse end) before its read-channel service begins.
    #[serde(default)]
    pub suspend_granularity_ns: Nanos,
}

/// Stray background ops (emitted outside any tagged round) get unique
/// synthetic round ids in a disjoint id space so they never fuse.
const STRAY_ROUND_BIT: u64 = 1 << 63;

/// One NAND pulse of a background round.
#[derive(Debug, Clone)]
struct BgStep {
    /// Earliest start (the dispatch time of the request that emitted it).
    enq: Nanos,
    /// Pulse duration.
    dur: Nanos,
    /// Globally unique round id (steps of one round share it).
    round: u64,
}

#[derive(Debug, Clone, Default)]
struct ChipState {
    /// Time the write/erase channel becomes free.
    busy_until: Nanos,
    /// Time the read channel becomes free.
    read_until: Nanos,
    /// Pending background pulses, FIFO.
    bg: VecDeque<BgStep>,
    /// Most recently executed background span on the write channel
    /// `(start, end)` — one pulse, or a whole fused round under
    /// [`GcMode::RunToCompletion`]. Drives read suspension charging.
    last_bg_pulse: Option<(Nanos, Nanos)>,
}

impl ChipState {
    /// Start of the front queued pulse, if any.
    fn next_start(&self) -> Option<Nanos> {
        self.bg.front().map(|s| self.busy_until.max(s.enq))
    }

    /// Runs, in FIFO order, every queued pulse that starts before `t`;
    /// returns the background nanoseconds executed.
    fn run_before(&mut self, t: Nanos, mode: GcMode) -> Nanos {
        let mut done = 0;
        while let Some(start) = self.next_start().filter(|&s| s < t) {
            let Some(step) = self.bg.pop_front() else {
                break;
            };
            self.busy_until = start + step.dur;
            done += step.dur;
            if mode == GcMode::RunToCompletion {
                // The rest of this round runs back-to-back, uninterruptible.
                while self.bg.front().is_some_and(|s| s.round == step.round) {
                    let Some(next) = self.bg.pop_front() else {
                        break;
                    };
                    self.busy_until += next.dur;
                    done += next.dur;
                }
            }
            self.last_bg_pulse = Some((start, self.busy_until));
        }
        done
    }
}

/// The discrete-event engine state: per-chip channel horizons, resumable
/// background rounds, and the latency aggregates recorded at dispatch.
#[derive(Debug, Clone)]
pub struct EventCore {
    cfg: TimingConfig,
    chips: Vec<ChipState>,
    /// Lower bound on the start of every queued background pulse
    /// (`Nanos::MAX` when none is queued): `advance_to(t)` has nothing to
    /// run while `t <= next_wake`.
    next_wake: Nanos,
    /// Global round-id base; each dispatched batch maps its local round ids
    /// (1..) into `round_base + id`.
    round_base: u64,
    /// Unique ids for stray (untagged) background ops.
    stray_rounds: u64,
    host_busy: Nanos,
    read_busy: Nanos,
    background_done: Nanos,
    /// Total ns reads spent waiting for suspension boundaries.
    suspension_wait: Nanos,
    read_latency: LatencyStats,
    write_latency: LatencyStats,
    overall_latency: LatencyStats,
}

impl EventCore {
    /// A core for `chips` chips, all idle at time zero.
    pub fn new(chips: u32, cfg: TimingConfig) -> Self {
        assert!(chips > 0, "a device needs at least one chip");
        EventCore {
            cfg,
            chips: vec![ChipState::default(); chips as usize],
            next_wake: Nanos::MAX,
            round_base: 0,
            stray_rounds: 0,
            host_busy: 0,
            read_busy: 0,
            background_done: 0,
            suspension_wait: 0,
            read_latency: LatencyStats::new(),
            write_latency: LatencyStats::new(),
            overall_latency: LatencyStats::new(),
        }
    }

    /// Runs every queued background pulse that starts strictly before `t`
    /// (see the module docs). Drivers call this immediately before
    /// dispatching a request issued at `t`.
    #[inline]
    pub fn advance_to(&mut self, t: Nanos) {
        if t > self.next_wake {
            self.drain_before(t);
        }
    }

    /// Runs every queued background pulse, as an idle drive would. Call once
    /// before building a report; latencies need no draining, `dispatch`
    /// records them.
    pub fn finish(&mut self) {
        // Simulated time never reaches `Nanos::MAX` (584 years), so every
        // queued pulse starts before it.
        self.drain_before(Nanos::MAX);
    }

    /// The out-of-line body of `advance_to`: drains each chip in turn, then
    /// makes `next_wake` exact again.
    #[inline(never)]
    fn drain_before(&mut self, t: Nanos) {
        let mode = self.cfg.gc_mode;
        let mut next_wake = Nanos::MAX;
        for chip in &mut self.chips {
            self.background_done += chip.run_before(t, mode);
            if let Some(start) = chip.next_start() {
                next_wake = next_wake.min(start);
            }
        }
        self.next_wake = next_wake;
    }

    /// Schedules a host write/erase pulse; returns its end time.
    fn exec_host(&mut self, chip: u32, t: Nanos, dur: Nanos) -> Nanos {
        let c = &mut self.chips[chip as usize];
        let start = c.busy_until.max(t);
        c.busy_until = start + dur;
        self.host_busy += dur;
        start + dur
    }

    /// Schedules a host read with read priority; returns its end time. With a
    /// positive suspension granularity the read is charged the residual time
    /// to the in-flight background pulse's next suspension boundary.
    fn exec_read(&mut self, chip: u32, t: Nanos, dur: Nanos) -> Nanos {
        let c = &mut self.chips[chip as usize];
        let mut earliest = t;
        let g = self.cfg.suspend_granularity_ns;
        if g > 0 {
            if let Some((s, e)) = c.last_bg_pulse {
                if s <= t && t < e {
                    let rem = (t - s) % g;
                    if rem != 0 {
                        let boundary = (t + (g - rem)).min(e);
                        self.suspension_wait += boundary - t;
                        earliest = boundary;
                    }
                }
            }
        }
        let start = c.read_until.max(earliest);
        c.read_until = start + dur;
        self.read_busy += dur;
        start + dur
    }

    /// Queues one background pulse on `chip`.
    fn enqueue_bg(&mut self, chip: u32, enq: Nanos, dur: Nanos, round: u64) {
        let c = &mut self.chips[chip as usize];
        c.bg.push_back(BgStep { enq, dur, round });
        // Host work can only push the start later, so this stays a bound.
        self.next_wake = self.next_wake.min(c.busy_until.max(enq));
    }

    /// Dispatches one host request issued at `now`: executes its host
    /// operations (reads with read priority, writes/erases FIFO behind the
    /// write channel), queues its background rounds as resumable pulse
    /// sequences, and records the request's latency. Returns the completion
    /// time. Callers must `advance_to(now)` first.
    pub fn dispatch(&mut self, now: Nanos, batch: &OpBatch, op: OpKind) -> Nanos {
        let mut completion = now;
        for rec in &batch.ops {
            match rec.kind {
                FlashOpKind::HostRead | FlashOpKind::UnmappedRead => {
                    completion = completion.max(self.exec_read(rec.chip, now, rec.latency_ns));
                }
                FlashOpKind::HostProgram => {
                    completion = completion.max(self.exec_host(rec.chip, now, rec.latency_ns));
                }
                FlashOpKind::GcRead | FlashOpKind::GcProgram | FlashOpKind::Erase => {
                    let round = if rec.round == 0 {
                        self.stray_rounds += 1;
                        STRAY_ROUND_BIT | self.stray_rounds
                    } else {
                        self.round_base + rec.round as u64
                    };
                    self.enqueue_bg(rec.chip, now, rec.latency_ns, round);
                }
            }
        }
        self.round_base += batch.rounds_used() as u64;
        let latency = completion - now;
        self.overall_latency.record(latency);
        match op {
            OpKind::Read => self.read_latency.record(latency),
            OpKind::Write => self.write_latency.record(latency),
        }
        completion
    }

    /// Latest horizon across all chips and both channels, enqueue-aware for
    /// still-queued background work (see `ChipSchedule::horizon`).
    pub fn horizon(&self) -> Nanos {
        self.chips
            .iter()
            .map(|c| {
                let mut h = c.busy_until;
                for s in &c.bg {
                    h = h.max(s.enq) + s.dur;
                }
                h.max(c.read_until)
            })
            .max()
            .unwrap_or(0)
    }

    /// Time `chip`'s write/erase channel becomes free.
    pub fn busy_until(&self, chip: u32) -> Nanos {
        self.chips[chip as usize].busy_until
    }

    /// Time `chip`'s read channel becomes free.
    pub fn read_until(&self, chip: u32) -> Nanos {
        self.chips[chip as usize].read_until
    }

    /// Total host write/erase nanoseconds executed.
    pub fn host_busy(&self) -> Nanos {
        self.host_busy
    }

    /// Total host read nanoseconds executed.
    pub fn read_busy(&self) -> Nanos {
        self.read_busy
    }

    /// Total background nanoseconds already executed.
    pub fn background_done(&self) -> Nanos {
        self.background_done
    }

    /// Background nanoseconds still queued across all chips — at a power-loss
    /// cut this is the in-flight GC work the loss interrupts.
    pub fn background_backlog(&self) -> Nanos {
        self.chips
            .iter()
            .map(|c| c.bg.iter().map(|s| s.dur).sum::<Nanos>())
            .sum()
    }

    /// Total nanoseconds reads spent waiting for suspension boundaries.
    pub fn read_suspension_wait_ns(&self) -> Nanos {
        self.suspension_wait
    }

    /// Host-visible read-request latencies, recorded at dispatch.
    pub fn read_latency(&self) -> &LatencyStats {
        &self.read_latency
    }

    /// Host-visible write-request latencies, recorded at dispatch.
    pub fn write_latency(&self) -> &LatencyStats {
        &self.write_latency
    }

    /// All request latencies, recorded at dispatch.
    pub fn overall_latency(&self) -> &LatencyStats {
        &self.overall_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_ftl::RoundOrigin;

    fn gc_round(chip: u32, pulses: &[Nanos]) -> OpBatch {
        let mut b = OpBatch::new();
        b.begin_background_round(RoundOrigin::Gc);
        for &d in pulses {
            b.push(chip, FlashOpKind::GcRead, d);
        }
        b
    }

    fn host_write(chip: u32, dur: Nanos) -> OpBatch {
        let mut b = OpBatch::new();
        b.push(chip, FlashOpKind::HostProgram, dur);
        b
    }

    fn cfg(mode: GcMode) -> TimingConfig {
        TimingConfig {
            gc_mode: mode,
            suspend_granularity_ns: 0,
        }
    }

    /// Resumability: interrupt a 5-pulse round after every step index. Under
    /// preemptible GC the host op waits at most the pulse in flight, and the
    /// final core state (total background executed, write-channel horizon) is
    /// identical no matter where the interrupt landed.
    #[test]
    fn gc_round_resumes_identically_after_every_step() {
        let pulses = [100u64, 200, 300, 400, 500];
        let total: Nanos = pulses.iter().sum();
        for k in 0..pulses.len() {
            let mut core = EventCore::new(1, cfg(GcMode::Preemptible));
            core.advance_to(0);
            core.dispatch(0, &gc_round(0, &pulses), OpKind::Write);
            // Arrive one ns into pulse k: pulses 0..k done, pulse k in flight.
            let before_k: Nanos = pulses[..k].iter().sum();
            let arrive = before_k + 1;
            core.advance_to(arrive);
            assert_eq!(core.background_done(), before_k + pulses[k]);
            let completion = core.dispatch(arrive, &host_write(0, 10), OpKind::Write);
            // The host op started right at the end of the in-flight pulse.
            assert_eq!(
                completion,
                before_k + pulses[k] + 10,
                "interrupt after step {k}: host must wait exactly one pulse"
            );
            core.finish();
            // The remaining steps resumed after the host op; nothing lost.
            assert_eq!(core.background_done(), total);
            assert_eq!(core.busy_until(0), total + 10);
            assert_eq!(core.horizon(), total + 10);
        }
    }

    /// Run-to-completion: the same interrupt waits for the whole remainder of
    /// the round, not one pulse.
    #[test]
    fn run_to_completion_blocks_host_for_round_remainder() {
        let pulses = [100u64, 200, 300, 400, 500];
        let total: Nanos = pulses.iter().sum();
        let mut core = EventCore::new(1, cfg(GcMode::RunToCompletion));
        core.advance_to(0);
        core.dispatch(0, &gc_round(0, &pulses), OpKind::Write);
        core.advance_to(1); // the round started at t=0 and fused
        assert_eq!(core.background_done(), total);
        let completion = core.dispatch(1, &host_write(0, 10), OpKind::Write);
        assert_eq!(completion, total + 10);
        core.finish();
        assert_eq!(core.busy_until(0), total + 10);
    }

    /// Host work that arrives before a round's first pulse starts still wins
    /// in both modes: run-to-completion only bites once a round has started.
    #[test]
    fn unstarted_round_yields_to_host_in_both_modes() {
        for mode in [GcMode::Preemptible, GcMode::RunToCompletion] {
            let mut core = EventCore::new(1, cfg(mode));
            core.advance_to(0);
            core.dispatch(0, &host_write(0, 1_000), OpKind::Write);
            core.dispatch(0, &gc_round(0, &[10_000]), OpKind::Write);
            // t=500: the round could not have started (chip busy to 1000).
            core.advance_to(500);
            let completion = core.dispatch(500, &host_write(0, 10), OpKind::Write);
            assert_eq!(completion, 1_010, "{mode:?}: host queued behind GC");
            core.finish();
            assert_eq!(core.background_done(), 10_000);
        }
    }

    /// Same-instant tie: a host op issued at exactly the time a background
    /// pulse could start wins the write channel (`advance_to(t)` runs only
    /// pulses that start strictly before `t`).
    #[test]
    fn host_wins_same_instant_tie_against_background() {
        let mut core = EventCore::new(1, cfg(GcMode::Preemptible));
        core.advance_to(0);
        core.dispatch(0, &gc_round(0, &[5_000]), OpKind::Write);
        // The pulse could start at t=0, but the next issue is also at t=0:
        // advance_to(0) must not run the pulse first.
        core.advance_to(0);
        assert_eq!(core.background_done(), 0);
        let completion = core.dispatch(0, &host_write(0, 10), OpKind::Write);
        assert_eq!(completion, 10);
        core.finish();
        assert_eq!(core.busy_until(0), 5_010);
    }

    /// Reads are charged the residual to the next suspension boundary of an
    /// in-flight background pulse; granularity 0 keeps the legacy model.
    #[test]
    fn reads_wait_for_suspension_boundaries() {
        let run = |g: Nanos, read_at: Nanos| {
            let mut core = EventCore::new(
                1,
                TimingConfig {
                    gc_mode: GcMode::Preemptible,
                    suspend_granularity_ns: g,
                },
            );
            core.advance_to(0);
            core.dispatch(0, &gc_round(0, &[1_000_000]), OpKind::Write);
            core.advance_to(read_at);
            let mut b = OpBatch::new();
            b.push(0, FlashOpKind::HostRead, 40_000);
            let done = core.dispatch(read_at, &b, OpKind::Read);
            (done - read_at, core.read_suspension_wait_ns())
        };
        // Legacy: no wait at all.
        assert_eq!(run(0, 130_000), (40_000, 0));
        // g=50µs, read 130µs into the pulse: boundary at 150µs → 20µs wait.
        assert_eq!(run(50_000, 130_000), (60_000, 20_000));
        // Exactly on a boundary: no wait.
        assert_eq!(run(50_000, 150_000), (40_000, 0));
        // Near the pulse end the wait is capped at the pulse end.
        assert_eq!(run(50_000, 990_000), (50_000, 10_000));
        // After the pulse finished: no wait.
        assert_eq!(run(50_000, 1_200_000), (40_000, 0));
    }

    /// Background work is conserved across interleavings, and the horizon is
    /// enqueue-aware before `finish()`.
    #[test]
    fn backlog_and_horizon_account_pending_steps() {
        let mut core = EventCore::new(2, cfg(GcMode::Preemptible));
        core.advance_to(0);
        core.dispatch(0, &host_write(0, 1_000), OpKind::Write);
        let mut b = gc_round(0, &[10_000]);
        b.begin_background_round(RoundOrigin::Gc);
        b.push(1, FlashOpKind::GcRead, 30);
        core.dispatch(0, &b, OpKind::Write);
        assert_eq!(core.background_backlog(), 10_030);
        assert_eq!(core.horizon(), 11_000);
        core.finish();
        assert_eq!(core.background_backlog(), 0);
        assert_eq!(core.background_done(), 10_030);
        assert_eq!(core.busy_until(0), 11_000);
        assert_eq!(core.busy_until(1), 30);
    }

    /// Every request's latency lands in the overall and per-op populations.
    #[test]
    fn completions_record_request_latencies() {
        let mut core = EventCore::new(1, cfg(GcMode::Preemptible));
        core.advance_to(0);
        core.dispatch(0, &host_write(0, 100), OpKind::Write);
        let mut b = OpBatch::new();
        b.push(0, FlashOpKind::HostRead, 40);
        core.advance_to(10);
        core.dispatch(10, &b, OpKind::Read);
        core.finish();
        assert_eq!(core.overall_latency().count(), 2);
        assert_eq!(core.write_latency().max_ns(), 100);
        assert_eq!(core.read_latency().max_ns(), 40);
        assert_eq!(core.host_busy(), 100);
        assert_eq!(core.read_busy(), 40);
    }

    /// A host write on chip 0 pushes its queued pulse's start past `t`
    /// while chip 1's pulse is due: chip 1's runs, chip 0's waits for the
    /// write and runs only once time passes its new start.
    #[test]
    fn host_write_delays_one_chip_while_another_drains() {
        let mut core = EventCore::new(2, cfg(GcMode::Preemptible));
        let mut b = gc_round(0, &[400]);
        b.push(1, FlashOpKind::GcRead, 300);
        core.advance_to(0);
        core.dispatch(0, &b, OpKind::Write);
        // Same instant: the host write wins chip 0, so its pulse now starts
        // at 1_000 rather than 0.
        core.dispatch(0, &host_write(0, 1_000), OpKind::Write);
        core.advance_to(500);
        assert_eq!(core.background_done(), 300, "only chip 1's pulse ran");
        assert_eq!(core.busy_until(1), 300);
        assert_eq!(core.busy_until(0), 1_000);
        assert_eq!(core.background_backlog(), 400);
        // t = 1_000 is a tie with the pulse's start: host work would win.
        core.advance_to(1_000);
        assert_eq!(core.background_done(), 300);
        core.advance_to(1_001);
        assert_eq!(core.background_done(), 700);
        assert_eq!(core.busy_until(0), 1_400);
        assert_eq!(core.background_backlog(), 0);
    }

    /// A request's latency is recorded by `dispatch` itself: it is counted
    /// before `advance_to` or `finish` runs, even with background work still
    /// queued.
    #[test]
    fn latency_is_recorded_at_dispatch() {
        let mut core = EventCore::new(1, cfg(GcMode::Preemptible));
        core.advance_to(0);
        let mut b = gc_round(0, &[5_000]);
        b.push(0, FlashOpKind::HostProgram, 250);
        let completion = core.dispatch(0, &b, OpKind::Write);
        assert_eq!(completion, 250);
        assert_eq!(core.overall_latency().count(), 1);
        assert_eq!(core.write_latency().max_ns(), 250);
        assert_eq!(core.read_latency().count(), 0);
        assert_eq!(core.background_backlog(), 5_000);
    }
}
