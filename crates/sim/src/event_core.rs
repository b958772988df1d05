//! Discrete-event replay core: an explicit event heap interleaving host
//! operations with background GC, scrub and wear-leveling *steps*.
//!
//! The inline engine ([`ChipSchedule`](crate::resources::ChipSchedule)) models
//! background work as a lazily-drained per-chip queue: correct, but the drain
//! happens as a side effect of host scheduling, so GC interference is never an
//! explicit event that other machinery (preemption policies, suspension
//! models, instrumentation) can hook. [`EventCore`] makes the same timeline
//! event-driven: a `BinaryHeap<Reverse<Event>>` carries op-complete, GC-step
//! and scrub-step events (op-issue events are merged in from the replay
//! driver's already-sorted request stream), and every background round is a
//! resumable sequence of NAND-pulse steps.
//!
//! # Determinism and tie-breaking
//!
//! Events are ordered by `(time, class, seq)`:
//!
//! * `time` — simulated nanoseconds;
//! * `class` — same-instant causal order: op-complete (0) < op-issue (1) <
//!   GC-step (2) < scrub-step (3). Completions settle before new work issues,
//!   and a host op issued at time *t* beats a background pulse that could
//!   start at *t* — host work wins ties, exactly like the inline engine's
//!   strict-`<` drain;
//! * `seq` — a monotonically increasing tie-breaker, so the order is total
//!   and replays are bit-deterministic.
//!
//! With the default [`TimingConfig`] the core is **bit-identical** to the
//! inline oracle engine ([`replay_oracle`](crate::engine::replay_oracle)):
//! background pulses execute at exactly the start times the lazy drain would
//! compute, host operations preempt rounds at pulse boundaries, and reads
//! never wait for the write channel. The property test
//! `crates/sim/tests/event_core_equivalence.rs` pins this for all schemes.
//!
//! # Adding a new event
//!
//! 1. Add a variant to the private `EventKind` and give it a class constant
//!    (insert it into the same-instant order deliberately — anything that
//!    *consumes* device time should sort after op-issue so host work keeps
//!    winning ties).
//! 2. Push it with `EventCore::push_event`'s pattern (time, class, payload);
//!    `seq` is assigned automatically.
//! 3. Handle it in `handle()`. Handlers may push follow-up events; they must
//!    never push an event strictly in the past.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ipu_flash::Nanos;
use ipu_ftl::{FlashOpKind, OpBatch, RoundOrigin};
use ipu_host::metrics::LatencyStats;
use ipu_trace::OpKind;
use serde::{Deserialize, Serialize};

/// How the write channel shares time between host operations and an
/// in-progress background (GC / scrub / wear-leveling) round.
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

/// Same-instant event order: completions settle first.
const CLASS_COMPLETE: u8 = 0;
/// Op-issue slot. Issue events come from the driver's merged request stream,
/// not the heap; the class reserves their place in the same-instant order.
const CLASS_ISSUE: u8 = 1;
/// Background GC (and wear-leveling) pulse wakeups.
const CLASS_GC_STEP: u8 = 2;
/// Background scrub pulse wakeups.
const CLASS_SCRUB_STEP: u8 = 3;

/// Stray background ops (emitted outside any tagged round) get unique
/// synthetic round ids in a disjoint id space so they never fuse.
const STRAY_ROUND_BIT: u64 = 1 << 63;

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    /// A host request's last host-visible operation finished.
    Complete { latency: Nanos, op: OpKind },
    /// A chip may have background steps whose start time has arrived.
    BgWake { chip: u32 },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    time: Nanos,
    class: u8,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.class, self.seq).cmp(&(other.time, other.class, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One NAND pulse of a background round.
#[derive(Debug, Clone)]
struct BgStep {
    /// Earliest start (the dispatch time of the request that emitted it).
    enq: Nanos,
    /// Pulse duration.
    dur: Nanos,
    /// Globally unique round id (steps of one round share it).
    round: u64,
    /// Whether the round is a scrub pass (scrub-step event class).
    scrub: bool,
}

#[derive(Debug, Clone, Default)]
struct ChipState {
    /// Time the write/erase channel becomes free.
    busy_until: Nanos,
    /// Time the read channel becomes free.
    read_until: Nanos,
    /// Pending background pulses, FIFO.
    bg: VecDeque<BgStep>,
    /// Time of the single outstanding `BgWake` event, if any.
    wake_at: Option<Nanos>,
    /// Most recently executed background span on the write channel
    /// `(start, end)` — one pulse, or a whole fused round under
    /// [`GcMode::RunToCompletion`]. Drives read suspension charging.
    last_bg_pulse: Option<(Nanos, Nanos)>,
}

/// The discrete-event engine state: per-chip channel horizons, resumable
/// background rounds, the event heap and the latency aggregates recorded by
/// op-complete events.
#[derive(Debug, Clone)]
pub struct EventCore {
    cfg: TimingConfig,
    chips: Vec<ChipState>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
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
            heap: BinaryHeap::new(),
            seq: 0,
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

    fn push_event(&mut self, time: Nanos, class: u8, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time,
            class,
            seq,
            kind,
        }));
    }

    /// Processes every event that precedes an op-issue at time `t` in the
    /// `(time, class)` order. Drivers call this immediately before
    /// dispatching a request issued at `t`; a non-monotone `t` is a no-op.
    pub fn advance_to(&mut self, t: Nanos) {
        while let Some(Reverse(ev)) = self.heap.peek() {
            if ev.time > t || (ev.time == t && ev.class >= CLASS_ISSUE) {
                break;
            }
            let Some(Reverse(ev)) = self.heap.pop() else {
                break;
            };
            self.handle(ev);
        }
    }

    /// Drains the heap completely: all pending completions are recorded and
    /// every queued background step runs, as an idle drive would. Call once
    /// before building a report.
    pub fn finish(&mut self) {
        while let Some(Reverse(ev)) = self.heap.pop() {
            self.handle(ev);
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev.kind {
            EventKind::Complete { latency, op } => {
                self.overall_latency.record(latency);
                match op {
                    OpKind::Read => self.read_latency.record(latency),
                    OpKind::Write => self.write_latency.record(latency),
                }
            }
            EventKind::BgWake { chip } => self.bg_wake(chip, ev.time),
        }
    }

    /// Runs background steps on `chip` whose start time has arrived (`now`),
    /// then re-arms the wakeup for the next pending step, if any.
    fn bg_wake(&mut self, chip: u32, now: Nanos) {
        let c = chip as usize;
        self.chips[c].wake_at = None;
        loop {
            let Some(front) = self.chips[c].bg.front() else {
                return;
            };
            let start = self.chips[c].busy_until.max(front.enq);
            let scrub = front.scrub;
            if start > now {
                // Stale wakeup: host work pushed the start out. Re-arm.
                self.schedule_wake(chip, start, scrub);
                return;
            }
            let round = front.round;
            let first = self.exec_bg_step(c, start);
            let mut span = (first, self.chips[c].busy_until);
            if self.cfg.gc_mode == GcMode::RunToCompletion {
                // The rest of this round runs back-to-back, uninterruptible.
                while self.chips[c].bg.front().is_some_and(|s| s.round == round) {
                    let at = self.chips[c].busy_until;
                    self.exec_bg_step(c, at);
                    span.1 = self.chips[c].busy_until;
                }
                self.chips[c].last_bg_pulse = Some(span);
            }
        }
    }

    /// Executes the front background step of chip `c` at `start`; returns
    /// the pulse start.
    fn exec_bg_step(&mut self, c: usize, start: Nanos) -> Nanos {
        // bg_wake only calls this with a non-empty queue.
        let Some(step) = self.chips[c].bg.pop_front() else {
            return start;
        };
        let end = start + step.dur;
        self.chips[c].busy_until = end;
        self.chips[c].last_bg_pulse = Some((start, end));
        self.background_done += step.dur;
        start
    }

    /// Arms (or keeps) the single outstanding wakeup for `chip` at `at`.
    fn schedule_wake(&mut self, chip: u32, at: Nanos, scrub: bool) {
        if self.chips[chip as usize].wake_at.is_some() {
            return;
        }
        self.chips[chip as usize].wake_at = Some(at);
        let class = if scrub {
            CLASS_SCRUB_STEP
        } else {
            CLASS_GC_STEP
        };
        self.push_event(at, class, EventKind::BgWake { chip });
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

    /// Enqueues one background pulse and arms the chip's wakeup.
    fn enqueue_bg(&mut self, chip: u32, enq: Nanos, dur: Nanos, round: u64, scrub: bool) {
        let c = chip as usize;
        self.chips[c].bg.push_back(BgStep {
            enq,
            dur,
            round,
            scrub,
        });
        let start = self.chips[c].busy_until.max(enq);
        self.schedule_wake(chip, start, scrub);
    }

    /// Dispatches one host request issued at `now`: executes its host
    /// operations (reads with read priority, writes/erases FIFO behind the
    /// write channel), enqueues its background rounds as resumable step
    /// sequences, and pushes the request's op-complete event. Returns the
    /// completion time. Callers must `advance_to(now)` first.
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
                    let (round, scrub) = if rec.round == 0 {
                        self.stray_rounds += 1;
                        (STRAY_ROUND_BIT | self.stray_rounds, false)
                    } else {
                        let scrub = batch.round_origin(rec.round) == Some(RoundOrigin::Scrub);
                        (self.round_base + rec.round as u64, scrub)
                    };
                    self.enqueue_bg(rec.chip, now, rec.latency_ns, round, scrub);
                }
            }
        }
        self.round_base += batch.rounds_used() as u64;
        self.push_event(
            completion,
            CLASS_COMPLETE,
            EventKind::Complete {
                latency: completion - now,
                op,
            },
        );
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

    /// Host-visible read-request latencies recorded by op-complete events.
    pub fn read_latency(&self) -> &LatencyStats {
        &self.read_latency
    }

    /// Host-visible write-request latencies recorded by op-complete events.
    pub fn write_latency(&self) -> &LatencyStats {
        &self.write_latency
    }

    /// All recorded request latencies.
    pub fn overall_latency(&self) -> &LatencyStats {
        &self.overall_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// pulse could start wins the write channel (class order puts op-issue
    /// before GC-step).
    #[test]
    fn host_wins_same_instant_tie_against_background() {
        let mut core = EventCore::new(1, cfg(GcMode::Preemptible));
        core.advance_to(0);
        core.dispatch(0, &gc_round(0, &[5_000]), OpKind::Write);
        // The pulse's wakeup is armed for t=0, but the next issue is also
        // at t=0: advance_to(0) must not run the pulse first.
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

    /// Op-complete events record latencies identically regardless of when
    /// the heap drains them.
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
}
