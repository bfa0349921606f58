//! The causal trace layer: a step-stamped, fixed-vocabulary event
//! stream and the bounded ring-buffer flight recorder that captures
//! it.
//!
//! The campaign stack answers *which* outcome a fault produced; this
//! module answers *how it got there*. Event sites across the testbed
//! (injectors, hypervisor handlers, the RTOS scheduler, the watchdog,
//! the classifier) emit [`TraceEvent`]s into one [`FlightRecorder`]
//! owned by the hypervisor; every site already holds `&mut` access to
//! it. No recorder is the zero-cost-when-off path: a single branch per
//! site, no allocation.
//!
//! The recorder is a bounded ring ([`FlightRecorder`]): a trial that
//! runs long keeps only the most recent `capacity` events plus a
//! count of how many were dropped, exactly like an aircraft flight
//! recorder. Anomalous trials dump the ring; everything else is
//! discarded with the trial.
//!
//! Two invariants, pinned by tests one level up:
//!
//! * **Determinism** — the event stream is a pure function of the
//!   trial seed; sequential, parallel and sharded executions of the
//!   same seed record identical streams.
//! * **Isolation** — tracing never influences trial results; traced
//!   and untraced runs of the same seed produce identical outcomes.

use std::collections::VecDeque;

/// Ring slots allocated up front (the campaign default capacity).
/// Regrowing a ring in every trial costs more than recording into it,
/// so a ring up to this size is allocated once at full size; a larger
/// one grows on demand, so an oversized capacity costs memory only as
/// events arrive.
const RESERVED_EVENTS: usize = 4096;

/// The `cpu` value for events not attributable to a single CPU
/// (memory-domain injections, watchdog bites, classifier verdicts).
pub const NO_CPU: u32 = u32::MAX;

/// The fixed trace vocabulary. Every event a trial can record is one
/// of these kinds; the numeric code of a kind is its position in
/// [`TraceKind::ALL`] and is pinned by the wire schema — append new
/// kinds, never reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A register-domain fault was applied inside a handler.
    /// `arg_a` = handler code, `arg_b` = per-handler call index.
    InjectionApplied,
    /// A memory-domain fault was applied. `arg_a` = fault count.
    MemInjectionApplied,
    /// A memory-domain injection fired but was skipped (unbacked
    /// target, predicted-dead address). `arg_a` = filtered-call count.
    MemInjectionSkipped,
    /// A hypervisor handler was entered. `arg_a` = handler code,
    /// `arg_b` = per-handler call index.
    HandlerEntry,
    /// A guest trap reached the hypervisor. `arg_a` = encoded
    /// syndrome, `arg_b` = faulting address.
    TrapTaken,
    /// A CPU was parked. `arg_a` = park-reason discriminant,
    /// `arg_b` = trap class code (0 unless an unhandled trap).
    CpuParked,
    /// The RTOS scheduler picked a task. `arg_a` = task id.
    SchedDecision,
    /// The watchdog expired. `arg_a` = expiry count so far.
    WatchdogBite,
    /// The hypervisor noticed guest-visible memory corruption and the
    /// orchestrator delivered the notice. `arg_a` = victim cell id.
    CorruptionNotice,
    /// The classifier's verdict, always the final event of a traced
    /// trial. `arg_a` = outcome code.
    ClassifyVerdict,
}

impl TraceKind {
    /// Every kind, in code order.
    pub const ALL: [TraceKind; 10] = [
        TraceKind::InjectionApplied,
        TraceKind::MemInjectionApplied,
        TraceKind::MemInjectionSkipped,
        TraceKind::HandlerEntry,
        TraceKind::TrapTaken,
        TraceKind::CpuParked,
        TraceKind::SchedDecision,
        TraceKind::WatchdogBite,
        TraceKind::CorruptionNotice,
        TraceKind::ClassifyVerdict,
    ];

    /// The kind's stable snake_case name (used in JSON and Chrome
    /// traces).
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::InjectionApplied => "injection_applied",
            TraceKind::MemInjectionApplied => "mem_injection_applied",
            TraceKind::MemInjectionSkipped => "mem_injection_skipped",
            TraceKind::HandlerEntry => "handler_entry",
            TraceKind::TrapTaken => "trap_taken",
            TraceKind::CpuParked => "cpu_parked",
            TraceKind::SchedDecision => "sched_decision",
            TraceKind::WatchdogBite => "watchdog_bite",
            TraceKind::CorruptionNotice => "corruption_notice",
            TraceKind::ClassifyVerdict => "classify_verdict",
        }
    }

    /// The kind's wire code: its discriminant, which is its position
    /// in [`TraceKind::ALL`].
    pub fn code(&self) -> u8 {
        *self as u8
    }

    /// The kind for a wire code, if in range.
    pub fn from_code(code: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(code as usize).copied()
    }
}

/// One step-stamped trace event.
///
/// The two argument words are kind-specific (see [`TraceKind`]); an
/// event is 29 bytes on the wire, 32 in memory, and `Copy` so the hot
/// path never allocates per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The machine step at which the event occurred.
    pub step: u64,
    /// The CPU involved, or [`NO_CPU`].
    pub cpu: u32,
    /// What happened.
    pub kind: TraceKind,
    /// First kind-specific argument.
    pub arg_a: u64,
    /// Second kind-specific argument.
    pub arg_b: u64,
}

/// A bounded ring buffer of the most recent trace events.
///
/// Once `capacity` events are held, each new event evicts the oldest;
/// `total` keeps counting, so `dropped()` reports exactly how much of
/// the stream's head was lost. A clone is an independent copy: what a
/// trial forked from a traced snapshot records into, so its dump
/// matches a trial traced from step 0.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    total: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(RESERVED_EVENTS)),
            total: 0,
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (at most `capacity`).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events ever recorded, including evicted ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted from the head of the ring.
    pub fn dropped(&self) -> u64 {
        self.total - self.events.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The retained events, oldest first, in the ring's own buffer.
    pub fn into_events(self) -> Vec<TraceEvent> {
        Vec::from(self.events)
    }

    /// Records one event, evicting the oldest at capacity.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(step: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            step,
            cpu: 0,
            kind,
            arg_a: 0,
            arg_b: 0,
        }
    }

    #[test]
    fn kind_codes_round_trip() {
        for (index, kind) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(kind.code() as usize, index);
            assert_eq!(TraceKind::from_code(kind.code()), Some(*kind));
        }
        assert_eq!(TraceKind::from_code(TraceKind::ALL.len() as u8), None);
    }

    #[test]
    fn an_event_takes_32_bytes_so_a_4096_event_ring_takes_128_kib() {
        // The figure `DEFAULT_TRACE_CAPACITY` and the README's ring
        // sizing quote; 29 of the bytes go on the wire.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
        assert_eq!(4096 * std::mem::size_of::<TraceEvent>(), 128 * 1024);
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<_> = TraceKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceKind::ALL.len());
    }

    #[test]
    fn recorder_evicts_oldest_and_counts_drops() {
        let mut recorder = FlightRecorder::new(3);
        for step in 0..5 {
            recorder.record(event(step, TraceKind::HandlerEntry));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.total(), 5);
        assert_eq!(recorder.dropped(), 2);
        let steps: Vec<u64> = recorder.events().map(|e| e.step).collect();
        assert_eq!(steps, vec![2, 3, 4]);
    }

    #[test]
    fn recorder_capacity_floor_is_one() {
        let mut recorder = FlightRecorder::new(0);
        assert_eq!(recorder.capacity(), 1);
        recorder.record(event(1, TraceKind::WatchdogBite));
        recorder.record(event(2, TraceKind::WatchdogBite));
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.into_events()[0].step, 2);
    }

    #[test]
    fn huge_capacity_grows_on_demand() {
        let mut recorder = FlightRecorder::new(usize::MAX);
        for step in 0..5 {
            recorder.record(event(step, TraceKind::TrapTaken));
        }
        assert_eq!(recorder.capacity(), usize::MAX);
        assert_eq!(
            (recorder.len(), recorder.total(), recorder.dropped()),
            (5, 5, 0)
        );
        assert_eq!(recorder.into_events()[4].step, 4);
    }

    #[test]
    fn cloned_recorder_copies_the_ring_and_then_diverges() {
        let mut recorder = FlightRecorder::new(2);
        for step in 0..3 {
            recorder.record(event(step, TraceKind::HandlerEntry));
        }
        let mut fork = recorder.clone();
        assert!(fork.events().eq(recorder.events()));
        assert_eq!((fork.total(), fork.dropped()), (3, 1));
        fork.record(event(9, TraceKind::ClassifyVerdict));
        assert_eq!(recorder.total(), 3, "the original ring is untouched");
        assert_eq!(fork.total(), 4);
        assert_eq!(fork.into_events()[1].step, 9);
    }
}
