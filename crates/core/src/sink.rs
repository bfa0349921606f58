//! Trial sinks: streaming consumers of campaign results.
//!
//! Buffering every trial's full [`RunReport`](crate::RunReport) before
//! anything aggregates or exports them makes memory grow linearly with
//! campaign size. A [`TrialSink`] inverts that: the engine hands each
//! finished [`TrialResult`] to the sink *in seed order* and forgets
//! it, so a campaign holds at most `workers` undelivered reports at
//! any time (see `Campaign::execute`). Aggregation happens online in
//! [`CampaignStats`](crate::CampaignStats); exports stream row by row
//! (e.g. `certify_analysis`'s `CsvSink`); a caller that does want every
//! trial passes a [`CollectSink`]. A `certify-shard` worker is just a
//! remote `TrialSink`.

use crate::campaign::TrialResult;
use crate::trace::TraceDump;
use certify_obs::trace::FlightRecorder;

/// A streaming consumer of trial results.
///
/// The campaign engine calls [`TrialSink::accept`] exactly once per
/// trial, in seed order (`seq` counts 0, 1, 2, … and the trial's seed
/// is `base_seed + seq`), whatever worker count or OS scheduling
/// produced the trials. The sink owns the delivered result; dropping
/// it immediately is what gives streamed campaigns their bounded
/// memory.
pub trait TrialSink {
    /// Delivers trial number `seq` (0-based, in seed order).
    fn accept(&mut self, seq: usize, trial: TrialResult);

    /// Delivers trial `seq`'s flight-recorder dump, immediately after
    /// that trial's [`TrialSink::accept`]. Only called on traced
    /// campaigns ([`crate::Campaign::with_trace`]) and only for trials
    /// the dump policy selected; the default implementation discards
    /// the dump, so sinks that don't care never see tracing.
    fn accept_dump(&mut self, seq: usize, dump: TraceDump) {
        let _ = (seq, dump);
    }

    /// Hands over the flight recorder of the traced fault-free prefix
    /// every trial of this engine call forks from: once, before the
    /// first [`TrialSink::accept`], and only on traced campaigns. Each
    /// delivered dump's ring starts as a copy of this one, so a sink
    /// that ships dumps can send the prefix once and each dump's
    /// suffix after it. The default implementation ignores it.
    fn accept_trace_prefix(&mut self, prefix: &FlightRecorder) {
        let _ = prefix;
    }

    /// Bytes this sink has written to its output so far, if it
    /// measures that (`None` for sinks with no byte-shaped output).
    /// Observed campaign runs sample this into the `sink_bytes`
    /// telemetry counter after the last delivery.
    fn bytes_written(&self) -> Option<u64> {
        None
    }
}

/// A sink that drops every trial: run a campaign purely for its
/// online [`CampaignStats`](crate::CampaignStats).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TrialSink for NullSink {
    fn accept(&mut self, _seq: usize, _trial: TrialResult) {}
}

/// A sink that buffers every trial (and every delivered trace dump):
/// pass it to [`Campaign::execute`](crate::Campaign::execute) when a
/// caller needs every trial rather than the online stats.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    trials: Vec<TrialResult>,
    dumps: Vec<(usize, TraceDump)>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The buffered trials, in seed order.
    pub fn into_trials(self) -> Vec<TrialResult> {
        self.trials
    }

    /// The buffered trace dumps, as `(seq, dump)` in seed order
    /// (empty unless the campaign was traced).
    pub fn dumps(&self) -> &[(usize, TraceDump)] {
        &self.dumps
    }

    /// Consumes the collector, returning trials and dumps.
    pub fn into_parts(self) -> (Vec<TrialResult>, Vec<(usize, TraceDump)>) {
        (self.trials, self.dumps)
    }
}

impl TrialSink for CollectSink {
    fn accept(&mut self, seq: usize, trial: TrialResult) {
        debug_assert_eq!(seq, self.trials.len(), "sink deliveries out of order");
        self.trials.push(trial);
    }

    fn accept_dump(&mut self, seq: usize, dump: TraceDump) {
        self.dumps.push((seq, dump));
    }
}

/// Any `FnMut(usize, TrialResult)` closure is a sink.
impl<F: FnMut(usize, TrialResult)> TrialSink for F {
    fn accept(&mut self, seq: usize, trial: TrialResult) {
        self(seq, trial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Scenario};

    #[test]
    fn collect_sink_buffers_in_order() {
        let campaign = Campaign::new(Scenario::golden(400), 3, 9);
        let mut sink = CollectSink::new();
        campaign.execute(.., 1, &mut sink, None);
        let trials = sink.into_trials();
        assert_eq!(trials.len(), 3);
        assert_eq!(
            trials.iter().map(|t| t.seed).collect::<Vec<_>>(),
            vec![9, 10, 11]
        );
    }

    #[test]
    fn closures_are_sinks() {
        let campaign = Campaign::new(Scenario::golden(400), 2, 1);
        let mut seen = Vec::new();
        let mut sink = |seq: usize, trial: TrialResult| seen.push((seq, trial.seed));
        campaign.execute(.., 1, &mut sink, None);
        assert_eq!(seen, vec![(0, 1), (1, 2)]);
    }
}
