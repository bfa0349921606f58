//! The shard worker: runs one seed range and streams rows home.
//!
//! A worker process is the executable side of
//! [`Frame::Handshake`](crate::protocol::Frame): it reads exactly one
//! handshake from stdin, rebuilds the [`Campaign`] from the shipped
//! [`Scenario`], executes its trial range through
//! [`Campaign::execute`] with one worker (on the calling thread, no
//! thread spawned), and streams every trial's CSV
//! row back as a [`Frame::TrialRow`](crate::protocol::Frame) through
//! a [`RemoteSink`] — the remote cousin of `certify_analysis`'s
//! `CsvSink`. A traced shard sends its trace prefix first and each
//! dump as the suffix after it. Every `stats_every` rows it snapshots
//! its online [`CampaignStats`] into a `Stats` frame; a final `Done`
//! frame carries the authoritative shard stats.
//!
//! Failure is loud by design: if any frame write fails (broken pipe,
//! full disk, dying coordinator) the sink *latches* the error, the
//! remaining trials are skipped, no `Done` frame is ever sent, and
//! the worker exits non-zero — the coordinator sees a dead shard, not
//! a silently truncated one.

use crate::protocol::{read_frame, write_frame, Frame, Handshake, TracePrefix};
use certify_analysis::export::trial_to_csv_row;
use certify_core::{
    Campaign, CampaignStats, ConformanceMonitor, TraceDump, TrialResult, TrialSink,
};
use certify_obs::trace::FlightRecorder;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Exit code for a malformed, missing or version-skewed handshake.
pub const EXIT_BAD_HANDSHAKE: i32 = 2;
/// Exit code for a failed result stream (a `TrialSink` write error).
pub const EXIT_STREAM_FAILED: i32 = 3;

/// Why a worker run failed.
#[derive(Debug)]
pub enum WorkerError {
    /// The handshake was missing, malformed, or the wrong version.
    Handshake(String),
    /// Streaming results back failed; the shard's output is
    /// incomplete and the worker must die non-zero.
    Stream(String),
}

impl WorkerError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            WorkerError::Handshake(_) => EXIT_BAD_HANDSHAKE,
            WorkerError::Stream(_) => EXIT_STREAM_FAILED,
        }
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Handshake(e) => write!(f, "handshake failed: {e}"),
            WorkerError::Stream(e) => write!(f, "result stream failed: {e}"),
        }
    }
}

/// A [`TrialSink`] that frames each delivered trial's CSV row over a
/// byte pipe — the worker-process side of a sharded campaign.
///
/// On a traced campaign it frames the engine's trace prefix once and
/// each delivered dump as its [suffix](TracePrefix::suffix) after that
/// prefix; a dump delivered before any prefix is a write error.
///
/// The first write error is latched: later deliveries are dropped
/// (the campaign engine finishes its range undisturbed) and
/// [`RemoteSink::latched_error`] surfaces the failure so the worker
/// can exit non-zero instead of reporting a truncated shard as done.
#[derive(Debug)]
pub struct RemoteSink<W: Write> {
    out: W,
    /// Row scratch buffer, reused across trials.
    row: String,
    rows: u64,
    stats: CampaignStats,
    stats_every: u64,
    /// The prefix sent by [`TrialSink::accept_trace_prefix`].
    prefix: Option<TracePrefix>,
    error: Option<io::Error>,
}

impl<W: Write> RemoteSink<W> {
    /// A sink framing rows into `out`, snapshotting stats every
    /// `stats_every` rows (0 = never).
    pub fn new(out: W, scenario_name: impl Into<String>, stats_every: u64) -> RemoteSink<W> {
        RemoteSink {
            out,
            row: String::new(),
            rows: 0,
            stats: CampaignStats::new(scenario_name),
            stats_every,
            prefix: None,
            error: None,
        }
    }

    /// Rows framed so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The stats folded so far (identical to what the campaign engine
    /// returns for the same deliveries).
    pub fn stats(&self) -> &CampaignStats {
        &self.stats
    }

    /// The first write error, if any frame failed.
    pub fn latched_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Sends the final `Done` frame and flushes. Errors if any
    /// earlier write was latched, so a truncated stream can never end
    /// in a clean shutdown frame.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        write_frame(
            &mut self.out,
            &Frame::Done {
                rows: self.rows,
                stats: self.stats.clone(),
            },
        )?;
        self.out.flush()
    }
}

impl<W: Write> TrialSink for RemoteSink<W> {
    fn accept(&mut self, seq: usize, trial: TrialResult) {
        if self.error.is_some() {
            return;
        }
        self.stats.record(&trial);
        self.row.clear();
        trial_to_csv_row(&trial, &mut self.row);
        let frame = Frame::TrialRow {
            seq: seq as u64,
            row: self.row.as_bytes().to_vec(),
        };
        if let Err(e) = write_frame(&mut self.out, &frame) {
            self.error = Some(e);
            return;
        }
        self.rows += 1;
        if self.stats_every > 0 && self.rows.is_multiple_of(self.stats_every) {
            let frame = Frame::Stats {
                rows: self.rows,
                stats: self.stats.clone(),
            };
            if let Err(e) = write_frame(&mut self.out, &frame) {
                self.error = Some(e);
            }
        }
    }

    fn accept_dump(&mut self, seq: usize, dump: TraceDump) {
        if self.error.is_some() {
            return;
        }
        let Some(prefix) = &self.prefix else {
            self.error = Some(io::Error::new(
                io::ErrorKind::InvalidInput,
                "trace dump delivered before the trace prefix",
            ));
            return;
        };
        let frame = Frame::TraceDump {
            seq: seq as u64,
            dump: prefix.suffix(dump),
        };
        if let Err(e) = write_frame(&mut self.out, &frame) {
            self.error = Some(e);
        }
    }

    fn accept_trace_prefix(&mut self, recorder: &FlightRecorder) {
        if self.error.is_some() {
            return;
        }
        let prefix = TracePrefix::of(recorder);
        match write_frame(&mut self.out, &Frame::TracePrefix(prefix.clone())) {
            Ok(()) => self.prefix = Some(prefix),
            Err(e) => self.error = Some(e),
        }
    }
}

/// Runs the worker conversation over the given pipes: one handshake
/// in, the shard's rows + stats out. This is the whole body of the
/// `shard_worker` binary, factored out so tests can drive it over
/// in-memory pipes.
pub fn run_worker<R: Read, W: Write>(mut input: R, output: W) -> Result<(), WorkerError> {
    let handshake = match read_frame(&mut input) {
        Ok(Some(Frame::Handshake(handshake))) => handshake,
        Ok(Some(frame)) => {
            return Err(WorkerError::Handshake(format!(
                "expected a handshake, got a {} frame",
                frame.name()
            )))
        }
        Ok(None) => {
            return Err(WorkerError::Handshake(
                "stream closed before a handshake arrived".into(),
            ))
        }
        Err(e) => return Err(WorkerError::Handshake(e.to_string())),
    };
    run_handshake(&handshake, output)
}

/// Executes an already-parsed handshake. Factored out for tests that
/// want to skip the framed-stdin leg.
pub fn run_handshake<W: Write>(handshake: &Handshake, output: W) -> Result<(), WorkerError> {
    let Handshake {
        scenario,
        base_seed,
        start_trial,
        len,
        stats_every,
        certificate_fingerprint,
        trace,
    } = handshake;
    let (start, len) = match (usize::try_from(*start_trial), usize::try_from(*len)) {
        (Ok(start), Ok(len)) if start.checked_add(len).is_some() => (start, len),
        _ => {
            return Err(WorkerError::Handshake(
                "trial range does not fit this platform's usize".into(),
            ))
        }
    };
    // The coordinator lints before spawning, but a worker can be
    // handed a handshake by anything speaking the protocol — re-check
    // so a statically broken scenario dies at the handshake (exit 2),
    // not as a silently meaningless shard.
    let diagnostics = certify_lint::lint_scenario(scenario);
    if certify_lint::has_errors(&diagnostics) {
        let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
        return Err(WorkerError::Handshake(format!(
            "scenario failed static analysis: {}",
            rendered.join("; ")
        )));
    }
    // Re-derive the pre-flight certificate from the shipped scenario
    // and check it against the coordinator's fingerprint: a mismatch
    // means the two processes disagree on the abstract interpretation
    // (version skew, or a tampered handshake) and nothing the worker
    // would stream could be trusted against the coordinator's
    // certificate.
    let (certificate, cert_diagnostics) = certify_lint::certify_scenario(scenario);
    if certify_lint::has_errors(&cert_diagnostics) {
        let rendered: Vec<String> = cert_diagnostics.iter().map(|d| d.to_string()).collect();
        return Err(WorkerError::Handshake(format!(
            "scenario failed certification: {}",
            rendered.join("; ")
        )));
    }
    let fingerprint = certificate.fingerprint();
    if fingerprint != *certificate_fingerprint {
        return Err(WorkerError::Handshake(format!(
            "certificate fingerprint mismatch: coordinator sent {:#018x}, worker derived \
             {fingerprint:#018x}",
            certificate_fingerprint
        )));
    }

    let mut campaign = Campaign::new(scenario.clone(), start + len, *base_seed);
    if let Some(config) = trace {
        campaign = campaign.with_trace(config.clone());
    }
    let sink = RemoteSink::new(output, scenario.name.clone(), *stats_every);
    // Every streamed trial is checked against the certificate; a
    // violation is a broken soundness contract, and the shard must
    // die loudly rather than report certified-looking rows.
    let mut monitor = ConformanceMonitor::new(Arc::new(certificate), sink);
    let (stats, _) = campaign.execute(start..start + len, 1, &mut monitor, None);
    let violations_total = monitor.violations_total();
    let rendered: Vec<String> = monitor.violations().iter().map(|v| v.to_string()).collect();
    let sink = monitor.into_inner();
    // A latched sink stops folding, so the comparison only holds on
    // the clean path.
    debug_assert!(
        sink.latched_error().is_some() || stats == *sink.stats(),
        "engine and sink folded different stats"
    );
    if violations_total > 0 {
        // No `Done` frame: the coordinator must see a dead shard, not
        // a certified-clean one.
        return Err(WorkerError::Stream(format!(
            "{violations_total} conformance violation(s) against certificate \
             {fingerprint:#018x}: {}",
            rendered.join("; ")
        )));
    }
    sink.finish()
        .map_err(|e| WorkerError::Stream(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAGIC;
    use certify_core::codec::encode_to_vec;
    use certify_core::{NullSink, Scenario, Wire};

    fn handshake(trials: u64, start: u64, len: u64) -> Handshake {
        let _ = trials;
        let scenario = Scenario::e1_root_high();
        let (certificate, _) = certify_lint::certify_scenario(&scenario);
        Handshake {
            scenario,
            base_seed: 7,
            start_trial: start,
            len,
            stats_every: 2,
            certificate_fingerprint: certificate.fingerprint(),
            trace: None,
        }
    }

    fn frames_from(pipe: &[u8]) -> Vec<Frame> {
        let mut cursor = io::Cursor::new(pipe);
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut cursor).expect("valid stream") {
            frames.push(frame);
        }
        frames
    }

    #[test]
    fn worker_streams_rows_stats_and_done() {
        let mut input = Vec::new();
        write_frame(&mut input, &Frame::Handshake(handshake(6, 2, 3))).unwrap();
        let mut output = Vec::new();
        run_worker(io::Cursor::new(input), &mut output).expect("worker runs");

        let frames = frames_from(&output);
        // 3 rows, one stats snapshot at row 2, one done.
        let rows: Vec<u64> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::TrialRow { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(rows, vec![2, 3, 4], "global sequence numbers, in order");
        assert!(frames
            .iter()
            .any(|f| matches!(f, Frame::Stats { rows: 2, .. })));
        let Some(Frame::Done { rows, stats }) = frames.last() else {
            panic!("stream must end with a done frame");
        };
        assert_eq!(*rows, 3);
        assert_eq!(stats.trials, 3);

        // The shard's stats equal an in-process run of the same range.
        let campaign = Campaign::new(Scenario::e1_root_high(), 5, 7);
        let expected = campaign.execute(2..5, 1, &mut NullSink, None).0;
        assert_eq!(stats, &expected);
    }

    #[test]
    fn missing_handshake_is_a_handshake_error() {
        let err = run_worker(io::Cursor::new(Vec::new()), Vec::new()).unwrap_err();
        assert!(matches!(err, WorkerError::Handshake(_)));
        assert_eq!(err.exit_code(), EXIT_BAD_HANDSHAKE);
    }

    #[test]
    fn wrong_first_frame_is_a_handshake_error() {
        let mut input = Vec::new();
        write_frame(
            &mut input,
            &Frame::TrialRow {
                seq: 0,
                row: vec![],
            },
        )
        .unwrap();
        let err = run_worker(io::Cursor::new(input), Vec::new()).unwrap_err();
        assert!(matches!(err, WorkerError::Handshake(_)), "{err}");
    }

    #[test]
    fn version_skew_is_a_handshake_error() {
        // A frame whose payload claims a future protocol version.
        let mut body = vec![1u8]; // KIND_HANDSHAKE
        MAGIC.encode(&mut body);
        (crate::protocol::VERSION + 1).encode(&mut body);
        handshake(1, 0, 1).scenario.encode(&mut body);
        let mut input = (body.len() as u32).to_le_bytes().to_vec();
        input.extend_from_slice(&body);
        input.extend_from_slice(&crate::protocol::crc32(&body).to_le_bytes());

        let err = run_worker(io::Cursor::new(input), Vec::new()).unwrap_err();
        assert!(
            err.to_string().contains("version"),
            "error must name the version skew: {err}"
        );
        assert_eq!(err.exit_code(), EXIT_BAD_HANDSHAKE);
    }

    #[test]
    fn write_failure_latches_and_fails_the_worker() {
        /// Accepts `budget` bytes, then fails every write.
        struct Failing {
            budget: usize,
        }
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::other("pipe gone"));
                }
                let n = buf.len().min(self.budget);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let err = run_handshake(&handshake(4, 0, 4), Failing { budget: 64 }).unwrap_err();
        assert!(matches!(err, WorkerError::Stream(_)), "{err}");
        assert_eq!(err.exit_code(), EXIT_STREAM_FAILED);
    }

    #[test]
    fn latched_sink_never_emits_done() {
        struct FailAll;
        impl Write for FailAll {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("down"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = RemoteSink::new(FailAll, "x", 0);
        let campaign = Campaign::new(Scenario::golden(400), 2, 1);
        campaign.run_streamed(&mut sink);
        assert!(sink.latched_error().is_some());
        assert_eq!(sink.rows(), 0);
        assert!(sink.finish().is_err(), "finish must surface the latch");
    }

    #[test]
    fn statically_broken_scenario_is_a_handshake_error() {
        use certify_core::spec::InjectionWindow;
        let mut handshake = handshake(2, 0, 2);
        // Every window opens after the horizon: window-all-dead, an
        // error-severity lint finding.
        handshake.scenario.spec.as_mut().unwrap().cadence.windows = vec![InjectionWindow::new(
            handshake.scenario.steps + 1,
            handshake.scenario.steps + 100,
        )];
        let mut output = Vec::new();
        let err = run_handshake(&handshake, &mut output).unwrap_err();
        assert!(matches!(err, WorkerError::Handshake(_)), "{err}");
        assert_eq!(err.exit_code(), EXIT_BAD_HANDSHAKE);
        assert!(
            err.to_string().contains("window-all-dead"),
            "error must carry the diagnostic code: {err}"
        );
        assert!(output.is_empty(), "no frames before the refusal");
    }

    #[test]
    fn certificate_fingerprint_mismatch_is_a_handshake_error() {
        let mut handshake = handshake(2, 0, 2);
        handshake.certificate_fingerprint ^= 1;
        let mut output = Vec::new();
        let err = run_handshake(&handshake, &mut output).unwrap_err();
        assert!(matches!(err, WorkerError::Handshake(_)), "{err}");
        assert_eq!(err.exit_code(), EXIT_BAD_HANDSHAKE);
        assert!(
            err.to_string().contains("fingerprint mismatch"),
            "error must name the mismatch: {err}"
        );
        assert!(output.is_empty(), "no frames before the refusal");
    }

    #[test]
    fn zero_budget_scenario_fails_certification_at_the_handshake() {
        use certify_core::spec::InjectionWindow;
        let mut handshake = handshake(2, 0, 2);
        // A 2-step window cannot accumulate the 50 calls one fire
        // needs: lint-clean, but certifiably pointless.
        handshake.scenario.spec.as_mut().unwrap().cadence.windows =
            vec![InjectionWindow::new(0, 2)];
        let (certificate, _) = certify_lint::certify_scenario(&handshake.scenario);
        handshake.certificate_fingerprint = certificate.fingerprint();
        let err = run_handshake(&handshake, Vec::new()).unwrap_err();
        assert!(matches!(err, WorkerError::Handshake(_)), "{err}");
        assert_eq!(err.exit_code(), EXIT_BAD_HANDSHAKE);
        assert!(
            err.to_string().contains("cert-zero-budget"),
            "error must carry the diagnostic code: {err}"
        );
    }

    #[test]
    fn oversized_range_is_rejected_cleanly() {
        let mut handshake = handshake(0, u64::MAX, 2);
        handshake.start_trial = u64::MAX;
        let err = run_handshake(&handshake, Vec::new()).unwrap_err();
        assert!(matches!(err, WorkerError::Handshake(_)));
        let _ = encode_to_vec(&handshake); // the wire form itself is fine
    }

    #[test]
    fn oversize_row_latches_instead_of_panicking() {
        let mut trial = Campaign::new(Scenario::golden(400), 1, 1)
            .run()
            .trials
            .remove(0);
        trial
            .report
            .notes
            .push("x".repeat(crate::protocol::MAX_FRAME as usize));
        let mut output = Vec::new();
        let mut sink = RemoteSink::new(&mut output, "x", 0);
        sink.accept(0, trial);
        let error = sink.latched_error().expect("the oversize row latches");
        assert_eq!(error.kind(), io::ErrorKind::InvalidInput, "{error}");
        assert_eq!(sink.rows(), 0);
        assert!(sink.finish().is_err(), "finish must surface the latch");
        assert!(output.is_empty(), "nothing of the refused frame is written");
    }

    #[test]
    fn traced_worker_sends_one_prefix_then_dump_suffixes() {
        use certify_core::{CollectSink, DumpPolicy, TraceConfig};
        // A ring that never wraps: every dump holds prefix events.
        let config = TraceConfig::new()
            .with_capacity(1 << 16)
            .with_policy(DumpPolicy::all_outcomes());
        let scenario = Scenario::e3_fig3();
        let handshake = Handshake {
            certificate_fingerprint: certify_lint::certify_scenario(&scenario).0.fingerprint(),
            scenario,
            base_seed: 7,
            start_trial: 0,
            len: 4,
            stats_every: 0,
            trace: Some(config.clone()),
        };
        let mut output = Vec::new();
        run_handshake(&handshake, &mut output).expect("worker runs");
        let frames = frames_from(&output);
        let Some(Frame::TracePrefix(prefix)) = frames.first() else {
            panic!("a traced shard opens with its trace prefix");
        };
        assert_eq!(
            frames
                .iter()
                .filter(|f| matches!(f, Frame::TracePrefix(_)))
                .count(),
            1
        );
        let suffixes: Vec<_> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::TraceDump { dump, .. } => Some(dump.clone()),
                _ => None,
            })
            .collect();

        let mut sink = CollectSink::new();
        Campaign::new(handshake.scenario.clone(), 4, 7)
            .with_trace(config)
            .run_streamed(&mut sink);
        let (_, dumps) = sink.into_parts();
        assert_eq!(suffixes.len(), dumps.len());
        for (suffix, (_, dump)) in suffixes.into_iter().zip(dumps) {
            assert!(
                suffix.events.len() < dump.events.len(),
                "only the suffix ships"
            );
            assert_eq!(prefix.check_suffix(1 << 16, &suffix), Ok(()));
            assert_eq!(prefix.rebuild(1 << 16, &suffix), dump);
        }
    }

    #[test]
    fn dump_before_the_prefix_latches() {
        let (_, dump) = Scenario::golden(400)
            .runner()
            .run_trial_traced(1, Some(&certify_core::TraceConfig::new()));
        let mut sink = RemoteSink::new(Vec::new(), "x", 0);
        sink.accept_dump(0, dump.expect("traced trial dumps"));
        assert!(sink.latched_error().is_some());
        assert!(sink.finish().is_err());
    }
}
