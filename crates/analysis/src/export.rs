//! CSV export of campaign results — buffered or row-streaming.
//!
//! Every campaign can be dumped to a flat per-trial CSV for external
//! analysis (spreadsheets, R, pandas). The writer is deliberately
//! dependency-free, and it streams: [`CsvSink`] implements
//! [`TrialSink`], emitting each trial's row the moment the campaign
//! engine delivers it and dropping the report — a million-trial
//! campaign exports in O(workers) resident reports. The buffered
//! [`campaign_to_csv`] renders the same bytes from an in-memory
//! [`CampaignResult`] through the identical row writer.

use certify_core::campaign::{CampaignResult, TrialResult};
use certify_core::TrialSink;
use std::fmt::Write as _;
use std::io::{self, Write};

/// The CSV header row (with trailing newline) shared by the buffered
/// and streaming writers.
pub const CSV_HEADER: &str = "seed,outcome,injections,mem_injections,cell_state,cpu1_park,serial_lines,watchdog_expiry,monitor_alarms,applied_faults,notes\n";

/// Escapes one CSV field (RFC-4180 quoting). A bare carriage return
/// must be quoted like a line feed — RFC 4180 treats CRLF (and by
/// extension any CR) as a record terminator, so an unquoted `\r` in a
/// note or fault rendering would split the row.
fn field(value: &str) -> String {
    if value.contains(',') || value.contains('"') || value.contains('\n') || value.contains('\r') {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Appends one trial's CSV row (including the trailing newline) to
/// `out`.
///
/// Columns: `seed,outcome,injections,mem_injections,cell_state,
/// cpu1_park,serial_lines,watchdog_expiry,monitor_alarms,
/// applied_faults,notes`. The `applied_faults` column renders every
/// register and memory fault of the trial through its `Display` impl,
/// joined with `"; "`.
pub fn trial_to_csv_row(trial: &TrialResult, out: &mut String) {
    let cell_state = trial
        .report
        .cell_state
        .map(|s| s.to_string())
        .unwrap_or_default();
    let cpu1_park = trial.report.cpu1_park.clone().unwrap_or_default();
    let watchdog = trial
        .report
        .watchdog_first_expiry
        .map(|s| s.to_string())
        .unwrap_or_default();
    let applied_faults = trial
        .report
        .injections
        .iter()
        .flat_map(|r| r.faults.iter().map(|f| f.to_string()))
        .chain(
            trial
                .report
                .mem_injections
                .iter()
                .flat_map(|r| r.faults.iter().map(|f| f.to_string())),
        )
        .collect::<Vec<String>>()
        .join("; ");
    let notes = trial.report.notes.join("; ");
    let _ = writeln!(
        out,
        "{},{},{},{},{},{},{},{},{},{},{}",
        trial.seed,
        field(&trial.outcome.to_string()),
        trial.injection_count,
        trial.mem_injection_count,
        field(&cell_state),
        field(&cpu1_park),
        trial.report.serial_line_count,
        watchdog,
        trial.report.monitor_alarms,
        field(&applied_faults),
        field(&notes),
    );
}

/// Renders a buffered campaign as per-trial CSV rows (header
/// included). Byte-identical to streaming the same trials through a
/// [`CsvSink`].
pub fn campaign_to_csv(result: &CampaignResult) -> String {
    let mut out = String::from(CSV_HEADER);
    for trial in &result.trials {
        trial_to_csv_row(trial, &mut out);
    }
    out
}

/// A row-streaming CSV writer: a [`TrialSink`] that writes each
/// trial's row on delivery and drops the report, keeping campaign
/// exports bounded-memory.
///
/// I/O errors don't panic the campaign: the first error is latched,
/// further rows are skipped, and [`CsvSink::finish`] surfaces it. A
/// write that fails *midway through a row* leaves a truncated partial
/// row in the output; the sink tracks the bytes actually accepted and
/// reports the truncation through the latched error (and
/// [`CsvSink::truncated_row_bytes`]) so `finish()` can never hand
/// back a silently corrupt CSV.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
    /// Row scratch buffer, reused across every trial of the campaign.
    row: String,
    rows: usize,
    /// Bytes the writer has accepted (header, full rows, and any
    /// truncated partial row) — the sink's `bytes_written` telemetry.
    bytes: u64,
    error: Option<io::Error>,
    /// Bytes of a partially written row left in the output when the
    /// latched error struck mid-row (0 = the output ends on a row
    /// boundary and is valid CSV up to that point).
    truncated_row_bytes: usize,
}

impl<W: Write> CsvSink<W> {
    /// Wraps `out`, writing the header row immediately.
    pub fn new(mut out: W) -> io::Result<CsvSink<W>> {
        out.write_all(CSV_HEADER.as_bytes())?;
        Ok(CsvSink {
            out,
            row: String::new(),
            rows: 0,
            bytes: CSV_HEADER.len() as u64,
            error: None,
            truncated_row_bytes: 0,
        })
    }

    /// Data rows accepted so far (not counting the header).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes the underlying writer has accepted so far — the header,
    /// every complete row, and any truncated partial row.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes of an incomplete final row left in the output by a
    /// mid-row write failure (0 when the output ends cleanly).
    pub fn truncated_row_bytes(&self) -> usize {
        self.truncated_row_bytes
    }

    /// The latched error, if any write has failed. Boundary runners
    /// (a shard worker, a campaign driver) must consult this — or
    /// call [`CsvSink::finish`] — after the run and fail loudly: a
    /// latched sink has silently dropped every row since the error,
    /// so treating the campaign as complete would report a truncated
    /// export as a successful one.
    pub fn latched_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Writes one full row, tracking how many bytes the writer
    /// actually accepted so a mid-row failure is distinguishable from
    /// a clean between-rows failure.
    fn write_row(&mut self) -> io::Result<()> {
        let mut written = 0;
        let bytes = self.row.as_bytes();
        while written < bytes.len() {
            match self.out.write(&bytes[written..]) {
                Ok(0) => {
                    self.truncated_row_bytes = written;
                    self.bytes += written as u64;
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        format!(
                            "csv row {} truncated after {written} of {} bytes",
                            self.rows + 1,
                            bytes.len()
                        ),
                    ));
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.truncated_row_bytes = written;
                    self.bytes += written as u64;
                    return Err(if written > 0 {
                        io::Error::new(
                            e.kind(),
                            format!(
                                "csv row {} truncated after {written} of {} bytes: {e}",
                                self.rows + 1,
                                bytes.len()
                            ),
                        )
                    } else {
                        e
                    });
                }
            }
        }
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Flushes and returns the underlying writer, or the first I/O
    /// error hit while streaming (including a mid-row truncation —
    /// see [`CsvSink::truncated_row_bytes`]).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl CsvSink<Vec<u8>> {
    /// An in-memory sink (header already written).
    pub fn in_memory() -> CsvSink<Vec<u8>> {
        CsvSink::new(Vec::new()).expect("writing to a Vec cannot fail")
    }

    /// The accumulated CSV text of an in-memory sink.
    pub fn into_csv(self) -> String {
        let bytes = self.finish().expect("writing to a Vec cannot fail");
        String::from_utf8(bytes).expect("CSV rows are UTF-8")
    }
}

impl<W: Write> TrialSink for CsvSink<W> {
    fn accept(&mut self, _seq: usize, trial: TrialResult) {
        if self.error.is_some() {
            return;
        }
        self.row.clear();
        trial_to_csv_row(&trial, &mut self.row);
        match self.write_row() {
            Ok(()) => self.rows += 1,
            Err(error) => self.error = Some(error),
        }
        // `trial` (and its full RunReport) drops here: the sink keeps
        // only the scratch row buffer.
    }

    fn bytes_written(&self) -> Option<u64> {
        Some(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_core::campaign::{Campaign, Scenario};

    #[test]
    fn csv_has_one_row_per_trial_plus_header() {
        let result = Campaign::new(Scenario::e1_root_high(), 3, 1).run();
        let csv = campaign_to_csv(&result);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("seed,outcome"));
        assert!(csv.contains("invalid arguments"));
    }

    #[test]
    fn streamed_csv_is_byte_identical_to_buffered() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 4, 11);
        let buffered = campaign_to_csv(&campaign.run());
        let mut sink = CsvSink::in_memory();
        campaign.execute(.., 4, &mut sink, None);
        assert_eq!(sink.rows(), 4);
        assert_eq!(sink.into_csv(), buffered);
    }

    #[test]
    fn sink_latches_io_errors_instead_of_panicking() {
        /// Fails every write after the header.
        struct FailAfterHeader {
            wrote_header: bool,
        }
        impl Write for FailAfterHeader {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.wrote_header {
                    Err(io::Error::other("disk full"))
                } else {
                    self.wrote_header = true;
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CsvSink::new(FailAfterHeader {
            wrote_header: false,
        })
        .unwrap();
        Campaign::new(Scenario::golden(800), 2, 5).run_streamed(&mut sink);
        assert_eq!(sink.rows(), 0);
        // The failure struck before any row byte landed: the output is
        // valid (if empty) CSV, and the error still surfaces.
        assert_eq!(sink.truncated_row_bytes(), 0);
        assert!(sink.finish().is_err());
    }

    #[test]
    fn latched_error_is_visible_at_the_boundary_before_finish() {
        // A worker process must be able to decide its exit code from
        // the sink state *without* consuming the sink: `latched_error`
        // exposes the latch, and deliveries after the latch are
        // dropped (rows() freezes) rather than partially written.
        struct FailAfter {
            budget: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::other("disk full"));
                }
                let n = buf.len().min(self.budget);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let campaign = Campaign::new(Scenario::golden(800), 3, 5);
        // Budget for the header plus roughly one row: the second row
        // latches, the third is skipped entirely.
        let mut sink = CsvSink::new(FailAfter {
            budget: CSV_HEADER.len() + 40,
        })
        .unwrap();
        assert!(sink.latched_error().is_none(), "clean sink has no latch");
        campaign.run_streamed(&mut sink);
        let error = sink.latched_error().expect("error must latch");
        assert_eq!(error.to_string(), sink.latched_error().unwrap().to_string());
        let rows_at_latch = sink.rows();
        // Feeding more trials after the latch changes nothing.
        campaign.run_streamed(&mut sink);
        assert_eq!(sink.rows(), rows_at_latch, "post-latch rows must drop");
        assert!(sink.finish().is_err(), "finish surfaces the same latch");
    }

    #[test]
    fn mid_row_write_failure_surfaces_the_truncation() {
        /// Accepts the header, then 7 bytes of the first row, then
        /// fails every write — leaving a truncated partial row behind.
        #[derive(Debug)]
        struct TruncateMidRow {
            accepted: Vec<u8>,
            budget: usize,
        }
        impl Write for TruncateMidRow {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::other("disk full"));
                }
                let n = buf.len().min(self.budget);
                self.accepted.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut sink = CsvSink::new(TruncateMidRow {
            accepted: Vec::new(),
            budget: CSV_HEADER.len() + 7,
        })
        .unwrap();
        Campaign::new(Scenario::golden(800), 2, 5).run_streamed(&mut sink);
        // No row was fully accepted, and the sink knows exactly how
        // many stray bytes sit past the last row boundary.
        assert_eq!(sink.rows(), 0);
        assert_eq!(sink.truncated_row_bytes(), 7);
        let err = sink.finish().expect_err("truncation must surface");
        let message = err.to_string();
        assert!(
            message.contains("truncated after 7"),
            "error does not describe the truncation: {message}"
        );
    }

    #[test]
    fn interrupted_writes_are_retried_not_latched() {
        /// Interrupts every other write, accepting one byte at a time
        /// otherwise — the sink must retry through `Interrupted` and
        /// deliver every row intact.
        struct Flaky {
            accepted: Vec<u8>,
            tick: usize,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.tick += 1;
                if self.tick.is_multiple_of(2) {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
                }
                self.accepted.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let campaign = Campaign::new(Scenario::golden(800), 2, 5);
        let mut sink = CsvSink::new(Flaky {
            accepted: Vec::new(),
            tick: 0,
        })
        .unwrap();
        campaign.run_streamed(&mut sink);
        assert_eq!(sink.rows(), 2);
        assert_eq!(sink.truncated_row_bytes(), 0);
        let out = sink.finish().expect("no hard error");
        let text = String::from_utf8(out.accepted).unwrap();
        assert_eq!(text, campaign_to_csv(&campaign.run()));
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn fields_with_bare_carriage_returns_are_quoted() {
        // RFC 4180: CR participates in the record terminator, so a
        // bare `\r` inside a field must force quoting or the row
        // splits in consumers that accept lone-CR line endings.
        assert_eq!(field("a\rb"), "\"a\rb\"");
        assert_eq!(field("a\r\nb"), "\"a\r\nb\"");
        assert_eq!(field("\r"), "\"\r\"");
    }

    #[test]
    fn rfc4180_quoting_round_trips_every_special_character() {
        // RFC 4180: fields with comma, quote or newline are wrapped in
        // double quotes and embedded quotes are doubled.
        assert_eq!(field("a\nb"), "\"a\nb\"");
        assert_eq!(field("\""), "\"\"\"\"");
        assert_eq!(
            field("r0, r1: \"both\"\ncorrupted"),
            "\"r0, r1: \"\"both\"\"\ncorrupted\""
        );
        // Unquoting a quoted field restores the original.
        let original = "notes, with \"quotes\" and, commas";
        let quoted = field(original);
        let inner = quoted
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .unwrap();
        assert_eq!(inner.replace("\"\"", "\""), original);
    }

    #[test]
    fn applied_faults_column_renders_register_and_memory_faults() {
        use certify_core::memfault::{MemFaultModel, MemTarget};
        use certify_core::Scenario;
        let header = campaign_to_csv(&Campaign::new(Scenario::golden(800), 1, 1).run());
        assert!(header.starts_with(
            "seed,outcome,injections,mem_injections,cell_state,cpu1_park,serial_lines,watchdog_expiry,monitor_alarms,applied_faults,notes"
        ));

        // A register campaign renders register faults…
        let reg = campaign_to_csv(&Campaign::new(Scenario::e1_root_high(), 2, 1).run());
        assert!(reg.contains("bit"), "no register fault rendered:\n{reg}");

        // …and a memory campaign renders memory faults; the multi-
        // fault column is comma-free or quoted, so row counts hold.
        let mem = campaign_to_csv(
            &Campaign::new(
                Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
                4,
                0xE6,
            )
            .run(),
        );
        assert!(
            mem.contains("ram") || mem.contains("s2-desc") || mem.contains("comm"),
            "no memory fault rendered:\n{mem}"
        );
        assert_eq!(mem.lines().count(), 5, "one row per trial plus header");
    }

    #[test]
    fn csv_is_parseable_back_to_the_same_row_count() {
        let result = Campaign::new(Scenario::golden(800), 2, 5).run();
        let csv = campaign_to_csv(&result);
        // Quoted fields may contain separators but not newlines, so a
        // line count check is a faithful row count.
        assert_eq!(csv.lines().count() - 1, result.trials.len());
    }
}
