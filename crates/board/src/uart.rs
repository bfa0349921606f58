//! Capturing UART model.
//!
//! In the paper, "the outcome is sent to an empty shell where the board
//! serial port is connected" and the log file is the raw material of
//! all analytics. The modelled UART therefore does two jobs:
//!
//! 1. behave like a 16550-ish transmit path (writes to `THR` emit a
//!    byte; `LSR` always reports the transmitter empty), and
//! 2. record everything, tagged with the step at which it was written,
//!    so `certify-analysis` can reconstruct *when* output stopped — the
//!    "USART output left completely blank" observation of experiment E2
//!    is precisely a gap in this record.
//!
//! Because the serial log is consulted on every trial of a campaign
//! (line counts, `[rtos]` liveness checks, panic-banner scans), the
//! capture maintains an **incremental line index**: line boundaries and
//! each line's final-byte step are recorded as bytes arrive, so
//! [`Uart::indexed_lines`] and [`Uart::lines_since`] are cheap borrows
//! of the capture instead of a full O(bytes) reassembly with per-line
//! `String` allocations.

use crate::memmap::{UART_LSR_OFFSET, UART_THR_OFFSET};
use std::borrow::Cow;

/// Line-status value reported by the model: transmitter always empty
/// (bits 5 and 6).
pub const LSR_TX_EMPTY: u32 = 0x60;

/// A byte captured on the serial wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxByte {
    /// Simulator step at which the byte was transmitted.
    pub step: u64,
    /// The byte.
    pub byte: u8,
}

/// One completed line in the incremental index: a byte range of the
/// contiguous capture (newline excluded) plus the step of the line's
/// final byte (the newline itself, matching the historical reassembly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineSpan {
    step: u64,
    start: u32,
    end: u32,
}

/// A borrowed view of one serial-log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerialLine<'a> {
    /// Step of the line's final byte.
    pub step: u64,
    bytes: &'a [u8],
}

impl<'a> SerialLine<'a> {
    /// The raw bytes of the line (no trailing newline).
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The line as text (lossy UTF-8; borrows unless invalid).
    pub fn text(&self) -> Cow<'a, str> {
        String::from_utf8_lossy(self.bytes)
    }

    /// Whether the line starts with `prefix` (byte-wise, no allocation).
    pub fn starts_with(&self, prefix: &str) -> bool {
        self.bytes.starts_with(prefix.as_bytes())
    }

    /// Whether the line contains `needle` (byte-wise, no allocation).
    pub fn contains(&self, needle: &str) -> bool {
        let needle = needle.as_bytes();
        if needle.is_empty() {
            return true;
        }
        self.bytes.windows(needle.len()).any(|w| w == needle)
    }
}

/// A run of captured bytes sharing one transmission step: bytes
/// `[prev.end, end)` of the contiguous capture arrived at `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepMark {
    step: u64,
    /// End offset (exclusive) of this run in the byte stream.
    end: u32,
}

/// The UART device.
#[derive(Debug, Clone, Default)]
pub struct Uart {
    /// The raw byte stream, contiguous (borrowed line views need
    /// contiguous storage).
    text: Vec<u8>,
    /// Per-step byte runs — steps are monotonic, so the whole capture
    /// timeline compresses to one mark per active step instead of a
    /// step stamp per byte.
    marks: Vec<StepMark>,
    /// Completed (newline-terminated) lines, appended as bytes arrive.
    spans: Vec<LineSpan>,
    /// Offset in `text` where the in-progress line starts.
    line_start: usize,
}

impl Uart {
    /// Creates an idle UART with an empty capture buffer.
    pub fn new() -> Uart {
        Uart {
            // A typical campaign trial captures a couple of KiB;
            // pre-sizing skips the early growth reallocations on the
            // byte-at-a-time capture path.
            text: Vec::with_capacity(2048),
            marks: Vec::with_capacity(256),
            spans: Vec::with_capacity(128),
            line_start: 0,
        }
    }

    /// Handles a 32-bit register write at `offset` within the UART
    /// block at simulator step `step`.
    pub fn write_reg(&mut self, offset: u32, value: u32, step: u64) {
        if offset == UART_THR_OFFSET {
            let byte = (value & 0xff) as u8;
            self.text.push(byte);
            let end = self.text.len() as u32;
            match self.marks.last_mut() {
                Some(mark) if mark.step == step => mark.end = end,
                _ => self.marks.push(StepMark { step, end }),
            }
            if byte == b'\n' {
                self.spans.push(LineSpan {
                    step,
                    start: self.line_start as u32,
                    end: end - 1,
                });
                self.line_start = self.text.len();
            }
        }
        // All other registers are write-ignored in the model.
    }

    /// Handles a 32-bit register read at `offset`.
    pub fn read_reg(&self, offset: u32) -> u32 {
        if offset == UART_LSR_OFFSET {
            LSR_TX_EMPTY
        } else {
            0
        }
    }

    /// Transmits a whole string (convenience used by guest models that
    /// print line-at-a-time).
    pub fn write_str(&mut self, s: &str, step: u64) {
        for b in s.bytes() {
            self.write_reg(UART_THR_OFFSET, u32::from(b), step);
        }
    }

    /// Every captured byte in transmission order, with its step.
    pub fn captured(&self) -> impl Iterator<Item = TxByte> + '_ {
        let mut start = 0usize;
        self.marks.iter().flat_map(move |mark| {
            let run = &self.text[start..mark.end as usize];
            start = mark.end as usize;
            run.iter().map(move |&byte| TxByte {
                step: mark.step,
                byte,
            })
        })
    }

    /// Total bytes transmitted.
    pub fn byte_count(&self) -> usize {
        self.text.len()
    }

    /// The step of the last transmitted byte, or `None` if the wire has
    /// been silent.
    pub fn last_activity(&self) -> Option<u64> {
        self.marks.last().map(|m| m.step)
    }

    /// Number of log lines (completed plus the in-progress tail, if
    /// any) — O(1) from the index.
    pub fn line_count(&self) -> usize {
        self.spans.len() + usize::from(self.line_start < self.text.len())
    }

    /// Borrowed views of every log line, in transmission order: the
    /// cheap replacement for reassembling the capture. Completed lines
    /// carry the step of their newline; an unterminated tail carries
    /// the step of the last byte.
    pub fn indexed_lines(&self) -> impl Iterator<Item = SerialLine<'_>> + '_ {
        self.spans
            .iter()
            .map(move |span| SerialLine {
                step: span.step,
                bytes: &self.text[span.start as usize..span.end as usize],
            })
            .chain(self.partial_line())
    }

    /// Borrowed views of the log lines whose final byte arrived at or
    /// after `step`. Line steps are nondecreasing, so the completed
    /// prefix to skip is found by binary search — polling this mid-run
    /// costs O(log lines + matches), not a capture reassembly.
    pub fn lines_since(&self, step: u64) -> impl Iterator<Item = SerialLine<'_>> + '_ {
        let first = self.spans.partition_point(|span| span.step < step);
        self.spans[first..]
            .iter()
            .map(move |span| SerialLine {
                step: span.step,
                bytes: &self.text[span.start as usize..span.end as usize],
            })
            .chain(self.partial_line().filter(move |line| line.step >= step))
    }

    /// The unterminated tail line, if any.
    fn partial_line(&self) -> Option<SerialLine<'_>> {
        if self.line_start < self.text.len() {
            Some(SerialLine {
                step: self.marks.last().map(|m| m.step).unwrap_or(0),
                bytes: &self.text[self.line_start..],
            })
        } else {
            None
        }
    }

    /// Reassembles the capture into owned text lines (lossy UTF-8),
    /// each with the step of its final byte — the "log file" of
    /// Figure 2. Allocates one `String` per line; hot paths should
    /// iterate [`Uart::indexed_lines`] instead.
    pub fn lines(&self) -> Vec<(u64, String)> {
        self.indexed_lines()
            .map(|line| (line.step, line.text().into_owned()))
            .collect()
    }

    /// Bytes transmitted at or after `step` — used to check whether a
    /// cell produced *any* output after an event (E2's blank-USART
    /// check). Capture steps are nondecreasing, so this is a binary
    /// search over the step marks, not a scan.
    pub fn bytes_since(&self, step: u64) -> usize {
        let idx = self.marks.partition_point(|m| m.step < step);
        let before = if idx == 0 {
            0
        } else {
            self.marks[idx - 1].end as usize
        };
        self.text.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thr_writes_are_captured_in_order() {
        let mut uart = Uart::new();
        uart.write_reg(UART_THR_OFFSET, u32::from(b'h'), 1);
        uart.write_reg(UART_THR_OFFSET, u32::from(b'i'), 2);
        assert_eq!(uart.byte_count(), 2);
        let captured: Vec<TxByte> = uart.captured().collect();
        assert_eq!(captured[0].byte, b'h');
        assert_eq!(captured[1].byte, b'i');
    }

    #[test]
    fn non_thr_writes_ignored() {
        let mut uart = Uart::new();
        uart.write_reg(0x4, 0xff, 1);
        uart.write_reg(UART_LSR_OFFSET, 0xff, 1);
        assert_eq!(uart.byte_count(), 0);
    }

    #[test]
    fn lsr_reports_tx_empty() {
        let uart = Uart::new();
        assert_eq!(uart.read_reg(UART_LSR_OFFSET), LSR_TX_EMPTY);
        assert_eq!(uart.read_reg(0x8), 0);
    }

    #[test]
    fn lines_reassemble_on_newline() {
        let mut uart = Uart::new();
        uart.write_str("boot ok\nsecond", 10);
        let lines = uart.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], (10, "boot ok".to_string()));
        assert_eq!(lines[1], (10, "second".to_string()));
        assert_eq!(uart.line_count(), 2);
    }

    #[test]
    fn only_low_byte_of_thr_value_is_sent() {
        let mut uart = Uart::new();
        uart.write_reg(UART_THR_OFFSET, 0x1234_5641, 3);
        assert_eq!(uart.captured().next().unwrap().byte, 0x41);
    }

    #[test]
    fn bytes_since_counts_boundary_inclusive() {
        let mut uart = Uart::new();
        uart.write_str("a", 5);
        uart.write_str("b", 9);
        assert_eq!(uart.bytes_since(5), 2);
        assert_eq!(uart.bytes_since(6), 1);
        assert_eq!(uart.bytes_since(10), 0);
    }

    #[test]
    fn last_activity_tracks_final_byte() {
        let mut uart = Uart::new();
        assert_eq!(uart.last_activity(), None);
        uart.write_str("x", 42);
        assert_eq!(uart.last_activity(), Some(42));
    }

    #[test]
    fn lossy_utf8_never_panics() {
        let mut uart = Uart::new();
        uart.write_reg(UART_THR_OFFSET, 0xff, 1);
        uart.write_reg(UART_THR_OFFSET, u32::from(b'\n'), 1);
        let lines = uart.lines();
        assert_eq!(lines.len(), 1);
    }

    /// The byte-at-a-time reassembly the index replaced — kept as the
    /// reference implementation for the equivalence tests below.
    fn naive_lines(uart: &Uart) -> Vec<(u64, String)> {
        let mut lines = Vec::new();
        let mut current = Vec::new();
        let mut last_step = 0;
        for tx in uart.captured() {
            last_step = tx.step;
            if tx.byte == b'\n' {
                lines.push((last_step, String::from_utf8_lossy(&current).into_owned()));
                current.clear();
            } else {
                current.push(tx.byte);
            }
        }
        if !current.is_empty() {
            lines.push((last_step, String::from_utf8_lossy(&current).into_owned()));
        }
        lines
    }

    #[test]
    fn incremental_index_matches_naive_reassembly() {
        let mut uart = Uart::new();
        uart.write_str("boot ok\n", 3);
        uart.write_str("\n", 4); // empty line
        uart.write_str("[rtos] blink #1\n", 9);
        uart.write_reg(UART_THR_OFFSET, 0xff, 10); // invalid UTF-8
        uart.write_str("\npartial tail", 12);
        assert_eq!(uart.lines(), naive_lines(&uart));
        assert_eq!(uart.line_count(), naive_lines(&uart).len());
    }

    #[test]
    fn index_has_no_partial_line_after_trailing_newline() {
        let mut uart = Uart::new();
        uart.write_str("done\n", 7);
        assert_eq!(uart.line_count(), 1);
        assert_eq!(uart.lines(), naive_lines(&uart));
    }

    #[test]
    fn lines_since_filters_by_final_byte_step() {
        let mut uart = Uart::new();
        uart.write_str("early\n", 5);
        uart.write_str("late\n", 20);
        uart.write_str("tail", 30);
        let all: Vec<_> = uart.lines_since(0).map(|l| l.text().into_owned()).collect();
        assert_eq!(all, ["early", "late", "tail"]);
        let late: Vec<_> = uart.lines_since(6).map(|l| l.text().into_owned()).collect();
        assert_eq!(late, ["late", "tail"]);
        assert_eq!(uart.lines_since(21).count(), 1);
        assert_eq!(uart.lines_since(31).count(), 0);
    }

    #[test]
    fn serial_line_helpers_match_str_semantics() {
        let mut uart = Uart::new();
        uart.write_str("[rtos] blink #32\n", 1);
        let line = uart.indexed_lines().next().unwrap();
        assert!(line.starts_with("[rtos]"));
        assert!(!line.starts_with("[linux]"));
        assert!(line.contains("blink"));
        assert!(line.contains(""));
        assert!(!line.contains("panic"));
        assert_eq!(line.bytes(), b"[rtos] blink #32");
    }
}
