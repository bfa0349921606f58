//! The shard wire protocol: versioned, length-prefixed, CRC-checked
//! frames.
//!
//! A sharded campaign is one coordinator process and N worker
//! processes connected by byte pipes (the workers' stdin/stdout).
//! Everything crossing a pipe is a [`Frame`]:
//!
//! ```text
//!   [len: u32 LE] [kind: u8 | payload …] [crc32: u32 LE]
//!                  └──── len bytes ────┘
//! ```
//!
//! `len` counts the kind byte plus the payload; the CRC (IEEE 802.3
//! polynomial) covers exactly those bytes, so a frame torn by a dying
//! worker or corrupted in flight is detected before its payload is
//! interpreted. Payloads use the [`certify_core::codec`] binary
//! encoding and must decode *exactly* (no trailing bytes).
//!
//! The conversation is fixed: the coordinator sends one
//! [`Frame::Handshake`] (magic + protocol version + the full
//! [`Scenario`] + the shard's trial range) down the worker's stdin.
//! Up its stdout the worker streams:
//!
//! 1. when the handshake configured tracing, one [`Frame::TracePrefix`]
//!    first: the flight-recorder ring of the fault-free prefix every
//!    trial of the shard forks from;
//! 2. [`Frame::TrialRow`] frames, one CSV row per trial in trial
//!    order, each followed by a [`Frame::TraceDump`] when the trial
//!    matched the dump policy — carrying only the events recorded after
//!    the fork ([`TracePrefix::suffix`]), which the coordinator checks
//!    against the prefix on arrival ([`TracePrefix::check_suffix`]) and
//!    from which it rebuilds the whole dump on demand
//!    ([`TracePrefix::rebuild`]);
//! 3. periodic [`Frame::Stats`] progress snapshots in between;
//! 4. one [`Frame::Done`] carrying the shard's authoritative
//!    [`CampaignStats`].
//!
//! Anything else — wrong first frame, out-of-order rows, CRC mismatch,
//! a second prefix or a dump before the prefix, a suffix that does not
//! fit its prefix, EOF before `Done` — is a protocol violation the
//! coordinator treats as a dead shard.
//!
//! Version history: v1 handshake, rows, stats and done; v2 the
//! certificate fingerprint in the handshake; v3 the tracing
//! configuration and the trace-dump frame, each dump a whole ring; v4
//! the trace-prefix frame, each dump only its post-fork suffix.

use certify_core::codec::{
    decode_exact, decode_trace_events, encode_trace_events, DecodeError, Reader, Wire,
};
use certify_core::{CampaignStats, Scenario, TraceConfig, TraceDump};
use certify_obs::trace::{FlightRecorder, TraceEvent};
use std::fmt;
use std::io::{self, Read, Write};

/// Handshake magic: "CSHD".
pub const MAGIC: u32 = 0x4353_4844;

/// Protocol version carried in every handshake. Bump on any change to
/// the frame layout or payload encodings (history in the module doc).
pub const VERSION: u16 = 4;

/// Upper bound on `len`: no legal frame is anywhere near this large,
/// so a longer prefix means a corrupt or hostile stream — reject it
/// instead of allocating gigabytes.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

const KIND_HANDSHAKE: u8 = 1;
const KIND_TRIAL_ROW: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_DONE: u8 = 4;
const KIND_TRACE_DUMP: u8 = 5;
const KIND_TRACE_PREFIX: u8 = 6;

/// The coordinator → worker job description.
#[derive(Debug, Clone, PartialEq)]
pub struct Handshake {
    /// The scenario every trial runs.
    pub scenario: Scenario,
    /// The campaign's base seed (trial `i` is seeded `base_seed + i`).
    pub base_seed: u64,
    /// First (global) trial index of this shard.
    pub start_trial: u64,
    /// Number of trials in this shard.
    pub len: u64,
    /// Emit a [`Frame::Stats`] snapshot every this many rows
    /// (0 = never).
    pub stats_every: u64,
    /// Fingerprint of the coordinator's
    /// [`certify_core::ScenarioCertificate`] for the scenario. The
    /// worker re-derives the certificate from the shipped scenario and
    /// refuses the handshake on a mismatch: coordinator and worker
    /// must agree on what the campaign is allowed to observe before a
    /// single trial runs.
    pub certificate_fingerprint: u64,
    /// Tracing configuration: `Some` runs every shard trial with a
    /// flight recorder and streams a [`Frame::TraceDump`] after each
    /// trial row the dump policy selects.
    pub trace: Option<TraceConfig>,
}

impl Wire for Handshake {
    fn encode(&self, out: &mut Vec<u8>) {
        MAGIC.encode(out);
        VERSION.encode(out);
        self.scenario.encode(out);
        self.base_seed.encode(out);
        self.start_trial.encode(out);
        self.len.encode(out);
        self.stats_every.encode(out);
        self.certificate_fingerprint.encode(out);
        self.trace.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Handshake, DecodeError> {
        let magic = u32::decode(r)?;
        if magic != MAGIC {
            return Err(DecodeError::Invalid {
                what: "handshake magic mismatch",
            });
        }
        let version = u16::decode(r)?;
        if version != VERSION {
            return Err(DecodeError::Invalid {
                what: "protocol version mismatch",
            });
        }
        Ok(Handshake {
            scenario: Scenario::decode(r)?,
            base_seed: u64::decode(r)?,
            start_trial: u64::decode(r)?,
            len: u64::decode(r)?,
            stats_every: u64::decode(r)?,
            certificate_fingerprint: u64::decode(r)?,
            trace: Option::decode(r)?,
        })
    }
}

/// The flight-recorder ring of the fault-free prefix every trial of a
/// shard forks from: the worker sends it once per attempt, and each
/// later [`Frame::TraceDump`] carries only the events its trial
/// recorded after the fork.
///
/// The worker cuts a dump down with [`TracePrefix::suffix`]. The
/// coordinator checks the prefix with [`TracePrefix::check`] and each
/// suffix with [`TracePrefix::check_suffix`] as they arrive, then holds
/// the prefix once per attempt behind an `Arc` shared by that
/// attempt's dumps. [`TracePrefix::rebuild`] turns a checked suffix
/// back into the dump the worker's engine captured, only when a
/// caller asks for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePrefix {
    /// Events the prefix recorded, including evicted ones.
    pub total: u64,
    /// The prefix ring's retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl TracePrefix {
    /// A copy of `recorder`'s counters and ring.
    pub fn of(recorder: &FlightRecorder) -> TracePrefix {
        TracePrefix {
            total: recorder.total(),
            events: recorder.events().copied().collect(),
        }
    }

    /// Cuts `dump`, captured from a trial forked from this prefix,
    /// down to the events recorded after the fork: the last
    /// `min(total − prefix total, ring length)` of them. `total` stays
    /// and `dropped` counts every other event, so the suffix encodes
    /// and decodes as an ordinary [`TraceDump`].
    pub fn suffix(&self, mut dump: TraceDump) -> TraceDump {
        let recorded = dump.total.saturating_sub(self.total);
        let keep =
            usize::try_from(recorded).map_or(dump.events.len(), |n| n.min(dump.events.len()));
        dump.events.drain(..dump.events.len() - keep);
        dump.dropped = dump.total - keep as u64;
        dump
    }

    /// Checks that this is a ring of `capacity` events: it holds
    /// exactly `min(total, capacity)` of them — no more than the ring
    /// or its own total, and no fewer than the ring kept.
    pub fn check(&self, capacity: usize) -> Result<(), String> {
        let held = self.events.len() as u64;
        let kept = self.total.min(capacity as u64);
        if held != kept {
            return Err(format!(
                "trace prefix holds {held} events; a ring of {capacity} that recorded {} holds \
                 {kept}",
                self.total
            ));
        }
        Ok(())
    }

    /// Checks that `suffix`, cut by [`TracePrefix::suffix`] from a
    /// dump of a `capacity` ring forked from this (already
    /// [checked](TracePrefix::check)) prefix, fits it: its `total` is
    /// at least the prefix's, and it holds exactly the
    /// `min(total − prefix total, capacity)` events the ring kept
    /// after the fork.
    pub fn check_suffix(&self, capacity: usize, suffix: &TraceDump) -> Result<(), String> {
        let Some(recorded) = suffix.total.checked_sub(self.total) else {
            return Err(format!(
                "trace dump total {} is below the prefix total {}",
                suffix.total, self.total
            ));
        };
        let len = suffix.events.len();
        if len as u64 != recorded.min(capacity as u64) {
            return Err(format!(
                "trace dump suffix holds {len} events; {recorded} recorded after the fork \
                 into a ring of {capacity} leave {}",
                recorded.min(capacity as u64)
            ));
        }
        Ok(())
    }

    /// Rebuilds the dump a trial forked from this prefix captured from
    /// its [checked](TracePrefix::check_suffix) suffix: the last
    /// `capacity` events of prefix ++ suffix, with the suffix's
    /// `total` and the matching `dropped`. The event list is allocated
    /// once at its exact length. An unchecked suffix gives an
    /// unspecified dump, never a panic.
    pub fn rebuild(&self, capacity: usize, suffix: &TraceDump) -> TraceDump {
        // A checked suffix holds at most `capacity` events, and a
        // checked prefix `min(prefix total, capacity)`, of which the
        // ring kept the last `capacity - len`.
        let keep = self
            .events
            .len()
            .min(capacity.saturating_sub(suffix.events.len()));
        let mut events = Vec::with_capacity(keep + suffix.events.len());
        events.extend_from_slice(&self.events[self.events.len() - keep..]);
        events.extend_from_slice(&suffix.events);
        TraceDump {
            seed: suffix.seed,
            scenario: suffix.scenario.clone(),
            outcome: suffix.outcome,
            total: suffix.total,
            dropped: suffix.total.saturating_sub(events.len() as u64),
            events,
        }
    }
}

impl Wire for TracePrefix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.total.encode(out);
        encode_trace_events(&self.events, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<TracePrefix, DecodeError> {
        Ok(TracePrefix {
            total: u64::decode(r)?,
            events: decode_trace_events(r)?,
        })
    }
}

/// One protocol frame.
///
/// The `Handshake` variant dwarfs the rest, but frames are transient:
/// one lives on the stack per read/write and is destructured
/// immediately — nothing ever stores a `Vec<Frame>` — so boxing would
/// buy an allocation per message and save nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Coordinator → worker: the job (sent exactly once, first).
    Handshake(Handshake),
    /// Worker → coordinator: one finished trial's CSV row bytes,
    /// tagged with its *global* trial sequence number.
    TrialRow {
        /// Global trial index (`base_seed + seq` was the seed).
        seq: u64,
        /// The rendered CSV row, including the trailing newline.
        row: Vec<u8>,
    },
    /// Worker → coordinator: the traced prefix's ring, sent once
    /// before the first row of a traced shard.
    TracePrefix(TracePrefix),
    /// Worker → coordinator: one anomalous trial's flight-recorder
    /// dump, sent immediately after that trial's [`Frame::TrialRow`]
    /// and cut down to its [suffix](TracePrefix::suffix) after the
    /// shard's [`Frame::TracePrefix`]. The dump itself carries no
    /// sequence number (so the rebuilt dump compares byte-identical to
    /// an in-process capture); the frame supplies it.
    TraceDump {
        /// Global trial index the dump belongs to.
        seq: u64,
        /// The captured flight recorder's post-fork suffix.
        dump: TraceDump,
    },
    /// Worker → coordinator: periodic progress snapshot.
    Stats {
        /// Rows streamed so far.
        rows: u64,
        /// Stats over the rows streamed so far.
        stats: CampaignStats,
    },
    /// Worker → coordinator: clean shutdown. The stats cover the
    /// shard's whole range and are what the coordinator merges.
    Done {
        /// Total rows streamed.
        rows: u64,
        /// The shard's final stats.
        stats: CampaignStats,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Handshake(_) => KIND_HANDSHAKE,
            Frame::TrialRow { .. } => KIND_TRIAL_ROW,
            Frame::TracePrefix(_) => KIND_TRACE_PREFIX,
            Frame::TraceDump { .. } => KIND_TRACE_DUMP,
            Frame::Stats { .. } => KIND_STATS,
            Frame::Done { .. } => KIND_DONE,
        }
    }

    /// A short name for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Handshake(_) => "handshake",
            Frame::TrialRow { .. } => "trial-row",
            Frame::TracePrefix(_) => "trace-prefix",
            Frame::TraceDump { .. } => "trace-dump",
            Frame::Stats { .. } => "stats",
            Frame::Done { .. } => "done",
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying pipe failed (or ended mid-frame).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversize {
        /// The claimed frame length.
        len: u32,
    },
    /// The frame body did not match its CRC.
    BadCrc {
        /// CRC computed over the received body.
        computed: u32,
        /// CRC carried by the frame.
        carried: u32,
    },
    /// The kind byte named no known frame type.
    UnknownKind(u8),
    /// The payload failed to decode (includes magic/version
    /// mismatches, which surface as handshake decode failures).
    Decode(DecodeError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME} cap")
            }
            ProtocolError::BadCrc { computed, carried } => {
                write!(
                    f,
                    "frame crc mismatch: computed {computed:#010x}, carried {carried:#010x}"
                )
            }
            ProtocolError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            ProtocolError::Decode(e) => write!(f, "payload decode failed: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> ProtocolError {
        ProtocolError::Decode(e)
    }
}

/// Slicing-by-16 tables for the reflected polynomial 0xEDB88320.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` is followed
/// by `k` zero bytes, so 16 lookups fold 16 input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected), the CRC of zip/ethernet/png.
///
/// Sliced by 16: each 16-byte block costs 16 independent table
/// lookups instead of 16 dependent ones; the tail of fewer than 16
/// bytes goes byte at a time. The value is the plain table CRC's.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Writes one frame (length prefix, body, CRC). Does not flush. A body
/// over [`MAX_FRAME`] is an [`io::ErrorKind::InvalidInput`] error, and
/// nothing is written.
pub fn write_frame<W: Write + ?Sized>(out: &mut W, frame: &Frame) -> io::Result<()> {
    let mut body = vec![frame.kind()];
    match frame {
        Frame::Handshake(handshake) => handshake.encode(&mut body),
        Frame::TrialRow { seq, row } => {
            seq.encode(&mut body);
            row.encode(&mut body);
        }
        Frame::TracePrefix(prefix) => prefix.encode(&mut body),
        Frame::TraceDump { seq, dump } => {
            seq.encode(&mut body);
            dump.encode(&mut body);
        }
        Frame::Stats { rows, stats } | Frame::Done { rows, stats } => {
            rows.encode(&mut body);
            stats.encode(&mut body);
        }
    }
    let len = match u32::try_from(body.len()) {
        Ok(len) if len <= MAX_FRAME => len,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} frame body of {} bytes exceeds the {MAX_FRAME}-byte cap",
                    frame.name(),
                    body.len()
                ),
            ))
        }
    };
    out.write_all(&len.to_le_bytes())?;
    out.write_all(&body)?;
    out.write_all(&crc32(&body).to_le_bytes())
}

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF exactly
/// at a frame boundary); EOF anywhere inside a frame is an error.
pub fn read_frame<R: Read + ?Sized>(input: &mut R) -> Result<Option<Frame>, ProtocolError> {
    // The length prefix: distinguish clean EOF (zero bytes read) from
    // a torn prefix.
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match input.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtocolError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME {
        return Err(ProtocolError::Oversize { len });
    }
    let mut body = vec![0u8; len as usize];
    input.read_exact(&mut body)?;
    let mut crc_bytes = [0u8; 4];
    input.read_exact(&mut crc_bytes)?;
    let carried = u32::from_le_bytes(crc_bytes);
    let computed = crc32(&body);
    if computed != carried {
        return Err(ProtocolError::BadCrc { computed, carried });
    }

    let (kind, payload) = (body[0], &body[1..]);
    let frame = match kind {
        KIND_HANDSHAKE => Frame::Handshake(decode_exact(payload)?),
        KIND_TRIAL_ROW => {
            let mut reader = Reader::new(payload);
            let seq = u64::decode(&mut reader)?;
            let row = Vec::decode(&mut reader)?;
            reader.finish()?;
            Frame::TrialRow { seq, row }
        }
        KIND_TRACE_PREFIX => Frame::TracePrefix(decode_exact(payload)?),
        KIND_TRACE_DUMP => {
            let mut reader = Reader::new(payload);
            let seq = u64::decode(&mut reader)?;
            let dump = TraceDump::decode(&mut reader)?;
            reader.finish()?;
            Frame::TraceDump { seq, dump }
        }
        KIND_STATS | KIND_DONE => {
            let mut reader = Reader::new(payload);
            let rows = u64::decode(&mut reader)?;
            let stats = CampaignStats::decode(&mut reader)?;
            reader.finish()?;
            if kind == KIND_STATS {
                Frame::Stats { rows, stats }
            } else {
                Frame::Done { rows, stats }
            }
        }
        kind => return Err(ProtocolError::UnknownKind(kind)),
    };
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_core::sink::NullSink;
    use certify_core::Campaign;

    fn sample_handshake() -> Handshake {
        Handshake {
            scenario: Scenario::e3_fig3(),
            base_seed: 0xD5_2022,
            start_trial: 128,
            len: 64,
            stats_every: 16,
            certificate_fingerprint: 0xFEED_F00D,
            trace: Some(TraceConfig::default()),
        }
    }

    fn sample_frames() -> Vec<Frame> {
        let (stats, _) =
            Campaign::new(Scenario::e1_root_high(), 3, 9).execute(.., 1, &mut NullSink, None);
        let config = TraceConfig::default();
        let (_, dump) = Scenario::golden(400)
            .runner()
            .run_trial_traced(131, Some(&config));
        vec![
            Frame::Handshake(sample_handshake()),
            Frame::TrialRow {
                seq: 131,
                row: b"131,correct,0,0,running,,42,,0,,\n".to_vec(),
            },
            Frame::TracePrefix(TracePrefix {
                total: 3,
                events: dump.as_ref().unwrap().events[..3].to_vec(),
            }),
            Frame::TraceDump {
                seq: 131,
                dump: dump.unwrap(),
            },
            Frame::Stats {
                rows: 16,
                stats: stats.clone(),
            },
            Frame::Done { rows: 64, stats },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The catalogue value for "123456789" under CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_through_a_pipe() {
        let mut pipe = Vec::new();
        let frames = sample_frames();
        for frame in &frames {
            write_frame(&mut pipe, frame).unwrap();
        }
        let mut cursor = io::Cursor::new(pipe);
        for frame in &frames {
            let read = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(&read, frame);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        // Corrupting any single bit of an encoded frame must surface
        // as *some* protocol error — never a silently different frame.
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &sample_frames()[1]).unwrap();
        for byte in 0..pipe.len() {
            for bit in 0..8 {
                let mut corrupt = pipe.clone();
                corrupt[byte] ^= 1 << bit;
                let mut cursor = io::Cursor::new(corrupt);
                match read_frame(&mut cursor) {
                    Err(_) => {}
                    // A flipped length-prefix bit can make the prefix
                    // claim a longer frame; the remaining bytes then
                    // fail as a torn frame (Err) — but a *shorter*
                    // claimed length must still fail the CRC.
                    Ok(Some(frame)) => {
                        panic!("bit {bit} of byte {byte} went undetected: {frame:?}")
                    }
                    Ok(None) => panic!("bit {bit} of byte {byte} read as clean EOF"),
                }
            }
        }
    }

    #[test]
    fn truncated_streams_error_not_hang() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &sample_frames()[0]).unwrap();
        for len in 1..pipe.len() {
            let mut cursor = io::Cursor::new(pipe[..len].to_vec());
            assert!(
                read_frame(&mut cursor).is_err(),
                "{len}-byte prefix of a frame must be a torn-frame error"
            );
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut body = Vec::new();
        MAGIC.encode(&mut body);
        (VERSION + 1).encode(&mut body);
        sample_handshake().scenario.encode(&mut body);
        assert!(matches!(
            decode_exact::<Handshake>(&body),
            Err(DecodeError::Invalid {
                what: "protocol version mismatch"
            })
        ));

        let mut body = Vec::new();
        0xDEAD_BEEFu32.encode(&mut body);
        assert!(matches!(
            decode_exact::<Handshake>(&body),
            Err(DecodeError::Invalid {
                what: "handshake magic mismatch"
            })
        ));
    }

    #[test]
    fn oversize_and_zero_length_prefixes_are_rejected() {
        let mut pipe = (MAX_FRAME + 1).to_le_bytes().to_vec();
        pipe.extend_from_slice(&[0; 16]);
        assert!(matches!(
            read_frame(&mut io::Cursor::new(pipe)),
            Err(ProtocolError::Oversize { .. })
        ));
        let pipe = 0u32.to_le_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut io::Cursor::new(pipe)),
            Err(ProtocolError::Oversize { len: 0 })
        ));
    }

    #[test]
    fn oversize_frames_are_an_invalid_input_error_not_a_panic() {
        let row = |len: usize| Frame::TrialRow {
            seq: 1,
            row: vec![b'x'; len],
        };
        // Kind byte, seq and the row's length prefix frame the row.
        let largest = MAX_FRAME as usize - 17;
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &row(largest)).expect("a MAX_FRAME body is legal");
        assert_eq!(pipe.len(), MAX_FRAME as usize + 8);

        let mut pipe = Vec::new();
        let err = write_frame(&mut pipe, &row(largest + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(pipe.is_empty(), "nothing of a refused frame is written");
    }

    #[test]
    fn huge_claimed_totals_on_an_unbounded_ring_are_errors_not_allocations() {
        // The hostile-frame cases at a small ring run through real
        // pipes in `tests/sharded.rs`; here the ring is unbounded, so
        // only the received events may size an allocation.
        let event = |step: u64| certify_obs::trace::TraceEvent {
            step,
            cpu: 0,
            kind: certify_obs::trace::TraceKind::SchedDecision,
            arg_a: 0,
            arg_b: 0,
        };
        let suffix = |total: u64, held: u64| TraceDump {
            seed: 1,
            scenario: "x".into(),
            outcome: certify_core::Outcome::Correct,
            total,
            dropped: total - held,
            events: (0..held).map(event).collect(),
        };
        let hostile = TracePrefix {
            total: u64::MAX,
            events: Vec::new(),
        };
        assert!(hostile.check(usize::MAX).is_err());
        let prefix = TracePrefix {
            total: 5,
            events: (0..5).map(event).collect(),
        };
        prefix
            .check(usize::MAX)
            .expect("a ring that dropped nothing");
        assert!(prefix
            .check_suffix(usize::MAX, &suffix(u64::MAX, 2))
            .is_err());
        prefix
            .check_suffix(usize::MAX, &suffix(7, 2))
            .expect("a fitting suffix");
        let rebuilt = prefix.rebuild(usize::MAX, &suffix(7, 2));
        assert_eq!(
            (rebuilt.total, rebuilt.dropped, rebuilt.events.len()),
            (7, 0, 7)
        );
    }
}
