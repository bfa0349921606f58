//! Property tests of the shard wire protocol and the core codec.
//!
//! The coordinator trusts nothing a worker sends, and the worker
//! trusts nothing a coordinator sends — so encode/decode must be an
//! exact inverse pair on arbitrary values, and arbitrary corruption
//! must surface as an error, never as a different-but-valid value.

use certify_core::codec::{decode_exact, encode_to_vec};
use certify_core::spec::{InjectionSpec, InjectionWindow, MemorySpec, Paced};
use certify_core::{
    Campaign, DumpPolicy, FaultModel, MemFaultModel, MemRegionKind, MemTarget, NullSink, Outcome,
    Scenario, TraceConfig, TraceDump, DEFAULT_TRACE_CAPACITY,
};
use certify_obs::trace::{FlightRecorder, TraceEvent, TraceKind};
use certify_shard::{crc32, read_frame, write_frame, Frame, Handshake, TracePrefix};
use proptest::collection;
use proptest::prelude::*;
use std::io::Cursor;

/// CRC-32 (reflected 0xEDB88320) one bit at a time: the textbook
/// definition the sliced `crc32` must agree with.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn sliced_crc_matches_the_bitwise_reference_at_every_length() {
    // Every length 0..=300 covers every remainder mod 16, alone and
    // after 1..18 full blocks.
    let bytes: Vec<u8> = (0u32..301)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
        .collect();
    for len in 0..=bytes.len() {
        assert_eq!(
            crc32(&bytes[..len]),
            crc32_bitwise(&bytes[..len]),
            "length {len}"
        );
    }
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn sliced_crc_matches_the_bitwise_reference_on_a_real_dump_frame() {
    let config = TraceConfig::new().with_policy(DumpPolicy::anomalies());
    let runner = Scenario::e7_mixed().runner();
    let dump = (0xD5_2022..)
        .find_map(|seed| {
            let (_, dump) = runner.run_trial_traced(seed, Some(&config));
            dump.filter(|d| d.events.len() == DEFAULT_TRACE_CAPACITY)
        })
        .expect("some E7 trial dumps a full ring");
    let mut pipe = Vec::new();
    write_frame(&mut pipe, &Frame::TraceDump { seq: 7, dump }).unwrap();
    let body = &pipe[4..pipe.len() - 4];
    assert!(body.len() > 118_000, "a full-ring dump body is ~119 KB");
    let carried = u32::from_le_bytes(pipe[pipe.len() - 4..].try_into().unwrap());
    assert_eq!(crc32(body), crc32_bitwise(body));
    assert_eq!(carried, crc32_bitwise(body));
}

/// Event `i` of a synthetic stream; every field varies with `i`, so a
/// misplaced or repeated event shows.
fn event(i: u64) -> TraceEvent {
    TraceEvent {
        step: i,
        cpu: (i % 3) as u32,
        kind: TraceKind::ALL[(i % TraceKind::ALL.len() as u64) as usize],
        arg_a: i.wrapping_mul(0x9E37_79B9),
        arg_b: !i,
    }
}

/// Records `prefix_len` events into a `capacity` ring and forks it;
/// the fork records `suffix_len` more and is captured as a dump. The
/// worker-side split ([`TracePrefix::suffix`]) must pass the
/// coordinator's receipt check ([`TracePrefix::check_suffix`]), and
/// the rebuild ([`TracePrefix::rebuild`]) must give back that dump
/// exactly, its event list at exact capacity. With `wire`, the prefix
/// and the suffix also cross a pipe as frames.
fn assert_split_rebuilds_the_ring(capacity: usize, prefix_len: u64, suffix_len: u64, wire: bool) {
    let case = format!("capacity {capacity}, prefix {prefix_len}, suffix {suffix_len}");
    let mut recorder = FlightRecorder::new(capacity);
    for i in 0..prefix_len {
        recorder.record(event(i));
    }
    let mut prefix = TracePrefix::of(&recorder);
    for i in prefix_len..prefix_len + suffix_len {
        recorder.record(event(i));
    }
    let dump = TraceDump::capture(recorder, 7, "props", Outcome::Correct);
    let mut suffix = prefix.suffix(dump.clone());
    assert_eq!(
        suffix.events.len() as u64,
        suffix_len.min(capacity as u64),
        "{case}: the suffix is what the fork recorded, as the ring kept it"
    );
    if wire {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &Frame::TracePrefix(prefix)).unwrap();
        write_frame(
            &mut pipe,
            &Frame::TraceDump {
                seq: 0,
                dump: suffix,
            },
        )
        .unwrap();
        let mut cursor = Cursor::new(pipe);
        let Some(Frame::TracePrefix(read_prefix)) = read_frame(&mut cursor).unwrap() else {
            panic!("{case}: a trace-prefix frame");
        };
        let Some(Frame::TraceDump {
            dump: read_suffix, ..
        }) = read_frame(&mut cursor).unwrap()
        else {
            panic!("{case}: a trace-dump frame");
        };
        (prefix, suffix) = (read_prefix, read_suffix);
    }
    prefix
        .check(capacity)
        .unwrap_or_else(|e| panic!("{case}: {e}"));
    prefix
        .check_suffix(capacity, &suffix)
        .unwrap_or_else(|e| panic!("{case}: {e}"));
    let rebuilt = prefix.rebuild(capacity, &suffix);
    assert_eq!(rebuilt, dump, "{case}");
    assert_eq!(rebuilt.events.capacity(), rebuilt.events.len(), "{case}");
}

#[test]
fn split_and_rebuild_reproduce_small_rings_exhaustively() {
    // Every prefix length up to past a wrap, against suffixes around
    // and well past the ring.
    for capacity in [1usize, 2, 3, 7, 64] {
        let c = capacity as u64;
        for prefix_len in 0..=2 * c + 1 {
            for suffix_len in [0, 1, c - 1, c, c + 1, 2 * c + 3] {
                assert_split_rebuilds_the_ring(capacity, prefix_len, suffix_len, true);
            }
        }
    }
}

#[test]
fn split_and_rebuild_reproduce_a_megaevent_ring() {
    // A 1<<20 ring: a short suffix dropping nothing, a full prefix
    // ring, and a suffix longer than the ring.
    let capacity = 1 << 20;
    for (prefix_len, suffix_len) in [
        (0, 1),
        (1, 0),
        (5_000, 3_000),
        (capacity as u64, 1),
        (3_000, capacity as u64 + 1),
    ] {
        assert_split_rebuilds_the_ring(capacity, prefix_len, suffix_len, false);
    }
}

/// Deterministically varies an `InjectionSpec` across its knobs.
fn spec_variant(rate: u64, windows: Vec<(u64, u64)>, knobs: u8) -> InjectionSpec {
    let mut spec = match knobs % 4 {
        0 => InjectionSpec::e1_root_high(),
        1 => InjectionSpec::e2_nonroot_high(),
        2 => InjectionSpec::e2_boot_window(),
        _ => InjectionSpec::e3_nonroot_trap_medium(),
    }
    .with_rate(rate)
    .with_windows(
        windows
            .iter()
            .map(|&(start, span)| InjectionWindow::new(start, start + span.max(1))),
    );
    if knobs & 0x10 != 0 {
        spec = spec.with_phase_jitter();
    }
    if knobs & 0x20 != 0 {
        spec = spec.with_max_injections(u64::from(knobs));
    }
    if knobs & 0x80 != 0 {
        spec = spec.with_model(FaultModel::multi_register_flip());
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Injection specs round-trip through the codec whatever knob
    /// combination is set.
    #[test]
    fn injection_specs_round_trip(
        rate in 1u64..500,
        windows in collection::vec((0u64..5000, 1u64..800), 0..4),
        knobs in any::<u8>(),
    ) {
        let spec = spec_variant(rate, windows, knobs);
        prop_assert_eq!(decode_exact::<InjectionSpec>(&encode_to_vec(&spec)).unwrap(), spec);
    }

    /// Memory specs (model + target regions + cadence) round-trip.
    #[test]
    fn memory_specs_round_trip(
        rate in 1u64..500,
        model_tag in 0u8..6,
        stuck in any::<u32>(),
        words in 1u32..64,
        regions in collection::vec(0u8..5, 1..6),
        custom in any::<bool>(),
    ) {
        let model = match model_tag {
            0 => MemFaultModel::SingleBitFlip,
            1 => MemFaultModel::DoubleBitFlip,
            2 => MemFaultModel::WordStuckAt { value: stuck },
            3 => MemFaultModel::PageBurst { words },
            4 => MemFaultModel::DescriptorInvalidate,
            _ => MemFaultModel::CommStateCorrupt,
        };
        let mut kinds: Vec<MemRegionKind> =
            regions.iter().map(|&r| MemRegionKind::ALL[r as usize]).collect();
        if custom {
            kinds.push(MemRegionKind::Custom { base: 0x4000_0000, size: 0x1000 });
        }
        let spec = MemorySpec::e6_memory(model, MemTarget::new(kinds)).with_rate(rate);
        prop_assert_eq!(decode_exact::<MemorySpec>(&encode_to_vec(&spec)).unwrap(), spec);
    }

    /// Trial-row frames round-trip through a pipe with arbitrary row
    /// bytes (CSV rows are a special case).
    #[test]
    fn trial_row_frames_round_trip(
        seq in any::<u64>(),
        row in collection::vec(any::<u8>(), 0..300),
    ) {
        let frame = Frame::TrialRow { seq, row };
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &frame).unwrap();
        let read = read_frame(&mut Cursor::new(pipe)).unwrap().unwrap();
        prop_assert_eq!(read, frame);
    }

    /// Handshakes carrying every scenario preset round-trip, and the
    /// rebuilt scenario runs the *same trials*: a worker created from
    /// the wire form produces the same stats as the original.
    #[test]
    fn handshakes_rebuild_identical_scenarios(
        preset in 0u8..5,
        base_seed in any::<u64>(),
        start in 0u64..1000,
        len in 1u64..50,
    ) {
        let scenario = match preset {
            0 => Scenario::e1_root_high(),
            1 => Scenario::e2_boot_window(),
            2 => Scenario::e3_fig3(),
            3 => Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
            _ => Scenario::e7_mixed(),
        };
        let handshake = Handshake {
            certificate_fingerprint: certify_lint::certify_scenario(&scenario).0.fingerprint(),
            scenario,
            base_seed,
            start_trial: start,
            len,
            stats_every: 0,
            trace: (preset % 2 == 0).then(|| TraceConfig::new().with_capacity(1 + len as usize)),
        };
        let frame = Frame::Handshake(handshake.clone());
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &frame).unwrap();
        let Some(Frame::Handshake(read)) = read_frame(&mut Cursor::new(pipe)).unwrap() else {
            return Err(TestCaseError::fail(String::from("wrong frame kind")));
        };
        prop_assert_eq!(&read, &handshake);

        // Semantic identity, not just structural: one trial of the
        // rebuilt scenario behaves exactly like the original's.
        let (a, _) = Campaign::new(handshake.scenario, 1, base_seed).execute(.., 1, &mut NullSink, None);
        let (b, _) = Campaign::new(read.scenario, 1, base_seed).execute(.., 1, &mut NullSink, None);
        prop_assert_eq!(a, b);
    }

    /// Flipping any byte of a framed message can never yield a
    /// *different valid frame*: the CRC (or the decoder) catches it.
    #[test]
    fn corrupted_frames_never_decode_to_a_different_frame(
        seq in any::<u64>(),
        row in collection::vec(any::<u8>(), 1..120),
        corrupt_at_frac in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let frame = Frame::TrialRow { seq, row };
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &frame).unwrap();
        let at = ((pipe.len() - 1) as f64 * corrupt_at_frac) as usize;
        pipe[at] ^= xor;
        match read_frame(&mut Cursor::new(pipe)) {
            Err(_) | Ok(None) => {}
            Ok(Some(read)) => prop_assert_eq!(read, frame, "corruption changed the frame"),
        }
    }

    /// The worker's dump split and the coordinator's rebuild reproduce
    /// a flight recorder's ring through the wire, whatever the ring,
    /// prefix and suffix sizes.
    #[test]
    fn split_and_rebuild_reproduce_any_ring(
        capacity in 1usize..100,
        prefix_len in 0u64..300,
        suffix_len in 0u64..300,
    ) {
        assert_split_rebuilds_the_ring(capacity, prefix_len, suffix_len, true);
    }

    /// The sliced crc32 equals the bitwise reference on arbitrary
    /// bytes at any offset (unaligned starts included).
    #[test]
    fn sliced_crc_matches_the_bitwise_reference(
        bytes in collection::vec(any::<u8>(), 0..301),
        skip in 0usize..16,
    ) {
        let tail = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        prop_assert_eq!(crc32(tail), crc32_bitwise(tail));
    }

    /// crc32 differs on any single-bit difference of short inputs
    /// (CRC-32 guarantees Hamming distance > 1 at these lengths).
    #[test]
    fn crc_detects_single_bit_flips(
        bytes in collection::vec(any::<u8>(), 1..64),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut flipped = bytes.clone();
        let at = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        flipped[at] ^= 1 << bit;
        prop_assert_ne!(crc32(&bytes), crc32(&flipped));
    }
}
