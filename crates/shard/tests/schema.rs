//! Golden fingerprints for the shard wire protocol's framed encodings.
//!
//! `certify_lint`'s schema auditor pins every `certify_core::codec`
//! wire type, but the *frame* layer — kind bytes, length prefix, CRC
//! trailer, handshake magic/version — lives in this crate and would
//! create a dependency cycle if pinned there. So the frame encodings
//! are pinned here instead, with the same FNV-1a fingerprint helper:
//! any change to the frame layout or the handshake's field order
//! breaks these constants and must come with a deliberate `VERSION`
//! bump.

use certify_core::{CampaignStats, Outcome, Scenario, TraceConfig, TraceDump};
use certify_lint::fingerprint;
use certify_obs::trace::{TraceEvent, TraceKind, NO_CPU};
use certify_shard::{write_frame, Frame, Handshake, TracePrefix};

/// Frames a value exactly as the wire sees it: `[len][kind|payload][crc]`.
fn framed(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, frame).expect("in-memory frame write");
    out
}

fn pinned_frames() -> Vec<(&'static str, Vec<u8>)> {
    let stats = CampaignStats::new("pin");
    let handshake = |trace: Option<TraceConfig>| {
        framed(&Frame::Handshake(Handshake {
            scenario: Scenario::e3_fig3(),
            base_seed: 7,
            start_trial: 2,
            len: 3,
            stats_every: 4,
            certificate_fingerprint: 6,
            trace,
        }))
    };
    vec![
        ("handshake-e3", handshake(None)),
        (
            "handshake-e3-traced",
            handshake(Some(TraceConfig::default())),
        ),
        (
            "trial-row",
            framed(&Frame::TrialRow {
                seq: 5,
                row: b"pinned,row,bytes\n".to_vec(),
            }),
        ),
        (
            "trace-prefix",
            framed(&Frame::TracePrefix(TracePrefix {
                total: 4,
                events: vec![TraceEvent {
                    step: 3,
                    cpu: 1,
                    kind: TraceKind::SchedDecision,
                    arg_a: 7,
                    arg_b: 0,
                }],
            })),
        ),
        (
            "trace-dump",
            framed(&Frame::TraceDump {
                seq: 5,
                dump: TraceDump {
                    seed: 9,
                    scenario: "pin".into(),
                    outcome: Outcome::Correct,
                    total: 3,
                    dropped: 1,
                    events: vec![
                        TraceEvent {
                            step: 1,
                            cpu: 0,
                            kind: TraceKind::HandlerEntry,
                            arg_a: 2,
                            arg_b: 3,
                        },
                        TraceEvent {
                            step: 2,
                            cpu: NO_CPU,
                            kind: TraceKind::ClassifyVerdict,
                            arg_a: 6,
                            arg_b: 0,
                        },
                    ],
                },
            }),
        ),
        (
            "stats",
            framed(&Frame::Stats {
                rows: 2,
                stats: stats.clone(),
            }),
        ),
        ("done", framed(&Frame::Done { rows: 3, stats })),
    ]
}

/// `(name, framed length, fnv1a64)` — regenerate deliberately (the
/// failure message prints current values) alongside a protocol
/// `VERSION` bump.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("handshake-e3", 215, 0x623d8ece83fd3ed3),
    ("handshake-e3-traced", 237, 0xbd2b9186f7f67892),
    ("trial-row", 42, 0x654dd71078400e11),
    ("trace-prefix", 54, 0x9045a5a1cd41f65c),
    ("trace-dump", 119, 0x649a22eaa985cd9d),
    ("stats", 148, 0xd0e28bfdd1519951),
    ("done", 148, 0xbf44227906e2af08),
];

#[test]
fn frame_encodings_match_their_golden_fingerprints() {
    let current = pinned_frames();
    assert_eq!(current.len(), GOLDEN.len());
    for ((name, bytes), &(golden_name, golden_len, golden_fp)) in current.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        assert_eq!(
            (bytes.len(), fingerprint(bytes)),
            (golden_len, golden_fp),
            "frame `{name}` encoding drifted: current is (\"{name}\", {}, {:#018x}) — \
             a wire-protocol break needing a VERSION bump",
            bytes.len(),
            fingerprint(bytes),
        );
    }
}

#[test]
fn frame_kind_bytes_are_stable() {
    // Byte 4 (after the u32 length prefix) is the kind tag.
    let kinds: Vec<u8> = pinned_frames().iter().map(|(_, bytes)| bytes[4]).collect();
    assert_eq!(kinds, vec![1, 1, 2, 6, 5, 3, 4]);
}
