//! Pass 2 — the codec schema auditor.
//!
//! The hand-rolled binary codec in [`certify_core::codec`] is a wire
//! contract between coordinator and worker processes that may be built
//! from different checkouts. Nothing in the type system stops a
//! refactor from reordering struct fields, renumbering enum tags or
//! widening an integer — changes that decode *successfully* into wrong
//! values. This pass pins the encoding: for every wire type a fixed
//! *witness* value exercising all of its variants and fields is
//! encoded, and the byte stream's length and FNV-1a fingerprint are
//! compared against a golden table committed next to this file
//! (`schema.golden`). A mismatch is an [`Code::SchemaMismatch`] error
//! — the change needs either reverting or a deliberate golden-table
//! regeneration (`certify-lint --write-schema`) plus a wire-protocol
//! version bump.

use crate::diagnostic::{Code, Diagnostic};
use certify_analysis::export::CSV_HEADER;
use certify_arch::{CpuId, Reg};
use certify_core::campaign::Scenario;
use certify_core::codec::encode_to_vec;
use certify_core::fault::FaultModel;
use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};
use certify_core::spec::{Cadence, InjectionSpec, InjectionWindow, MemorySpec, Paced};
use certify_core::stats::{CampaignStats, CountSummary};
use certify_core::{
    engine_metrics_to_json, progress_to_json, shard_metrics_to_json, PhaseBound,
    ScenarioCertificate, Wire,
};
use certify_core::{DumpPolicy, TraceConfig, TraceDump};
use certify_guest_linux::{MgmtOp, MgmtScript};
use certify_hypervisor::HandlerKind;
use certify_obs::trace::{TraceEvent, TraceKind, NO_CPU};
use certify_obs::{EngineMetrics, PhaseSample, ProgressSnapshot, ShardMetrics};
use std::collections::{BTreeMap, BTreeSet};

/// One pinned wire-schema witness: the canonical encoding of a fixed
/// value of one wire type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaEntry {
    /// Witness name (stable; the golden table is keyed by it).
    pub name: &'static str,
    /// Encoded length in bytes.
    pub len: usize,
    /// FNV-1a 64-bit fingerprint of the encoded bytes.
    pub fingerprint: u64,
}

/// FNV-1a 64-bit hash — tiny, dependency-free, and good enough to make
/// an accidental schema change colliding with the golden fingerprint
/// implausible.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn entry<T: Wire>(name: &'static str, value: &T) -> SchemaEntry {
    let bytes = encode_to_vec(value);
    SchemaEntry {
        name,
        len: bytes.len(),
        fingerprint: fingerprint(&bytes),
    }
}

fn entry_bytes(name: &'static str, bytes: &[u8]) -> SchemaEntry {
    SchemaEntry {
        name,
        len: bytes.len(),
        fingerprint: fingerprint(bytes),
    }
}

/// A register-injection spec with every field populated, so a change
/// to any field's encoding moves the fingerprint.
fn full_injection_spec() -> InjectionSpec {
    InjectionSpec {
        cadence: Cadence::new(HandlerKind::ALL, Some(CpuId(1)), 97)
            .with_max_injections(5)
            .with_phase_jitter()
            .with_window(10, 20)
            .with_window(30, 40),
        model: FaultModel::MultiRegisterFlip {
            regs: vec![Reg::ALL[0], Reg::ALL[1], Reg::ALL[2]],
        },
        time_trigger: Some(250),
    }
}

/// A memory-injection spec with every field populated.
fn full_memory_spec() -> MemorySpec {
    MemorySpec {
        cadence: Cadence::new(HandlerKind::ALL, Some(CpuId(0)), 41)
            .with_max_injections(3)
            .with_phase_jitter()
            .with_window(100, 900),
        model: MemFaultModel::WordStuckAt { value: 0xdead_beef },
        target: MemTarget::e6(),
    }
}

/// Synthetic stats with every field non-default, so dropping or
/// reordering any field is visible.
fn full_stats() -> CampaignStats {
    use certify_core::Outcome;
    let mut distribution = BTreeMap::new();
    for (i, &outcome) in Outcome::ALL.iter().enumerate() {
        distribution.insert(outcome, i + 1);
    }
    let mut mem_region_distribution = BTreeMap::new();
    for (i, &region) in MemRegionKind::ALL.iter().enumerate() {
        mem_region_distribution.insert((region, Outcome::ALL[i % Outcome::ALL.len()]), i + 2);
    }
    CampaignStats {
        scenario_name: "schema-witness".into(),
        trials: 28,
        distribution,
        injected_trials: 21,
        mem_injected_trials: 13,
        mem_region_distribution,
        injections: CountSummary {
            min: 1,
            max: 4,
            total: 9,
        },
        mem_injections: CountSummary {
            min: 0,
            max: 2,
            total: 5,
        },
        watchdog_detected: 3,
        watchdog_expiry_sum: 1234,
        monitor_detected: 2,
        monitor_alarms_total: 7,
    }
}

/// A pre-flight certificate with every field populated: looping and
/// non-looping scripts are both covered by the two phase vectors, and
/// every outcome and region tag feeds the sets.
fn full_certificate() -> ScenarioCertificate {
    ScenarioCertificate {
        scenario_name: "schema-witness".into(),
        cell_reachable: true,
        script_steps: Some(1017),
        outcomes: certify_core::Outcome::ALL.iter().copied().collect(),
        reg_budget: Some(360),
        mem_budget: Some(12),
        tracked_regions: MemRegionKind::ALL.iter().copied().collect(),
        reg_phases: vec![PhaseBound {
            start: 0,
            end: 4500,
            max_handler_calls: 36_000,
            max_injections: 360,
        }],
        mem_phases: vec![PhaseBound {
            start: 100,
            end: 900,
            max_handler_calls: 6_400,
            max_injections: 12,
        }],
    }
}

/// Engine metrics with every counter, the residency gauge and all
/// phase histograms non-default.
fn full_engine_metrics() -> EngineMetrics {
    let mut metrics = EngineMetrics::default();
    metrics.trials.add(28);
    metrics.reorder_residency.set(5);
    metrics.reorder_residency.set(2); // high-water stays at 5
    metrics.sink_rows.add(28);
    metrics.sink_bytes.add(1234);
    metrics.phases.record(&PhaseSample {
        boot_ns: 1_000,
        steady_ns: 2_000,
        injection_ns: 300,
        classify_ns: 40,
    });
    metrics.phases.record(&PhaseSample {
        boot_ns: 5_000,
        steady_ns: 1_000,
        injection_ns: 0,
        classify_ns: 90,
    });
    metrics
}

/// Shard transport metrics with every counter non-default.
fn full_shard_metrics() -> ShardMetrics {
    let mut metrics = ShardMetrics::default();
    metrics.rows.add(240);
    metrics.frames.add(12);
    metrics.frame_bytes.add(4096);
    metrics.crc_rejects.add(1);
    metrics.retries.add(2);
    metrics.wasted_rerun_trials.add(40);
    metrics.elapsed_ns.set(2_000_000_000);
    metrics
}

/// A tracing configuration with every field non-default.
fn full_trace_config() -> TraceConfig {
    TraceConfig {
        capacity: 1024,
        policy: DumpPolicy {
            outcomes: [
                certify_core::Outcome::SilentDataCorruption,
                certify_core::Outcome::Correct,
            ]
            .into_iter()
            .collect(),
            on_conformance_violation: false,
            on_panic: false,
        },
    }
}

/// A trace dump whose events cover every [`TraceKind`] variant, both
/// CPU-bound and machine-level (`NO_CPU`) lanes, and a non-zero drop
/// counter — so any change to the event encoding or the dump framing
/// moves the fingerprint.
fn full_trace_dump() -> TraceDump {
    let events: Vec<TraceEvent> = TraceKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| TraceEvent {
            step: 100 + i as u64,
            cpu: if i % 3 == 0 { NO_CPU } else { i as u32 },
            kind,
            arg_a: i as u64,
            arg_b: 0xb0 + i as u64,
        })
        .collect();
    TraceDump {
        seed: 77,
        scenario: "schema-witness".into(),
        outcome: certify_core::Outcome::SilentDataCorruption,
        total: events.len() as u64 + 3,
        dropped: 3,
        events,
    }
}

/// A mid-run shard snapshot with every field populated.
fn full_progress_snapshot() -> ProgressSnapshot {
    ProgressSnapshot {
        source: Some(3),
        done: 120,
        total: 240,
        elapsed_ns: 1_500_000_000,
        rows_per_sec: 80.0,
        eta_ns: Some(1_500_000_000),
        outcomes: vec![
            (String::from("correct"), 100),
            (String::from("panic park"), 20),
        ],
    }
}

/// The current schema: every wire type's witness, encoded and
/// fingerprinted, in stable order.
pub fn current_schema() -> Vec<SchemaEntry> {
    // Primitive layer: one buffer concatenating every primitive
    // encoder, so a width or prefix change anywhere shows up.
    let mut primitives = Vec::new();
    0xa5u8.encode(&mut primitives);
    0x1234u16.encode(&mut primitives);
    0x1122_3344u32.encode(&mut primitives);
    0x0102_0304_0506_0708u64.encode(&mut primitives);
    (-5i64).encode(&mut primitives);
    7usize.encode(&mut primitives);
    true.encode(&mut primitives);
    false.encode(&mut primitives);
    String::from("wire").encode(&mut primitives);
    Option::<u32>::None.encode(&mut primitives);
    Some(9u32).encode(&mut primitives);
    vec![1u16, 2, 3].encode(&mut primitives);
    BTreeSet::from([1u8, 2]).encode(&mut primitives);
    BTreeMap::from([(1u8, 2u16)]).encode(&mut primitives);
    (0xabu8, 0xcdef_0123u32).encode(&mut primitives);

    let all_mgmt_ops: Vec<MgmtOp> = vec![
        MgmtOp::Delay(7),
        MgmtOp::PollInfo,
        MgmtOp::StageSystemConfig,
        MgmtOp::Enable,
        MgmtOp::RequestCpuOffline(1),
        MgmtOp::WaitCpuParked(1),
        MgmtOp::StageCellConfig,
        MgmtOp::CreateCell,
        MgmtOp::LoadCell,
        MgmtOp::StartCell,
        MgmtOp::RunFor(400),
        MgmtOp::QueryCellState,
        MgmtOp::ShutdownCell,
        MgmtOp::DestroyCell,
        MgmtOp::ArmWatchdog,
        MgmtOp::MonitorFor {
            steps: 300,
            window: 60,
        },
        MgmtOp::Restart(6),
        MgmtOp::Halt,
    ];
    let all_fault_models: Vec<FaultModel> = vec![
        FaultModel::SingleBitFlip {
            pool: Reg::ALL.to_vec(),
        },
        FaultModel::MultiRegisterFlip {
            regs: vec![Reg::ALL[0], Reg::ALL[1]],
        },
        FaultModel::DoubleBitFlip {
            pool: vec![Reg::ALL[3]],
        },
        FaultModel::RegisterZero {
            pool: vec![Reg::ALL[4]],
        },
        FaultModel::RegisterRandom {
            pool: vec![Reg::ALL[5]],
        },
    ];
    let all_regions: Vec<MemRegionKind> = MemRegionKind::ALL
        .iter()
        .copied()
        .chain([MemRegionKind::Custom {
            base: 0x1000,
            size: 0x100,
        }])
        .collect();
    let all_mem_models: Vec<MemFaultModel> = vec![
        MemFaultModel::SingleBitFlip,
        MemFaultModel::DoubleBitFlip,
        MemFaultModel::WordStuckAt { value: 0xffff_0000 },
        MemFaultModel::PageBurst { words: 16 },
        MemFaultModel::DescriptorInvalidate,
        MemFaultModel::CommStateCorrupt,
    ];

    vec![
        entry_bytes("primitives", &primitives),
        entry("cpu-id", &CpuId(0x1122_3344)),
        entry("reg-tags", &Reg::ALL.to_vec()),
        entry("handler-tags", &HandlerKind::ALL.to_vec()),
        entry("outcome-tags", &certify_core::Outcome::ALL.to_vec()),
        entry("mgmt-op-variants", &all_mgmt_ops),
        entry("mgmt-script", &MgmtScript::lifecycle_cycling(100)),
        entry("injection-window", &InjectionWindow::new(3, 9)),
        entry("fault-model-variants", &all_fault_models),
        entry("injection-spec-full", &full_injection_spec()),
        entry("mem-region-variants", &all_regions),
        entry("mem-fault-model-variants", &all_mem_models),
        entry("mem-target", &MemTarget::all()),
        entry("memory-spec-full", &full_memory_spec()),
        entry("scenario-golden", &Scenario::golden(1500)),
        entry("scenario-e3", &Scenario::e3_fig3()),
        entry("scenario-e7", &Scenario::e7_mixed()),
        entry(
            "count-summary",
            &CountSummary {
                min: 1,
                max: 4,
                total: 9,
            },
        ),
        entry("campaign-stats", &full_stats()),
        entry_bytes("csv-header", CSV_HEADER.as_bytes()),
        entry("phase-bound", &full_certificate().reg_phases[0]),
        entry("scenario-certificate", &full_certificate()),
        entry("trace-kind-tags", &TraceKind::ALL.to_vec()),
        entry(
            "trace-event",
            &TraceEvent {
                step: 0x0102_0304_0506_0708,
                cpu: 2,
                kind: TraceKind::TrapTaken,
                arg_a: 0xaaaa_bbbb_cccc_dddd,
                arg_b: 0x1111_2222_3333_4444,
            },
        ),
        entry("trace-config-full", &full_trace_config()),
        entry("trace-dump-full", &full_trace_dump()),
        // JSON surfaces: the rendered byte streams clients parse. A
        // renamed key, reordered field or reformatted number is as
        // much a wire break as a codec change, so the rendered text of
        // a fully-populated value is pinned like any encoding.
        entry_bytes(
            "json-campaign-stats",
            full_stats().to_json().render().as_bytes(),
        ),
        entry_bytes(
            "json-progress-snapshot",
            progress_to_json(&full_progress_snapshot())
                .render()
                .as_bytes(),
        ),
        entry_bytes(
            "json-engine-metrics",
            engine_metrics_to_json(&full_engine_metrics())
                .render()
                .as_bytes(),
        ),
        entry_bytes(
            "json-shard-metrics",
            shard_metrics_to_json(&full_shard_metrics())
                .render()
                .as_bytes(),
        ),
        entry_bytes(
            "json-trace-dump",
            full_trace_dump().to_json().render().as_bytes(),
        ),
        entry_bytes(
            "chrome-trace",
            full_trace_dump().to_chrome_trace().as_bytes(),
        ),
    ]
}

/// Renders a schema as the golden-table text format: one
/// `name length fingerprint` line per witness, `#` comments allowed.
pub fn render_schema(entries: &[SchemaEntry]) -> String {
    let mut out = String::from(
        "# Golden wire-schema fingerprints. One line per witness:\n\
         #   <name> <encoded-length> <fnv1a64-hex>\n\
         # Regenerate deliberately with `certify-lint --write-schema`\n\
         # after a wire-protocol version bump.\n",
    );
    for entry in entries {
        out.push_str(&format!(
            "{} {} {:016x}\n",
            entry.name, entry.len, entry.fingerprint
        ));
    }
    out
}

/// The committed golden table this build is audited against.
pub const GOLDEN: &str = include_str!("../schema.golden");

/// Audits the current encoders against the committed golden table.
pub fn check_schema() -> Vec<Diagnostic> {
    check_schema_against(GOLDEN)
}

/// Audits the current encoders against an arbitrary golden table
/// (separated from [`check_schema`] so tests can feed bad fixtures).
pub fn check_schema_against(golden: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut pinned: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    for (line_no, raw) in golden.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let span = format!("schema.golden:{}", line_no + 1);
        let mut parts = line.split_whitespace();
        let parsed = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(name), Some(len), Some(hash), None) => len
                .parse::<usize>()
                .ok()
                .zip(u64::from_str_radix(hash, 16).ok())
                .map(|(len, hash)| (name, len, hash)),
            _ => None,
        };
        let Some((name, len, hash)) = parsed else {
            out.push(Diagnostic::new(
                Code::SchemaMalformedGolden,
                span,
                format!("cannot parse `{line}` as `<name> <length> <fnv1a64-hex>`"),
            ));
            continue;
        };
        if pinned.insert(name, (len, hash)).is_some() {
            out.push(Diagnostic::new(
                Code::SchemaMalformedGolden,
                span,
                format!("witness `{name}` is pinned twice"),
            ));
        }
    }
    let current = current_schema();
    for entry in &current {
        match pinned.remove(entry.name) {
            None => out.push(Diagnostic::new(
                Code::SchemaMissingGolden,
                entry.name,
                "witness has no golden fingerprint: regenerate the schema table",
            )),
            Some((len, hash)) if len != entry.len || hash != entry.fingerprint => {
                out.push(Diagnostic::new(
                    Code::SchemaMismatch,
                    entry.name,
                    format!(
                        "encoding changed: golden {len} bytes / {hash:016x}, \
                         current {} bytes / {:016x}",
                        entry.len, entry.fingerprint
                    ),
                ));
            }
            Some(_) => {}
        }
    }
    for (name, _) in pinned {
        out.push(Diagnostic::new(
            Code::SchemaUnknownGolden,
            name,
            "golden table pins a witness the current code no longer produces",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::has_errors;

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn committed_golden_matches_current_encoders() {
        let diags = check_schema();
        assert!(
            diags.is_empty(),
            "wire schema drifted from schema.golden:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn fingerprint_is_fnv1a64() {
        // Published FNV-1a test vectors.
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn witness_names_are_unique_and_nonempty() {
        let schema = current_schema();
        let mut seen = std::collections::BTreeSet::new();
        for entry in &schema {
            assert!(seen.insert(entry.name), "duplicate witness {}", entry.name);
            assert!(entry.len > 0, "witness {} encodes to nothing", entry.name);
        }
    }

    #[test]
    fn round_trip_regeneration_is_clean() {
        let rendered = render_schema(&current_schema());
        assert!(check_schema_against(&rendered).is_empty());
    }

    #[test]
    fn a_drifted_fingerprint_is_a_mismatch_error() {
        let mut rendered = String::new();
        for entry in current_schema() {
            rendered.push_str(&format!(
                "{} {} {:016x}\n",
                entry.name,
                entry.len,
                entry.fingerprint ^ if entry.name == "scenario-e3" { 1 } else { 0 }
            ));
        }
        let diags = check_schema_against(&rendered);
        assert_eq!(codes(&diags), vec![Code::SchemaMismatch]);
        assert_eq!(diags[0].span, "scenario-e3");
        assert!(has_errors(&diags));
    }

    #[test]
    fn a_missing_pin_and_a_stale_pin_are_errors() {
        let mut rendered = String::from("retired-witness 4 00000000deadbeef\n");
        for entry in current_schema() {
            if entry.name == "cpu-id" {
                continue; // drop one pin
            }
            rendered.push_str(&format!(
                "{} {} {:016x}\n",
                entry.name, entry.len, entry.fingerprint
            ));
        }
        let diags = check_schema_against(&rendered);
        assert_eq!(
            codes(&diags),
            vec![Code::SchemaMissingGolden, Code::SchemaUnknownGolden]
        );
        assert_eq!(diags[0].span, "cpu-id");
        assert_eq!(diags[1].span, "retired-witness");
    }

    #[test]
    fn malformed_and_duplicate_golden_lines_are_reported() {
        let diags = check_schema_against("not a schema line at all extra\nbad-hash 4 zzzz\n");
        assert!(diags
            .iter()
            .take(2)
            .all(|d| d.code == Code::SchemaMalformedGolden));
        assert_eq!(diags[0].span, "schema.golden:1");
        let dup = "cpu-id 8 0000000000000001\ncpu-id 8 0000000000000001\n";
        assert!(check_schema_against(dup)
            .iter()
            .any(|d| d.code == Code::SchemaMalformedGolden && d.message.contains("twice")));
    }
}
