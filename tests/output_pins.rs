//! Output pins: every built-in scenario's observable bytes, digested.
//!
//! Each of `certify_lint::builtin_scenarios()` runs a small traced
//! campaign (8 trials from seed `0xD52022`, every outcome dumped) and
//! its outputs are reduced to FNV-1a-64 digests
//! (`certify_lint::schema::fingerprint`):
//!
//! * `csv` — the streamed CSV bytes;
//! * `stats` — the `CampaignStats` wire bytes;
//! * `dumps` — every trace dump's wire bytes, concatenated in trial
//!   order (each encoding is self-delimiting);
//! * `records` — the `Display` of every `InjectionRecord` and
//!   `MemInjectionRecord`, one per line. This is the only pin on
//!   `filtered_call`.
//!
//! The other equivalence suites compare one engine mode against
//! another; this one compares the program against its own committed
//! output, so a refactor that changes bytes in every mode alike still
//! fails here. A deliberate output change regenerates the table from
//! the assertion message.

use certify_analysis::CsvSink;
use certify_core::campaign::Campaign;
use certify_core::{encode_to_vec, CollectSink, DumpPolicy, TraceConfig, TraceDump};
use certify_core::{TrialResult, TrialSink};
use certify_lint::schema::fingerprint;
use std::fmt::Write;

const TRIALS: usize = 8;
const BASE_SEED: u64 = 0xD5_2022;

/// Digests of one scenario's campaign output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    csv: u64,
    stats: u64,
    dumps: u64,
    records: u64,
}

/// `(scenario name, pin)` for every built-in scenario, in
/// `builtin_scenarios()` order.
const PINS: &[(&str, Pin)] = &[
    (
        "golden",
        Pin {
            csv: 0x730f5c6ae779640a,
            stats: 0x681e2f9f3872c8f3,
            dumps: 0x4318876ddd5f65ad,
            records: 0xcbf29ce484222325,
        },
    ),
    (
        "e1-root-high",
        Pin {
            csv: 0x45c6e2a1eb81d30e,
            stats: 0x615eb75edc329540,
            dumps: 0x351b7fba151d49f5,
            records: 0x46864f9b7f5e3021,
        },
    ),
    (
        "e2-nonroot-high",
        Pin {
            csv: 0xa88db9a1d147d50b,
            stats: 0xdcfb8647cf12ed5f,
            dumps: 0x3858ac1cfe8b6230,
            records: 0x62229b8ce0b745e9,
        },
    ),
    (
        "e2-boot-window",
        Pin {
            csv: 0x9b312f66f152a43a,
            stats: 0xa528c86ef73ad472,
            dumps: 0x6b9f143e7c360135,
            records: 0x69bc96804da003b1,
        },
    ),
    (
        "e3-fig3-medium",
        Pin {
            csv: 0x8081d41191e97b72,
            stats: 0x034185b763de73cd,
            dumps: 0xcfe6731571905c30,
            records: 0x69fa3632e6fee303,
        },
    ),
    (
        "e5a-watchdog",
        Pin {
            csv: 0xf03e766dc88cb3d5,
            stats: 0x2163d20987245586,
            dumps: 0x1a4872e5cdc3a8c7,
            records: 0xfbb762d9c56d50c7,
        },
    ),
    (
        "e5b-monitor",
        Pin {
            csv: 0x8f8aa81ee9a2e9aa,
            stats: 0x23ce23571e8e7b4b,
            dumps: 0x8c013491a55798dd,
            records: 0x69bc96804da003b1,
        },
    ),
    (
        "e7-mixed",
        Pin {
            csv: 0x6fc6d8d53f8e6e7b,
            stats: 0xacb05f08c2608d6b,
            dumps: 0x18afed1187740fdd,
            records: 0xe0818ddc13687890,
        },
    ),
    (
        "e6-mem-single-bit-flip",
        Pin {
            csv: 0x1b105261073303fd,
            stats: 0x180215cff5f120a1,
            dumps: 0x6b173ed75490413e,
            records: 0x7a24fb7e1a92d939,
        },
    ),
    (
        "e6-mem-double-bit-flip",
        Pin {
            csv: 0xbbd2e3e7ad58842c,
            stats: 0x3116d3a31cfc2521,
            dumps: 0x73a156b1db0e210b,
            records: 0x3455158cf75499f2,
        },
    ),
    (
        "e6-word-stuck-at",
        Pin {
            csv: 0x729f4469aa89155f,
            stats: 0x2f5768bbe7220000,
            dumps: 0xd2a605b10391b806,
            records: 0xa59e10a72ace56a2,
        },
    ),
    (
        "e6-page-burst",
        Pin {
            csv: 0x4c185bbac4b695e8,
            stats: 0x0cbd7f386751784a,
            dumps: 0x3e34503a6f48a61a,
            records: 0xdebf13801563f9b0,
        },
    ),
    (
        "e6-descriptor-invalidate",
        Pin {
            csv: 0x6b1d6585703b4b12,
            stats: 0x7b9e332a4226f904,
            dumps: 0x85c44ae6b2cdb398,
            records: 0x187a810308b1836a,
        },
    ),
    (
        "e6-comm-state-corrupt",
        Pin {
            csv: 0xa072e5c720df77c4,
            stats: 0x9c23c49633390988,
            dumps: 0x98bdff60892d0925,
            records: 0x5dfc473ae63f2067,
        },
    ),
    (
        "e6-mem-single-bit-flip",
        Pin {
            csv: 0x90bc5b300fb96c2a,
            stats: 0x0b254fdd06dbea1c,
            dumps: 0x72bbf42a69cb0845,
            records: 0x0a5b35f0e35c8f9f,
        },
    ),
    (
        "e6-mem-single-bit-flip",
        Pin {
            csv: 0x53eaa11f998eeb2e,
            stats: 0xabb9ed98b13d9cb5,
            dumps: 0x72bbf42a69cb0845,
            records: 0x8dc3cad40312ef25,
        },
    ),
    (
        "e6-mem-single-bit-flip",
        Pin {
            csv: 0xa90717beabf9ae42,
            stats: 0xe8d46a61aaad6930,
            dumps: 0x413b8efd3fcce9ca,
            records: 0x127a52c6961e3f2b,
        },
    ),
    (
        "e6-mem-single-bit-flip",
        Pin {
            csv: 0x844602f01c37650d,
            stats: 0xc011331e613d5d2c,
            dumps: 0xe0ea9b03d97f3a4d,
            records: 0xdf76ac8463c5c8b2,
        },
    ),
    (
        "e6-mem-single-bit-flip",
        Pin {
            csv: 0x699c9d8cfb97665a,
            stats: 0x65933ed7666cb6d8,
            dumps: 0xec2df693773190cd,
            records: 0xe3631d5ea097247e,
        },
    ),
    (
        "e6-mem-single-bit-flip",
        Pin {
            csv: 0x3b9226d0be7f986b,
            stats: 0x996c8e7674192848,
            dumps: 0x1e02eac0fff232f9,
            records: 0x4338c9414c3cc32c,
        },
    ),
];

/// Rows and dumps for the record and dump digests, CSV bytes for the
/// CSV digest, in one pass.
struct Delivered {
    collect: CollectSink,
    csv: CsvSink<Vec<u8>>,
}

impl TrialSink for Delivered {
    fn accept(&mut self, seq: usize, trial: TrialResult) {
        self.csv.accept(seq, trial.clone());
        self.collect.accept(seq, trial);
    }

    fn accept_dump(&mut self, seq: usize, dump: TraceDump) {
        self.collect.accept_dump(seq, dump);
    }
}

fn pin_of(campaign: &Campaign) -> Pin {
    let mut delivered = Delivered {
        collect: CollectSink::new(),
        csv: CsvSink::in_memory(),
    };
    let (stats, _) = campaign.execute(.., 2, &mut delivered, None);
    let (trials, dumps) = delivered.collect.into_parts();
    assert_eq!(trials.len(), TRIALS);
    assert_eq!(dumps.len(), TRIALS, "every outcome dumps");

    let mut dump_bytes = Vec::new();
    for (_, dump) in &dumps {
        dump_bytes.extend(encode_to_vec(dump));
    }
    let mut records = String::new();
    for trial in &trials {
        for record in &trial.report.injections {
            writeln!(records, "{} {record}", trial.seed).unwrap();
        }
        for record in &trial.report.mem_injections {
            writeln!(records, "{} {record}", trial.seed).unwrap();
        }
    }
    Pin {
        csv: fingerprint(delivered.csv.into_csv().as_bytes()),
        stats: fingerprint(&encode_to_vec(&stats)),
        dumps: fingerprint(&dump_bytes),
        records: fingerprint(records.as_bytes()),
    }
}

#[test]
fn builtin_scenario_outputs_match_their_pins() {
    let policy = TraceConfig::new().with_policy(DumpPolicy::all_outcomes());
    let actual: Vec<(String, Pin)> = certify_lint::builtin_scenarios()
        .into_iter()
        .map(|scenario| {
            let name = scenario.name.clone();
            let campaign = Campaign::new(scenario, TRIALS, BASE_SEED).with_trace(policy.clone());
            (name, pin_of(&campaign))
        })
        .collect();
    assert_eq!(actual.len(), 20, "one pin per built-in scenario");

    let mut table = String::new();
    for (name, pin) in &actual {
        writeln!(
            table,
            "    (\n        {name:?},\n        Pin {{\n            csv: {:#018x},\n            \
             stats: {:#018x},\n            dumps: {:#018x},\n            records: {:#018x},\n        \
             }},\n    ),",
            pin.csv, pin.stats, pin.dumps, pin.records
        )
        .unwrap();
    }
    let pinned: Vec<(String, Pin)> = PINS
        .iter()
        .map(|&(name, pin)| (name.to_string(), pin))
        .collect();
    assert!(
        actual == pinned,
        "campaign output changed; if deliberate, replace PINS with:\n{table}"
    );
}
