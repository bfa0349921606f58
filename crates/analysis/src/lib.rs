//! Log analytics and report rendering.
//!
//! Figure 2 of the paper ends in "*Log file → Analytics*": the serial
//! capture is mined for evidence and aggregated into the tables and
//! the availability chart (Figure 3). This crate is that stage:
//!
//! * [`export`] — per-trial CSV, buffered ([`campaign_to_csv`]) or
//!   row-streaming ([`CsvSink`], a `TrialSink` that drops each report
//!   after writing its row);
//! * [`figure`] — Figure 3 regeneration: outcome distributions as
//!   aligned tables, ASCII bar charts and CSV, with the paper's
//!   reported shares next to the measured ones, built from
//!   `CampaignStats`;
//! * [`report`] — per-experiment textual reports combining all of the
//!   above, built from `CampaignStats`;
//! * [`goldendiff`] — trace-level propagation analysis: an anomalous
//!   trial's flight-recorder dump diffed against a fault-free re-run
//!   of the same seed, pinpointing the first divergent event;
//! * [`timeline`] — one run's injections, hypervisor events and serial
//!   log merged into a single step-ordered trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod figure;
pub mod goldendiff;
pub mod report;
pub mod timeline;

pub use export::{campaign_to_csv, trial_to_csv_row, CsvSink, CSV_HEADER};
pub use figure::{Figure3, PAPER_FIG3_SHARES};
pub use goldendiff::{golden_diff, Divergence, GoldenDiff};
pub use report::ExperimentReport;
pub use timeline::{Timeline, TimelineEntry};
