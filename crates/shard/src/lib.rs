//! `certify-shard` — multi-process sharded campaign execution.
//!
//! The execution tier above `Campaign::execute`: where the in-process
//! engine spreads trials over threads, this crate
//! spreads them over **OS processes** — the architecture that scales
//! a fault-injection campaign past one address space and, with a
//! socket instead of a pipe, past one machine. A campaign's trials
//! are self-contained (seeded `base_seed + i`), so the unit of
//! distribution is a contiguous seed range:
//!
//! ```text
//!                       ┌────────────────────┐
//!                       │    coordinator     │  merged CampaignStats
//!                       │ (this process)     │  + seed-ordered CSV
//!                       └──┬──────┬──────┬───┘
//!            handshake ↓ / │rows  │      │     length-prefixed,
//!            rows+stats ↑  │      │      │     CRC-checked frames
//!                       ┌──┴──┐┌──┴──┐┌──┴──┐  over stdin/stdout
//!                       │ wkr ││ wkr ││ wkr │
//!                       │ 0..k││k..2k││2k..n│  one seed range each
//!                       └─────┘└─────┘└─────┘
//! ```
//!
//! * [`protocol`] — the versioned, length-prefixed, CRC-per-frame
//!   binary wire protocol (handshake, trial-row, trace-prefix,
//!   trace-dump, stats, done);
//! * [`worker`] — the worker-process runner: [`worker::RemoteSink`]
//!   (a `TrialSink` that frames CSV rows over a pipe) plus
//!   [`worker::run_worker`], the whole `shard_worker` conversation;
//! * [`coordinator`] — [`coordinator::run_sharded`]: partitions the
//!   seed space, spawns workers, multiplexes their streams back into
//!   global seed order, folds shard stats with `CampaignStats::merge`
//!   and re-runs the range of any worker that dies or violates the
//!   protocol.
//!
//! Each worker runs its range through `Campaign::execute` on one
//! worker, on its own main thread. Sharded output is
//! **bit-identical** to single-process `Campaign::execute` output — stats and CSV bytes — including when a
//! worker is SIGKILLed mid-run and its shard re-executed (pinned by
//! this crate's end-to-end tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use coordinator::{
    partition, resolve_worker, run_sharded, run_sharded_observed, ShardError, ShardOptions,
    ShardedRun, ShippedDump,
};
pub use protocol::{crc32, read_frame, write_frame, Frame, Handshake, ProtocolError, TracePrefix};
pub use worker::{run_worker, RemoteSink, WorkerError};
