//! The shard coordinator: partitions, spawns, multiplexes, recovers.
//!
//! [`run_sharded`] executes one [`Campaign`] as N OS worker processes
//! plus this coordinating process:
//!
//! 1. **Partition.** The trial index space `0..trials` is split into
//!    N contiguous near-equal ranges. Trials are self-contained
//!    (seeded `base_seed + i`), so a shard is just a sub-range.
//! 2. **Spawn.** Each shard gets a `shard_worker` process
//!    ([`std::process::Command`]); the handshake (scenario + range)
//!    goes down its stdin, row/stats frames come back up its stdout.
//! 3. **Multiplex.** A reader thread per shard parses frames and
//!    appends rows to that shard's queue. Each worker streams its
//!    contiguous range in strict order, so the consumer delivers in
//!    seed order by emptying the queues shard by shard — the same
//!    delivery contract as the threaded `Campaign::execute`, one level
//!    up. A per-shard queue cap applies pipe backpressure to workers
//!    running far ahead of the delivery front.
//! 4. **Fold.** Each shard's final `Done` stats are merged in shard
//!    order with [`CampaignStats::merge`]; the result (and the
//!    concatenated CSV) is bit-identical to a single-process
//!    `Campaign::execute` over the whole campaign.
//! 5. **Recover.** A shard that dies or violates the protocol —
//!    non-zero exit, EOF before `Done`, CRC mismatch, out-of-order or
//!    out-of-range rows, a trace dump that does not fit its attempt's
//!    trace prefix, a `Done` whose counts disagree with the range — is
//!    re-run from scratch on a fresh worker. Rows are
//!    deterministic functions of their seed, so already-delivered
//!    rows stay valid and re-received ones are dropped; output bytes
//!    are identical whether or not a worker died mid-run.
//!
//! Known limitation: there is no read *timeout* — a worker that is
//! alive but silent (a trial that never terminates) blocks its
//! reader, exactly as the same trial would block the in-process
//! engine. Detecting wedged-but-alive workers (e.g. a stats-frame
//! heartbeat deadline) is future transport work.

use crate::protocol::{read_frame, write_frame, Frame, Handshake, ProtocolError, TracePrefix};
use certify_core::telemetry::outcome_rows;
use certify_core::{Campaign, CampaignStats, TraceDump};
use certify_lint::{certify_scenario, has_errors, lint_partition, lint_scenario, Diagnostic};
use certify_obs::{
    Clock, CountingReader, ProgressObserver, ProgressSnapshot, ProgressTracker, ShardMetrics,
};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};

/// How a sharded run is executed.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Worker process count (clamped to at least 1 and at most the
    /// trial count).
    pub shards: usize,
    /// Workers snapshot stats every this many rows (0 = only the
    /// final `Done` stats).
    pub stats_every: u64,
    /// Attempts per shard (first run + retries) before the campaign
    /// fails.
    pub max_attempts: u32,
    /// The worker executable. `None` resolves `shard_worker` via
    /// [`resolve_worker`].
    pub worker: Option<PathBuf>,
    /// Deliberately SIGKILL one shard's first-attempt worker after it
    /// has produced this many rows — the recovery path's test hook.
    pub sabotage: Option<Sabotage>,
    /// Per-shard queue cap: a shard may have at most this many
    /// undelivered rows queued before its reader stops draining the
    /// pipe (backpressuring the worker) until the consumer takes rows
    /// from the queue.
    pub buffered_rows_per_shard: usize,
}

impl ShardOptions {
    /// Defaults for `shards` worker processes.
    pub fn new(shards: usize) -> ShardOptions {
        ShardOptions {
            shards,
            stats_every: 256,
            max_attempts: 3,
            worker: None,
            sabotage: None,
            buffered_rows_per_shard: 65_536,
        }
    }

    /// Replaces the worker executable (builder style).
    pub fn with_worker(mut self, worker: impl Into<PathBuf>) -> ShardOptions {
        self.worker = Some(worker.into());
        self
    }

    /// Arms the kill-one-worker test hook (builder style).
    pub fn with_sabotage(mut self, shard: usize, after_rows: u64) -> ShardOptions {
        self.sabotage = Some(Sabotage { shard, after_rows });
        self
    }
}

/// The coordinator-driven worker-kill test hook: SIGKILL shard
/// `shard`'s first attempt after `after_rows` rows, forcing the
/// recovery path.
#[derive(Debug, Clone, Copy)]
pub struct Sabotage {
    /// Shard index to kill.
    pub shard: usize,
    /// Rows to accept from it first.
    pub after_rows: u64,
}

/// What a completed sharded run produced.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The merged campaign stats — identical to a single-process
    /// `Campaign::execute` of the same campaign.
    pub stats: CampaignStats,
    /// Rows delivered (== the campaign's trial count).
    pub rows: u64,
    /// The contiguous `(start, len)` range each shard executed.
    pub shard_ranges: Vec<(usize, usize)>,
    /// Transport metrics merged across all shards: rows, frames,
    /// frame bytes, CRC rejects, retries (failed worker attempts, the
    /// last of a failed shard included: a healthy run reports 0, a
    /// sabotaged one at least 1) and wasted re-run trials.
    /// Counters are always collected (they are deterministic counts);
    /// `elapsed_ns` (and thus `rows_per_sec`) is populated only by
    /// [`run_sharded_observed`], which has a clock.
    pub metrics: ShardMetrics,
    /// The same metrics, per shard.
    pub shard_metrics: Vec<ShardMetrics>,
    /// Trace dumps received from the workers, as `(seq, dump)` in
    /// global seed order (empty unless the campaign was traced
    /// with [`Campaign::with_trace`]). Each is held as it came off the
    /// wire: one trace prefix per worker attempt, shared by that
    /// attempt's dumps, plus each dump's own post-fork suffix. That
    /// bounds their memory by one ring per attempt plus the suffixes,
    /// not one ring per dump. [`ShippedDump::dump`] rebuilds a dump
    /// byte-identical to the one the same seed's trial run from step 0
    /// captures — pinned by the equivalence harness that
    /// `crates/shard/tests/sharded.rs` runs.
    pub dumps: Vec<(u64, ShippedDump)>,
}

/// A trace dump as the coordinator received it: the post-fork suffix,
/// already [checked](TracePrefix::check_suffix) against the trace
/// prefix of the worker attempt that sent it, and that prefix, shared
/// with the attempt's other dumps.
#[derive(Debug, Clone)]
pub struct ShippedDump {
    prefix: Arc<TracePrefix>,
    capacity: usize,
    suffix: TraceDump,
}

impl ShippedDump {
    /// Checks `suffix` against `prefix` for a ring of `capacity`.
    fn new(
        prefix: &Arc<TracePrefix>,
        capacity: usize,
        suffix: TraceDump,
    ) -> Result<ShippedDump, String> {
        prefix.check_suffix(capacity, &suffix)?;
        Ok(ShippedDump {
            prefix: Arc::clone(prefix),
            capacity,
            suffix,
        })
    }

    /// The whole dump the worker's engine captured, rebuilt from the
    /// prefix and the suffix ([`TracePrefix::rebuild`]).
    pub fn dump(&self) -> TraceDump {
        self.prefix.rebuild(self.capacity, &self.suffix)
    }

    /// The trace prefix of the worker attempt that sent this dump.
    pub fn prefix(&self) -> &Arc<TracePrefix> {
        &self.prefix
    }

    /// The events the trial recorded after the fork, as the ring kept
    /// them, with the whole dump's `seed`, `scenario`, `outcome` and
    /// `total`.
    pub fn suffix(&self) -> &TraceDump {
        &self.suffix
    }
}

/// Why a sharded run failed.
#[derive(Debug)]
pub enum ShardError {
    /// The campaign's scenario failed static analysis: running it
    /// would burn worker processes on a campaign that certifies
    /// nothing. The diagnostics say what is wrong.
    BadScenario(Vec<Diagnostic>),
    /// The shard partition failed validation (overlap, gap, or
    /// out-of-bounds range): rows would collide or go missing.
    BadPartition(Vec<Diagnostic>),
    /// No worker executable could be resolved.
    NoWorker(String),
    /// A shard exhausted its attempts.
    ShardFailed {
        /// The failing shard.
        shard: usize,
        /// Attempts made.
        attempts: u32,
        /// The last attempt's failure.
        last_error: String,
    },
    /// Writing the coordinator's own CSV output failed.
    Output(io::Error),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::BadScenario(diags) => {
                write!(f, "scenario failed static analysis: ")?;
                fmt_diagnostics(f, diags)
            }
            ShardError::BadPartition(diags) => {
                write!(f, "shard partition failed validation: ")?;
                fmt_diagnostics(f, diags)
            }
            ShardError::NoWorker(e) => write!(f, "no shard worker executable: {e}"),
            ShardError::ShardFailed {
                shard,
                attempts,
                last_error,
            } => write!(
                f,
                "shard {shard} failed after {attempts} attempt(s): {last_error}"
            ),
            ShardError::Output(e) => write!(f, "writing coordinator output failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Renders a diagnostic list as one `;`-joined line for error text.
fn fmt_diagnostics(f: &mut fmt::Formatter<'_>, diags: &[Diagnostic]) -> fmt::Result {
    for (i, diag) in diags.iter().enumerate() {
        if i > 0 {
            write!(f, "; ")?;
        }
        write!(f, "{diag}")?;
    }
    Ok(())
}

/// Locates the `shard_worker` executable: the `CERTIFY_SHARD_WORKER`
/// environment variable if set, else a binary named `shard_worker`
/// next to the current executable or one directory up (which covers
/// `target/<profile>/deps/<test>` → `target/<profile>/shard_worker`).
pub fn resolve_worker() -> Result<PathBuf, String> {
    if let Some(path) = std::env::var_os("CERTIFY_SHARD_WORKER") {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe failed: {e}"))?;
    let mut dir = exe.parent();
    for _ in 0..2 {
        let Some(d) = dir else { break };
        let candidate = d.join("shard_worker");
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent();
    }
    Err(format!(
        "no `shard_worker` next to {} — build it with `cargo build -p certify_shard` \
         or point CERTIFY_SHARD_WORKER at it",
        exe.display()
    ))
}

/// Splits `trials` into `shards` contiguous near-equal `(start, len)`
/// ranges covering `0..trials` exactly.
pub fn partition(trials: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, trials.max(1));
    (0..shards)
        .map(|i| {
            let start = i * trials / shards;
            let end = (i + 1) * trials / shards;
            (start, end - start)
        })
        .collect()
}

/// One shard's rows and dumps on their way to the consumer, in seed
/// order. A retried attempt re-sends the shard's range from its start;
/// the re-sent copies are byte-identical (same seed), so only what lies
/// past what the queue already held is kept.
#[derive(Default)]
struct ShardQueue {
    /// Received rows the consumer has not taken yet.
    rows: VecDeque<Vec<u8>>,
    /// Rows this queue ever held, the delivered ones included.
    held: u64,
    /// Trace dumps received, as `(seq, dump)`.
    dumps: Vec<(u64, ShippedDump)>,
}

/// Shared coordinator state behind one mutex.
struct Coord {
    /// Each shard's queue.
    queues: Vec<ShardQueue>,
    /// Each shard's final stats, once its `Done` frame validated.
    done: Vec<Option<CampaignStats>>,
    /// Per-shard transport metrics, folded in by each attempt.
    metrics: Vec<ShardMetrics>,
    /// Progress snapshots queued by shard readers for the consumer to
    /// hand to the observer (empty unless the run is observed).
    snapshots: VecDeque<ProgressSnapshot>,
    /// First fatal error; set alongside `abort`.
    fatal: Option<ShardError>,
    /// Everyone should stop.
    abort: bool,
}

impl Coord {
    fn set_fatal(&mut self, error: ShardError) {
        if self.fatal.is_none() {
            self.fatal = Some(error);
        }
        self.abort = true;
    }
}

/// The coordinator state and its two wake-up channels: `ready` wakes
/// the consumer (a row or completion arrived), `space` wakes
/// backpressured readers (the consumer took a row).
struct Signals {
    state: Mutex<Coord>,
    ready: Condvar,
    space: Condvar,
}

impl Signals {
    /// Empty state for `shards` shards.
    fn new(shards: usize) -> Signals {
        Signals {
            state: Mutex::new(Coord {
                queues: (0..shards).map(|_| ShardQueue::default()).collect(),
                done: vec![None; shards],
                metrics: vec![ShardMetrics::default(); shards],
                snapshots: VecDeque::new(),
                fatal: None,
                abort: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Sets a fatal error and wakes every thread.
    fn fail(&self, error: ShardError) {
        self.state
            .lock()
            .expect("coordinator lock")
            .set_fatal(error);
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// Runs `campaign` across worker processes, streaming the campaign's
/// CSV rows (header first, strict seed order) into `csv_out` when
/// given, and returns the merged stats.
///
/// The output — stats and CSV bytes — is identical to single-process
/// [`Campaign::execute`] with a `CsvSink`, whatever the shard
/// count, OS scheduling, or mid-run worker deaths survived via
/// re-execution.
pub fn run_sharded(
    campaign: &Campaign,
    opts: &ShardOptions,
    csv_out: Option<&mut dyn Write>,
) -> Result<ShardedRun, ShardError> {
    run_sharded_engine(campaign, opts, csv_out, None)
}

/// [`run_sharded`] with live observability: each worker's periodic
/// `Stats` frames become per-shard [`ProgressSnapshot`]s (source =
/// the shard index) delivered to `observer` from the consumer thread,
/// followed by one final whole-campaign snapshot (source = `None`),
/// and the returned [`ShardedRun::metrics`] carry per-shard elapsed
/// time and rows/sec taken on `clock`.
///
/// Telemetry never feeds back into execution: stats, CSV bytes and
/// delivery order are identical to an unobserved [`run_sharded`].
pub fn run_sharded_observed(
    campaign: &Campaign,
    opts: &ShardOptions,
    csv_out: Option<&mut dyn Write>,
    clock: &(dyn Clock + Sync),
    observer: &mut dyn ProgressObserver,
) -> Result<ShardedRun, ShardError> {
    run_sharded_engine(campaign, opts, csv_out, Some((clock, observer)))
}

/// The coordinator behind both public entry points; `telemetry: None`
/// skips clocks and snapshots but still counts transport metrics.
fn run_sharded_engine(
    campaign: &Campaign,
    opts: &ShardOptions,
    mut csv_out: Option<&mut dyn Write>,
    telemetry: Option<(&(dyn Clock + Sync), &mut dyn ProgressObserver)>,
) -> Result<ShardedRun, ShardError> {
    // Split the bundle so shard readers can share the clock while the
    // consumer holds the observer mutably.
    let (clock, mut observer) = match telemetry {
        Some((clock, observer)) => (Some(clock), Some(observer)),
        None => (None, None),
    };
    // Refuse a statically broken scenario before touching a worker:
    // a dead-window or unsatisfiable-rate campaign would complete
    // green across every shard and certify nothing.
    let scenario_diags = lint_scenario(campaign.scenario());
    if has_errors(&scenario_diags) {
        return Err(ShardError::BadScenario(scenario_diags));
    }
    // Derive the pre-flight certificate. Error-severity certificate
    // findings (a provably-zero budget, cell ops the hypervisor must
    // reject) refuse the run before any worker spawns; the
    // fingerprint rides every handshake so each worker can verify it
    // derives the same abstract interpretation from the shipped
    // scenario.
    let (certificate, certificate_diags) = certify_scenario(campaign.scenario());
    if has_errors(&certificate_diags) {
        return Err(ShardError::BadScenario(certificate_diags));
    }
    let certificate_fingerprint = certificate.fingerprint();
    let worker = match &opts.worker {
        Some(path) => path.clone(),
        None => resolve_worker().map_err(ShardError::NoWorker)?,
    };
    if let Some(out) = csv_out.as_deref_mut() {
        out.write_all(certify_analysis::export::CSV_HEADER.as_bytes())
            .map_err(ShardError::Output)?;
    }

    let trials = campaign.trials();
    let ranges = partition(trials, opts.shards);
    // Validate the partition contract — contiguous, non-overlapping,
    // exactly covering `0..trials` — before spawning anything.
    let partition_diags = lint_partition(0, trials, &ranges);
    if has_errors(&partition_diags) {
        return Err(ShardError::BadPartition(partition_diags));
    }
    if trials == 0 {
        return Ok(ShardedRun {
            stats: CampaignStats::new(campaign.scenario().name.clone()),
            rows: 0,
            shard_ranges: Vec::new(),
            metrics: ShardMetrics::default(),
            shard_metrics: Vec::new(),
            dumps: Vec::new(),
        });
    }

    let tracker = clock.map(|clock| ProgressTracker::new(clock, None, trials as u64));

    let signals = Signals::new(ranges.len());

    std::thread::scope(|scope| {
        for (shard, &(start, len)) in ranges.iter().enumerate() {
            let (signals, worker, campaign, opts) = (&signals, &worker, campaign, opts);
            scope.spawn(move || {
                run_shard(
                    signals,
                    worker,
                    campaign,
                    opts,
                    shard,
                    start,
                    len,
                    certificate_fingerprint,
                    clock,
                );
            });
        }
        // The caller's thread is the consumer: deliver the rows in
        // global seed order.
        deliver_rows(&signals, &ranges, csv_out, observer.as_deref_mut());
    });

    let state = signals.state.into_inner().expect("coordinator lock");
    if let Some(fatal) = state.fatal {
        return Err(fatal);
    }
    let mut stats = CampaignStats::new(campaign.scenario().name.clone());
    for shard_stats in state.done.iter().flatten() {
        stats.merge(shard_stats);
    }
    let mut metrics = ShardMetrics::default();
    for shard_metrics in &state.metrics {
        metrics.merge(shard_metrics);
    }
    if let (Some(tracker), Some(observer)) = (&tracker, observer) {
        // The closing whole-campaign snapshot: every row delivered,
        // outcomes from the merged stats.
        let snapshot = tracker.snapshot(trials as u64, outcome_rows(&stats.distribution));
        observer.on_progress(&snapshot);
    }
    Ok(ShardedRun {
        stats,
        rows: trials as u64,
        shard_ranges: ranges,
        metrics,
        shard_metrics: state.metrics,
        dumps: state.queues.into_iter().flat_map(|q| q.dumps).collect(),
    })
}

/// The consumer loop: deliver every shard's rows, shard by shard (the
/// shards cover the trial space in order, so this is seed order), hand
/// queued progress snapshots to `observer`, then wait for every shard's
/// `Done` stats.
fn deliver_rows(
    signals: &Signals,
    ranges: &[(usize, usize)],
    mut csv_out: Option<&mut dyn Write>,
    // The explicit `+ '_` object bound keeps the observer reborrowable
    // by the caller after this returns (`&mut dyn Trait` is invariant
    // in the trait object's default lifetime).
    mut observer: Option<&mut (dyn ProgressObserver + '_)>,
) {
    // The shard each row in seed order comes from.
    let mut shards = ranges
        .iter()
        .enumerate()
        .flat_map(|(shard, &(_, len))| std::iter::repeat_n(shard, len));
    let mut next = shards.next();
    // Snapshots drained under the lock, emitted outside it — observer
    // code must never run while holding the coordinator mutex.
    let mut pending: Vec<ProgressSnapshot> = Vec::new();
    let mut emit = |pending: &mut Vec<ProgressSnapshot>| {
        for snapshot in pending.drain(..) {
            if let Some(observer) = observer.as_deref_mut() {
                observer.on_progress(&snapshot);
            }
        }
    };
    loop {
        let mut state = signals.state.lock().expect("coordinator lock");
        pending.extend(state.snapshots.drain(..));
        if state.abort {
            return;
        }
        let row = match next {
            Some(shard) => state.queues[shard].rows.pop_front(),
            // All rows are out; wait for the last `Done` frames.
            None if state.done.iter().all(Option::is_some) => {
                drop(state);
                emit(&mut pending);
                return;
            }
            None => None,
        };
        let Some(row) = row else {
            if pending.is_empty() {
                drop(signals.ready.wait(state).expect("coordinator lock"));
            } else {
                drop(state);
                emit(&mut pending);
            }
            continue;
        };
        drop(state);
        signals.space.notify_all();
        emit(&mut pending);
        if let Some(out) = csv_out.as_deref_mut() {
            if let Err(e) = out.write_all(&row) {
                signals.fail(ShardError::Output(e));
                return;
            }
        }
        next = shards.next();
    }
}

/// One shard's lifecycle: spawn, stream, validate, retry.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    signals: &Signals,
    worker: &PathBuf,
    campaign: &Campaign,
    opts: &ShardOptions,
    shard: usize,
    start: usize,
    len: usize,
    certificate_fingerprint: u64,
    clock: Option<&(dyn Clock + Sync)>,
) {
    let started_ns = clock.map(|clock| clock.now_ns());
    for attempt in 1..=opts.max_attempts.max(1) {
        if signals.state.lock().expect("coordinator lock").abort {
            return;
        }
        let sabotage = opts
            .sabotage
            .filter(|s| s.shard == shard && attempt == 1)
            .map(|s| s.after_rows);
        match run_attempt(
            signals,
            worker,
            campaign,
            opts,
            shard,
            start,
            len,
            certificate_fingerprint,
            sabotage,
            clock,
        ) {
            Ok(()) => {
                if let (Some(clock), Some(started_ns)) = (clock, started_ns) {
                    let elapsed = clock.now_ns().saturating_sub(started_ns);
                    let mut state = signals.state.lock().expect("coordinator lock");
                    state.metrics[shard].elapsed_ns.set(elapsed);
                }
                return;
            }
            Err(last_error) if attempt == opts.max_attempts.max(1) => {
                signals.fail(ShardError::ShardFailed {
                    shard,
                    attempts: attempt,
                    last_error,
                });
                return;
            }
            Err(_) => {}
        }
    }
}

/// Reaps a worker we no longer trust.
fn discard_child(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// One worker attempt over the shard's full range. `Ok(())` means the
/// shard's rows are all queued and its validated `Done` stats are
/// recorded; any `Err` leaves the shard's queue consistent (rows
/// already queued stay — they are deterministic in the seed — and the
/// retry simply queues the rest). The attempt's transport metrics fold
/// into the shard's whatever its fate: a failed attempt, one that never
/// spawned included, is a retry whose received rows must be re-run.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    signals: &Signals,
    worker: &PathBuf,
    campaign: &Campaign,
    opts: &ShardOptions,
    shard: usize,
    start: usize,
    len: usize,
    certificate_fingerprint: u64,
    sabotage: Option<u64>,
    clock: Option<&(dyn Clock + Sync)>,
) -> Result<(), String> {
    let mut wire = Wire::default();
    let result = stream_attempt(
        signals,
        worker,
        campaign,
        opts,
        shard,
        start,
        len,
        certificate_fingerprint,
        sabotage,
        clock,
        &mut wire,
    );
    let mut state = signals.state.lock().expect("coordinator lock");
    let metrics = &mut state.metrics[shard];
    metrics.frames.add(wire.frames);
    metrics.frame_bytes.add(wire.bytes);
    metrics.crc_rejects.add(wire.crc_rejects);
    match &result {
        Ok(true) => metrics.rows.add(len as u64),
        Ok(false) => {}
        Err(_) => {
            metrics.retries.inc();
            metrics.wasted_rerun_trials.add(wire.rows);
        }
    }
    result.map(|_| ())
}

/// What one attempt read off its worker's pipe.
#[derive(Default)]
struct Wire {
    frames: u64,
    bytes: u64,
    crc_rejects: u64,
    rows: u64,
}

/// The body of [`run_attempt`]: spawns the worker, streams its frames
/// into the shard's queue and counts them in `wire`. `Ok(true)` is a
/// validated `Done`; `Ok(false)` means the run was aborted elsewhere.
#[allow(clippy::too_many_arguments)]
fn stream_attempt(
    signals: &Signals,
    worker: &PathBuf,
    campaign: &Campaign,
    opts: &ShardOptions,
    shard: usize,
    start: usize,
    len: usize,
    certificate_fingerprint: u64,
    sabotage: Option<u64>,
    clock: Option<&(dyn Clock + Sync)>,
    wire: &mut Wire,
) -> Result<bool, String> {
    let mut child = Command::new(worker)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {} failed: {e}", worker.display()))?;

    // Ship the handshake. A worker that died instantly surfaces here
    // as a broken pipe — the normal failure path.
    let handshake = Frame::Handshake(Handshake {
        scenario: campaign.scenario().clone(),
        base_seed: campaign.base_seed(),
        start_trial: start as u64,
        len: len as u64,
        stats_every: opts.stats_every,
        certificate_fingerprint,
        trace: campaign.trace().cloned(),
    });
    {
        let mut stdin = child.stdin.take().expect("stdin was piped");
        if let Err(e) = write_frame(&mut stdin, &handshake).and_then(|()| stdin.flush()) {
            discard_child(child);
            return Err(format!("writing handshake failed: {e}"));
        }
    }

    let stdout = child.stdout.take().expect("stdout was piped");
    // Count the bytes pulled off the pipe underneath the frame
    // buffer: for a drained stream this is the shard's wire volume.
    let mut frames = io::BufReader::new(CountingReader::new(stdout));
    let end = (start + len) as u64;
    let mut expected = start as u64;
    let mut killed = false;
    let tracker = clock.map(|clock| ProgressTracker::new(clock, Some(shard as u32), len as u64));
    // The ring capacity dumps are checked against, and this attempt's
    // trace prefix once its frame has arrived and checked out.
    let capacity = campaign.trace().map(|config| config.capacity.max(1));
    let mut prefix: Option<Arc<TracePrefix>> = None;
    // `Ok(Some(stats))` = clean done frame; `Ok(None)` = the run was
    // aborted elsewhere and this reader is dying quietly.
    let outcome = loop {
        let frame = match read_frame(&mut frames) {
            Ok(Some(frame)) => {
                wire.frames += 1;
                frame
            }
            Ok(None) => break Err("worker stream ended before its done frame".into()),
            Err(e) => {
                if matches!(e, ProtocolError::BadCrc { .. }) {
                    wire.crc_rejects += 1;
                }
                break Err(format!("worker stream failed: {e}"));
            }
        };
        match frame {
            Frame::TrialRow { seq, row } => {
                if seq != expected || seq >= end {
                    break Err(format!(
                        "row sequence violation: got {seq}, expected {expected} in [{start}, {end})"
                    ));
                }
                expected += 1;
                wire.rows += 1;
                let mut state = signals.state.lock().expect("coordinator lock");
                // A row the queue already held came from an earlier
                // attempt; this copy is dropped.
                let fresh = wire.rows > state.queues[shard].held;
                // Backpressure: cap this shard's undelivered rows.
                while fresh
                    && !state.abort
                    && state.queues[shard].rows.len() >= opts.buffered_rows_per_shard.max(1)
                {
                    state = signals.space.wait(state).expect("coordinator lock");
                }
                if state.abort {
                    drop(state);
                    break Ok(None); // dying quietly; fatal is already set
                }
                if fresh {
                    let queue = &mut state.queues[shard];
                    queue.rows.push_back(row);
                    queue.held += 1;
                    drop(state);
                    signals.ready.notify_all();
                }
                if sabotage == Some(wire.rows) {
                    // The test hook: SIGKILL the worker mid-stream and
                    // let the normal failure detection see the corpse.
                    let _ = child.kill();
                    killed = true;
                }
            }
            Frame::TracePrefix(received_prefix) => {
                let Some(capacity) = capacity else {
                    break Err("trace-prefix frame on an untraced campaign".into());
                };
                if prefix.is_some() {
                    break Err("second trace-prefix frame in one attempt".into());
                }
                if let Err(error) = received_prefix.check(capacity) {
                    break Err(error);
                }
                prefix = Some(Arc::new(received_prefix));
            }
            Frame::TraceDump { seq, dump } => {
                // A dump frame must ride directly behind its own row.
                if seq.checked_add(1) != Some(expected) {
                    break Err(format!(
                        "trace-dump for trial {seq} did not follow its row (next row: {expected})"
                    ));
                }
                let (Some(prefix), Some(capacity)) = (&prefix, capacity) else {
                    break Err(format!(
                        "trace-dump for trial {seq} before the trace prefix"
                    ));
                };
                let dump = match ShippedDump::new(prefix, capacity, dump) {
                    Ok(dump) => dump,
                    Err(error) => break Err(format!("trace-dump for trial {seq}: {error}")),
                };
                let mut state = signals.state.lock().expect("coordinator lock");
                // Dumps arrive in seed order, so one at or below the
                // queue's last is a retried attempt's copy.
                let dumps = &mut state.queues[shard].dumps;
                if dumps.last().is_none_or(|&(last, _)| last < seq) {
                    dumps.push((seq, dump));
                }
            }
            Frame::Stats { rows, stats } => {
                if rows != wire.rows {
                    break Err(format!(
                        "stats frame claims {rows} rows, coordinator saw {}",
                        wire.rows
                    ));
                }
                if let Some(tracker) = &tracker {
                    // The worker's periodic snapshot becomes a live
                    // per-shard progress report, queued for the
                    // consumer to hand to the observer.
                    let snapshot = tracker.snapshot(wire.rows, outcome_rows(&stats.distribution));
                    let mut state = signals.state.lock().expect("coordinator lock");
                    state.snapshots.push_back(snapshot);
                    drop(state);
                    signals.ready.notify_all();
                }
            }
            Frame::Done { rows, stats } => {
                if rows != len as u64 || expected != end {
                    break Err(format!(
                        "done frame after {} of {len} rows (claims {rows})",
                        wire.rows
                    ));
                }
                if stats.trials != len {
                    break Err(format!(
                        "done stats cover {} trials, shard has {len}",
                        stats.trials
                    ));
                }
                break Ok(Some(stats));
            }
            frame => break Err(format!("unexpected {} frame", frame.name())),
        }
    };

    let result = match outcome {
        // A fast worker can win the race against the sabotage SIGKILL
        // and still deliver a clean `Done`; the attempt must count as
        // failed anyway so the recovery path is exercised
        // deterministically (its rows stay valid either way).
        Ok(Some(_)) if killed => {
            discard_child(child);
            Err("worker was killed mid-run (sabotage hook)".into())
        }
        Ok(Some(stats)) => {
            // A clean `Done` must be followed by EOF and exit 0 —
            // anything else and the worker disagrees with its own
            // shutdown frame.
            let trailing = read_frame(&mut frames);
            match child.wait() {
                Err(e) => Err(format!("wait failed: {e}")),
                Ok(_) if !matches!(trailing, Ok(None)) => {
                    Err("worker kept talking after its done frame".into())
                }
                Ok(status) if !status.success() => {
                    Err(format!("worker exited {status} after a clean done frame"))
                }
                Ok(_) => {
                    let mut state = signals.state.lock().expect("coordinator lock");
                    state.done[shard] = Some(stats);
                    drop(state);
                    signals.ready.notify_all();
                    Ok(true)
                }
            }
        }
        Ok(None) => {
            discard_child(child);
            Ok(false)
        }
        Err(error) => {
            discard_child(child);
            Err(error)
        }
    };
    wire.bytes = frames.get_ref().bytes_read();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_core::Scenario;

    #[test]
    fn an_attempt_that_never_spawns_is_a_retry() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 4, 3);
        let signals = Signals::new(1);
        let worker = PathBuf::from("/nonexistent/certify/shard_worker");
        let result = run_attempt(
            &signals,
            &worker,
            &campaign,
            &ShardOptions::new(1),
            0,
            0,
            4,
            0,
            None,
            None,
        );
        assert!(result.is_err_and(|error| error.contains("spawning")));
        let state = signals.state.lock().unwrap();
        assert_eq!(state.metrics[0].retries.get(), 1);
    }
}
