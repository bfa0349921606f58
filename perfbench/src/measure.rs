//! Measurement helpers: the hashing CSV writer, order statistics, the
//! span recorder, CPU clocks, the host-speed calibration kernel and the
//! process's peak resident set.

use std::ffi::{c_int, c_long};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// A `Write` that keeps only an FNV-1a-64 digest and a byte count, so a
/// campaign's CSV can be compared byte for byte without its size
/// growing with the trial count.
pub struct HashWriter {
    hash: u64,
    bytes: u64,
    header_len: u64,
    first_row: Option<Instant>,
}

impl HashWriter {
    /// A fresh digest; bytes past `header_len` count as rows.
    pub fn new(header_len: usize) -> HashWriter {
        HashWriter {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
            header_len: header_len as u64,
            first_row: None,
        }
    }

    /// FNV-1a-64 of everything written.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Bytes written.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Nanoseconds from `start` to the first row byte (0 if none came).
    pub fn first_row_since(&self, start: Instant) -> u64 {
        self.first_row
            .map(|at| at.saturating_duration_since(start).as_nanos() as u64)
            .unwrap_or(0)
    }
}

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.first_row.is_none() && self.bytes + buf.len() as u64 > self.header_len {
            self.first_row = Some(Instant::now());
        }
        for &byte in buf {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Samples a percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a p99 needs
/// at least 1000 samples.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call, e.g. `core.system.prefix`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The trial the span belongs to (its seed), if any.
    pub trial: Option<u64>,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans held in memory for the whole run and written out at its end.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trial: Option<u64>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            trial,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its duration.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.ns()
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id name parent trial start_ns end_ns` (`-` for none).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\ttrial\tstart_ns\tend_ns")?;
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                opt(s.parent.map(|p| p as u64)),
                opt(s.trial),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time this process has used since it started, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time, user and system, of every child process this process has
/// waited for, in nanoseconds.
pub fn children_cpu_ns() -> u64 {
    let mut usage = Rusage {
        ru_utime: Timeval::default(),
        ru_stime: Timeval::default(),
        _rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and `getrusage` writes only through the pointer it is given.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    usage.ru_utime.ns() + usage.ru_stime.ns()
}

// Linux clock ids (`<linux/time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
// `<sys/resource.h>`.
const RUSAGE_CHILDREN: c_int = -1;

/// `struct timespec` as Linux lays it out: `time_t` and `long` are
/// both `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct timeval`: `time_t` and `suseconds_t` are both `long`.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

impl Timeval {
    fn ns(&self) -> u64 {
        self.tv_sec as u64 * 1_000_000_000 + self.tv_usec as u64 * 1_000
    }
}

/// `struct rusage`: two `timeval`s, then fourteen `long` counters.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [c_long; 14],
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// The calibration kernel and its tables, one per thread that runs it
/// at once. The tables are allocated up front, so that timing the
/// kernel touches no fresh memory, which would show in `VmHWM`.
pub struct Calibration {
    tables: Vec<Box<[u32; CALIBRATION_WORDS]>>,
}

impl Calibration {
    /// Tables for up to `threads` threads at once.
    pub fn new(threads: usize) -> Calibration {
        Calibration {
            tables: (0..threads.max(1))
                .map(|_| Box::new([0; CALIBRATION_WORDS]))
                .collect(),
        }
    }

    /// Thread CPU time of one run of the kernel on the caller's
    /// thread, in nanoseconds.
    pub fn time_one(&mut self) -> u64 {
        time_kernel(&mut self.tables[0])
    }

    /// Mean thread CPU time of the kernel run on as many threads at
    /// once as there are tables, the caller's thread among them, in
    /// nanoseconds.
    pub fn time_all(&mut self) -> u64 {
        let threads = self.tables.len() as u64;
        let (first, rest) = self.tables.split_first_mut().expect("one table at least");
        let total: u64 = std::thread::scope(|scope| {
            let others: Vec<_> = rest
                .iter_mut()
                .map(|table| scope.spawn(move || time_kernel(table)))
                .collect();
            let mine = time_kernel(first);
            mine + others
                .into_iter()
                .map(|h| h.join().expect("calibration thread"))
                .sum::<u64>()
        });
        total / threads
    }
}

/// Words in a calibration table: 64 KiB, an L2-sized working set.
const CALIBRATION_WORDS: usize = 16 * 1024;

/// Steps of one calibration run.
const CALIBRATION_STEPS: u32 = 400_000;

/// [`Calibration::time_one`] on the reference host, the 2-vCPU virtual
/// machine the benchmark was tuned on, in a quiet period.
pub const CALIBRATION_REF_NS: f64 = 5_200_000.0;

fn time_kernel(table: &mut [u32; CALIBRATION_WORDS]) -> u64 {
    let start = thread_cpu_ns();
    std::hint::black_box(calibration_work(
        table,
        std::hint::black_box(CALIBRATION_STEPS),
    ));
    thread_cpu_ns() - start
}

/// A fixed piece of CPU work that no change to the program can alter,
/// shaped like the simulator's step loop: loads and stores in a table,
/// data-dependent branches and integer arithmetic. Timing it beside the
/// program tells how fast the host is running at the moment.
fn calibration_work(table: &mut [u32; CALIBRATION_WORDS], steps: u32) -> u64 {
    for (i, word) in table.iter_mut().enumerate() {
        *word = (i as u32).wrapping_mul(0x9e37_79b9);
    }
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc: u64 = 0;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize >> 11) % CALIBRATION_WORDS;
        let v = table[i];
        acc = match v & 3 {
            0 => acc.wrapping_add(u64::from(v)),
            1 => acc ^ (u64::from(v) << 7),
            2 => acc.wrapping_mul(3).wrapping_add(x >> 40),
            _ => acc.rotate_left(5),
        };
        table[(i + (v as usize & 63)) % CALIBRATION_WORDS] = v ^ (acc as u32);
    }
    acc
}

/// Reads a CPU-time clock. The standard library has no CPU clocks, so
/// this calls the C library directly.
fn cpu_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout, and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The process's peak resident set (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&samples, 0.99), None);
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990));
        assert_eq!(percentile(&samples, 0.5), Some(500));
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (thread, process) = (thread_cpu_ns(), process_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > thread);
        assert!(process_cpu_ns() > process);
        let children = children_cpu_ns();
        let script = "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done";
        let status = std::process::Command::new("sh")
            .args(["-c", script])
            .status()
            .unwrap();
        assert!(status.success());
        assert!(children_cpu_ns() > children);
    }

    #[test]
    fn calibration_takes_time_on_every_thread() {
        let mut calibration = Calibration::new(2);
        assert!(calibration.time_one() > 0);
        assert!(calibration.time_all() > 0);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn hash_writer_is_split_insensitive() {
        let mut whole = HashWriter::new(4);
        whole.write_all(b"abc\nrow\n").unwrap();
        let mut split = HashWriter::new(4);
        split.write_all(b"abc\n").unwrap();
        assert!(split.first_row.is_none(), "the header is not a row");
        split.write_all(b"row\n").unwrap();
        assert_eq!(whole.digest(), split.digest());
        assert_eq!(whole.bytes(), 8);
        assert!(split.first_row.is_some());
    }
}
