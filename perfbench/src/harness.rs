//! The shared harness: seeded input generation, closed-loop timing,
//! exact-sample statistics (one-shot quantities are repeated by their
//! workload and reported as a [`median`]), and the in-memory span
//! recorder of the traced run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use esm_obs::{Telemetry, TraceRoot};

/// SplitMix64: a tiny, seedable generator. The benchmark owns its input
/// generation so the same `--seed` yields the same inputs on every
/// commit, whatever the repository's own `rand` does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from `seed` for consumer `stream`
    /// (one per generator thread), so threads never share a generator.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One generated client operation. Every workload draws its operations
/// from an [`OpStream`]; the engine only ever sees these values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read view number `view`.
    Read { view: usize },
    /// Commit one transaction setting `val` on every key in `keys`.
    /// `val` is unique per stream position, so no commit is a no-op.
    Write { keys: Vec<i64>, val: i64 },
}

/// What an [`OpStream`] draws from.
#[derive(Debug, Clone)]
pub struct OpMix {
    /// Share of reads, in thousandths (0 = writes only, 1000 = reads only).
    pub read_permille: u64,
    /// Number of views reads pick from (uniformly).
    pub views: usize,
    /// Key groups a write picks from. A write takes `keys_per_write`
    /// distinct groups and one uniform key from each.
    pub key_groups: Vec<Vec<i64>>,
    pub keys_per_write: usize,
}

/// A deterministic, unbounded sequence of [`Op`]s for one generator
/// thread: the same `(seed, stream, mix)` always yields the same ops.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    mix: OpMix,
    /// Written values are `val_base + position`, unique per stream.
    val_base: i64,
    position: i64,
}

impl OpStream {
    pub fn new(seed: u64, stream: u64, mix: OpMix) -> OpStream {
        assert!(mix.keys_per_write <= mix.key_groups.len());
        assert!(mix.key_groups.iter().all(|g| !g.is_empty()));
        OpStream {
            rng: Rng::stream(seed, stream),
            mix,
            // Streams write disjoint value ranges; initial table values
            // are negative, so every write changes its row.
            val_base: (stream as i64 + 1) << 40,
            position: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.position += 1;
        if self.rng.below(1000) < self.mix.read_permille {
            let view = self.rng.below(self.mix.views as u64) as usize;
            return Some(Op::Read { view });
        }
        let groups = self.mix.key_groups.len() as u64;
        let mut picked: Vec<usize> = Vec::with_capacity(self.mix.keys_per_write);
        while picked.len() < self.mix.keys_per_write {
            let g = self.rng.below(groups) as usize;
            if !picked.contains(&g) {
                picked.push(g);
            }
        }
        let keys = picked
            .into_iter()
            .map(|g| {
                let group = &self.mix.key_groups[g];
                group[self.rng.below(group.len() as u64) as usize]
            })
            .collect();
        Some(Op::Write {
            keys,
            val: self.val_base + self.position,
        })
    }
}

/// Exact per-op latency samples of one operation kind, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn mean_us(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sum_ns() as f64 / self.0.len() as f64 / 1e3
    }

    /// The exact median in microseconds (mean of the middle pair for an
    /// even count); 0 when empty.
    pub fn median_us(&self) -> f64 {
        median(self.0.iter().map(|&ns| ns as f64 / 1e3).collect())
    }

    /// The exact `p`-th percentile in microseconds by nearest rank (the
    /// smallest sample with at least `p`% of the samples at or below
    /// it); 0 when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
    }

    /// The highest percentile of {50, 90, 99, 99.9, 99.99} with at least
    /// ten samples beyond it (nearest rank), as `(percentile, value µs,
    /// samples beyond)`. `None` when fewer than 11 samples exist.
    pub fn tail(&self) -> Option<(f64, f64, usize)> {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let mut best = None;
        for p in [50.0, 90.0, 99.0, 99.9, 99.99] {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let Some(idx) = rank.checked_sub(1) else {
                continue;
            };
            let beyond = n - 1 - idx;
            if beyond >= 10 {
                best = Some((p, sorted[idx] as f64 / 1e3, beyond));
            }
        }
        best
    }
}

/// The exact median of `values` (mean of the middle pair for an even
/// count); 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Resident set size of this process, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The closed-loop schedule every generator thread shares: load runs
/// from creation, is measured from `start` (after a warm-up that lets
/// allocator growth, first-touch page faults and background work reach
/// their steady state) and stops at `end`. Each thread issues its next
/// operation only after the previous one returned.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

/// Load before the measured window starts.
pub const WARMUP: Duration = Duration::from_secs(3);

impl Window {
    pub fn new(warmup: Duration, seconds: f64) -> Window {
        let start = Instant::now() + warmup;
        Window {
            start,
            end: start + Duration::from_secs_f64(seconds),
        }
    }

    pub fn open(&self) -> bool {
        Instant::now() < self.end
    }

    /// Block the calling thread until the measured window starts.
    pub fn wait_start(&self) {
        std::thread::sleep(self.start.saturating_duration_since(Instant::now()));
    }
}

/// Keeps the calling thread, and every thread it starts while the guard
/// lives, on one CPU; dropping the guard restores the calling thread's
/// CPU set. See [`pin_to_one_cpu`].
#[derive(Debug)]
pub struct CpuPin {
    #[cfg(target_os = "linux")]
    saved: Option<affinity::CpuSet>,
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(saved) = &self.saved {
            affinity::set(saved);
        }
    }
}

/// Pin the calling thread to the lowest CPU it may run on; threads it
/// starts later (engine, server, client and subscriber threads) inherit
/// that CPU. A workload whose requests hop between threads runs this
/// way so that every hand-off wakes a thread on the same CPU: on a
/// virtual machine a wake-up on another CPU costs whatever the host's
/// idle handling makes it cost, which moved socket latencies by 25%
/// depending on unrelated load. Where the CPU set cannot be read or set
/// the run continues unpinned, with a note on stderr.
pub fn pin_to_one_cpu() -> CpuPin {
    #[cfg(target_os = "linux")]
    {
        let saved = affinity::get();
        let pinned = saved.as_ref().and_then(|set| {
            let cpu = (0..affinity::CPUS).find(|&c| set.has(c))?;
            affinity::set(&affinity::CpuSet::only(cpu)).then_some(cpu)
        });
        if pinned.is_none() {
            eprintln!("perfbench: could not pin to one CPU; running unpinned");
        }
        CpuPin {
            saved: pinned.and(saved),
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        eprintln!("perfbench: CPU pinning needs Linux; running unpinned");
        CpuPin {}
    }
}

/// `sched_getaffinity`/`sched_setaffinity` on the calling thread,
/// declared by hand: the benchmark takes no dependency beyond the
/// repository's crates.
#[cfg(target_os = "linux")]
mod affinity {
    /// Bits in glibc's `cpu_set_t`.
    pub const CPUS: usize = 1024;

    #[derive(Debug, Clone)]
    #[repr(C)]
    pub struct CpuSet([u64; CPUS / 64]);

    impl CpuSet {
        pub fn only(cpu: usize) -> CpuSet {
            let mut set = CpuSet([0; CPUS / 64]);
            set.0[cpu / 64] = 1 << (cpu % 64);
            set
        }

        pub fn has(&self, cpu: usize) -> bool {
            self.0[cpu / 64] & (1 << (cpu % 64)) != 0
        }
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; CPUS / 64]);
        // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and pid 0
        // names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a readable `cpu_set_t`-sized buffer and pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

/// At most this many generator threads: the benchmark targets a 2-core
/// machine and must not out-thread it.
pub const MAX_GENERATORS: usize = 2;

/// One recorded span: a named interval of benchmark code around a call
/// into a layer, with its parent span and the request it belongs to.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Disabled recorders still time calls (the
/// caller needs the latency either way) but keep no spans.
///
/// A recorder may also hold one of the program's own trace registries
/// (`telemetry_registry()` of the engine or of a `RemoteEngine`, with
/// sampling raised to every request). [`Recorder::root`] then opens a
/// program trace root around a call, so the program records its own
/// spans for that request exactly as under a traced `Session`. The
/// traced run roots every other op, and the rooted ops against the
/// unrooted ones give `obs.trace_overhead_frac`.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    program: Option<Arc<Telemetry>>,
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            on,
            epoch,
            thread,
            next: 0,
            program: None,
            spans: Vec::new(),
        }
    }

    /// Root program traces in `registry` (see [`Recorder::root`]).
    pub fn with_program_traces(mut self, registry: Arc<Telemetry>) -> Recorder {
        self.program = Some(registry);
        self
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Whether [`Recorder::root`] can open program traces.
    pub fn roots_program_traces(&self) -> bool {
        self.on && self.program.is_some()
    }

    /// Open a program trace root named `name` on this thread when
    /// `rooted` is set and the recorder holds a registry; dropping the
    /// root files the program's trace.
    pub fn root(&self, rooted: bool, name: &str) -> Option<TraceRoot> {
        if !(rooted && self.on) {
            return None;
        }
        self.program.as_ref()?.start_trace(name)
    }

    /// A fresh id, unique across threads (the thread index is the high
    /// bits). Used for both span and request ids.
    pub fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record `[start, end)` as span `name` when the recorder is on;
    /// returns the span id (0 when nothing was kept).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.fresh_id();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` as a root span of a fresh request, under a program trace
    /// root when `rooted` (see [`Recorder::root`]); returns the result
    /// and the elapsed time, the program root's cost included.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        rooted: bool,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let request = self.fresh_id();
        let start = Instant::now();
        let root = self.root(rooted, name);
        let out = f();
        drop(root);
        let end = Instant::now();
        self.record(name, 0, request, start, end);
        (out, end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_use_exact_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut s = Samples::default();
        for i in 1..=1000u64 {
            s.push(Duration::from_micros(i));
        }
        assert_eq!(s.median_us(), 500.5);
        // Nearest rank: the 100th of 1000 samples is the 10th percentile.
        assert_eq!(s.percentile_us(10.0), 100.0);
        assert_eq!(s.percentile_us(0.0), 1.0);
        assert_eq!(s.percentile_us(100.0), 1000.0);
        // p99 leaves exactly ten samples beyond it; p99.9 leaves one.
        assert_eq!(s.tail(), Some((99.0, 990.0, 10)));
        let few = Samples(vec![1, 2, 3]);
        assert_eq!(few.tail(), None);
    }

    #[test]
    fn writes_pick_distinct_groups() {
        let mix = OpMix {
            read_permille: 0,
            views: 1,
            key_groups: vec![vec![1, 2], vec![10, 20], vec![100]],
            keys_per_write: 2,
        };
        for op in OpStream::new(7, 0, mix).take(500) {
            let Op::Write { keys, .. } = op else {
                panic!("writes only");
            };
            assert_eq!(keys.len(), 2);
            assert_ne!(keys[0] / 10, keys[1] / 10, "same group twice: {keys:?}");
        }
    }
}
