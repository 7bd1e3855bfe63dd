//! What every workload shares: the clock, the span recorder, the counting
//! allocator, order statistics, the host canary, and the per-run report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Timed streams are cut into this many equal-count segments; `ops_per_s`
/// is the median segment rate, so one disturbed second moves one segment,
/// not the result.
pub const SEGMENTS: usize = 10;

/// Set-up is repeated at least this many times per run and `setup_s` is the
/// median; a set-up of tens of milliseconds is repeated more often (up to
/// [`SETUP_REPS_MAX`] times within [`SETUP_BUDGET_S`]), because so short a
/// measurement is at the mercy of a single scheduling hiccup.
pub const SETUP_REPS: usize = 3;
pub const SETUP_REPS_MAX: usize = 15;
pub const SETUP_BUDGET_S: f64 = 1.5;

/// Counts heap allocations while armed. Disarmed it costs one relaxed load
/// of a line nobody writes, so it does not perturb the timed windows.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (all threads) made while `f` runs.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Pins this process — and every thread it spawns afterwards — to the
/// highest-numbered CPU it may run on (interrupts tend to land on the
/// lowest), and returns that CPU. `None` if the kernel refuses.
///
/// Why: the sandbox's vCPUs are taken away by the host whenever they go
/// idle, and getting one back costs 2 µs on a quiet host and 50 µs or more
/// beside a busy neighbour. A closed loop that alternates between a caller
/// and a worker pays that twice per request when the two sit on different
/// vCPUs, and nothing when they share one that never goes idle. Measured on
/// `slate` beside a busy neighbour: 857–1218 µs unpinned, 820–924 µs pinned,
/// 800 µs on a quiet host either way.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes` bytes,
    // which is all `sched_getaffinity(2)` requires; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64).rev().find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only = [0u64; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of `bytes` bytes that the call only
    // reads; it names one CPU the kernel just reported as allowed.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

/// Nanoseconds since the first call (process start, in practice).
pub fn now_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds `f` takes.
pub fn time_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs `build` repeatedly (see [`SETUP_REPS`]), keeps the last fixture, and
/// returns the median build time in seconds.
pub fn repeated_setup<F>(mut build: impl FnMut() -> F) -> (F, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS_MAX);
    let mut fixture = None;
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_REPS_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(fixture.take());
        let (f, s) = time_s(&mut build);
        fixture = Some(f);
        times.push(s);
    }
    (fixture.expect("SETUP_REPS >= 1"), median(&mut times))
}

/// Median of `xs` (sorts in place). `NaN` for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `p`-quantile of `xs` by nearest rank (sorts in place).
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    xs[((xs.len() - 1) as f64 * p).round() as usize]
}

/// Mean of `xs`, `0` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One recorded interval. `parent` and `request` are `u32::MAX` when absent.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

const NONE: u32 = u32::MAX;

/// In-memory span recorder. Disabled (`Tracer::off`), `begin`/`end` are one
/// predictable branch each and read no clock.
pub struct Tracer {
    enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer { enabled: false, spans: Vec::new(), stack: Vec::new() }
    }

    /// Pre-sized so recording never reallocates inside a timed window.
    pub fn on(capacity: usize) -> Self {
        Tracer { enabled: true, spans: Vec::with_capacity(capacity), stack: Vec::with_capacity(8) }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        self.stack.push(id);
        self.spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, request });
        id
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        self.spans[id as usize].end_ns = now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Durations in microseconds of every closed span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns != 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration in microseconds of the spans called `name`; `0` when
    /// none were recorded (the layer is not on this workload's path).
    pub fn p50_us(&self, name: &str) -> f64 {
        let mut d = self.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            median(&mut d)
        }
    }

    /// Per span name under a replay root (a span whose name starts with
    /// `replay`): count, p50 in microseconds, and the share of that root's
    /// total time that is the span's self time (duration minus the part its
    /// children cover). A root's own row is the glue between the layer calls.
    pub fn replay_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE && s.end_ns != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let root_of = |mut i: u32| loop {
            if i == NONE {
                return None;
            }
            let s = &self.spans[i as usize];
            if s.name.starts_with("replay") {
                return Some(s.name);
            }
            i = s.parent;
        };
        let mut root_total: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut rows: BTreeMap<(&'static str, &'static str), (Vec<f64>, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(root) = root_of(i as u32).filter(|_| s.end_ns != 0) else { continue };
            let dur = s.end_ns - s.start_ns;
            if s.name == root {
                *root_total.entry(root).or_default() += dur;
            }
            let row = rows.entry((root, s.name)).or_default();
            row.0.push(dur as f64 / 1e3);
            row.1 += dur.saturating_sub(child_ns[i]);
        }
        rows.into_iter()
            .map(|((root, name), (mut durs, self_ns))| {
                let share = self_ns as f64 / root_total[root].max(1) as f64;
                (name, durs.len(), median(&mut durs), share)
            })
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u32| if v == NONE { "null".to_string() } else { v.to_string() };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        w.flush()
    }
}

/// Where traces go: `benchmark/out/` under the checkout root the command is
/// run from, or `out/` when run from inside the package.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// An empty `Vec` whose capacity is already resident, so that `peak_rss_mb`
/// does not depend on how many samples a window had time to record. `fill`
/// must not be all-zero bits: zeroed allocations are mapped lazily.
pub fn touched<T: Clone>(capacity: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; capacity];
    v.clear();
    v
}

/// Completions of one timed window: when every sampled op finished, and how
/// much work lies between two samples (1 request, 8 requests, 64 events,
/// 3 480 instances …).
pub struct Timeline {
    start_ns: u64,
    work_per_sample: f64,
    done_ns: Vec<u64>,
}

impl Timeline {
    pub fn start(capacity: usize, work_per_sample: f64) -> Self {
        let done_ns = touched(capacity, u64::MAX);
        Timeline { start_ns: now_ns(), work_per_sample, done_ns }
    }

    pub fn done(&mut self, at_ns: u64) {
        self.done_ns.push(at_ns);
    }

    /// Work ÷ wall time of each of [`SEGMENTS`] equal-count segments, sorted.
    pub fn segment_rates(&self) -> Vec<f64> {
        let n = self.done_ns.len();
        let segs = SEGMENTS.min(n);
        let mut rates = Vec::with_capacity(segs);
        let mut seg_start = self.start_ns;
        for s in 0..segs {
            let (lo, hi) = (s * n / segs, (s + 1) * n / segs);
            let end = self.done_ns[hi - 1];
            let work = (hi - lo) as f64 * self.work_per_sample;
            rates.push(work / ((end - seg_start).max(1) as f64 / 1e9));
            seg_start = end;
        }
        rates.sort_by(f64::total_cmp);
        rates
    }
}

/// Median of 9 timed runs of `work` after one warm-up, in microseconds.
fn canary_us(mut work: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(9);
    for it in 0..10 {
        let t = Instant::now();
        work();
        if it > 0 {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&mut samples)
}

/// The 2 M-FMA host canary the BENCH_*.json files carry: one dependent
/// scalar chain, so it follows the clock and little else.
pub fn calib_spin_us() -> f64 {
    canary_us(|| {
        let mut acc = 0.0f32;
        let mut x = 1.000_000_1f32;
        for _ in 0..2_000_000u32 {
            acc = x.mul_add(1.000_000_1, acc);
            x = std::hint::black_box(x);
        }
        std::hint::black_box(acc);
    })
}

/// A second canary: 64 independent FMA chains, which the compiler keeps in
/// vector registers. It is bound by FMA throughput, so unlike the scalar
/// chain it slows when a neighbour shares the core's execution ports — the
/// disturbance this sandbox actually shows.
pub fn calib_simd_us() -> f64 {
    canary_us(|| {
        let mut acc = [0.0f32; 64];
        let x = std::hint::black_box([1.000_000_1f32; 64]);
        for _ in 0..400_000u32 {
            for (a, x) in acc.iter_mut().zip(&x) {
                *a = x.mul_add(1.000_000_1, *a);
            }
        }
        std::hint::black_box(acc);
    })
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `p50` of `iters` timed calls of `f` after `warm` untimed ones, in
/// microseconds.
pub fn p50_us(warm: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut samples)
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (first few), for the human-readable part.
    pub failures: Vec<String>,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub fresh_p50_us: f64,
    /// Per-layer metrics by name; filled on traced runs only.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable part (sample counts, replay table).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed op.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Records a check: a mismatch is a failed op.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}
