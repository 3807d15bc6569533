//! What the benchmark measures about the host rather than the program:
//! the yardstick kernels every timing is divided by, the counting
//! allocator behind `peak_heap_mib` and the `alloc.*` counts, and peak
//! RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Quiet-phase medians of the two kernels on the host the benchmark was
/// written on, in seconds. Changing either re-baselines every yardstick
/// time ever recorded: never retune them.
pub const SPIN_NOMINAL: f64 = 0.0250;
pub const CHURN_NOMINAL: f64 = 0.0240;

const SPIN_STEPS: u64 = 13_000_000;
const CHURN_ALLOCS: usize = 150_000;

/// A dependent xorshift chain: ALU only, nothing of the program's.
fn spin() -> Duration {
    let started = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1d_u64);
    for _ in 0..SPIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed()
}

/// Small-allocation churn: 150 000 `Vec<u8>` of 48–600 B, one in three
/// freed out of order, then all freed. The program lives on this path
/// (≈ 100 allocations per frame), and it is where this host drifts.
fn churn() -> Duration {
    let started = Instant::now();
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(CHURN_ALLOCS);
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..CHURN_ALLOCS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut v = Vec::with_capacity(48 + (x % 553) as usize);
        v.push(i as u8);
        live.push(v);
        if i % 3 == 2 {
            let victim = (x >> 20) as usize % live.len();
            live.swap_remove(victim);
        }
    }
    black_box(&live);
    drop(live);
    started.elapsed()
}

/// One reading of the yardstick.
#[derive(Debug, Clone, Copy)]
pub struct Yardstick {
    pub spin_s: f64,
    pub churn_s: f64,
}

/// Kernel pairs per reading: one 24 ms churn sample alone is noisier
/// than the passes it normalises.
const PAIRS: u32 = 3;

impl Yardstick {
    /// Mean of `PAIRS` interleaved runs of each kernel.
    pub fn measure() -> Yardstick {
        let (mut spin_total, mut churn_total) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..PAIRS {
            spin_total += spin();
            churn_total += churn();
        }
        Yardstick {
            spin_s: spin_total.as_secs_f64() / f64::from(PAIRS),
            churn_s: churn_total.as_secs_f64() / f64::from(PAIRS),
        }
    }

    /// How much slower than nominal the host ran: 1.0 on the quiet
    /// reference host.
    pub fn factor(&self) -> f64 {
        0.5 * self.spin_s / SPIN_NOMINAL + 0.5 * self.churn_s / CHURN_NOMINAL
    }
}

/// The host factor of a pass: the mean of the yardsticks read
/// immediately before and after it.
pub fn pass_factor(before: Yardstick, after: Yardstick) -> f64 {
    0.5 * (before.factor() + after.factor())
}

/// Counts allocations while switched on; one relaxed load otherwise.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn note_free(size: usize) {
    // Blocks allocated before counting was switched on may be freed
    // while it is on: saturate instead of wrapping.
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |live| {
        Some(live.saturating_sub(size as u64))
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain atomics and never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            note_free(layout.size());
        }
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            note_free(layout.size());
            note_alloc(new_size);
        }
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counts over one counted region.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
    /// Peak bytes live at once, counting only blocks allocated inside
    /// the region.
    pub peak_bytes: u64,
}

/// Runs `f` with allocation counting switched on.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    for counter in [&ALLOCS, &ALLOC_BYTES, &LIVE, &PEAK] {
        counter.store(0, Relaxed);
    }
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let counts = AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
    };
    (out, counts)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks (100 Hz on Linux).
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
