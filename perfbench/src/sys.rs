//! Process-level probes: a counting global allocator (armed only by the
//! traced run), `getrusage` for CPU time and `/proc` for peak memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Whether allocations are being counted. Off in timed runs, so the only
/// cost the allocator adds there is one relaxed load per call.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocations (including reallocations) made by every thread while
/// counting was on. Relaxed: a statistic that publishes no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

pub struct CountingAllocator;

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: a pass-through to `System`, which upholds the `GlobalAlloc`
// contract; `bump` only touches two atomics, never allocates and never
// unwinds, so every method inherits `System`'s guarantees unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `alloc` obligations are forwarded to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: the caller's `alloc_zeroed` obligations are forwarded to `System` as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's `realloc` obligations (live pointer, matching
    // layout) are forwarded to `System` as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: the caller's `dealloc` obligations (live pointer, matching
    // layout) are forwarded to `System` as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s (`ru_utime`,
/// `ru_stime`) followed by fourteen `long`s.
#[repr(C)]
struct Rusage {
    fields: [i64; 18],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut usage = Rusage { fields: [0; 18] };
    // SAFETY: `usage` is a live, writable buffer with the layout of the C
    // `struct rusage` on 64-bit Linux, which `getrusage` fills in.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU time of the whole process (every thread, live or
/// joined), in seconds.
pub fn cpu_seconds() -> f64 {
    let f = rusage().fields;
    (f[0] + f[2]) as f64 + (f[1] + f[3]) as f64 * 1e-6
}

/// Peak resident set size of the process image, in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` survives `execve`, so
/// under `cargo run` it would report cargo's own size.)
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
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
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
