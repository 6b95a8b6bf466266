//! Host-side probes: CPU clocks, allocation counts, heap memory and the
//! host fingerprint stamped on every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Pass-through allocator that feeds `slsb_sim::alloc`'s process-wide
/// counter, so allocations can be charged to the calls that made them, and
/// tracks the live and peak heap bytes.
pub struct CountingAllocator;

/// Heap bytes allocated and not yet freed; statistics only, so relaxed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged; the counters are relaxed atomics that never allocate, so they
// cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        slsb_sim::alloc::note_alloc();
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        slsb_sim::alloc::note_alloc();
        // SAFETY: `ptr` came from `System` with `layout`; forwarded as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Allocations since process start.
pub fn allocs() -> u64 {
    slsb_sim::alloc::allocation_count()
}

/// Most heap bytes live at once since the last [`reset_peak_heap`], MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Restarts the heap high-water mark from the bytes live now.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used, all threads included.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU clocks read together at the start of a measured section.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(wall seconds, CPU seconds)` since [`Stopwatch::start`].
    pub fn read(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// A Linux `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// Moves the calling thread through a few of the CPUs it may run on, and
/// gives it back all of them when dropped.
///
/// On a shared host one virtual CPU can run the same code 1.4x slower than
/// another for minutes, and the scheduler keeps a single thread on one of
/// them for a whole run, so a run's times would follow the CPU it landed
/// on. Taking turns on a fixed number of CPUs gives every lap repeats on
/// each of them, whatever the host's CPU count.
pub struct Rotation {
    original: CpuSet,
    cpus: Vec<usize>,
}

impl Rotation {
    /// A rotation over the first `n` allowed CPUs; empty (a no-op) if the
    /// affinity cannot be read.
    pub fn new(n: usize) -> Rotation {
        let mut original: CpuSet = [0; 16];
        // SAFETY: `original` is a writable `cpu_set_t` of the size passed.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), original.as_mut_ptr()) };
        let cpus = if rc == 0 {
            (0..1024)
                .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
                .take(n)
                .collect()
        } else {
            Vec::new()
        };
        Rotation { original, cpus }
    }

    /// Moves the thread to the CPU whose turn `turn` is. A refused move
    /// leaves it where it was.
    pub fn turn(&self, turn: usize) {
        if self.cpus.len() > 1 {
            let cpu = self.cpus[turn % self.cpus.len()];
            let mut mask: CpuSet = [0; 16];
            mask[cpu / 64] = 1 << (cpu % 64);
            set_affinity(&mask);
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.cpus.len() > 1 {
            set_affinity(&self.original);
        }
    }
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a result was measured on: CPU model, worker count, compiler,
/// build profile and source revision.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("cpu", cpu),
        ("nproc", nproc().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("git_rev", git_rev()),
    ]
}

/// The checked-out revision, read from `.git` in the working directory; a
/// source tree that is not a git checkout reports `none`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next())
                            .map(str::to_string)
                    })
            })
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
    }
}
