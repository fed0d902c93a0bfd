//! Host-speed reference for normalising wall times.
//!
//! On a shared 2-vCPU virtual machine the pipeline was measured running
//! 20–60 % slower for stretches of seconds to minutes, while a
//! cache-resident arithmetic loop does not slow at all: other tenants'
//! memory traffic, not this process. Medians of raw wall times therefore
//! moved by 10–30 % between runs of the same code. A fixed string-sorting
//! loop slows with the pipeline, so every timed pass is bracketed by
//! reference readings and its times are reported as
//! `measured × NOMINAL / reference`: the time the pass would take at the
//! host speed where the reference takes `NOMINAL`.
//!
//! A reading times the loop once on each CPU the process may run on,
//! pinned there, and [`scale`] takes the faster CPU. Other tenants slow
//! the two vCPUs separately, so an unpinned loop, which runs wherever the
//! scheduler puts it, missed a slow second CPU that threads=2 passes ran
//! into. Interference only ever slows a CPU and comes and goes within a
//! single 17 ms timing, so the faster CPU's time is the steadier estimate
//! of the host's speed. Over eight runs each of `fig6_batch` and
//! `micro_batches`, it left an across-run spread of the scaled per-call
//! medians of 4.5–6.9 %, against 17–30 % raw; the mean of the two CPUs
//! left 7–9 %.
//!
//! The program under test must not be able to move the reference, or a
//! change that leaves state behind would scale its own slowdown away:
//!
//! * the loop makes no heap allocation: its buffers are allocated and
//!   touched once, in [`Reference::new`], before any pipeline code runs,
//!   so the allocator arenas, fragmentation or leaked memory a pass
//!   leaves behind do not reach it (a unit test counts its allocations);
//! * it runs on one thread while the program is idle, and each reading
//!   records whether another thread of this process was still running at
//!   its end ([`Reference::contended`]); the run fails its checks if one
//!   was, so a worker pool left spinning cannot slow it unseen.
//!
//! The raw per-call wall times and the factor of each pass are kept in
//! the results file next to the scaled figures.

use coachlm_runtime::simtime::Stopwatch;
use std::hint::black_box;
use std::time::Duration;

/// The reference loop's time on an uncontended 2-vCPU virtual machine.
pub const NOMINAL: Duration = Duration::from_millis(17);

/// CPUs a reading times the loop on, at most; the first ones the process
/// may run on. The executor runs at most two threads.
const MAX_CPUS: usize = 4;

/// Words the loop builds, sorts and joins.
const WORDS: usize = 100_000;
/// Longest word, in bytes.
const MAX_WORD: usize = 14;

/// The reference loop and the buffers it reuses.
pub struct Reference {
    /// Every word's bytes, back to back.
    text: Vec<u8>,
    /// (start, length) of each word in `text`.
    words: Vec<(u32, u32)>,
    /// The sorted words joined by spaces.
    joined: Vec<u8>,
    /// Readings taken.
    pub timings: usize,
    /// Readings at whose end another thread of this process was running.
    pub contended: usize,
}

/// One reference reading: the loop's time on each CPU it ran on.
#[derive(Debug, Clone)]
pub struct Reading(Vec<Duration>);

impl Reference {
    /// Allocates the loop's buffers and runs it once, so every page they
    /// use is touched before the first timing.
    pub fn new() -> Reference {
        let mut r = Reference {
            text: Vec::with_capacity(WORDS * MAX_WORD),
            words: Vec::with_capacity(WORDS),
            joined: Vec::with_capacity(WORDS * (MAX_WORD + 1)),
            timings: 0,
            contended: 0,
        };
        black_box(r.run(0x5EED));
        r
    }

    /// Times the loop pinned to each CPU the process may run on (up to
    /// [`MAX_CPUS`]), then restores the thread's affinity. Where the
    /// affinity cannot be read or set, times it once, unpinned.
    pub fn time(&mut self) -> Reading {
        let mut times = Vec::with_capacity(MAX_CPUS);
        if let Some(allowed) = affinity::get() {
            for cpu in affinity::cpus(&allowed).take(MAX_CPUS) {
                if affinity::set(&affinity::only(cpu)) {
                    times.push(self.time_once());
                }
            }
            affinity::set(&allowed);
        }
        if times.is_empty() {
            times.push(self.time_once());
        }
        self.timings += 1;
        if other_thread_running() {
            self.contended += 1;
        }
        Reading(times)
    }

    fn time_once(&mut self) -> Duration {
        let clock = Stopwatch::start();
        black_box(self.run(black_box(0x5EED)));
        clock.elapsed()
    }

    /// Runs `f` between two readings; returns its result and the factor
    /// that scales the times measured inside it to nominal host speed.
    pub fn bracketed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.time();
        let out = f();
        (out, scale(&before, &self.time()))
    }

    /// Builds 100,000 short pseudo-random words, sorts them, joins them
    /// and splits the result again: comparison and string traffic like
    /// the pipeline's, on a working set of about 4 MB, in buffers that
    /// never grow past their first size.
    fn run(&mut self, seed: u64) -> usize {
        let Reference {
            text,
            words,
            joined,
            ..
        } = self;
        text.clear();
        words.clear();
        joined.clear();
        let mut x = seed;
        for _ in 0..WORDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 3 + (x % 12) as usize;
            let start = text.len();
            text.extend((0..len).map(|i| b'a' + ((x >> (i * 3)) % 26) as u8));
            words.push((start as u32, len as u32));
        }
        let word = |&(start, len): &(u32, u32)| &text[start as usize..(start + len) as usize];
        words.sort_unstable_by(|a, b| word(a).cmp(word(b)));
        for w in words.iter() {
            joined.extend_from_slice(word(w));
            joined.push(b' ');
        }
        joined.split(|&b| b == b' ').filter(|w| w.len() > 6).count()
    }
}

/// The factor that turns a time measured between readings `before` and
/// `after` into the time at nominal host speed: `NOMINAL` over the faster
/// CPU's mean of its two times.
pub fn scale(before: &Reading, after: &Reading) -> f64 {
    let fastest = before
        .0
        .iter()
        .zip(&after.0)
        .map(|(b, a)| (*b + *a).as_secs_f64() / 2.0)
        .fold(f64::INFINITY, f64::min);
    NOMINAL.as_secs_f64() / fastest
}

/// The calling thread's CPU affinity, through the C library.
#[cfg(target_os = "linux")]
mod affinity {
    /// Bytes of a `cpu_set_t`: room for 1,024 CPUs.
    const BYTES: usize = 128;

    pub type Mask = [u8; BYTES];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0; BYTES];
        // SAFETY: `mask` is `BYTES` long, the size passed; pid 0 is the
        // calling thread.
        (unsafe { sched_getaffinity(0, BYTES, mask.as_mut_ptr()) } == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: as in `get`; the kernel only reads the mask.
        unsafe { sched_setaffinity(0, BYTES, mask.as_ptr()) == 0 }
    }

    pub fn cpus(mask: &Mask) -> impl Iterator<Item = usize> + '_ {
        (0..BYTES * 8).filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
    }

    pub fn only(cpu: usize) -> Mask {
        let mut mask = [0; BYTES];
        mask[cpu / 8] = 1 << (cpu % 8);
        mask
    }
}

/// Elsewhere the reference runs unpinned.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type Mask = ();

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }

    pub fn cpus(_: &Mask) -> impl Iterator<Item = usize> {
        std::iter::empty()
    }

    pub fn only(_: usize) -> Mask {}
}

/// Whether a thread of this process other than the calling one is in the
/// running state. `false` where `/proc` cannot tell.
fn other_thread_running() -> bool {
    let Some(own) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_os_string()))
    else {
        return false;
    };
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    tasks.filter_map(Result::ok).any(|task| {
        task.file_name() != own
            && std::fs::read_to_string(task.path().join("stat")).is_ok_and(|stat| {
                // The state follows the parenthesised command name.
                stat.rsplit_once(')')
                    .is_some_and(|(_, rest)| rest.trim_start().starts_with('R'))
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Counts the calling thread's allocations, so tests running on other
    /// threads do not disturb the count.
    struct Counting;

    thread_local! {
        static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    }

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            System.realloc(ptr, layout, size)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    #[test]
    fn the_loop_does_fixed_work_without_allocating() {
        let mut r = Reference::new();
        let count = r.run(0x5EED);
        let before = ALLOCATIONS.with(Cell::get);
        assert_eq!(r.run(0x5EED), count);
        assert_eq!(ALLOCATIONS.with(Cell::get), before, "the loop allocated");
        assert!(r.time().0.iter().all(|t| *t > Duration::ZERO));
        assert_eq!(r.timings, 1);
    }

    #[test]
    fn scale_takes_the_faster_cpu() {
        let ms = |v: &[u64]| Reading(v.iter().map(|&t| Duration::from_millis(t)).collect());
        let nominal = NOMINAL.as_millis() as u64;
        let s = scale(&ms(&[nominal, 3 * nominal]), &ms(&[nominal, nominal]));
        assert!((s - 1.0).abs() < 1e-12);
        let s = scale(
            &ms(&[4 * nominal, 2 * nominal]),
            &ms(&[4 * nominal, 2 * nominal]),
        );
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_spinning_thread_is_seen() {
        if std::fs::read_dir("/proc/self/task").is_err() {
            return;
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            let seen = (0..1000).any(|_| other_thread_running());
            stop.store(true, Ordering::Relaxed);
            assert!(seen, "a spinning sibling thread went unnoticed");
        });
    }
}
