//! Keeping timings comparable on a machine whose speed is not.
//!
//! The box this benchmark was defined on (a 2-vCPU shared VM) changes
//! speed for seconds to minutes at a time, whatever runs on it: its
//! clock moves between two levels 28 % apart, and independently of that
//! its caches and allocator paths get up to 60 % slower when neighbours
//! are busy. No amount of averaging inside a ten-second run removes
//! that: ten runs of one seed spread by 20 to 35 %. Two measures do:
//!
//! * [`pin_to_one_cpu`]: the process, daemons' threads included, stays
//!   on one CPU. Every workload is a closed loop with one request in
//!   flight, so nothing runs in parallel anyway; unpinned, a federated
//!   read spends two thirds of its time waiting for cross-CPU wake-ups
//!   of the hypervisor, three times slower in some runs than in others.
//! * [`Pacer`]: three fixed reference kernels are re-timed every few
//!   milliseconds between operations — `core`, a dependent
//!   load-multiply chain in the first-level cache; `heap`, string
//!   hashing with vector clones and allocation; `sync`, uncontended
//!   mutex, read-lock and atomic traffic as a telemetry registry makes
//!   it — and each timing is divided by the slowdown a workload that is
//!   a given [`Mix`] of the three would see at that moment. The three
//!   do not move together: within one replay the interpreter's tick
//!   time follows the heap kernel to within 5 % while the core kernel
//!   wanders 13 % away from it, and the sub-millisecond replay, whose
//!   time goes to counters and locks, follows the sync kernel. Reported
//!   times are therefore those of a machine on which all three kernels
//!   take their nominal time. Parent and change are measured by the
//!   same benchmark code with the same constants, so the scale cancels
//!   out of every comparison; what it removes is the machine's mood.
//!   The wall-clock window and the kernels' average slowdowns are
//!   printed beside the scaled numbers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Entries of the table the core kernel walks (64 KiB of `u32`).
const TABLE_LEN: usize = 16 * 1024;
/// Dependent load-multiply-add steps per core kernel run.
const CORE_STEPS: u32 = 40_000;
/// Keys the heap kernel's map holds, and passes over them per run.
const HEAP_KEYS: usize = 48;
const HEAP_ROUNDS: i64 = 30;
/// Counters the sync kernel's registry holds, and passes over them.
const SYNC_COUNTERS: usize = 32;
const SYNC_ROUNDS: usize = 100;
/// What the kernels take on the defining box at its usual speed. Only
/// units: every reported time scales with them.
const CORE_NOMINAL_NS: f64 = 214_000.0;
const HEAP_NOMINAL_NS: f64 = 196_000.0;
const SYNC_NOMINAL_NS: f64 = 165_000.0;
/// How old the last kernel timings may be before they are taken again.
const REFRESH: Duration = Duration::from_millis(25);

/// Which kernels a workload's time moves with: the shares that follow
/// the heap and the sync kernel; the rest follows the core kernel.
/// Fitted per workload, once, as the shares that brought twenty
/// same-seed runs, taken over half an hour of the machine's moods,
/// closest together (see the README).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub heap: f64,
    pub sync: f64,
}

/// The last three timings of one kernel, as slowdowns against nominal.
#[derive(Debug, Clone, Copy)]
struct Recent([f64; 3]);

impl Recent {
    fn push(&mut self, slowdown: f64) {
        self.0.rotate_left(1);
        self.0[2] = slowdown;
    }

    /// The median, so one preempted run does not distort the scale.
    fn median(&self) -> f64 {
        let mut r = self.0;
        r.sort_by(f64::total_cmp);
        r[1]
    }
}

pub struct Pacer {
    table: Vec<u32>,
    keys: Vec<String>,
    map: HashMap<String, Vec<i64>>,
    counter_names: Vec<String>,
    registry: Mutex<HashMap<String, Arc<AtomicU64>>>,
    sinks: RwLock<Vec<u32>>,
    core: Recent,
    heap: Recent,
    sync: Recent,
    taken_at: Instant,
    /// Sums of the slowdowns at every refresh, for the printed averages.
    sums: ([f64; 3], u32),
}

impl Pacer {
    pub fn new() -> Pacer {
        let mut x = 0x9E37_79B9u32;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        let counter_names: Vec<String> = (0..SYNC_COUNTERS)
            .map(|i| format!("layer.counter_{i}"))
            .collect();
        let registry = counter_names
            .iter()
            .map(|n| (n.clone(), Arc::new(AtomicU64::new(0))))
            .collect();
        let mut pacer = Pacer {
            table,
            keys: (0..HEAP_KEYS).map(|i| format!("variable_{i}")).collect(),
            map: HashMap::new(),
            counter_names,
            registry: Mutex::new(registry),
            sinks: RwLock::new(Vec::new()),
            core: Recent([1.0; 3]),
            heap: Recent([1.0; 3]),
            sync: Recent([1.0; 3]),
            taken_at: Instant::now(),
            sums: ([0.0; 3], 0),
        };
        for _ in 0..3 {
            pacer.time_kernels();
        }
        pacer.sums = ([0.0; 3], 0);
        pacer
    }

    fn time_kernels(&mut self) {
        let started = Instant::now();
        let mut x = 1u32;
        let mut acc = 0u64;
        for _ in 0..CORE_STEPS {
            // Each step needs the previous one's load: latency-bound.
            let slot = self.table[(x >> 16) as usize % TABLE_LEN];
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) ^ slot;
            acc = acc.wrapping_add(u64::from(x));
        }
        std::hint::black_box(acc);
        let core = started.elapsed().as_nanos() as f64 / CORE_NOMINAL_NS;

        let started = Instant::now();
        let mut len = 0usize;
        for round in 0..HEAP_ROUNDS {
            for key in &self.keys {
                // Look up by string, clone the vector out, grow it, put
                // it back under a freshly allocated key.
                let mut v = self.map.get(key).cloned().unwrap_or_default();
                v.push(round);
                if v.len() > 16 {
                    v.clear();
                }
                len += v.len();
                self.map.insert(key.clone(), v);
            }
        }
        std::hint::black_box(len);
        let heap = started.elapsed().as_nanos() as f64 / HEAP_NOMINAL_NS;

        let started = Instant::now();
        let mut seen = 0u64;
        for _ in 0..SYNC_ROUNDS {
            for name in &self.counter_names {
                // What bumping a named counter and emitting to no sink
                // costs: lock, look up, clone the handle, add; read-lock.
                let counter = self
                    .registry
                    .lock()
                    .expect("pacer registry lock")
                    .get(name)
                    .cloned();
                if let Some(counter) = counter {
                    seen += counter.fetch_add(1, Ordering::Relaxed);
                }
                seen += self.sinks.read().expect("pacer sink lock").len() as u64;
            }
        }
        std::hint::black_box(seen);
        let sync = started.elapsed().as_nanos() as f64 / SYNC_NOMINAL_NS;

        self.core.push(core);
        self.heap.push(heap);
        self.sync.push(sync);
        for (sum, slowdown) in self.sums.0.iter_mut().zip([core, heap, sync]) {
            *sum += slowdown;
        }
        self.sums.1 += 1;
        self.taken_at = Instant::now();
    }

    /// Re-times the kernels when the last timing is stale. Call between
    /// operations, never inside a timed one: windows are sums of timed
    /// operations, so the kernels' own time stays outside them.
    pub fn refresh(&mut self) {
        if self.taken_at.elapsed() >= REFRESH {
            self.time_kernels();
        }
    }

    /// The factor a duration measured about now is multiplied by: above
    /// one while the machine runs faster than nominal.
    pub fn scale(&self, mix: Mix) -> f64 {
        let slowdown = (1.0 - mix.heap - mix.sync) * self.core.median()
            + mix.heap * self.heap.median()
            + mix.sync * self.sync.median();
        1.0 / slowdown
    }

    /// Refreshes, runs `f`, and returns its result with its duration in
    /// scaled seconds.
    pub fn time<T>(&mut self, mix: Mix, f: impl FnOnce() -> T) -> (T, f64) {
        self.refresh();
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64() * self.scale(mix);
        (out, secs)
    }

    /// Mean slowdown of the core, heap and sync kernels over every
    /// refresh so far (1.0 = nominal).
    pub fn mean_slowdowns(&self) -> [f64; 3] {
        let n = f64::from(self.sums.1.max(1));
        self.sums.0.map(|sum| sum / n)
    }
}

/// Pins the calling process to the CPU it is running on; threads
/// started later inherit the mask. Returns the CPU, or `None` where
/// pinning is not possible (then nothing changed).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    }
    const WORDS: usize = 16; // 1 024 CPUs
                             // SAFETY: sched_getcpu takes no arguments and only reads.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let bits = c_ulong::BITS as usize;
    let mut mask = [0 as c_ulong; WORDS];
    *mask.get_mut(cpu / bits)? |= 1 << (cpu % bits);
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)`
    // bytes, which is the size passed; pid 0 means this process; the
    // call only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const HALF_AND_HALF: Mix = Mix {
        heap: 0.5,
        sync: 0.0,
    };

    #[test]
    fn scale_follows_the_kernels_by_the_mix() {
        let mut p = Pacer::new();
        p.core = Recent([0.5, 1.0, 0.5]);
        p.heap = Recent([0.5, 0.5, 9.0]);
        assert_eq!(p.scale(HALF_AND_HALF), 2.0, "both kernels twice as fast");
        p.core = Recent([1.0, 50.0, 1.0]);
        p.heap = Recent([1.0, 1.0, 1.0]);
        assert_eq!(
            p.scale(HALF_AND_HALF),
            1.0,
            "one preempted timing is ignored"
        );
        p.core = Recent([2.0; 3]);
        let all = |heap, sync| Mix { heap, sync };
        assert_eq!(p.scale(all(1.0, 0.0)), 1.0, "all heap: core is ignored");
        assert_eq!(p.scale(all(0.0, 0.0)), 0.5, "all core: twice as slow");
        p.sync = Recent([4.0; 3]);
        assert_eq!(p.scale(all(0.0, 1.0)), 0.25, "all sync");
        assert_eq!(p.scale(all(0.25, 0.25)), 1.0 / (1.0 + 0.25 + 1.0));
        let (out, secs) = p.time(HALF_AND_HALF, || 7);
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
    }

    #[test]
    fn refresh_only_when_stale() {
        let mut p = Pacer::new();
        let taken = p.taken_at;
        p.refresh();
        assert_eq!(p.taken_at, taken, "a fresh timing is kept");
        assert_eq!(p.mean_slowdowns(), [0.0; 3], "nothing averaged yet");
        std::thread::sleep(REFRESH);
        p.refresh();
        assert!(p.taken_at > taken);
        assert!(p.mean_slowdowns().iter().all(|s| *s > 0.0));
        assert!(p.scale(HALF_AND_HALF).is_finite() && p.scale(HALF_AND_HALF) > 0.0);
    }
}
