//! Seed ↔ soil communication: execution modes and channel cost models,
//! plus the real shared-memory ring buffer used when seeds run as threads
//! of the soil process.
//!
//! The paper evaluates two seed execution models (threads within the soil
//! process vs isolated processes) and two channels (a tailor-fitted shared
//! buffer vs gRPC); § VI-E shows gRPC latency grows linearly with the seed
//! count while the shared buffer stays flat (Fig. 10), and that request
//! aggregation is CPU-free for threads but costly for processes (Fig. 9).
//! The cost models below are calibrated to those shapes; the ring buffer
//! demonstrates the shared-memory mechanism with real threads.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use farm_netsim::time::Dur;

/// How seeds execute on the switch (§ V-A b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Seeds are threads of the soil process (the configuration the paper
    /// selects after the microbenchmarks).
    #[default]
    Threads,
    /// Seeds are isolated processes.
    Processes,
}

/// Transport between seeds and the soil.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelKind {
    /// Tailor-fitted shared memory buffer (threads only in the real
    /// system; under processes it degrades to a shared-mapping variant).
    #[default]
    SharedBuffer,
    /// gRPC over loopback.
    Grpc,
}

/// Combined communication configuration with calibrated cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommModel {
    pub exec: ExecMode,
    pub channel: ChannelKind,
}

impl CommModel {
    /// One-way soil→seed delivery latency with `active_seeds` deployed.
    ///
    /// Fig. 10 calibration: gRPC grows linearly with the seed count
    /// (≈1.5 ms at 150 seeds); the shared buffer stays in the tens of
    /// microseconds with a marginal slope.
    pub fn delivery_latency(&self, active_seeds: usize) -> Dur {
        let n = active_seeds as u64;
        match self.channel {
            ChannelKind::Grpc => {
                let base = Dur::from_micros(120);
                let per_seed = Dur::from_nanos(9_000 * n);
                let proc_penalty = match self.exec {
                    ExecMode::Processes => Dur::from_micros(30),
                    ExecMode::Threads => Dur::ZERO,
                };
                base + per_seed + proc_penalty
            }
            ChannelKind::SharedBuffer => {
                let base = match self.exec {
                    ExecMode::Threads => Dur::from_micros(3),
                    // Cross-process shared mapping: extra syscall + fence.
                    ExecMode::Processes => Dur::from_micros(18),
                };
                base + Dur::from_nanos(20 * n)
            }
        }
    }

    /// CPU cycles the soil spends delivering one event to one seed.
    pub(crate) fn delivery_cpu_cycles(&self) -> u64 {
        match (self.exec, self.channel) {
            (ExecMode::Threads, ChannelKind::SharedBuffer) => 300,
            (ExecMode::Threads, ChannelKind::Grpc) => 18_000,
            (ExecMode::Processes, ChannelKind::SharedBuffer) => 8_000,
            (ExecMode::Processes, ChannelKind::Grpc) => 30_000,
        }
    }

    /// Extra soil CPU cycles for aggregating one poll request on behalf of
    /// one seed (Fig. 9): free-ish for threads (the soil and seeds share an
    /// address space), expensive for processes (marshal + copy).
    pub(crate) fn aggregation_cpu_cycles(&self) -> u64 {
        match self.exec {
            ExecMode::Threads => 150,
            ExecMode::Processes => 22_000,
        }
    }
}

/// A bounded, blocking MPMC ring buffer — the "tailor-fitted shared
/// memory buffer" used between soil and thread seeds.
#[derive(Debug)]
pub struct SharedRingBuffer<T> {
    q: Mutex<VecDeque<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> SharedRingBuffer<T> {
    /// Creates a buffer holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        SharedRingBuffer {
            q: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The queue. A holder that panicked leaves it whole — every update
    /// is one `VecDeque` push or pop — so a poisoned lock is taken over.
    fn queue(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.q.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocking push: waits for space.
    pub fn push(&self, item: T) {
        let mut q = self.queue();
        while q.len() >= self.capacity {
            q = self
                .not_full
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
        q.push_back(item);
        drop(q);
        self.not_empty.notify_one();
    }

    /// Pop with a timeout; `None` when it elapses empty.
    ///
    /// Blocks on the condvar (no spinning) and re-waits until the full
    /// deadline on spurious wakeups or when a concurrent consumer races
    /// the item away — a single timed wait would return early then.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut q = self.queue();
        while q.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            q = self
                .not_empty
                .wait_timeout(q, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let item = q.pop_front();
        drop(q);
        self.not_full.notify_one();
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn grpc_latency_grows_linearly_shared_buffer_stays_flat() {
        let grpc = CommModel {
            exec: ExecMode::Threads,
            channel: ChannelKind::Grpc,
        };
        let shared = CommModel::default();
        let g1 = grpc.delivery_latency(1);
        let g150 = grpc.delivery_latency(150);
        let s1 = shared.delivery_latency(1);
        let s150 = shared.delivery_latency(150);
        assert!(
            g150.as_nanos() > g1.as_nanos() * 5,
            "gRPC must scale with seeds: {g1} → {g150}"
        );
        assert!(
            s150.as_nanos() < s1.as_nanos() * 3,
            "shared buffer must stay near-flat: {s1} → {s150}"
        );
        assert!(s150 < g1, "shared buffer beats gRPC even at 150 seeds");
    }

    #[test]
    fn aggregation_is_cheap_for_threads_costly_for_processes() {
        let threads = CommModel {
            exec: ExecMode::Threads,
            channel: ChannelKind::SharedBuffer,
        };
        let processes = CommModel {
            exec: ExecMode::Processes,
            channel: ChannelKind::SharedBuffer,
        };
        assert!(processes.aggregation_cpu_cycles() > threads.aggregation_cpu_cycles() * 50);
    }

    #[test]
    fn ring_buffer_fifo_and_capacity() {
        let rb = SharedRingBuffer::new(2);
        rb.push(1);
        rb.push(2);
        assert_eq!(rb.queue().len(), rb.capacity);
        assert_eq!(rb.pop_timeout(Duration::ZERO), Some(1));
        assert_eq!(rb.pop_timeout(Duration::ZERO), Some(2));
        assert_eq!(rb.pop_timeout(Duration::ZERO), None);
        assert!(rb.queue().is_empty());
    }

    #[test]
    fn ring_buffer_works_across_threads() {
        let rb = Arc::new(SharedRingBuffer::new(16));
        let producer = {
            let rb = Arc::clone(&rb);
            std::thread::spawn(move || {
                for i in 0..1000 {
                    rb.push(i);
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 1000 {
            if let Some(v) = rb.pop_timeout(Duration::from_secs(5)) {
                got.push(v);
            }
        }
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn pop_timeout_elapses_on_empty_buffer() {
        let rb: SharedRingBuffer<u8> = SharedRingBuffer::new(1);
        let start = Instant::now();
        assert_eq!(rb.pop_timeout(Duration::from_millis(10)), None);
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "must block for the full timeout, not return early"
        );
    }

    #[test]
    fn pop_timeout_survives_a_racing_consumer() {
        // A notified waiter whose item was raced away by another pop must
        // keep waiting for the next item instead of returning None.
        let rb: Arc<SharedRingBuffer<u32>> = Arc::new(SharedRingBuffer::new(4));
        let waiter = {
            let rb = Arc::clone(&rb);
            std::thread::spawn(move || rb.pop_timeout(Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        rb.push(1); // wakes the waiter...
        while rb.pop_timeout(Duration::ZERO).is_none() {
            // ...but this thread may steal the item first.
            if waiter.is_finished() {
                break;
            }
        }
        rb.push(2); // the waiter must still get this one
        let got = waiter.join().unwrap();
        assert!(got.is_some(), "waiter returned before its deadline");
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let rb: Arc<SharedRingBuffer<u32>> = Arc::new(SharedRingBuffer::new(1));
        rb.push(1);
        let pusher = {
            let rb = Arc::clone(&rb);
            std::thread::spawn(move || rb.push(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rb.pop_timeout(Duration::ZERO), Some(1));
        pusher.join().unwrap();
        assert_eq!(rb.pop_timeout(Duration::ZERO), Some(2));
    }

    #[test]
    fn ipc_deliveries_feed_the_latency_histogram() {
        use crate::soil::{Soil, SoilConfig};
        use farm_almanac::analysis::ConstEnv;
        use farm_almanac::compile::{compile_machine, frontend};
        use farm_netsim::controller::SdnController;
        use farm_netsim::switch::{Resources, Switch, SwitchModel};
        use farm_netsim::time::Time;
        use farm_netsim::topology::Topology;
        use farm_netsim::types::SwitchId;
        use farm_telemetry::{Event, RingBufferSink, Telemetry};

        // Every outbound message crosses the channel once, at the
        // model's latency for the seeds deployed at that moment: two
        // seeds that report on `enter`.
        let model = SwitchModel::test_model(8);
        let topo = Topology::spine_leaf(1, 2, model.clone(), model.clone());
        let program = frontend(
            "machine M { place any; state s { when (enter) do { send 7 to harvester; } } }",
        )
        .unwrap();
        let ctl = SdnController::new(&topo);
        let def = Arc::new(compile_machine(&program, "M", &ConstEnv::new(), &ctl).unwrap());
        let telemetry = Telemetry::new();
        let ring = Arc::new(RingBufferSink::new(8));
        telemetry.add_sink(ring.clone());
        let mut soil = Soil::new(SwitchId(2), SoilConfig::default());
        soil.set_telemetry(telemetry.clone());
        let mut switch = Switch::new(SwitchId(2), model);
        let alloc = Resources::new(1.0, 64.0, 4.0, 1.0);
        for _ in 0..2 {
            soil.deploy(def.clone(), "t", alloc, Time::ZERO, &mut switch)
                .unwrap();
        }

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("ipc.messages"), 2);
        assert_eq!(snap.counter("ipc.bytes"), 16);
        let h = snap.histogram("ipc.latency_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 6, "3 µs + 20 ns per deployed seed, in whole µs");
        let comm = CommModel::default();
        let deliveries: Vec<(u32, u64, u64)> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::ChannelDelivery {
                    switch,
                    bytes,
                    latency_ns,
                    ..
                } => Some((*switch, *bytes, *latency_ns)),
                _ => None,
            })
            .collect();
        let latency = |seeds| comm.delivery_latency(seeds).as_nanos();
        assert_eq!(deliveries, [(2, 8, latency(1)), (2, 8, latency(2))]);
    }
}
