//! Fig. 10 — soil↔seed communication latency: the tailor-fitted shared
//! buffer vs gRPC, with seeds as threads vs processes.
//!
//! The model curves reproduce the published shapes (gRPC linear in the
//! seed count, shared buffer near-flat); [`real_ring_buffer_round_trip`]
//! additionally measures the actual shared-memory ring buffer with two
//! OS threads, demonstrating the mechanism rather than just its model.

use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_soil::{ChannelKind, CommModel, ExecMode, SharedRingBuffer};

/// One latency point per configuration, microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcLatencyRow {
    pub seeds: usize,
    pub shared_threads_us: f64,
    pub shared_processes_us: f64,
    pub grpc_threads_us: f64,
    pub grpc_processes_us: f64,
}

/// Runs the model curves.
pub fn run(seed_counts: &[usize]) -> Vec<IpcLatencyRow> {
    let us = |m: CommModel, n: usize| m.delivery_latency(n).as_nanos() as f64 / 1e3;
    seed_counts
        .iter()
        .map(|&seeds| IpcLatencyRow {
            seeds,
            shared_threads_us: us(
                CommModel {
                    exec: ExecMode::Threads,
                    channel: ChannelKind::SharedBuffer,
                },
                seeds,
            ),
            shared_processes_us: us(
                CommModel {
                    exec: ExecMode::Processes,
                    channel: ChannelKind::SharedBuffer,
                },
                seeds,
            ),
            grpc_threads_us: us(
                CommModel {
                    exec: ExecMode::Threads,
                    channel: ChannelKind::Grpc,
                },
                seeds,
            ),
            grpc_processes_us: us(
                CommModel {
                    exec: ExecMode::Processes,
                    channel: ChannelKind::Grpc,
                },
                seeds,
            ),
        })
        .collect()
}

/// Measures the real shared ring buffer: mean one-hop latency of
/// `rounds` ping-pong messages between two threads, in microseconds.
pub fn real_ring_buffer_round_trip(rounds: u32) -> f64 {
    let ping: Arc<SharedRingBuffer<Instant>> = Arc::new(SharedRingBuffer::new(64));
    let pong: Arc<SharedRingBuffer<Duration>> = Arc::new(SharedRingBuffer::new(64));
    let echo = {
        let ping = Arc::clone(&ping);
        let pong = Arc::clone(&pong);
        std::thread::spawn(move || {
            for _ in 0..rounds {
                if let Some(sent) = ping.pop_timeout(Duration::from_secs(5)) {
                    pong.push(sent.elapsed());
                }
            }
        })
    };
    let mut total = Duration::ZERO;
    let mut got = 0u32;
    for _ in 0..rounds {
        ping.push(Instant::now());
        if let Some(one_way) = pong.pop_timeout(Duration::from_secs(5)) {
            total += one_way;
            got += 1;
        }
    }
    echo.join().expect("echo thread");
    if got == 0 {
        return f64::NAN;
    }
    total.as_secs_f64() / got as f64 * 1e6
}

/// Quick axis.
pub const QUICK_SEEDS: &[usize] = &[1, 50, 150];
/// Full axis.
pub const FULL_SEEDS: &[usize] = &[1, 25, 50, 75, 100, 125, 150];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grpc_is_the_latency_bottleneck_at_scale() {
        let rows = run(&[1, 150]);
        let small = &rows[0];
        let big = &rows[1];
        // gRPC scales linearly with deployed seeds (Fig. 10).
        assert!(big.grpc_threads_us > small.grpc_threads_us * 5.0);
        // The shared buffer's overhead stays marginal even at 150 seeds.
        assert!(big.shared_threads_us < 10.0);
        assert!(big.shared_threads_us < big.grpc_threads_us / 50.0);
    }

    #[test]
    fn real_ring_buffer_is_microseconds_fast() {
        let us = real_ring_buffer_round_trip(2000);
        assert!(us.is_finite());
        assert!(
            us < 1000.0,
            "one-hop shared-buffer latency should be far below 1 ms, got {us} µs"
        );
    }
}
