//! Allocations per steady-state poll delivery, pinned.
//!
//! A seed runs its handler on every poll, on every switch; what a
//! delivery allocates is paid at that rate. Once a seed's buffers have
//! grown, a quiet poll of HH or DigMicroburst allocates nothing: the
//! payload is read where the poll left it, the value stack and call
//! frames are the seed's own, and an empty result list owns no memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use farm_almanac::analysis::ConstEnv;
use farm_almanac::compile::{compile_machine, frontend};
use farm_almanac::value::{StatEntry, StatSubject};
use farm_netsim::controller::SdnController;
use farm_netsim::switch::{Resources, SwitchModel};
use farm_netsim::topology::Topology;
use farm_soil::interp::{stats_payload, FixedHost, SeedEvent, SeedId, SeedInstance};

/// Counts the allocation calls of the current thread, so tests running
/// beside this one do not count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // During thread teardown the counter may be gone; nothing to count then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local that allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see alloc).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's obligation and passes through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_steady_state_poll_of_hh_or_digmicroburst_allocates_nothing() {
    let topo = Topology::spine_leaf(1, 2, SwitchModel::test_model(8), SwitchModel::test_model(8));
    let ctl = SdnController::new(&topo);
    let host = FixedHost::default();
    let quiet = stats_payload(
        (0..48)
            .map(|p| StatEntry {
                subject: StatSubject::Port(p),
                tx_bytes: 1000 + 7 * u64::from(p),
                rx_bytes: 500,
                tx_packets: 3,
                rx_packets: 1,
            })
            .collect(),
    );
    for (machine, source, trigger) in [
        ("HH", farm_almanac::programs::HEAVY_HITTER, "pollStats"),
        (
            "DigMicroburst",
            farm_almanac::programs::DIG_MICROBURST,
            "fastStats",
        ),
    ] {
        let program = frontend(source).unwrap();
        let def = compile_machine(&program, machine, &ConstEnv::new(), &ctl).unwrap();
        let alloc = Resources::new(2.0, 512.0, 16.0, 10.0);
        let mut seed = SeedInstance::new(SeedId(1), Arc::new(def), alloc);
        let poll = SeedEvent::Trigger {
            name: trigger.into(),
            payload: quiet.clone(),
        };
        seed.handle(&SeedEvent::Enter, &host).unwrap();
        for _ in 0..4 {
            seed.handle(&poll, &host).unwrap();
        }
        const POLLS: u64 = 100;
        let before = allocs();
        for _ in 0..POLLS {
            let out = seed.handle(&poll, &host).unwrap();
            assert!(out.effects.is_empty(), "{machine}: a quiet poll");
        }
        let counted = allocs() - before;
        assert_eq!(counted, 0, "{machine}: allocations in {POLLS} polls");
    }
}
