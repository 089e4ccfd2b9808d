//! Allocations per steady-state poll delivery, pinned.
//!
//! A seed runs its handler on every poll, on every switch; what a
//! delivery allocates is paid at that rate. Once a seed's buffers have
//! grown, a quiet poll of HH, KissVolume or DigMicroburst allocates
//! nothing: the payload is read where the poll left it, the value stack
//! and call frames are the seed's own, and an empty result list owns no
//! memory. A firing HH poll and a whole soil round have bounds of their
//! own: the soil rewrites each trigger's payload in place and reads the
//! ASIC into a buffer it keeps, so what is left is what the handlers
//! build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use farm_almanac::analysis::ConstEnv;
use farm_almanac::compile::{compile_machine, frontend, CompiledMachine};
use farm_almanac::value::{StatEntry, StatSubject, Value};
use farm_netsim::controller::SdnController;
use farm_netsim::switch::{Resources, Switch, SwitchModel};
use farm_netsim::time::Time;
use farm_netsim::topology::Topology;
use farm_netsim::types::{FlowKey, Ipv4, PortId, SwitchId};
use farm_soil::interp::{stats_payload, FixedHost, SeedEvent, SeedId, SeedInstance};
use farm_soil::{Soil, SoilConfig};

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

fn compile(source: &str, machine: &str) -> Arc<CompiledMachine> {
    let topo = Topology::spine_leaf(1, 2, SwitchModel::test_model(8), SwitchModel::test_model(8));
    let ctl = SdnController::new(&topo);
    let program = frontend(source).unwrap();
    Arc::new(compile_machine(&program, machine, &ConstEnv::new(), &ctl).unwrap())
}

fn ports(n: u16, tx_bytes: impl Fn(u16) -> u64) -> Value {
    stats_payload(
        (0..n)
            .map(|p| StatEntry {
                subject: StatSubject::Port(p),
                tx_bytes: tx_bytes(p),
                rx_bytes: 500,
                tx_packets: 3,
                rx_packets: 1,
            })
            .collect(),
    )
}

#[test]
fn a_steady_state_poll_of_hh_kissvolume_or_digmicroburst_allocates_nothing() {
    let host = FixedHost::default();
    let quiet = ports(48, |p| 1000 + 7 * u64::from(p));
    for (machine, source, trigger) in [
        ("HH", farm_almanac::programs::HEAVY_HITTER, "pollStats"),
        (
            "KissVolume",
            farm_almanac::programs::KISS_VOLUME_ANOMALY,
            "portStats",
        ),
        (
            "DigMicroburst",
            farm_almanac::programs::DIG_MICROBURST,
            "fastStats",
        ),
    ] {
        let alloc = Resources::new(2.0, 512.0, 16.0, 10.0);
        let mut seed = SeedInstance::new(SeedId(1), compile(source, machine), alloc);
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

/// Allocations of one firing HH poll (a hitter on 4 of 48 ports):
/// `getHH`'s result list and the copy its `return` hands back, the copy
/// sent to the harvester, the copy `setHitterRules` reads (a machine
/// variable passed in place is pinned), and the effect list growing to
/// its nine effects (a report, a rule removed and one installed per
/// hitter).
const FIRING_HH_POLL: u64 = 7;

#[test]
fn a_firing_hh_poll_allocates_its_report_and_rules_only() {
    let host = FixedHost::default();
    let alloc = Resources::new(2.0, 512.0, 16.0, 10.0);
    let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
    let mut seed = SeedInstance::new(SeedId(1), def, alloc);
    let hot = SeedEvent::Trigger {
        name: "pollStats".into(),
        payload: ports(48, |p| if p % 12 == 5 { 4_000_000 } else { 900 }),
    };
    seed.handle(&SeedEvent::Enter, &host).unwrap();
    for _ in 0..4 {
        seed.handle(&hot, &host).unwrap();
    }
    let before = allocs();
    let out = seed.handle(&hot, &host).unwrap();
    let counted = allocs() - before;
    assert!(out.transitioned);
    drop(out);
    assert!(counted <= FIRING_HH_POLL, "{counted} allocations");
}

/// Allocations of one `Soil::advance` round in which HH, KissVolume and
/// KissPortSpike all poll a quiet 54-port switch: KissPortSpike's fresh
/// baseline list growing to 4, 8, 16, 32 and 64 entries, and its copy
/// into the machine variable; the payloads, the ASIC read and the
/// round's list of due triggers reuse what the soil kept.
const SOIL_ROUND: u64 = 6;

#[test]
fn a_quiet_soil_round_of_three_seeds_on_54_ports_stays_within_its_bound() {
    let mut soil = Soil::new(SwitchId(0), SoilConfig::default());
    let mut switch = Switch::new(SwitchId(0), SwitchModel::test_model(54));
    // HH polls every 10/PCIe ms, the KISS detectors every 100/PCIe ms:
    // 1 ms each, so every round serves all three from one ASIC poll.
    for (machine, source, pcie) in [
        ("HH", farm_almanac::programs::HEAVY_HITTER, 10.0),
        (
            "KissVolume",
            farm_almanac::programs::KISS_VOLUME_ANOMALY,
            100.0,
        ),
        (
            "KissPortSpike",
            farm_almanac::programs::KISS_PORT_SPIKE,
            100.0,
        ),
    ] {
        let alloc = Resources::new(2.0, 512.0, 16.0, pcie);
        soil.deploy(
            compile(source, machine),
            "t",
            alloc,
            Time::ZERO,
            &mut switch,
        )
        .unwrap();
    }
    let flow = FlowKey::tcp(Ipv4::new(10, 0, 0, 1), 1000, Ipv4::new(10, 0, 1, 1), 80);
    let mut round = |ms: u64, switch: &mut Switch| {
        for p in 0..54 {
            switch.record_traffic(&flow, None, Some(PortId(p)), 1_500 + u64::from(p), 1);
        }
        let before = allocs();
        let report = soil.advance(Time::from_millis(ms), switch);
        let counted = allocs() - before;
        assert_eq!(
            (report.deliveries, report.asic_polls),
            (3, 1),
            "round at {ms} ms"
        );
        assert!(report.messages.is_empty() && report.errors.is_empty());
        counted
    };
    for ms in 1..=8 {
        round(ms, &mut switch);
    }
    let counted = round(9, &mut switch);
    assert!(counted <= SOIL_ROUND, "{counted} allocations");
}
