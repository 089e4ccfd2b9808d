//! Pins the fault streams: a churn plan and a loss model's decisions are
//! a function of their seed, and that function must not drift. A failure
//! here means a seed that reproduced a fault schedule yesterday no longer
//! does, so every recorded seed (in tests, docs and bug reports) is void.

use farm_faults::{ChurnProfile, Delivery, FaultInjector, FaultPlan, LossModel, LossSpec};
use farm_netsim::time::{Dur, Time};
use farm_netsim::types::SwitchId;

/// FNV-1a, 64 bit: a stable digest of a rendered stream.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn churn(seed: u64) -> String {
    let switches: Vec<SwitchId> = (0..12).map(SwitchId).collect();
    let plan = FaultPlan::churn(
        seed,
        &switches,
        Time::from_millis(5),
        Time::from_millis(2_000),
        ChurnProfile::default(),
    );
    FaultInjector::new(plan)
        .take_due(Time::from_millis(10_000))
        .iter()
        .map(|e| format!("{}:{:?}\n", e.at.as_nanos(), e.kind))
        .collect()
}

fn losses(seed: u64) -> String {
    let spec = LossSpec {
        drop: 0.3,
        duplicate: 0.2,
        delay: Dur::from_micros(50),
    };
    let mut model = LossModel::new(spec, seed);
    (0..512)
        .map(|_| match model.roll() {
            Delivery::Dropped => 'd',
            Delivery::Delivered { copies: 1 } => '1',
            Delivery::Delivered { .. } => '2',
        })
        .collect()
}

#[test]
fn churn_plans_are_pinned() {
    let got: Vec<(u64, usize, u64)> = [7, 42, 1337]
        .into_iter()
        .map(|seed| {
            let text = churn(seed);
            (seed, text.lines().count(), fnv(&text))
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (7, 100, 15_710_009_794_650_925_131),
            (42, 98, 3_185_719_701_198_832_397),
            (1337, 86, 6_324_697_963_528_738_044),
        ],
        "seed 7 renders as:\n{}",
        churn(7)
    );
}

#[test]
fn loss_decisions_are_pinned() {
    let got: Vec<(u64, String)> = [7, 42, 1337]
        .into_iter()
        .map(|seed| (seed, losses(seed)[..64].to_string()))
        .collect();
    let digests: Vec<u64> = [7, 42, 1337].into_iter().map(|s| fnv(&losses(s))).collect();
    let want = [
        (
            7,
            "2111d211111d11d11d11d1d12d1112d11111111211d1112d11211d11dd1111d1",
        ),
        (
            42,
            "2d211111dd21d1dd11111dd22d12d12d211dd1d1111d121211d111d1d11212d1",
        ),
        (
            1337,
            "1d11d121d121dd11dd111121d111d1212d11dd11d1dd1d2d2d1dd12dd1112111",
        ),
    ];
    assert_eq!(got, want.map(|(s, t)| (s, t.to_string())));
    assert_eq!(
        digests,
        vec![
            12_163_286_160_940_445_601,
            7_448_810_734_729_011_254,
            15_128_962_076_022_974_852,
        ]
    );
}
