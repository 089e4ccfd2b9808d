//! fedd and its pods in one thread on one virtual clock (`util/sim.rs`):
//! the federation round's pinned cases, each checked to the virtual
//! microsecond, an unpinned property that runs generated op sequences
//! under generated faults against DESIGN § 12's matrix, and the replay
//! guarantee every case leans on — one seed, one trace.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use farm_ctl::stats::{page, StatsDoc};
use farm_net::{encode_envelope, ControlOp, ControlReply, Envelope, Frame, SeedDescriptor};
use farm_telemetry::Json;
use proptest::prelude::*;

#[path = "util/sim.rs"]
mod sim;
use sim::{pod_addr, Faults, Setup, Sim, CLIENT_DELAY, FEDD};

/// Switches per pod in the default setup (1 spine + 3 leaves).
const POD_SWITCHES: u32 = 4;

/// A fixed one-way delay between fedd and the pods.
fn fixed_delay(sim: &Sim, d: Duration) {
    sim.wire.borrow_mut().faults.delay = (d, d);
}

fn submit(name: &str, source: String) -> ControlOp {
    ControlOp::SubmitProgram {
        name: name.into(),
        source,
    }
}

/// A one-state machine placed by `places`.
fn machine(places: &str) -> String {
    format!("machine M {{ {places} state s {{ }} }}")
}

fn seed_keys(reply: &ControlReply) -> Vec<&str> {
    match reply {
        ControlReply::Seeds { seeds, .. } => seeds.iter().map(|s| s.key.as_str()).collect(),
        other => panic!("{other:?}"),
    }
}

fn json(reply: &ControlReply) -> Json {
    match reply {
        ControlReply::Json { body } => Json::parse(body).expect("a JSON body"),
        other => panic!("{other:?}"),
    }
}

fn wire_bytes(reply: ControlReply) -> Vec<u8> {
    let mut bytes = Vec::new();
    let frame = Frame::ControlReply { reply };
    encode_envelope(&Envelope::response(1, frame), &mut bytes);
    bytes
}

fn fed_setup(fed: &str, pods: Vec<&'static str>) -> Setup {
    Setup {
        pods,
        fedd: fed.into(),
        ..Setup::default()
    }
}

#[test]
fn a_stalled_pod_costs_exactly_one_pod_timeout_and_the_survivors_answer() {
    let mut sim = Sim::new(1, Setup::default());
    let link = Duration::from_millis(2);
    fixed_delay(&sim, link);
    let span = submit("span", machine("place all 1, 5, 9;"));
    assert!(matches!(
        sim.op(span),
        ControlReply::Submitted { seeds: 3, .. }
    ));
    sim.pods.borrow_mut()[1].frozen = true;
    let errors = sim.fedd_counter("fed.fanout.errors");
    let asked = sim.now();
    let (at, reply) = sim.ask(FEDD, vec![ControlOp::list_all()]).remove(0);
    let pod_timeout = Duration::from_millis(500);
    assert_eq!(at - asked, CLIENT_DELAY + pod_timeout + CLIENT_DELAY);
    assert_eq!(seed_keys(&reply), ["a:span/m0/s0", "c:span/m0/s0"]);
    assert_eq!(sim.fedd_counter("fed.fanout.errors"), errors + 1);
    let snap = sim.fedd_snapshot();
    let fanout = snap.histogram("fed.fanout_us").expect("fan-outs timed");
    assert_eq!(fanout.max, pod_timeout.as_micros() as u64);
}

/// fedd asks every live pod for its audit and prefixes each finding
/// with the pod's name; a pod that does not answer is a finding.
#[test]
fn an_audit_fans_out_and_names_each_pod_it_could_not_hear() {
    let mut sim = Sim::new(3, Setup::default());
    let span = submit("span", machine("place all 1, 5, 9;"));
    assert!(matches!(
        sim.op(span),
        ControlReply::Submitted { seeds: 3, .. }
    ));
    let clean = ControlReply::Audited { findings: vec![] };
    assert_eq!(sim.op(ControlOp::Audit), clean);
    sim.pods.borrow_mut()[1].frozen = true;
    match sim.op(ControlOp::Audit) {
        ControlReply::Audited { findings } => {
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert!(findings[0].starts_with("b: "), "{findings:?}");
        }
        other => panic!("{other:?}"),
    }
}

/// Pods a, b, c answer after the given extra delays: the merged
/// listing's bytes, the order fedd harvested the pods in, and the
/// order of the pods in a merged metrics dump.
fn merged_listing(slow: [u64; 3]) -> (Vec<u8>, Vec<usize>, Vec<String>) {
    let mut sim = Sim::new(2, Setup::default());
    fixed_delay(&sim, Duration::from_millis(1));
    let span = submit("span", machine("place all 1, 5, 9;"));
    assert!(matches!(
        sim.op(span),
        ControlReply::Submitted { seeds: 3, .. }
    ));
    for (i, ms) in slow.into_iter().enumerate() {
        let extra = Duration::from_millis(ms);
        sim.wire.borrow_mut().faults.slow.insert(pod_addr(i), extra);
    }
    sim.wire.borrow_mut().harvested.clear();
    let reply = sim.op(ControlOp::list_all());
    assert_eq!(seed_keys(&reply).len(), 3);
    let order = (sim.wire.borrow().harvested.iter())
        .map(|(addr, _)| (0..3).find(|&i| pod_addr(i) == *addr).expect("a pod"))
        .collect();
    let dump = json(&sim.op(ControlOp::MetricsDump));
    let pods = dump.get("pods").and_then(Json::as_obj).expect("pods");
    let names = pods.iter().map(|(name, _)| name.clone()).collect();
    (wire_bytes(reply), order, names)
}

#[test]
fn answers_arriving_in_reverse_order_merge_to_the_same_bytes() {
    let (forward, arrived, names) = merged_listing([0, 40, 80]);
    let (reverse, arrived_reversed, names_reversed) = merged_listing([80, 40, 0]);
    assert_eq!(arrived, [0, 1, 2]);
    assert_eq!(arrived_reversed, [2, 1, 0]);
    assert_eq!(forward, reverse);
    assert_eq!(names, ["a", "b", "c"]);
    assert_eq!(names_reversed, ["a", "b", "c"]);
}

/// The reply's seeds and its cursor.
fn seeds_of(reply: ControlReply) -> (Vec<SeedDescriptor>, u64, u64) {
    match reply {
        ControlReply::Seeds {
            seeds,
            next_index,
            total,
        } => (seeds, next_index, total),
        other => panic!("{other:?}"),
    }
}

/// Pods `a`, `a-b` and `ab` (name order `a`, `a-b`, `ab`; listing
/// order `a-b:`, `a:`, `ab:`) holding tasks whose name order is not
/// their display order either: every page is the unpaginated listing,
/// windowed, and a walk through the cursor at any page size is the
/// listing.
#[test]
fn pages_of_the_federated_listing_window_the_whole_listing() {
    let mut sim = Sim::new(5, fed_setup("[fed]\n", vec!["a", "a-b", "ab"]));
    for name in ["w1", "w1-x", "w10", "w1_x"] {
        let places = machine("place all 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11;");
        let reply = sim.op(submit(name, places));
        assert!(
            matches!(reply, ControlReply::Submitted { seeds: 12, .. }),
            "{reply:?}"
        );
    }
    let (all, ..) = seeds_of(sim.op(ControlOp::list_all()));
    let keys: Vec<&str> = all.iter().map(|d| d.key.as_str()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
    assert_eq!(keys.len(), 48);
    assert_eq!(keys[0], "a-b:w1-x/m0/s0");
    assert_eq!(keys[16], "a:w1-x/m0/s0");
    assert_eq!(keys[32], "ab:w1-x/m0/s0");
    let len = all.len() as u64;
    for from in [0, 1, 15, 16, 17, 31, 47, 48, 49, u64::MAX] {
        for limit in [0, 1, 3, 16, 47, 48, 100, u64::MAX] {
            let (window, cursor) = page(from, limit, all.len());
            let (next, total) = cursor.unwrap_or((0, 0));
            let want = ControlReply::Seeds {
                seeds: all[window].to_vec(),
                next_index: next,
                total,
            };
            let op = ControlOp::ListSeeds {
                from_index: from,
                limit,
            };
            assert_eq!(sim.op(op), want, "from {from}, limit {limit}");
        }
    }
    for limit in [1, 5, 16, 17, len, len + 1] {
        let (mut walked, mut from) = (Vec::new(), 0);
        loop {
            let op = ControlOp::ListSeeds {
                from_index: from,
                limit,
            };
            let (seeds, next, total) = seeds_of(sim.op(op));
            assert_eq!(total, len);
            walked.extend(seeds);
            if next == 0 {
                break;
            }
            from = next;
        }
        assert_eq!(walked, all, "limit {limit}");
    }
}

/// A page asks only the pods its window overlaps: a page inside one
/// pod's run is one count round to every pod and one request to that
/// pod.
#[test]
fn a_page_asks_only_the_pods_its_window_overlaps() {
    let mut sim = Sim::new(6, Setup::default());
    let span = submit(
        "span",
        machine("place all 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11;"),
    );
    assert!(matches!(
        sim.op(span),
        ControlReply::Submitted { seeds: 12, .. }
    ));
    sim.wire.borrow_mut().harvested.clear();
    let op = ControlOp::ListSeeds {
        from_index: 5,
        limit: 2,
    };
    let (seeds, next, total) = seeds_of(sim.op(op));
    let keys: Vec<&str> = seeds.iter().map(|d| d.key.as_str()).collect();
    assert_eq!(keys, ["b:span/m0/s1", "b:span/m0/s2"]);
    assert_eq!((next, total), (7, 12));
    let asked: Vec<usize> = (sim.wire.borrow().harvested.iter())
        .map(|(addr, _)| (0..3).find(|&i| pod_addr(i) == *addr).expect("a pod"))
        .collect();
    assert_eq!(asked.iter().filter(|&&i| i == 1).count(), 2, "{asked:?}");
    assert_eq!(asked.len(), 4, "{asked:?}");
}

/// A pod that answers a page's count round and then dies: the page
/// holds the other pods' slices, keeps the count round's cursor, costs
/// one `pod_timeout`, and counts the pod in `fed.fanout.errors`.
#[test]
fn a_pod_that_dies_between_a_page_s_rounds_leaves_its_slice_out() {
    let mut sim = Sim::new(7, Setup::default());
    let link = Duration::from_millis(2);
    fixed_delay(&sim, link);
    let span = submit(
        "span",
        machine("place all 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11;"),
    );
    assert!(matches!(
        sim.op(span),
        ControlReply::Submitted { seeds: 12, .. }
    ));
    let (all, ..) = seeds_of(sim.op(ControlOp::list_all()));
    sim.pods.borrow_mut()[1].dies_after = Some(1);
    let errors = sim.fedd_counter("fed.fanout.errors");
    let asked = sim.now();
    let op = ControlOp::ListSeeds {
        from_index: 2,
        limit: 8,
    };
    let (at, reply) = sim.ask(FEDD, vec![op]).remove(0);
    assert!(sim.pods.borrow()[1].frozen, "b died after its count");
    let pod_timeout = Duration::from_millis(500);
    assert_eq!(
        at - asked,
        CLIENT_DELAY + 2 * link + pod_timeout + CLIENT_DELAY
    );
    let (seeds, next, total) = seeds_of(reply);
    let survivors: Vec<SeedDescriptor> = (all[2..10].iter())
        .filter(|d| !d.key.starts_with("b:"))
        .cloned()
        .collect();
    assert_eq!(seeds, survivors);
    assert_eq!(seeds.len(), 4);
    assert_eq!((next, total), (10, 12));
    assert_eq!(sim.fedd_counter("fed.fanout.errors"), errors + 1);
}

#[test]
fn a_beat_served_behind_a_stalled_fan_out_keeps_its_pod_live() {
    // The default liveness window (2 s), and a fan-out that outlasts it.
    let mut sim = Sim::new(
        3,
        fed_setup("[fed]\npod_timeout_ms = 3000\n", vec!["a", "b"]),
    );
    for pod in sim.pods.borrow_mut().iter_mut() {
        pod.frozen = true;
    }
    // One write, so one turn serves both: the listing stalls on pods
    // that never answer, and a's beat waits behind it.
    let beat = ControlOp::PodHeartbeat {
        name: "a".into(),
        seq: 1,
    };
    let asked = sim.now();
    let replies = sim.ask(FEDD, vec![ControlOp::list_all(), beat]);
    let stalled = CLIENT_DELAY + Duration::from_secs(3) + CLIENT_DELAY;
    assert_eq!(replies[0].0 - asked, stalled);
    assert!(seed_keys(&replies[0].1).is_empty());
    assert_eq!(replies[1], (asked + stalled, ControlReply::Ok));
    let ControlReply::Pods { pods } = sim.op(ControlOp::ListPods) else {
        panic!("no pod listing");
    };
    let live: Vec<_> = pods.iter().map(|p| (p.name.as_str(), p.live)).collect();
    // b last beat before the fan-out, past the window; a beat as the
    // fan-out ended, one client round trip ago.
    assert_eq!(live, [("a", true), ("b", false)]);
    assert_eq!(pods[0].age_ms, 2 * CLIENT_DELAY.as_millis() as u64);
}

#[test]
fn a_farmd_whose_coordinator_never_answers_keeps_serving() {
    let mut sim = Sim::new(4, fed_setup("[fed]\n", vec![]));
    sim.fedd.frozen = true;
    let heartbeat = Duration::from_millis(20);
    sim.boot_pod("p", heartbeat);
    let pod = pod_addr(0);
    // The registration is given ten heartbeats (200 ms); every op
    // meanwhile is answered within the client's round trip.
    let deadline = heartbeat * 10;
    while sim.now() < deadline + Duration::from_millis(50) {
        let asked = sim.now();
        let (at, reply) = sim.ask(pod, vec![ControlOp::list_all()]).remove(0);
        assert_eq!(at - asked, 2 * CLIENT_DELAY, "at {asked:?}");
        assert!(seed_keys(&reply).is_empty());
        let errors = sim.pod_counter(0, "fed.pod.errors");
        if at < deadline {
            assert_eq!(errors, 0, "at {at:?}");
        }
        sim.run_for(Duration::from_millis(7));
    }
    assert_eq!(sim.pod_counter(0, "fed.pod.errors"), 1);
    assert_eq!(sim.pod_counter(0, "fed.pod.registrations"), 0);
}

#[test]
fn a_pod_request_that_times_out_reaches_the_pod_once() {
    let fed = "[fed]\npod_timeout_ms = 100\n";
    let mut sim = Sim::new(5, fed_setup(fed, vec!["p"]));
    fixed_delay(&sim, Duration::from_millis(1));
    // The pod answers only after fedd stopped waiting.
    let late = Duration::from_millis(150);
    sim.wire.borrow_mut().faults.slow.insert(pod_addr(0), late);
    let asked = sim.now();
    let (at, reply) = sim
        .ask(FEDD, vec![ControlOp::Drain { switch: 1 }])
        .remove(0);
    assert_eq!(
        at - asked,
        CLIENT_DELAY + Duration::from_millis(100) + CLIENT_DELAY
    );
    let ControlReply::Rejected { reason } = reply else {
        panic!("{reply:?}");
    };
    assert!(reason.contains("timed out"), "{reason}");
    sim.run_for(Duration::from_secs(1));
    assert_eq!(sim.pod_counter(0, "ctl.op.drain"), 1);
}

#[test]
fn deeply_nested_programs_are_refused_and_fedd_keeps_serving() {
    let mut sim = Sim::new(6, fed_setup("[fed]\n", vec!["deep"]));
    // A `place any` machine whose `util` returns `1` inside `depth`
    // parentheses: fedd parses it to route it before any pod does.
    let nested = |depth: usize| {
        format!(
            "machine Deep {{ place any; state s {{ util (res) {{ return {}1{}; }} }} }}",
            "(".repeat(depth),
            ")".repeat(depth)
        )
    };
    for depth in [1_000, 100_000] {
        match sim.op(submit(&format!("deep{depth}"), nested(depth))) {
            ControlReply::Rejected { reason } => {
                assert!(reason.contains("nested deeper"), "{reason}");
            }
            other => panic!("depth {depth} answered {other:?}"),
        }
        let stats = json(&sim.op(ControlOp::stats_all()));
        assert_eq!(stats.get("pods_live").and_then(Json::as_u64), Some(1));
    }
    let parses = |depth: usize| farm_almanac::parser::parse(&nested(depth)).is_ok();
    let deepest = (1..=farm_almanac::parser::MAX_NESTING)
        .rev()
        .find(|&d| parses(d))
        .expect("a depth that parses");
    match sim.op(submit("deepest", nested(deepest))) {
        ControlReply::Submitted { seeds, .. } => assert_eq!(seeds, 1),
        other => panic!("depth {deepest} answered {other:?}"),
    }
    let (_, listing) = sim.ask(pod_addr(0), vec![ControlOp::list_all()]).remove(0);
    assert_eq!(seed_keys(&listing).len(), 1);
}

/// Two `place any` programs whose `enter` would run away: two nested
/// loops of a million iterations each, and doubling recursion 40 calls
/// deep. Each stops at the handler budget on the pod it lands on.
const RUNAWAYS: [(&str, &str); 2] = [
    (
        "spin",
        "machine Spin { place any; long bumps = 0; state s { when (enter) do {
           long i = 0;
           while (i < 1000000) {
             long j = 0;
             while (j < 1000000) { bumps = bumps + 1; j = j + 1; }
             i = i + 1;
           }
         } } }",
    ),
    (
        "fork",
        "fun f(long n): long { if (n <= 0) then { return 1; } return f(n - 1) + f(n - 1); }
         machine Fork { place any; long got = 0; state s { when (enter) do { got = f(40); } } }",
    ),
];

#[test]
fn runaway_handlers_submitted_through_fedd_stop_at_the_budget() {
    let mut sim = Sim::new(7, fed_setup("[fed]\n", vec!["a", "b"]));
    let link = Duration::from_millis(3);
    fixed_delay(&sim, link);
    for (name, source) in RUNAWAYS {
        let asked = sim.now();
        let (at, reply) = sim.ask(FEDD, vec![submit(name, source.into())]).remove(0);
        assert!(
            matches!(reply, ControlReply::Submitted { seeds: 1, .. }),
            "{name}: {reply:?}"
        );
        // The budget is the pod's CPU, not the federation's clock.
        assert_eq!(at - asked, 2 * CLIENT_DELAY + 2 * link, "{name}");
    }
    let stats = json(&sim.op(ControlOp::stats_all()));
    let counter = |name: &str| {
        let counters = stats.get("counters").expect("counters");
        counters.get(name).and_then(Json::as_u64)
    };
    assert_eq!(counter("farm.seed_errors"), Some(2));
    assert_eq!(counter("soil.seed_errors"), Some(2));
    assert_eq!(stats.get("pods_reached").and_then(Json::as_u64), Some(2));
    // Both seeds stay placed, one on each pod.
    assert_eq!(seed_keys(&sim.op(ControlOp::list_all())).len(), 2);
}

/// One generated step of an operator (and of the network) against the
/// federation.
#[derive(Debug, Clone)]
enum Step {
    /// Submits a new task: `place any`, `place all`, or `place all` on
    /// the given global switch ids (a split when they span pods).
    Submit(Place),
    List,
    /// A page of the listing: `from_index` and `limit`.
    Page(u64, u64),
    Stats,
    Metrics,
    Drain(u32),
    Uncordon(u32),
    /// Migrates the n-th submitted task to pod m.
    Migrate(usize, usize),
    /// Removes the n-th submitted task.
    Remove(usize),
    /// Cuts pod n off the network, or heals it.
    Cut(usize),
    Heal(usize),
    Wait(u64),
}

#[derive(Debug, Clone)]
enum Place {
    Any,
    All,
    On(Vec<u32>),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let ids = 0..3 * POD_SWITCHES;
    let step = prop_oneof![
        Just(Step::Submit(Place::Any)),
        Just(Step::Submit(Place::All)),
        proptest::collection::vec(ids.clone(), 1..4).prop_map(|on| Step::Submit(Place::On(on))),
        Just(Step::List),
        (0..16u64, 0..8u64).prop_map(|(from, limit)| Step::Page(from, limit)),
        Just(Step::Stats),
        Just(Step::Metrics),
        ids.clone().prop_map(Step::Drain),
        ids.prop_map(Step::Uncordon),
        (0..8usize, 0..3usize).prop_map(|(n, m)| Step::Migrate(n, m)),
        (0..8usize).prop_map(Step::Remove),
        (0..3usize).prop_map(Step::Cut),
        (0..3usize).prop_map(Step::Heal),
        (1..1500u64).prop_map(Step::Wait),
    ];
    proptest::collection::vec(step, 1..14)
}

/// The wire's faults: a loss rate and the largest one-way delay.
fn faults() -> impl Strategy<Value = (usize, usize)> {
    (0..3usize, 0..4usize)
}

fn fault_plan((loss, delay): (usize, usize)) -> Faults {
    let max = [1, 20, 80, 300][delay];
    Faults {
        loss: [0.0, 0.05, 0.2][loss],
        delay: (Duration::from_millis(1), Duration::from_millis(max)),
        ..Faults::default()
    }
}

/// What the operator was told: every task acknowledged and not since
/// asked to go, and every name ever submitted.
#[derive(Default)]
struct Told {
    acked: BTreeSet<String>,
    names: Vec<String>,
}

/// Which pods host `task`.
fn hosts(sim: &Sim, task: &str) -> Vec<&'static str> {
    let pods = sim.pods.borrow();
    let holds = |i: &usize| pods[*i].core.farm().seeder().has_task(task);
    (0..pods.len())
        .filter(holds)
        .map(|i| sim.names[i])
        .collect()
}

/// Runs one step and checks the matrix after it.
fn run_step(sim: &mut Sim, told: &mut Told, step: &Step) {
    let pick = |n: usize| told.names.get(n % told.names.len().max(1)).cloned();
    let op = match step {
        Step::Submit(place) => {
            let places = match place {
                Place::Any => "place any;".to_string(),
                Place::All => "place all;".to_string(),
                Place::On(ids) => {
                    let ids: Vec<String> = ids.iter().map(u32::to_string).collect();
                    format!("place all {};", ids.join(", "))
                }
            };
            let name = format!("t{}", told.names.len());
            told.names.push(name.clone());
            submit(&name, machine(&places))
        }
        Step::List => ControlOp::list_all(),
        Step::Page(from_index, limit) => ControlOp::ListSeeds {
            from_index: *from_index,
            limit: *limit,
        },
        Step::Stats => ControlOp::stats_all(),
        Step::Metrics => ControlOp::MetricsDump,
        Step::Drain(switch) => ControlOp::Drain { switch: *switch },
        Step::Uncordon(switch) => ControlOp::Uncordon { switch: *switch },
        Step::Migrate(n, m) => {
            let Some(task) = pick(*n) else { return };
            let to_pod = sim.names[*m].to_string();
            ControlOp::MigrateTask { task, to_pod }
        }
        Step::Remove(n) => {
            let Some(task) = pick(*n) else { return };
            told.acked.remove(&task);
            ControlOp::RemoveTask { task }
        }
        Step::Cut(i) => return sim.cut(*i, true),
        Step::Heal(i) => return sim.cut(*i, false),
        Step::Wait(ms) => return sim.run_for(Duration::from_millis(*ms)),
    };
    sim.wire.borrow_mut().harvested.clear();
    let errors = sim.fedd_counter("fed.fanout.errors");
    let reply = sim.op(op.clone());
    match (&op, &reply) {
        (ControlOp::SubmitProgram { name, .. }, ControlReply::Submitted { .. }) => {
            told.acked.insert(name.clone());
        }
        (ControlOp::MigrateTask { task, to_pod }, ControlReply::Migrated { .. }) => {
            let on = hosts(sim, task);
            assert!(
                on.contains(&to_pod.as_str()),
                "{task} migrated to {to_pod}, on {on:?}"
            );
        }
        _ => {}
    }
    // A read every live pod answered is the fold of what each pod
    // answered.
    if sim.fedd_counter("fed.fanout.errors") == errors {
        let harvested = std::mem::take(&mut sim.wire.borrow_mut().harvested);
        check_fold(sim, &op, &reply, harvested);
    }
}

/// The pods' own answers to a fan-out, by pod index, in pod order.
type Answers = BTreeMap<usize, Vec<ControlReply>>;

/// The sort-based merge fedd's listing replaced: each pod's listing
/// with its keys prefixed `pod:` and its switch ids moved by the pod's
/// base, sorted by key.
fn sorted_merge(parts: Vec<(&str, u64, Vec<SeedDescriptor>)>) -> Vec<SeedDescriptor> {
    let mut merged: Vec<SeedDescriptor> = Vec::new();
    for (pod, base, seeds) in parts {
        merged.extend(seeds.into_iter().map(|mut d| {
            d.key = format!("{pod}:{}", d.key);
            d.switch += base as u32;
            d
        }));
    }
    merged.sort_by(|a, b| a.key.cmp(&b.key));
    merged
}

fn check_fold(
    sim: &Sim,
    op: &ControlOp,
    reply: &ControlReply,
    harvested: Vec<(std::net::SocketAddr, Result<Frame, farm_net::NetError>)>,
) {
    let mut answers = Answers::new();
    for (addr, answer) in harvested {
        let i = (0..sim.names.len()).find(|&i| pod_addr(i) == addr);
        let (Some(i), Ok(Frame::ControlReply { reply })) = (i, answer) else {
            panic!("fedd harvested {addr}: not a pod's control reply");
        };
        answers.entry(i).or_default().push(reply);
    }
    let base = |i: usize| u64::from(POD_SWITCHES) * i as u64;
    match op {
        ControlOp::ListSeeds { from_index, limit } => {
            // A page's first round asks each pod for its total alone.
            let paged = (*from_index, *limit) != (0, 0);
            let mut total = 0;
            let mut parts = Vec::new();
            for (&i, pages) in &answers {
                let mut seeds = Vec::new();
                for (n, page) in pages.iter().enumerate() {
                    let ControlReply::Seeds {
                        seeds: s, total: t, ..
                    } = page
                    else {
                        panic!("{page:?}");
                    };
                    if paged && n == 0 {
                        assert!(s.is_empty(), "a count round lists nothing: {page:?}");
                        total += t;
                    }
                    seeds.extend(s.iter().cloned());
                }
                parts.push((sim.names[i], base(i), seeds));
            }
            let seeds = sorted_merge(parts);
            let (window, cursor) = page(*from_index, *limit, total as usize);
            assert!(
                !paged || seeds.len() == window.len(),
                "{window:?} of {total}"
            );
            let (next_index, total) = cursor.unwrap_or((0, 0));
            let want = ControlReply::Seeds {
                seeds,
                next_index,
                total,
            };
            assert_eq!(reply, &want, "listing");
        }
        ControlOp::Stats { .. } => {
            let got = json(reply);
            let mut merged = StatsDoc::default();
            for (&i, pages) in &answers {
                let mut doc = StatsDoc::default();
                for (n, page) in pages.iter().enumerate() {
                    let page = StatsDoc::from_json(&json(page));
                    if n == 0 {
                        doc = page;
                    } else {
                        doc.counters.extend(page.counters);
                    }
                }
                merged.fold(doc, base(i));
            }
            merged.own = ["pods_total", "pods_live", "pods_reached"]
                .map(|k| (k.to_string(), got.get(k).cloned().expect(k)))
                .to_vec();
            let reached = got.get("pods_reached").and_then(Json::as_u64);
            assert_eq!(reached, Some(answers.len() as u64), "stats");
            assert_eq!(merged.into_json(0, 0), got, "stats");
        }
        ControlOp::MetricsDump => {
            let pods = (answers.iter())
                .map(|(&i, pages)| (sim.names[i].to_string(), json(&pages[0])))
                .collect();
            let got = json(reply);
            assert_eq!(got.get("pods"), Some(&Json::Obj(pods)), "metrics");
        }
        _ => {}
    }
}

/// After every step: each acknowledged task is on at least one pod, and
/// every pod's farm passes its own audit.
fn check_matrix(sim: &Sim, told: &Told, after: &str) {
    for task in &told.acked {
        assert!(!hosts(sim, task).is_empty(), "{task} lost after {after}");
    }
    for (i, pod) in sim.pods.borrow().iter().enumerate() {
        let audit = pod.core.farm().audit();
        assert!(
            audit.is_clean(),
            "pod {} after {after}: {audit}",
            sim.names[i]
        );
    }
}

proptest! {
    #[test]
    fn the_federation_keeps_design_s_matrix_under_generated_faults(
        seed in 0..u64::MAX,
        faults in faults(),
        steps in steps(),
    ) {
        let mut sim = Sim::new(seed, Setup::default());
        sim.wire.borrow_mut().faults = fault_plan(faults);
        let mut told = Told::default();
        for (n, step) in steps.iter().enumerate() {
            run_step(&mut sim, &mut told, step);
            check_matrix(&sim, &told, &format!("step {n} ({step:?})"));
        }
    }
}

/// A fixed script under a lossy, jittery wire. `Stats` and
/// `MetricsDump` are left out: their bodies carry farm-core's
/// wall-clock phase timers (`farm.replan_us`).
fn scripted_trace(seed: u64) -> Vec<u8> {
    let mut sim = Sim::new(seed, Setup::default());
    sim.wire.borrow_mut().faults = Faults {
        loss: 0.1,
        ..fault_plan((0, 2))
    };
    let mut told = Told::default();
    let script = [
        Step::Submit(Place::Any),
        Step::Submit(Place::On(vec![1, 5, 9])),
        Step::Submit(Place::All),
        Step::List,
        Step::Migrate(0, 2),
        Step::Drain(5),
        Step::Cut(1),
        Step::Wait(1200),
        Step::List,
        Step::Submit(Place::Any),
        Step::Heal(1),
        Step::Wait(300),
        Step::Uncordon(5),
        Step::Remove(1),
        Step::List,
    ];
    for step in &script {
        run_step(&mut sim, &mut told, step);
    }
    let wire = sim.wire.borrow();
    wire.trace.clone()
}

#[test]
fn the_same_seed_gives_the_same_trace_bytes() {
    let first = scripted_trace(11);
    assert!(first.len() > 10_000, "{} bytes", first.len());
    assert_eq!(first, scripted_trace(11));
    assert_ne!(first, scripted_trace(12));
}
