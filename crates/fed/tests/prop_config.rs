//! The daemons' config readers are total: a valid farmd or fedd config
//! with bytes flipped, inserted, removed or cut anywhere is `Ok` or
//! `Err`, never a panic (the mutation loop of `prop_json.rs`'s
//! `parser_is_total_on_mutated_documents`).

use farm_ctl::FarmdConfig;
use farm_fed::FeddConfig;
use proptest::collection::vec;
use proptest::prelude::*;

/// A farmd config that sets every key.
const FARMD: &str = r#"
# farmd, every key
[server]
listen = "127.0.0.1:4520"   # control endpoint
request_timeout_ms = 2500
shutdown_drain_ms = 50
pid_file = "/tmp/farmd.pid"
event_log = "/tmp/farmd-events.jsonl"
checkpoint_path = "/tmp/farmd.ckp"
checkpoint_interval_ms = 1000
restore_on_boot = true

[farm]
spines = 3
leaves = 4
replan_interval_ms = 200
tick_interval_ms = 5

[faults]
seed = 7
start_ms = 10
mean_gap_ms = 40
horizon_ms = 60000

[admission]
quota = 0.8
max_program_bytes = 4096

[fed]
coordinator = "127.0.0.1:4600"
pod_name = "a"
heartbeat_ms = 100
advertise = "127.0.0.1:4520"
"#;

/// A fedd config that sets every key.
const FEDD: &str = r#"
[server]
listen = "127.0.0.1:4600"
shutdown_drain_ms = 20

[fed]
liveness_timeout_ms = 1000
pod_timeout_ms = 2000

[admission]
max_program_bytes = 65536
"#;

#[test]
fn the_documents_are_valid() {
    FarmdConfig::from_toml_str(FARMD).expect("farmd config");
    FeddConfig::from_toml_str(FEDD).expect("fedd config");
}

proptest! {
    #[test]
    fn config_readers_are_total_on_mutated_documents(
        fedd in any::<bool>(),
        edits in vec((any::<usize>(), any::<u8>(), 0u8..4), 1..6),
    ) {
        let mut bytes = if fedd { FEDD } else { FARMD }.as_bytes().to_vec();
        for (at, byte, kind) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
        }
        let src = String::from_utf8_lossy(&bytes);
        if fedd {
            let _ = FeddConfig::from_toml_str(&src);
        } else {
            let _ = FarmdConfig::from_toml_str(&src);
        }
    }
}
