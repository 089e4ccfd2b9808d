//! fedd — the FARM federation coordinator. Shards a fleet of per-pod
//! farmd instances behind one control endpoint until a
//! `farmctl --fed shutdown` arrives or a supervisor signals it. The
//! lifecycle is farmd's ([`farm_ctl::daemon::main`]); pods are never shut
//! down with the coordinator — a fedd restart is invisible to the
//! fabrics, pods simply re-register.

use std::process::ExitCode;

use farm_fed::{server, FeddConfig};

const USAGE: &str = "\
fedd - FARM federation coordinator daemon

USAGE:
    fedd [--config <fedd.toml>] [--listen <addr:port>] [--print-addr]

OPTIONS:
    --config <path>   Load settings from a TOML file
    --listen <addr>   Override the listen address (e.g. 127.0.0.1:7474)
    --print-addr      Print the bound address on stdout once listening
    -h, --help        Show this help

SIGNALS:
    SIGTERM, SIGINT   Drain in-flight control ops and exit with code 3
                      (registered pods keep running)
";

fn main() -> ExitCode {
    farm_ctl::daemon::main::<server::Core>(
        USAGE,
        "coordinating federation",
        FeddConfig::from_toml_str,
    )
}
