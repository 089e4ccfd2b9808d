//! farmd — the FARM daemon. Hosts a farm behind the control endpoint
//! until a `farmctl shutdown` arrives or a supervisor signals it. The
//! lifecycle (PID file, signals, exit codes) is [`farm_ctl::daemon::main`]'s.

use std::process::ExitCode;

use farm_ctl::{server, FarmdConfig};

const USAGE: &str = "\
farmd - FARM control-plane daemon

USAGE:
    farmd [--config <farmd.toml>] [--listen <addr:port>] [--print-addr]

OPTIONS:
    --config <path>   Load settings from a TOML file
    --listen <addr>   Override the listen address (e.g. 127.0.0.1:7373)
    --print-addr      Print the bound address on stdout once listening
    -h, --help        Show this help

SIGNALS:
    SIGTERM, SIGINT   Drain in-flight ops, write a final checkpoint,
                      exit with code 3
";

fn main() -> ExitCode {
    farm_ctl::daemon::main::<server::Core>(
        USAGE,
        "serving control plane",
        FarmdConfig::from_toml_str,
    )
}
