//! farmd configuration: a hand-rolled loader for the TOML subset the
//! daemon needs — `[section]` headers, `key = value` pairs with string,
//! integer, float and boolean values, and `#` comments. No external
//! parser dependency, total error reporting with line numbers.

use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// A configuration file failed to parse or held a bad value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the offending input (0 for file-level problems).
    pub(crate) line: u32,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "config: {}", self.message)
        } else {
            write!(f, "config: line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builds a [`ConfigError`] — shared by every consumer of [`Table`].
pub(crate) fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
        }
    }
}

/// Flat `section.key` → value view of one file. Public so other
/// daemons (fedd) can parse their own sections with the same TOML
/// subset and unknown-key discipline.
#[derive(Debug, Default)]
pub struct Table {
    entries: BTreeMap<String, (u32, Value)>,
}

impl Table {
    pub fn parse(src: &str) -> Result<Table, ConfigError> {
        let mut entries = BTreeMap::new();
        let mut section = String::new();
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(err(lineno, "unterminated [section] header"));
                };
                let name = name.trim();
                if name.is_empty() || !name.chars().all(is_key_char) {
                    return Err(err(lineno, format!("bad section name `{name}`")));
                }
                section = name.to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
            };
            let key = key.trim();
            if key.is_empty() || !key.chars().all(is_key_char) {
                return Err(err(lineno, format!("bad key `{key}`")));
            }
            let full = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            let value = parse_value(value.trim(), lineno)?;
            if entries.insert(full.clone(), (lineno, value)).is_some() {
                return Err(err(lineno, format!("duplicate key `{full}`")));
            }
        }
        Ok(Table { entries })
    }

    pub(crate) fn get(&self, key: &str) -> Option<&(u32, Value)> {
        self.entries.get(key)
    }

    fn take_known(&mut self, key: &str) -> Option<(u32, Value)> {
        self.entries.remove(key)
    }

    /// Fails on the first key no getter consumed, so typos fail loudly
    /// instead of silently running defaults.
    pub fn reject_unknown(&self) -> Result<(), ConfigError> {
        if let Some((key, (line, _))) = self.entries.iter().next() {
            return Err(err(*line, format!("unknown key `{key}`")));
        }
        Ok(())
    }

    pub(crate) fn str(&mut self, key: &str) -> Result<Option<String>, ConfigError> {
        match self.take_known(key) {
            None => Ok(None),
            Some((_, Value::Str(s))) => Ok(Some(s)),
            Some((line, v)) => Err(err(
                line,
                format!("`{key}` must be a string, got {}", v.type_name()),
            )),
        }
    }

    pub fn u64(&mut self, key: &str) -> Result<Option<u64>, ConfigError> {
        match self.take_known(key) {
            None => Ok(None),
            Some((line, Value::Int(i))) => u64::try_from(i)
                .map(Some)
                .map_err(|_| err(line, format!("`{key}` must be non-negative"))),
            Some((line, v)) => Err(err(
                line,
                format!("`{key}` must be an integer, got {}", v.type_name()),
            )),
        }
    }

    pub(crate) fn bool(&mut self, key: &str) -> Result<Option<bool>, ConfigError> {
        match self.take_known(key) {
            None => Ok(None),
            Some((_, Value::Bool(b))) => Ok(Some(b)),
            Some((line, v)) => Err(err(
                line,
                format!("`{key}` must be a boolean, got {}", v.type_name()),
            )),
        }
    }

    pub(crate) fn f64(&mut self, key: &str) -> Result<Option<f64>, ConfigError> {
        match self.take_known(key) {
            None => Ok(None),
            Some((_, Value::Float(x))) => Ok(Some(x)),
            Some((_, Value::Int(i))) => Ok(Some(i as f64)),
            Some((line, v)) => Err(err(
                line,
                format!("`{key}` must be a number, got {}", v.type_name()),
            )),
        }
    }
}

fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Removes a trailing `#` comment, honoring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str, line: u32) -> Result<Value, ConfigError> {
    if let Some(rest) = s.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(err(line, "unterminated string"));
        };
        if body.contains('"') {
            return Err(err(line, "embedded quotes are not supported"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        "" => return Err(err(line, "missing value")),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(x) = s.parse::<f64>() {
        return Ok(Value::Float(x));
    }
    Err(err(line, format!("cannot parse value `{s}`")))
}

/// The `[server]` keys every daemon on the shared skeleton
/// ([`crate::daemon`]) reads: where it listens and how it shuts down.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Address the control endpoint binds; port 0 picks an ephemeral
    /// port (see `Daemon::local_addr`).
    pub listen: SocketAddr,
    /// Longest the core keeps flushing queued replies after a shutdown
    /// before it severs the sessions.
    pub shutdown_drain: Duration,
    /// Optional PID file for external supervisors; written at startup,
    /// removed on graceful exit.
    pub pid_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".parse().expect("loopback parses"),
            shutdown_drain: Duration::from_millis(100),
            pid_file: None,
        }
    }
}

impl ServerConfig {
    /// Consumes the shared `[server]` keys from a parsed file.
    pub fn take(t: &mut Table) -> Result<ServerConfig, ConfigError> {
        let mut cfg = ServerConfig::default();
        let listen_line = line_of(t, "server.listen");
        if let Some(s) = t.str("server.listen")? {
            cfg.listen = s.parse().map_err(|_| {
                err(
                    listen_line,
                    format!("`server.listen`: bad socket address `{s}`"),
                )
            })?;
        }
        // Retired: ops are served on the thread that reads them, so no
        // hand-off is left to time out. Deployed files carry the key, so
        // it is still accepted and type-checked.
        t.u64("server.request_timeout_ms")?;
        if let Some(ms) = t.u64("server.shutdown_drain_ms")? {
            cfg.shutdown_drain = Duration::from_millis(ms);
        }
        if let Some(p) = t.str("server.pid_file")? {
            cfg.pid_file = Some(PathBuf::from(p));
        }
        Ok(cfg)
    }
}

/// Everything farmd needs to come up.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmdConfig {
    /// Listen address, shutdown drain, PID file.
    pub server: ServerConfig,
    /// Optional JSON-lines event log (the audit trail on disk).
    pub event_log: Option<PathBuf>,
    /// Optional checkpoint file: `Checkpoint` ops persist the program
    /// catalog and every seed's versioned snapshot here as `FARMCKP2`,
    /// and `Restore` ops reload it; a file of any other layout is
    /// rejected, not read.
    pub checkpoint_path: Option<PathBuf>,
    /// Periodic checkpoint cadence (needs `checkpoint_path`); `None`
    /// disables the ticker and leaves checkpoints manual.
    pub checkpoint_interval: Option<Duration>,
    /// Reload the checkpoint file at startup (programs recompiled, seed
    /// state restored) before serving the first op. Default on; only
    /// meaningful with `checkpoint_path`.
    pub restore_on_boot: bool,
    /// Hosted fabric shape: spine switches.
    pub spines: usize,
    /// Hosted fabric shape: leaf switches.
    pub leaves: usize,
    /// Periodic replan cadence; `None` disables the ticker.
    pub replan_interval: Option<Duration>,
    /// Admission quota: fraction of live fabric capacity submissions may
    /// claim in total (per resource kind).
    pub quota: f64,
    /// Largest accepted Almanac submission, bytes.
    pub max_program_bytes: usize,
    /// Wall-clock cadence at which the core advances the hosted farm's
    /// virtual clock (driving heartbeats, fault injection and recovery
    /// while the daemon idles); `None` leaves virtual time op-driven.
    pub tick_interval: Option<Duration>,
    /// Deterministic churn injection: seed of a generated
    /// `farm_faults::FaultPlan` over the leaf switches. `None` runs
    /// fault-free. A file that sets it without `tick_interval` is
    /// rejected: only the tick fires the plan.
    pub fault_seed: Option<u64>,
    /// Virtual-time offset before the first injected fault — a warmup
    /// window so submissions land on a healthy fabric before churn.
    pub fault_start: Duration,
    /// Mean gap between injected churn faults, virtual time.
    pub fault_mean_gap: Duration,
    /// How far into virtual time the generated churn plan extends.
    pub fault_horizon: Duration,
    /// Federation membership: when set, farmd registers with a fedd
    /// coordinator at startup and heartbeats it for liveness.
    pub fed: Option<FedMembership>,
}

/// The `[fed]` section: how this farmd joins a federation.
#[derive(Debug, Clone, PartialEq)]
pub struct FedMembership {
    /// Wire address of the fedd coordinator.
    pub coordinator: SocketAddr,
    /// This pod's registration name (unique per federation).
    pub pod_name: String,
    /// Heartbeat cadence toward the coordinator.
    pub heartbeat: Duration,
    /// Address advertised in the registration manifest; defaults to
    /// the control endpoint's actual bound address.
    pub advertise: Option<SocketAddr>,
}

impl Default for FarmdConfig {
    fn default() -> Self {
        FarmdConfig {
            server: ServerConfig::default(),
            event_log: None,
            checkpoint_path: None,
            checkpoint_interval: None,
            restore_on_boot: true,
            spines: 2,
            leaves: 3,
            replan_interval: None,
            quota: 1.0,
            max_program_bytes: 1 << 20,
            tick_interval: None,
            fault_seed: None,
            fault_start: Duration::ZERO,
            fault_mean_gap: Duration::from_millis(40),
            fault_horizon: Duration::from_secs(60),
            fed: None,
        }
    }
}

impl FarmdConfig {
    /// Parses a config file body. Unknown keys are rejected so typos
    /// fail loudly instead of silently running defaults.
    pub fn from_toml_str(src: &str) -> Result<FarmdConfig, ConfigError> {
        let mut t = Table::parse(src)?;
        let mut cfg = FarmdConfig {
            server: ServerConfig::take(&mut t)?,
            ..FarmdConfig::default()
        };
        if let Some(p) = t.str("server.event_log")? {
            cfg.event_log = Some(PathBuf::from(p));
        }
        if let Some(p) = t.str("server.checkpoint_path")? {
            cfg.checkpoint_path = Some(PathBuf::from(p));
        }
        if let Some(ms) = t.u64("server.checkpoint_interval_ms")? {
            cfg.checkpoint_interval = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(b) = t.bool("server.restore_on_boot")? {
            cfg.restore_on_boot = b;
        }
        if let Some(n) = t.u64("farm.spines")? {
            cfg.spines = n as usize;
        }
        if let Some(n) = t.u64("farm.leaves")? {
            cfg.leaves = n as usize;
        }
        if let Some(ms) = t.u64("farm.replan_interval_ms")? {
            cfg.replan_interval = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(ms) = t.u64("farm.tick_interval_ms")? {
            cfg.tick_interval = (ms > 0).then(|| Duration::from_millis(ms));
        }
        let seed_line = line_of(&t, "faults.seed");
        if let Some(n) = t.u64("faults.seed")? {
            // The plan fires from `Farm::advance`, and only the tick
            // drives that in a daemon.
            if cfg.tick_interval.is_none() {
                return Err(err(
                    seed_line,
                    "`faults.seed` requires a non-zero `farm.tick_interval_ms`: \
                     nothing else advances the clock the fault plan fires on",
                ));
            }
            cfg.fault_seed = Some(n);
        }
        if let Some(ms) = t.u64("faults.start_ms")? {
            cfg.fault_start = Duration::from_millis(ms);
        }
        if let Some(ms) = t.u64("faults.mean_gap_ms")? {
            cfg.fault_mean_gap = Duration::from_millis(ms.max(1));
        }
        if let Some(ms) = t.u64("faults.horizon_ms")? {
            cfg.fault_horizon = Duration::from_millis(ms.max(1));
        }
        if let Some(q) = t.f64("admission.quota")? {
            if !(q > 0.0 && q <= 1.0) {
                return Err(err(
                    0,
                    format!("`admission.quota` must be in (0, 1], got {q}"),
                ));
            }
            cfg.quota = q;
        }
        if let Some(n) = t.u64("admission.max_program_bytes")? {
            cfg.max_program_bytes = n as usize;
        }
        let coord_line = line_of(&t, "fed.coordinator");
        let advertise_line = line_of(&t, "fed.advertise");
        let coordinator = t.str("fed.coordinator")?;
        let pod_name = t.str("fed.pod_name")?;
        let heartbeat_ms = t.u64("fed.heartbeat_ms")?;
        let advertise = t.str("fed.advertise")?;
        if let Some(c) = coordinator {
            let coordinator = c.parse().map_err(|_| {
                err(
                    coord_line,
                    format!("`fed.coordinator`: bad socket address `{c}`"),
                )
            })?;
            let pod_name = pod_name
                .ok_or_else(|| err(coord_line, "`fed.coordinator` requires `fed.pod_name`"))?;
            let advertise = match advertise {
                None => None,
                Some(a) => Some(a.parse().map_err(|_| {
                    err(
                        advertise_line,
                        format!("`fed.advertise`: bad socket address `{a}`"),
                    )
                })?),
            };
            cfg.fed = Some(FedMembership {
                coordinator,
                pod_name,
                heartbeat: Duration::from_millis(heartbeat_ms.unwrap_or(500).max(1)),
                advertise,
            });
        } else if pod_name.is_some() || heartbeat_ms.is_some() || advertise.is_some() {
            return Err(err(0, "`[fed]` keys require `fed.coordinator`"));
        }
        t.reject_unknown()?;
        if cfg.spines == 0 || cfg.leaves == 0 {
            return Err(err(0, "farm.spines and farm.leaves must be at least 1"));
        }
        Ok(cfg)
    }
}

/// Source line of a key, read *before* a getter consumes the entry, for
/// error attribution.
fn line_of(t: &Table, key: &str) -> u32 {
    t.get(key).map(|(l, _)| *l).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
        # farmd example
        [server]
        listen = "127.0.0.1:4520"   # control endpoint
        request_timeout_ms = 2500
        shutdown_drain_ms = 50
        event_log = "/tmp/farmd-events.jsonl"

        [farm]
        spines = 3
        leaves = 4
        replan_interval_ms = 200

        [admission]
        quota = 0.8
        max_program_bytes = 4096
    "#;

    #[test]
    fn full_config_round_trips() {
        let cfg = FarmdConfig::from_toml_str(FULL).unwrap();
        assert_eq!(cfg.server.listen, "127.0.0.1:4520".parse().unwrap());
        assert_eq!(cfg.server.shutdown_drain, Duration::from_millis(50));
        assert_eq!(
            cfg.event_log.as_deref(),
            Some(std::path::Path::new("/tmp/farmd-events.jsonl"))
        );
        assert_eq!((cfg.spines, cfg.leaves), (3, 4));
        assert_eq!(cfg.replan_interval, Some(Duration::from_millis(200)));
        assert!((cfg.quota - 0.8).abs() < 1e-12);
        assert_eq!(cfg.max_program_bytes, 4096);
    }

    #[test]
    fn empty_input_is_all_defaults() {
        let cfg = FarmdConfig::from_toml_str("").unwrap();
        assert_eq!(cfg, FarmdConfig::default());
        assert!(cfg.replan_interval.is_none());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let e = FarmdConfig::from_toml_str("[server]\nlisten_addr = \"x\"\n").unwrap_err();
        assert!(
            e.message.contains("unknown key `server.listen_addr`"),
            "{e}"
        );
        assert_eq!(e.line, 2);
    }

    #[test]
    fn bad_values_carry_line_numbers() {
        let e = FarmdConfig::from_toml_str("[farm]\nspines = \"two\"\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("must be an integer"), "{e}");
        let e = FarmdConfig::from_toml_str("[server]\nlisten = \"nowhere\"\n").unwrap_err();
        assert!(e.message.contains("bad socket address"), "{e}");
        let e = FarmdConfig::from_toml_str("listen 127\n").unwrap_err();
        assert!(e.message.contains("expected `key = value`"), "{e}");
    }

    #[test]
    fn quota_bounds_are_enforced() {
        for bad in ["quota = 0", "quota = 1.5", "quota = -1"] {
            let src = format!("[admission]\n{bad}\n");
            assert!(FarmdConfig::from_toml_str(&src).is_err(), "{bad}");
        }
    }

    #[test]
    fn comments_and_zero_interval_disable() {
        let cfg =
            FarmdConfig::from_toml_str("[farm]\nreplan_interval_ms = 0 # disabled\n").unwrap();
        assert!(cfg.replan_interval.is_none());
        let cfg = FarmdConfig::from_toml_str("[server]\ncheckpoint_interval_ms = 0\n").unwrap();
        assert!(cfg.checkpoint_interval.is_none());
    }

    #[test]
    fn lifecycle_keys_parse() {
        let cfg = FarmdConfig::from_toml_str(
            "[server]\ncheckpoint_interval_ms = 250\nrestore_on_boot = false\n\
             pid_file = \"/tmp/farmd.pid\"\n[farm]\ntick_interval_ms = 5\n",
        )
        .unwrap();
        assert_eq!(cfg.checkpoint_interval, Some(Duration::from_millis(250)));
        assert!(!cfg.restore_on_boot);
        assert_eq!(
            cfg.server.pid_file.as_deref(),
            Some(std::path::Path::new("/tmp/farmd.pid"))
        );
        assert_eq!(cfg.tick_interval, Some(Duration::from_millis(5)));
        // Defaults: restore-on-boot is opt-out, tickers are opt-in.
        let d = FarmdConfig::default();
        assert!(d.restore_on_boot);
        assert!(d.checkpoint_interval.is_none() && d.tick_interval.is_none());
    }

    #[test]
    fn fed_membership_keys_parse() {
        let cfg = FarmdConfig::from_toml_str(
            "[fed]\ncoordinator = \"127.0.0.1:4600\"\npod_name = \"pod-a\"\n\
             heartbeat_ms = 250\nadvertise = \"10.0.0.7:4520\"\n",
        )
        .unwrap();
        let fed = cfg.fed.expect("fed section parsed");
        assert_eq!(fed.coordinator, "127.0.0.1:4600".parse().unwrap());
        assert_eq!(fed.pod_name, "pod-a");
        assert_eq!(fed.heartbeat, Duration::from_millis(250));
        assert_eq!(fed.advertise, Some("10.0.0.7:4520".parse().unwrap()));
        // heartbeat/advertise default when omitted.
        let cfg = FarmdConfig::from_toml_str(
            "[fed]\ncoordinator = \"127.0.0.1:4600\"\npod_name = \"pod-a\"\n",
        )
        .unwrap();
        let fed = cfg.fed.expect("minimal fed section");
        assert_eq!(fed.heartbeat, Duration::from_millis(500));
        assert!(fed.advertise.is_none());
        // pod_name is mandatory alongside coordinator; stray fed keys
        // without a coordinator are rejected.
        assert!(FarmdConfig::from_toml_str("[fed]\ncoordinator = \"127.0.0.1:1\"\n").is_err());
        assert!(FarmdConfig::from_toml_str("[fed]\npod_name = \"x\"\n").is_err());
        assert!(FarmdConfig::from_toml_str("").unwrap().fed.is_none());
    }

    #[test]
    fn faults_without_a_clock_are_rejected_at_the_seed_line() {
        for src in [
            "[faults]\nstart_ms = 500\nseed = 7\n",
            "[farm]\ntick_interval_ms = 0\n[faults]\nstart_ms = 500\nseed = 7\n",
        ] {
            let e = FarmdConfig::from_toml_str(src).unwrap_err();
            let seed_line = 1 + src.lines().position(|l| l == "seed = 7").unwrap() as u32;
            assert_eq!(e.line, seed_line, "{e}");
            assert!(e.message.contains("farm.tick_interval_ms"), "{e}");
        }
        // Section order in the file does not matter.
        let cfg = FarmdConfig::from_toml_str("[faults]\nseed = 7\n[farm]\ntick_interval_ms = 5\n")
            .unwrap();
        assert_eq!(cfg.fault_seed, Some(7));
    }

    #[test]
    fn fault_churn_keys_parse() {
        let cfg = FarmdConfig::from_toml_str(
            "[farm]\ntick_interval_ms = 5\n\
             [faults]\nseed = 1337\nstart_ms = 500\nmean_gap_ms = 15\nhorizon_ms = 2000\n",
        )
        .unwrap();
        assert_eq!(cfg.fault_seed, Some(1337));
        assert_eq!(cfg.fault_start, Duration::from_millis(500));
        assert_eq!(cfg.fault_mean_gap, Duration::from_millis(15));
        assert_eq!(cfg.fault_horizon, Duration::from_millis(2000));
        assert!(FarmdConfig::from_toml_str("").unwrap().fault_seed.is_none());
        let e = FarmdConfig::from_toml_str("[server]\nrestore_on_boot = 1\n").unwrap_err();
        assert!(e.message.contains("must be a boolean"), "{e}");
    }
}
