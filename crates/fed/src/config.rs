//! fedd configuration — the same hand-rolled TOML subset (and the same
//! unknown-key discipline) as farmd's, via [`farm_ctl::config::Table`].

use std::time::Duration;

use farm_ctl::config::{ServerConfig, Table};
use farm_ctl::ConfigError;

/// Everything fedd needs to come up.
#[derive(Debug, Clone, PartialEq)]
pub struct FeddConfig {
    /// Listen address, shutdown drain, PID file — the
    /// same `[server]` keys farmd reads.
    pub(crate) server: ServerConfig,
    /// A pod whose last heartbeat is older than this is marked dead:
    /// fan-outs skip it and federated stats degrade to the survivors.
    pub(crate) liveness_timeout: Duration,
    /// How long one fan-out round waits for its pods: every request of
    /// the round is written first, and whatever has not answered when
    /// this much has passed is given up on (never re-sent). A call to
    /// one pod is a round of one.
    pub(crate) pod_timeout: Duration,
    /// Largest accepted Almanac submission, bytes.
    pub(crate) max_program_bytes: usize,
}

impl Default for FeddConfig {
    fn default() -> Self {
        FeddConfig {
            server: ServerConfig::default(),
            liveness_timeout: Duration::from_secs(2),
            pod_timeout: Duration::from_secs(5),
            max_program_bytes: 1 << 20,
        }
    }
}

impl FeddConfig {
    /// Parses a config file body. Unknown keys are rejected so typos
    /// fail loudly instead of silently running defaults.
    pub fn from_toml_str(src: &str) -> Result<FeddConfig, ConfigError> {
        let mut t = Table::parse(src)?;
        let mut cfg = FeddConfig {
            server: ServerConfig::take(&mut t)?,
            ..FeddConfig::default()
        };
        if let Some(ms) = t.u64("fed.liveness_timeout_ms")? {
            cfg.liveness_timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(ms) = t.u64("fed.pod_timeout_ms")? {
            cfg.pod_timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(n) = t.u64("admission.max_program_bytes")? {
            cfg.max_program_bytes = n as usize;
        }
        t.reject_unknown()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_parses() {
        let cfg = FeddConfig::from_toml_str(
            "[server]\nlisten = \"127.0.0.1:4600\"\nrequest_timeout_ms = 2500\n\
             shutdown_drain_ms = 50\npid_file = \"/tmp/fedd.pid\"\n\
             [fed]\nliveness_timeout_ms = 750\npod_timeout_ms = 1500\n\
             [admission]\nmax_program_bytes = 4096\n",
        )
        .unwrap();
        assert_eq!(cfg.server.listen, "127.0.0.1:4600".parse().unwrap());
        assert_eq!(cfg.server.shutdown_drain, Duration::from_millis(50));
        assert_eq!(
            cfg.server.pid_file.as_deref(),
            Some(std::path::Path::new("/tmp/fedd.pid"))
        );
        assert_eq!(cfg.liveness_timeout, Duration::from_millis(750));
        assert_eq!(cfg.pod_timeout, Duration::from_millis(1500));
        assert_eq!(cfg.max_program_bytes, 4096);
    }

    #[test]
    fn empty_input_is_all_defaults_and_unknown_keys_fail() {
        assert_eq!(
            FeddConfig::from_toml_str("").unwrap(),
            FeddConfig::default()
        );
        let e = FeddConfig::from_toml_str("[fed]\nliveness = 1\n").unwrap_err();
        assert!(e.message.contains("unknown key `fed.liveness`"), "{e}");
        let e = FeddConfig::from_toml_str("[server]\nlisten = \"nowhere\"\n").unwrap_err();
        assert!(e.message.contains("bad socket address"), "{e}");
    }
}
