//! The framework's unified error type.
//!
//! Everything that can fail at the `farm-core` boundary — Almanac
//! compilation, soil-level deployment, placement planning, plan
//! bookkeeping — surfaces as one structured [`Error`] enum instead of
//! the bare string wrappers the layers use internally. The enum is
//! `#[non_exhaustive]`: downstream matches need a wildcard arm, which
//! lets future PRs add failure classes without a breaking change.

use std::fmt;

use farm_almanac::AlmanacError;
use farm_netsim::types::SwitchId;
use farm_soil::SoilError;

/// Framework-level failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Almanac compilation (parse, type-check, or analysis) failed.
    Compile(AlmanacError),
    /// A soil rejected a deploy, realloc, restore, or undeploy.
    Soil(SoilError),
    /// The placement planner could not build or solve its instance.
    Planner(String),
    /// A plan referenced a machine the task catalog does not know.
    UnknownMachine(String),
    /// A plan acted on a seed that is not currently deployed.
    NotDeployed(String),
    /// An operator named a switch the fabric does not have.
    UnknownSwitch(SwitchId),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "farm error: {e}"),
            Error::Soil(e) => write!(f, "farm error: {e}"),
            Error::Planner(msg) => write!(f, "farm error: planner: {msg}"),
            Error::UnknownMachine(key) => {
                write!(f, "farm error: unknown machine for {key}")
            }
            Error::NotDeployed(key) => write!(f, "farm error: {key} is not deployed"),
            Error::UnknownSwitch(id) => write!(f, "farm error: no switch {} in the fabric", id.0),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Soil(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlmanacError> for Error {
    fn from(e: AlmanacError) -> Self {
        Error::Compile(e)
    }
}

impl From<SoilError> for Error {
    fn from(e: SoilError) -> Self {
        Error::Soil(e)
    }
}

impl From<String> for Error {
    fn from(e: String) -> Self {
        Error::Planner(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_carry_structured_causes() {
        let soil = SoilError::UnknownSeed(farm_soil::SeedId(7));
        let err: Error = soil.clone().into();
        assert_eq!(err, Error::Soil(soil));
        assert!(err.to_string().contains("unknown seed"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn planner_strings_convert() {
        let err: Error = String::from("no feasible switch").into();
        assert!(matches!(err, Error::Planner(_)));
        assert!(err.to_string().contains("planner"));
    }
}
