//! Policy identities: the closed set of paper policies and the open set
//! of governor names results can carry.
//!
//! [`Policy`] enumerates the governors the paper's figures compare.
//! [`PolicyName`] is the typed replacement for the old stringly
//! `RunResult::governor` field: it is a [`Policy`] whenever the governor
//! is one of the paper's, and carries the raw name otherwise (pinned
//! sweep governors, training pins, custom governors). String comparisons
//! keep working — `result.governor == "DORA"` compares against the
//! canonical name. [`Policy::governor`] is the one factory that turns a
//! policy into a runnable governor.

use crate::evaluate::EvaluateError;
use crate::runner::OracleFrequencies;
use dora::{DoraConfig, DoraGovernor, DoraModels, DoraPolicy};
use dora_browser::PageFeatures;
use dora_governors::{
    ConservativeGovernor, Governor, InteractiveGovernor, PerformanceGovernor, PinnedGovernor,
    PowersaveGovernor,
};
use dora_sim_core::units::Seconds;
use dora_soc::board::BoardConfig;
use std::fmt;

/// The policies the paper's figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Android default (the baseline everything is normalized to).
    Interactive,
    /// Always `fmax`.
    Performance,
    /// Always `fmin` (dismissed by the paper; kept for completeness).
    Powersave,
    /// Step-wise utilization governor (extra baseline).
    Conservative,
    /// Statically pinned at the *measured* `fD` (Fig. 8's `fD` series);
    /// `fmax` when no frequency meets the deadline.
    OracleFd,
    /// Statically pinned at the *measured* `fE` (Fig. 8's `fE` series).
    OracleFe,
    /// Statically pinned at the measured `fopt` — the paper's
    /// `Offline_opt` reference.
    OfflineOpt,
    /// The full DORA governor.
    Dora,
    /// DORA without the leakage term (Fig. 10a ablation).
    DoraNoLkg,
    /// The model-driven deadline-only hypothetical governor (`DL`).
    DeadlineOnly,
    /// The model-driven energy-only hypothetical governor (`EE`).
    EnergyOnly,
}

impl Policy {
    /// Every paper policy, in figure order.
    pub const ALL: [Policy; 11] = [
        Policy::Interactive,
        Policy::Performance,
        Policy::Powersave,
        Policy::Conservative,
        Policy::OracleFd,
        Policy::OracleFe,
        Policy::OfflineOpt,
        Policy::Dora,
        Policy::DoraNoLkg,
        Policy::DeadlineOnly,
        Policy::EnergyOnly,
    ];

    /// The name the policy's results carry in
    /// [`RunResult::governor`](crate::runner::RunResult::governor).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Interactive => "interactive",
            Policy::Performance => "performance",
            Policy::Powersave => "powersave",
            Policy::Conservative => "conservative",
            Policy::OracleFd => "fD",
            Policy::OracleFe => "fE",
            Policy::OfflineOpt => "offline_opt",
            Policy::Dora => "DORA",
            Policy::DoraNoLkg => "DORA_no_lkg",
            Policy::DeadlineOnly => "DL",
            Policy::EnergyOnly => "EE",
        }
    }

    /// The inverse of [`Policy::name`]; `None` for names that are not a
    /// paper policy.
    pub fn from_name(name: &str) -> Option<Policy> {
        Policy::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether this policy needs the per-workload oracle sweep.
    pub fn needs_oracle(self) -> bool {
        matches!(
            self,
            Policy::OracleFd | Policy::OracleFe | Policy::OfflineOpt
        )
    }

    /// Whether this policy needs trained DORA models.
    pub fn needs_models(self) -> bool {
        matches!(
            self,
            Policy::Dora | Policy::DoraNoLkg | Policy::DeadlineOnly | Policy::EnergyOnly
        )
    }

    /// Builds this policy's governor for loading a page with `features` on
    /// `board` under a QoS `deadline`.
    ///
    /// Stock governors search the board's primary DVFS table. DORA-family
    /// policies search the board's own per-cluster tables, with one
    /// scaled model per cluster ([`DoraGovernor::from_profile`]). Oracle
    /// policies pin the frequencies of the workload's measured `oracle`
    /// sweep.
    ///
    /// # Errors
    ///
    /// [`EvaluateError::ModelsRequired`] for a DORA-family policy without
    /// `models`, and [`EvaluateError::MissingOracle`] for an oracle policy
    /// without `oracle`.
    pub fn governor(
        self,
        board: &BoardConfig,
        deadline: Seconds,
        features: PageFeatures,
        models: Option<&DoraModels>,
        oracle: Option<&OracleFrequencies>,
    ) -> Result<Box<dyn Governor>, EvaluateError> {
        let table = board.dvfs.clone();
        let need_oracle = || oracle.ok_or(EvaluateError::MissingOracle(self.name()));
        let dora = |policy: DoraPolicy,
                    include_leakage: bool|
         -> Result<Box<dyn Governor>, EvaluateError> {
            let models = models.ok_or(EvaluateError::ModelsRequired(self.name()))?;
            let config = DoraConfig {
                qos_target: deadline,
                include_leakage,
                policy,
                ..DoraConfig::default()
            };
            Ok(Box::new(DoraGovernor::from_profile(
                models, board, features, config,
            )))
        };
        Ok(match self {
            Policy::Interactive => Box::new(InteractiveGovernor::new(table)),
            Policy::Performance => Box::new(PerformanceGovernor::new(table)),
            Policy::Powersave => Box::new(PowersaveGovernor::new(table)),
            Policy::Conservative => Box::new(ConservativeGovernor::new(table)),
            Policy::OracleFd => {
                let f = need_oracle()?.fd.unwrap_or_else(|| table.max_frequency());
                Box::new(PinnedGovernor::new("fD", f))
            }
            Policy::OracleFe => Box::new(PinnedGovernor::new("fE", need_oracle()?.fe)),
            Policy::OfflineOpt => Box::new(PinnedGovernor::new("offline_opt", need_oracle()?.fopt)),
            Policy::Dora => dora(DoraPolicy::Dora, true)?,
            Policy::DoraNoLkg => dora(DoraPolicy::Dora, false)?,
            Policy::DeadlineOnly => dora(DoraPolicy::DeadlineOnly, true)?,
            Policy::EnergyOnly => dora(DoraPolicy::EnergyOnly, true)?,
        })
    }

    /// The governor set of Fig. 7 (plus the baseline).
    pub const FIG7: [Policy; 5] = [
        Policy::Interactive,
        Policy::Performance,
        Policy::DeadlineOnly,
        Policy::EnergyOnly,
        Policy::Dora,
    ];

    /// The governor set of Fig. 8 (plus the baseline).
    pub const FIG8: [Policy; 7] = [
        Policy::Interactive,
        Policy::Performance,
        Policy::OracleFd,
        Policy::OracleFe,
        Policy::Dora,
        Policy::DeadlineOnly,
        Policy::EnergyOnly,
    ];
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The identity a result row's governor: a paper [`Policy`] when the
/// name matches one, the raw governor name otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PolicyName {
    /// One of the paper's policies.
    Known(Policy),
    /// Any other governor name (pinned sweeps, training pins, custom
    /// governors).
    Custom(String),
}

impl PolicyName {
    /// The canonical string form (what the old `String` field held).
    pub fn as_str(&self) -> &str {
        match self {
            PolicyName::Known(p) => p.name(),
            PolicyName::Custom(s) => s,
        }
    }

    /// The paper policy behind this name, when there is one.
    pub fn policy(&self) -> Option<Policy> {
        match self {
            PolicyName::Known(p) => Some(*p),
            PolicyName::Custom(_) => None,
        }
    }
}

impl fmt::Display for PolicyName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<Policy> for PolicyName {
    fn from(policy: Policy) -> Self {
        PolicyName::Known(policy)
    }
}

impl From<&str> for PolicyName {
    fn from(name: &str) -> Self {
        match Policy::from_name(name) {
            Some(p) => PolicyName::Known(p),
            None => PolicyName::Custom(name.to_string()),
        }
    }
}

impl From<String> for PolicyName {
    fn from(name: String) -> Self {
        PolicyName::from(name.as_str())
    }
}

impl std::str::FromStr for PolicyName {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(PolicyName::from(s))
    }
}

impl PartialEq<str> for PolicyName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for PolicyName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<PolicyName> for str {
    fn eq(&self, other: &PolicyName) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<PolicyName> for &str {
    fn eq(&self, other: &PolicyName) -> bool {
        *self == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_from_name() {
        for p in Policy::ALL {
            assert_eq!(Policy::from_name(p.name()), Some(p));
        }
        assert_eq!(Policy::from_name("pinned"), None);
    }

    #[test]
    fn policy_names_classify_known_and_custom() {
        assert_eq!(PolicyName::from("DORA"), PolicyName::Known(Policy::Dora));
        assert_eq!(PolicyName::from("DORA").policy(), Some(Policy::Dora));
        let custom = PolicyName::from("pinned");
        assert_eq!(custom, PolicyName::Custom("pinned".to_string()));
        assert_eq!(custom.policy(), None);
    }

    #[test]
    fn string_comparisons_keep_working() {
        let name = PolicyName::from("offline_opt");
        assert!(name == "offline_opt");
        assert!("offline_opt" == name);
        assert!(name != "DORA");
        assert_eq!(name.to_string(), "offline_opt");
    }
}
