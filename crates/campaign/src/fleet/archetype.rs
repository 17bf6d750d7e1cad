//! Device-class archetypes: the hardware population of a fleet.
//!
//! A fleet is not one phone — it is a weighted population of device
//! classes sitting in different thermal environments. Each
//! [`DeviceArchetype`] pins down one (class, ambient) cell of that
//! population: a board configuration, a battery pack, and the share of
//! sessions it contributes. Archetypes are what the fleet warms once and
//! snapshots — every session of an archetype forks the same warmed board,
//! so the archetype count (not the session count) bounds warm-up cost.

use dora_sim_core::units::{Celsius, WattHours};
use dora_soc::board::BoardConfig;
use dora_soc::SocProfile;

/// A hardware tier of the fleet population.
///
/// All tiers of one population share a [`SocProfile`] (so board
/// snapshots stay structurally compatible and DORA's models transfer);
/// they differ in chassis thermals and battery capacity, the two knobs
/// that move battery-life and throttling behaviour without retraining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Large chassis, good heat spreading, big battery.
    Flagship,
    /// The paper's Nexus 5 itself.
    Mainstream,
    /// Cramped chassis (higher junction-to-ambient resistance), small
    /// battery.
    Budget,
}

impl DeviceClass {
    /// Every class, in tier order.
    pub const ALL: [DeviceClass; 3] = [
        DeviceClass::Flagship,
        DeviceClass::Mainstream,
        DeviceClass::Budget,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Flagship => "flagship",
            DeviceClass::Mainstream => "mainstream",
            DeviceClass::Budget => "budget",
        }
    }

    /// The class's battery pack.
    pub fn battery(self) -> WattHours {
        match self {
            DeviceClass::Flagship => WattHours::new(11.55),
            // 2300 mAh at 3.8 V — the Nexus 5 pack.
            DeviceClass::Mainstream => WattHours::new(8.74),
            DeviceClass::Budget => WattHours::new(7.22),
        }
    }

    /// The class's board at room ambient, on the paper's MSM8974.
    pub fn board(self) -> BoardConfig {
        self.board_for(&SocProfile::msm8974())
    }

    /// The class's board at room ambient, on an arbitrary SoC profile.
    pub fn board_for(self, profile: &SocProfile) -> BoardConfig {
        let mut board = profile.board_config();
        // Chassis quality scales the junction-to-ambient resistance: a
        // budget phone runs the same silicon hotter at the same power.
        board.thermal.resistance_k_per_w *= match self {
            DeviceClass::Flagship => 0.85,
            DeviceClass::Mainstream => 1.0,
            DeviceClass::Budget => 1.25,
        };
        board
    }
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One cell of the fleet population: a device class at an ambient
/// temperature, holding a share of the fleet's sessions.
#[derive(Debug, Clone)]
pub struct DeviceArchetype {
    /// Stable label, e.g. `budget@35C` (profile-prefixed off the default
    /// SoC, e.g. `biglittle-a15a7/budget@35C`).
    pub name: String,
    /// The hardware tier.
    pub class: DeviceClass,
    /// Name of the [`SocProfile`] the board was built from.
    pub soc: String,
    /// The board configuration (class board re-anchored at the ambient).
    pub board: BoardConfig,
    /// The battery pack.
    pub battery: WattHours,
    /// Relative population weight (any positive scale; normalized when
    /// sampling).
    pub weight: f64,
}

impl DeviceArchetype {
    /// Builds the archetype for `class` sitting at `ambient`, on the
    /// paper's MSM8974.
    pub fn new(class: DeviceClass, ambient: Celsius, weight: f64) -> DeviceArchetype {
        DeviceArchetype::with_profile(class, &SocProfile::msm8974(), ambient, weight)
    }

    /// Builds the archetype for `class` sitting at `ambient`, on an
    /// arbitrary SoC profile. The default profile keeps the historical
    /// unprefixed label so existing fleet digests are unchanged.
    pub fn with_profile(
        class: DeviceClass,
        profile: &SocProfile,
        ambient: Celsius,
        weight: f64,
    ) -> DeviceArchetype {
        #[allow(
            clippy::disallowed_methods,
            reason = "the label renders the ambient as whole degrees, a format `Celsius` does not print"
        )]
        let label = format!("{}@{:.0}C", class.name(), ambient.value());
        let name = if profile.name() == SocProfile::msm8974().name() {
            label
        } else {
            format!("{}/{}", profile.name(), label)
        };
        DeviceArchetype {
            name,
            class,
            soc: profile.name().to_string(),
            board: class.board_for(profile).with_ambient(ambient),
            battery: class.battery(),
            weight,
        }
    }

    /// The default population: three tiers across room, cold and hot
    /// ambients, weighted toward mainstream devices indoors.
    pub fn default_population() -> Vec<DeviceArchetype> {
        DeviceArchetype::population_for(&SocProfile::msm8974())
    }

    /// The default tier/ambient/weight mix on an arbitrary SoC profile;
    /// `population_for(&SocProfile::msm8974())` is byte-identical to the
    /// historical [`DeviceArchetype::default_population`].
    pub fn population_for(profile: &SocProfile) -> Vec<DeviceArchetype> {
        vec![
            DeviceArchetype::with_profile(DeviceClass::Flagship, profile, Celsius::new(25.0), 0.20),
            DeviceArchetype::with_profile(
                DeviceClass::Mainstream,
                profile,
                Celsius::new(25.0),
                0.35,
            ),
            DeviceArchetype::with_profile(
                DeviceClass::Mainstream,
                profile,
                Celsius::new(10.0),
                0.15,
            ),
            DeviceArchetype::with_profile(DeviceClass::Budget, profile, Celsius::new(25.0), 0.20),
            DeviceArchetype::with_profile(DeviceClass::Budget, profile, Celsius::new(35.0), 0.10),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boards_share_the_dvfs_table() {
        let reference = SocProfile::msm8974().board_config();
        for class in DeviceClass::ALL {
            let board = class.board();
            assert_eq!(board.dvfs.len(), reference.dvfs.len(), "{class}");
            assert_eq!(board.num_cores, reference.num_cores, "{class}");
            board.validate().expect("class boards must validate");
        }
    }

    #[test]
    fn biglittle_population_is_the_same_mix_on_two_clusters() {
        let profile = SocProfile::biglittle_a15a7();
        let population = DeviceArchetype::population_for(&profile);
        let default = DeviceArchetype::default_population();
        assert_eq!(population.len(), default.len());
        for (bl, msm) in population.iter().zip(&default) {
            assert_eq!(bl.name, format!("biglittle-a15a7/{}", msm.name));
            assert_eq!(bl.soc, "biglittle-a15a7");
            assert_eq!(bl.class, msm.class);
            assert_eq!(bl.weight, msm.weight);
            assert_eq!(bl.battery, msm.battery);
            assert_eq!(bl.board.clusters.len(), 2, "{}", bl.name);
            bl.board.validate().expect("big.LITTLE boards validate");
        }
    }

    #[test]
    fn default_population_is_byte_stable_under_profile_parameterization() {
        let explicit = DeviceArchetype::population_for(&SocProfile::msm8974());
        let default = DeviceArchetype::default_population();
        for (a, b) in explicit.iter().zip(&default) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.soc, "msm8974");
            assert_eq!(a.board.dvfs.len(), b.board.dvfs.len());
        }
    }

    #[test]
    fn ambient_reanchors_the_thermal_node() {
        let hot = DeviceArchetype::new(DeviceClass::Budget, Celsius::new(35.0), 1.0);
        assert_eq!(hot.board.thermal.ambient, Celsius::new(35.0));
        assert_eq!(hot.name, "budget@35C");
        hot.board
            .validate()
            .expect("ambient within plausible range");
    }

    #[test]
    fn default_population_weights_are_normalizable() {
        let population = DeviceArchetype::default_population();
        let total: f64 = population.iter().map(|a| a.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(population.iter().all(|a| a.weight > 0.0));
    }

    #[test]
    fn batteries_order_by_tier() {
        assert!(DeviceClass::Flagship.battery() > DeviceClass::Mainstream.battery());
        assert!(DeviceClass::Mainstream.battery() > DeviceClass::Budget.battery());
    }
}
