//! Typed physical quantities for the DORA pipeline.
//!
//! DORA's Algorithm 1 is arithmetic over physical quantities — predicted
//! load time `T(F)`, total power `P(F)`, performance-per-watt
//! `PPW = 1/(T·P)`, shared-L2 MPKI, die temperature — and a swapped
//! argument or a W-vs-mW slip silently corrupts every downstream result.
//! These newtypes make such mixing a *compile error*: a [`Seconds`] cannot
//! be passed where a [`Watts`] is expected, and only the dimensionally
//! meaningful operations exist (`Watts × Seconds → Joules`, never
//! `Watts + Seconds`).
//!
//! Each quantity wraps an `f64`, is `Copy`, and exposes:
//!
//! * `new` / `value` — construction and the raw number (validated for
//!   [`Utilization`] and [`Mpki`], whose domains are bounded);
//! * `Display` / `FromStr` — a suffixed textual form (`"1.5s"`, `"2W"`)
//!   that round-trips exactly, used by the persistence layer;
//! * `total_cmp` / `min` / `max` — total-order comparison so callers never
//!   need `partial_cmp().unwrap()` on quantity values.
//!
//! The companion frequency newtype lives in `dora-soc` (`Frequency`
//! there predates this module and is kHz-quantized); everything else in
//! the unit system is here, at the bottom of the dependency stack, so all
//! crates can share it.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Errors from unit construction or parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitError {
    /// The value lies outside the quantity's valid domain.
    OutOfRange {
        /// The quantity that rejected the value (e.g. `"Utilization"`).
        quantity: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The text could not be parsed as this quantity.
    Unparseable {
        /// The quantity being parsed.
        quantity: &'static str,
        /// The offending input.
        input: String,
    },
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::OutOfRange { quantity, value } => {
                write!(f, "{value} is outside the valid range of {quantity}")
            }
            UnitError::Unparseable { quantity, input } => {
                write!(f, "cannot parse {input:?} as {quantity}")
            }
        }
    }
}

impl std::error::Error for UnitError {}

/// Parses `text` as `quantity`, accepting an optional unit `suffix`.
fn parse_suffixed(text: &str, suffix: &str, quantity: &'static str) -> Result<f64, UnitError> {
    let t = text.trim();
    let t = if !suffix.is_empty() {
        t.strip_suffix(suffix).unwrap_or(t).trim_end()
    } else {
        t
    };
    match t.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(UnitError::Unparseable {
            quantity,
            input: text.to_string(),
        }),
    }
}

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw value.
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// The raw numeric value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Whether the value is finite.
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Total-order comparison (IEEE 754 `totalOrder`), so callers
            /// never need `partial_cmp().unwrap()`.
            pub fn total_cmp(&self, other: &Self) -> Ordering {
                self.0.total_cmp(&other.0)
            }

            /// The larger of the two values.
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// The smaller of the two values.
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                // `{:?}` on f64 prints the shortest round-trippable form.
                write!(f, "{:?}{}", self.0, $suffix)
            }
        }

        impl FromStr for $name {
            type Err = UnitError;

            fn from_str(s: &str) -> Result<Self, UnitError> {
                parse_suffixed(s, $suffix, stringify!($name)).map($name)
            }
        }
    };
}

quantity!(
    /// A span of wall-clock or simulated time in seconds — the paper's
    /// load time `T` and QoS deadline.
    Seconds,
    "s"
);
quantity!(
    /// Electrical power in watts — the paper's total device power `P`.
    Watts,
    "W"
);
quantity!(
    /// Energy in joules, only obtainable as `Watts × Seconds`.
    Joules,
    "J"
);
quantity!(
    /// A temperature in degrees Celsius — die or ambient.
    Celsius,
    "°C"
);
quantity!(
    /// Battery capacity in watt-hours — the fleet layer's battery-life
    /// arithmetic (`WattHours / Watts → Seconds`) lives on this type so
    /// no raw-`f64` capacity can sneak into a report.
    WattHours,
    "Wh"
);
quantity!(
    /// Performance per watt, the paper's objective `PPW = 1/(T·P)`; its
    /// SI dimension is 1/J.
    Ppw,
    "/J"
);

impl Celsius {
    /// The same temperature on the kelvin scale (used by the Eq. 5
    /// leakage model).
    pub fn to_kelvin(self) -> f64 {
        self.0 + 273.15
    }

    /// The steady-state temperature `T + P·R` of a node held at this
    /// temperature while `power` flows out through a thermal resistance
    /// of `resistance_k_per_w` kelvin per watt.
    #[must_use]
    pub fn heated(self, power: Watts, resistance_k_per_w: f64) -> Celsius {
        Celsius(self.0 + power.0 * resistance_k_per_w)
    }
}

impl Ppw {
    /// The paper's objective for one operating point: `1/(T·P)`.
    ///
    /// Degenerate inputs (non-positive or non-finite `T·P`) yield
    /// `Ppw::ZERO`, the worst possible score, so a corrupt prediction can
    /// never *win* a frequency search.
    pub fn from_time_power(time: Seconds, power: Watts) -> Ppw {
        // Build the energy through the typed `Watts × Seconds → Joules`
        // impl rather than multiplying raw scalars: `T·P` *is* the
        // energy of the load, and the typed product keeps it that way.
        Ppw::from_energy(power * time)
    }

    /// The objective generalized to a known load energy: `1/E`.
    ///
    /// `E` is whatever energy the load is charged — `T·P` plus, for a
    /// cross-cluster candidate, the one-shot migration energy. With
    /// `E = T·P` exactly this is [`Ppw::from_time_power`]. Degenerate
    /// inputs yield `Ppw::ZERO` so a corrupt prediction can never win.
    pub fn from_energy(energy: Joules) -> Ppw {
        let e = energy.0;
        if e.is_finite() && e > 0.0 {
            Ppw(1.0 / e)
        } else {
            Ppw::ZERO
        }
    }
}

/// A bounded quantity with a validated constructor.
macro_rules! bounded_quantity {
    ($(#[$doc:meta])* $name:ident, $suffix:literal, $lo:expr, $hi:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Validates and wraps a raw value.
            ///
            /// # Errors
            ///
            /// [`UnitError::OutOfRange`] when `value` is non-finite or
            /// outside the quantity's domain.
            pub fn new(value: f64) -> Result<Self, UnitError> {
                if value.is_finite() && ($lo..=$hi).contains(&value) {
                    Ok($name(value))
                } else {
                    Err(UnitError::OutOfRange {
                        quantity: stringify!($name),
                        value,
                    })
                }
            }

            /// Wraps a raw value, clamping it into the valid domain
            /// (non-finite values clamp to zero). The forgiving entry
            /// point for noisy measured telemetry.
            pub fn clamped(value: f64) -> Self {
                if value.is_finite() {
                    $name(value.clamp($lo, $hi))
                } else {
                    $name(0.0)
                }
            }

            /// The raw numeric value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Total-order comparison (IEEE 754 `totalOrder`).
            pub fn total_cmp(&self, other: &Self) -> Ordering {
                self.0.total_cmp(&other.0)
            }

            /// The larger of the two values.
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// The smaller of the two values.
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:?}{}", self.0, $suffix)
            }
        }

        impl FromStr for $name {
            type Err = UnitError;

            fn from_str(s: &str) -> Result<Self, UnitError> {
                let v = parse_suffixed(s, $suffix, stringify!($name))?;
                $name::new(v)
            }
        }
    };
}

bounded_quantity!(
    /// Shared-L2 misses per kilo-instruction — the paper's interference
    /// proxy X6. Non-negative and finite by construction.
    Mpki,
    "MPKI",
    0.0,
    f64::MAX
);
bounded_quantity!(
    /// A busy fraction in `[0, 1]` — per-core or co-runner utilization.
    Utilization,
    "",
    0.0,
    1.0
);

impl Utilization {
    /// Full utilization (1.0).
    pub const ONE: Utilization = Utilization(1.0);
}

// ---- Dimensional arithmetic ------------------------------------------------
//
// Only the operations the domain needs: same-unit sums and differences,
// dimensionless scaling, and the power/energy/time triangle. Nonsensical
// combinations (e.g. `Watts + Seconds`) simply do not exist.

macro_rules! linear_ops {
    ($name:ident) => {
        impl std::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }
        impl std::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }
        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }
        impl std::ops::Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }
        impl std::ops::Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }
        impl std::ops::Div for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }
        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }
    };
}

linear_ops!(Seconds);
linear_ops!(Watts);
linear_ops!(Joules);
linear_ops!(Ppw);

/// A temperature difference is a plain number of kelvin.
impl std::ops::Sub for Celsius {
    type Output = f64;
    fn sub(self, rhs: Celsius) -> f64 {
        self.0 - rhs.0
    }
}

/// A temperature shifted by a difference of `rhs` kelvin.
impl std::ops::Add<f64> for Celsius {
    type Output = Celsius;
    fn add(self, rhs: f64) -> Celsius {
        Celsius(self.0 + rhs)
    }
}

/// Scaling a number by a busy fraction (e.g. a clock by the load it
/// carries).
impl std::ops::Mul<Utilization> for f64 {
    type Output = f64;
    fn mul(self, rhs: Utilization) -> f64 {
        self * rhs.0
    }
}

/// Dividing a number by a busy fraction (e.g. the clock that would carry
/// a load at a target utilization).
impl std::ops::Div<Utilization> for f64 {
    type Output = f64;
    fn div(self, rhs: Utilization) -> f64 {
        self / rhs.0
    }
}

impl std::ops::Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl std::ops::Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl std::ops::Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl std::ops::Div<Watts> for Joules {
    type Output = Seconds;
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl WattHours {
    /// The same energy in joules (1 Wh = 3600 J).
    pub fn to_joules(self) -> Joules {
        Joules(self.0 * 3600.0)
    }

    /// The capacity at a state-of-charge `fraction` (clamped to `[0, 1]`),
    /// e.g. the usable energy of a pack sampled at 60 % charge.
    #[must_use]
    pub fn at_charge(self, fraction: f64) -> WattHours {
        WattHours(self.0 * fraction.clamp(0.0, 1.0))
    }

    /// How many hours this capacity lasts at a mean drain. Non-positive
    /// or non-finite drains yield zero rather than a nonsense lifetime.
    pub fn hours_at(self, drain: Watts) -> f64 {
        if drain.0.is_finite() && drain.0 > 0.0 {
            self.0 / drain.0
        } else {
            0.0
        }
    }
}

impl std::ops::Div<Watts> for WattHours {
    type Output = Seconds;
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 * 3600.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_energy_time_triangle() {
        let e = Watts::new(2.0) * Seconds::new(3.0);
        assert_eq!(e, Joules::new(6.0));
        assert_eq!(Seconds::new(3.0) * Watts::new(2.0), e);
        assert_eq!(e / Seconds::new(3.0), Watts::new(2.0));
        assert_eq!(e / Watts::new(2.0), Seconds::new(3.0));
    }

    #[test]
    fn ppw_matches_definition_and_guards_degenerates() {
        let p = Ppw::from_time_power(Seconds::new(2.0), Watts::new(0.25));
        assert_eq!(p.value(), 2.0);
        assert_eq!(
            Ppw::from_time_power(Seconds::new(0.0), Watts::new(1.0)),
            Ppw::ZERO
        );
        assert_eq!(
            Ppw::from_time_power(Seconds::new(f64::NAN), Watts::new(1.0)),
            Ppw::ZERO
        );
        assert_eq!(
            Ppw::from_time_power(Seconds::new(-1.0), Watts::new(1.0)),
            Ppw::ZERO
        );
    }

    #[test]
    fn display_and_fromstr_roundtrip() {
        let s = Seconds::new(1.5);
        assert_eq!(s.to_string(), "1.5s");
        assert_eq!("1.5s".parse::<Seconds>().unwrap(), s);
        assert_eq!("1.5".parse::<Seconds>().unwrap(), s);
        assert_eq!(" 2.25 W ".parse::<Watts>().unwrap(), Watts::new(2.25));
        assert_eq!("45.5°C".parse::<Celsius>().unwrap(), Celsius::new(45.5));
        assert_eq!("3MPKI".parse::<Mpki>().unwrap(), Mpki::clamped(3.0));
        assert_eq!(
            "0.5".parse::<Utilization>().unwrap(),
            Utilization::clamped(0.5)
        );
        assert!("watts".parse::<Watts>().is_err());
        assert!("NaN".parse::<Watts>().is_err());
    }

    #[test]
    fn bounded_constructors_reject_out_of_range() {
        assert!(Utilization::new(-0.1).is_err());
        assert!(Utilization::new(1.1).is_err());
        assert!(Utilization::new(f64::NAN).is_err());
        assert!(Utilization::new(0.0).is_ok());
        assert!(Utilization::new(1.0).is_ok());
        assert!(Mpki::new(-1.0).is_err());
        assert!(Mpki::new(f64::INFINITY).is_err());
        assert!(Mpki::new(0.0).is_ok());
        assert!("1.5".parse::<Utilization>().is_err());
    }

    #[test]
    fn clamped_is_forgiving() {
        assert_eq!(Utilization::clamped(1.7).value(), 1.0);
        assert_eq!(Utilization::clamped(-0.2).value(), 0.0);
        assert_eq!(Utilization::clamped(f64::NAN).value(), 0.0);
        assert_eq!(Mpki::clamped(-3.0).value(), 0.0);
        assert_eq!(Mpki::clamped(f64::INFINITY).value(), 0.0);
    }

    #[test]
    fn total_cmp_orders_without_panics() {
        let mut v = [Ppw::new(0.3), Ppw::new(f64::NAN), Ppw::new(0.1)];
        v.sort_by(Ppw::total_cmp);
        assert_eq!(v[0].value(), 0.1);
        assert_eq!(v[1].value(), 0.3);
        assert!(v[2].value().is_nan());
    }

    #[test]
    fn kelvin_conversion() {
        assert_eq!(Celsius::new(25.0).to_kelvin(), 298.15);
        assert_eq!(Celsius::new(30.0) - Celsius::new(25.0), 5.0);
        assert_eq!(Celsius::new(25.0) + 5.0, Celsius::new(30.0));
        assert_eq!(
            Celsius::new(25.0).heated(Watts::new(2.0), 13.0),
            Celsius::new(51.0)
        );
    }

    #[test]
    fn watt_hours_battery_arithmetic() {
        let battery = WattHours::new(8.74); // Nexus 5 nominal pack
        assert_eq!(battery.to_joules(), Joules::new(8.74 * 3600.0));
        assert!((battery.hours_at(Watts::new(2.0)) - 4.37).abs() < 1e-12);
        assert_eq!(battery.hours_at(Watts::ZERO), 0.0);
        assert_eq!(battery.hours_at(Watts::new(f64::NAN)), 0.0);
        assert_eq!(WattHours::new(1.0) / Watts::new(1.0), Seconds::new(3600.0));
        assert_eq!("8.74Wh".parse::<WattHours>().unwrap(), battery);
    }

    /// Every unit type's `value` is a disallowed method in the workspace
    /// `clippy.toml`, so a new quantity cannot escape the ban silently.
    #[test]
    fn clippy_bans_value_on_every_unit_type() {
        let source = include_str!("units.rs");
        let clippy = include_str!("../../../clippy.toml");
        let types: Vec<&str> = source
            .split("quantity!(\n")
            .skip(1)
            .filter_map(|invocation| {
                invocation
                    .lines()
                    .map(str::trim)
                    .find(|line| !line.starts_with("///"))
            })
            .map(|line| line.trim_end_matches(','))
            .collect();
        // Both macros are parsed: a plain and a bounded quantity.
        assert!(
            types.contains(&"Seconds") && types.contains(&"Utilization"),
            "{types:?}"
        );
        for ty in types {
            let entry = format!("path = \"dora_sim_core::units::{ty}::value\"");
            assert!(clippy.contains(&entry), "clippy.toml lacks {entry}");
        }
    }

    #[test]
    fn sums_and_scaling() {
        let total: Joules = [Joules::new(1.0), Joules::new(2.5)].into_iter().sum();
        assert_eq!(total, Joules::new(3.5));
        assert_eq!(Seconds::new(2.0) * 3.0, Seconds::new(6.0));
        assert_eq!(Watts::new(6.0) / 3.0, Watts::new(2.0));
        assert_eq!(Seconds::new(6.0) / Seconds::new(3.0), 2.0);
        assert_eq!(
            (Ppw::new(0.3) - Ppw::new(0.2)) / Ppw::new(0.5),
            (0.3 - 0.2) / 0.5
        );
        assert_eq!(1000.0 * Utilization::clamped(0.5) / Utilization::ONE, 500.0);
        let mut acc = Watts::ZERO;
        acc += Watts::new(1.5);
        assert_eq!(acc, Watts::new(1.5));
    }
}
