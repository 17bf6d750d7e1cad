//! Property-based tests of the typed units layer: textual round-trips,
//! constructor domains, clamping, the power/energy/time triangle and the
//! PPW objective's shape.

#![allow(
    clippy::disallowed_methods,
    reason = "tests compare quantities against plain-number references"
)]

use dora_repro::units::{Celsius, Joules, Mpki, Ppw, Seconds, Utilization, Watts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Display prints the shortest round-trippable float plus the unit
    /// suffix; FromStr recovers the exact bits for every finite value.
    #[test]
    fn display_fromstr_roundtrip_unbounded(v in -1e12f64..1e12) {
        let s = Seconds::new(v);
        prop_assert_eq!(s.to_string().parse::<Seconds>().unwrap(), s);
        let w = Watts::new(v);
        prop_assert_eq!(w.to_string().parse::<Watts>().unwrap(), w);
        let j = Joules::new(v);
        prop_assert_eq!(j.to_string().parse::<Joules>().unwrap(), j);
        let c = Celsius::new(v);
        prop_assert_eq!(c.to_string().parse::<Celsius>().unwrap(), c);
        let p = Ppw::new(v);
        prop_assert_eq!(p.to_string().parse::<Ppw>().unwrap(), p);
    }

    /// Bounded quantities round-trip over their whole domain.
    #[test]
    fn display_fromstr_roundtrip_bounded(m in 0.0f64..1e9, u in 0.0f64..=1.0) {
        let mpki = Mpki::new(m).unwrap();
        prop_assert_eq!(mpki.to_string().parse::<Mpki>().unwrap(), mpki);
        let util = Utilization::new(u).unwrap();
        prop_assert_eq!(util.to_string().parse::<Utilization>().unwrap(), util);
    }

    /// A bare number (no suffix) parses too — the suffix is optional.
    #[test]
    fn suffixless_parse(v in -1e9f64..1e9) {
        let parsed: Seconds = format!("{v:?}").parse().unwrap();
        prop_assert_eq!(parsed.value(), v);
    }

    /// `Utilization::new` accepts exactly `[0, 1]`; `Mpki::new` accepts
    /// exactly finite non-negatives.
    #[test]
    fn constructor_domains(v in -10.0f64..10.0) {
        prop_assert_eq!(Utilization::new(v).is_ok(), (0.0..=1.0).contains(&v));
        prop_assert_eq!(Mpki::new(v).is_ok(), v >= 0.0);
    }

    /// `clamped` always lands inside the domain, and is the identity on
    /// already-valid values.
    #[test]
    fn clamped_is_in_domain(sel in 0usize..4, finite in -1e12f64..1e12) {
        let v = [finite, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][sel];
        let u = Utilization::clamped(v).value();
        prop_assert!((0.0..=1.0).contains(&u));
        let m = Mpki::clamped(v).value();
        prop_assert!(m >= 0.0 && m.is_finite());
        if (0.0..=1.0).contains(&v) {
            prop_assert_eq!(u, v);
        }
    }

    /// The power/energy/time triangle: `W·s = J` exactly, and the inverse
    /// divisions recover the factors.
    #[test]
    fn energy_triangle(p in 0.01f64..100.0, t in 0.01f64..1e4) {
        let e: Joules = Watts::new(p) * Seconds::new(t);
        prop_assert_eq!(e.value(), p * t);
        // Commuted form is identical.
        prop_assert_eq!((Seconds::new(t) * Watts::new(p)).value(), e.value());
        let back_p: Watts = e / Seconds::new(t);
        let back_t: Seconds = e / Watts::new(p);
        prop_assert!((back_p.value() - p).abs() <= 1e-12 * p);
        prop_assert!((back_t.value() - t).abs() <= 1e-12 * t);
    }

    /// PPW is strictly decreasing in the time·power product: more energy
    /// for the same outcome can never score better.
    #[test]
    fn ppw_monotone_in_energy(
        t in 0.01f64..100.0,
        p in 0.01f64..100.0,
        grow in 1.001f64..10.0,
    ) {
        let base = Ppw::from_time_power(Seconds::new(t), Watts::new(p));
        let worse = Ppw::from_time_power(Seconds::new(t * grow), Watts::new(p));
        prop_assert!(worse.value() < base.value());
        let worse_p = Ppw::from_time_power(Seconds::new(t), Watts::new(p * grow));
        prop_assert!(worse_p.value() < base.value());
    }

    /// Degenerate time/power inputs can never win a frequency search:
    /// they score `Ppw::ZERO`, the worst possible value.
    #[test]
    fn ppw_degenerate_is_zero(sel in 0usize..4) {
        let t = [0.0f64, -1.0, f64::NAN, f64::INFINITY][sel];
        let score = Ppw::from_time_power(Seconds::new(t), Watts::new(2.0));
        prop_assert_eq!(score, Ppw::ZERO);
    }
}

#[test]
fn garbage_does_not_parse() {
    assert!("".parse::<Seconds>().is_err());
    assert!("watts".parse::<Watts>().is_err());
    assert!("NaNs".parse::<Seconds>().is_err());
    assert!("1.5x".parse::<Seconds>().is_err());
    // Valid number, out of domain: rejected by the bounded constructor.
    assert!("1.5".parse::<Utilization>().is_err());
    assert!("-2MPKI".parse::<Mpki>().is_err());
}
