//! The trained model bundle DORA predicts with.
//!
//! Three statically-trained components (Section III):
//!
//! * a **load-time** response surface (the paper selects the interaction
//!   form, Eq. 4, for its accuracy/simplicity balance — Section V-A);
//! * a **dynamic-power** response surface (the paper selects the linear
//!   form, Eq. 2);
//! * the **leakage** model (Eq. 5) as a function of voltage and die
//!   temperature.
//!
//! Both surfaces are *piecewise by memory-bus tier*: "we build piece-wise
//! models for each set of core frequencies that share a single memory bus
//! frequency" (Section III-A). A global fallback surface handles tiers
//! with too little training data.

use dora_browser::PageFeatures;
use dora_modeling::leakage::Eq5Params;
use dora_modeling::surface::{BoundSurface, Feature, FittedSurface};
use dora_modeling::ModelError;
use dora_sim_core::units::{Celsius, Mpki, Ppw, Seconds, Utilization, Watts};
use dora_soc::{BusTier, DvfsTable, Frequency, Opp};

/// The number of Table I inputs every surface of a bundle is fit over.
pub(crate) const INPUTS: usize = Feature::ALL.len();

/// The inputs that move across Algorithm 1's candidates (X7, X8); every
/// other input is fixed for the whole decision.
const CANDIDATE_INPUTS: [usize; 2] = [
    Feature::CoreFrequency.index(),
    Feature::BusFrequency.index(),
];

/// The full nine-variable input vector of Table I, assembled from static
/// page features plus dynamic system conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorInputs {
    /// X1–X5: the page complexity features.
    pub page: PageFeatures,
    /// X6: shared L2 cache MPKI observed over the last interval.
    pub l2_mpki: Mpki,
    /// X7: the candidate core frequency.
    pub core_frequency: Frequency,
    /// X8: the memory bus frequency that X7 maps to.
    pub bus_frequency: Frequency,
    /// X9: core utilization of the co-scheduled task.
    pub corun_utilization: Utilization,
}

impl PredictorInputs {
    /// Builds the inputs for evaluating candidate frequency `f` under the
    /// given dynamic conditions.
    pub fn for_frequency(
        page: PageFeatures,
        f: Frequency,
        dvfs: &DvfsTable,
        l2_mpki: Mpki,
        corun_utilization: Utilization,
    ) -> Self {
        PredictorInputs {
            page,
            l2_mpki,
            core_frequency: f,
            bus_frequency: dvfs.bus_tier(f).bus_frequency(),
            corun_utilization,
        }
    }

    /// The vector in Table I order (X1..X9) for the regression models.
    pub fn to_vector(self) -> Vec<f64> {
        self.to_array().to_vec()
    }

    /// [`PredictorInputs::to_vector`] on the stack.
    #[expect(
        clippy::disallowed_methods,
        reason = "the regression feature vector is plain numbers"
    )]
    fn to_array(self) -> [f64; INPUTS] {
        let [n, c, h, a, d] = self.page.as_vector();
        [
            n,
            c,
            h,
            a,
            d,
            self.l2_mpki.value(),
            self.core_frequency.as_ghz(),
            self.bus_frequency.as_mhz(),
            self.corun_utilization.value(),
        ]
    }
}

/// A response surface fit per memory-bus tier, with a global fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseSurface {
    per_tier: [Option<FittedSurface>; 3],
    global: FittedSurface,
    encoding: FrequencyEncoding,
}

/// How the two frequency variables (X7, X8) are presented to a surface.
///
/// Load time is, to first order, `instructions · CPI / f` — *linear in the
/// clock period*, not the clock rate. Presenting X7/X8 as periods lets the
/// interaction surface represent the `feature/frequency` terms exactly,
/// which is what pushes the load-time model into the paper's 97.5 %
/// accuracy band. Power, by contrast, grows with frequency, so the power
/// surface keeps the natural encoding. This is a pure reparameterization
/// of Table I's X7/X8 — the variables are the same, only their units
/// change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrequencyEncoding {
    /// X7 in GHz, X8 in MHz (natural units; used by the power model).
    #[default]
    Natural,
    /// X7 as nanoseconds per cycle, X8 as nanoseconds per bus cycle
    /// (used by the load-time model).
    Period,
}

impl FrequencyEncoding {
    /// Applies the encoding to a Table-I-ordered vector in place.
    pub fn encode(self, x: &mut [f64]) {
        if self == FrequencyEncoding::Period {
            // X7: GHz -> ns/cycle; X8: MHz -> ns/cycle.
            x[6] = 1.0 / x[6].max(1e-6);
            x[7] = 1000.0 / x[7].max(1e-3);
        }
    }

    /// X7 and X8 for a core clock and its bus clock, encoded.
    #[expect(
        clippy::disallowed_methods,
        reason = "X7 and X8 are regression features, which are plain numbers"
    )]
    fn encode_frequencies(self, core: Frequency, bus: Frequency) -> [f64; 2] {
        let mut x = [0.0; INPUTS];
        x[6] = core.as_ghz();
        x[7] = bus.as_mhz();
        self.encode(&mut x);
        [x[6], x[7]]
    }
}

impl PiecewiseSurface {
    /// Assembles a piecewise surface. `per_tier` entries may be `None`
    /// when a tier lacked training data; `global` must cover everything.
    /// All constituent fits must have been trained on vectors transformed
    /// with the same `encoding`.
    pub fn new(
        per_tier: [Option<FittedSurface>; 3],
        global: FittedSurface,
        encoding: FrequencyEncoding,
    ) -> Self {
        PiecewiseSurface {
            per_tier,
            global,
            encoding,
        }
    }

    /// Predicts using the tier-specific fit when available.
    pub fn predict(&self, tier: BusTier, inputs: &PredictorInputs) -> f64 {
        let mut x = inputs.to_array();
        self.encoding.encode(&mut x);
        self.fit_for(tier).predict(&x)
    }

    /// The fit that serves `tier`: its own, else the global one.
    fn fit_for(&self, tier: BusTier) -> &FittedSurface {
        self.per_tier[tier.index()].as_ref().unwrap_or(&self.global)
    }

    /// The global fit, then every tier fit present.
    fn fits(&self) -> impl Iterator<Item = &FittedSurface> {
        std::iter::once(&self.global).chain(self.per_tier.iter().flatten())
    }

    /// How many tiers carry their own fit.
    pub fn tier_count(&self) -> usize {
        self.per_tier.iter().flatten().count()
    }

    /// The frequency encoding the surface was trained with.
    pub fn encoding(&self) -> FrequencyEncoding {
        self.encoding
    }

    /// The tier-specific fit for bus tier index `i` (0..3), if present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    pub fn tier_fit(&self, i: usize) -> Option<&FittedSurface> {
        self.per_tier[i].as_ref()
    }

    /// The global fallback fit.
    pub fn global_fit(&self) -> &FittedSurface {
        &self.global
    }
}

/// The complete trained bundle used by the DORA governor.
#[derive(Debug, Clone, PartialEq)]
pub struct DoraModels {
    /// Load-time surface (seconds).
    pub load_time: PiecewiseSurface,
    /// Dynamic + platform power surface (watts, leakage excluded).
    pub power: PiecewiseSurface,
    /// Fitted Eq. 5 leakage parameters.
    pub leakage: Eq5Params,
    /// The DVFS table the models were trained against.
    pub dvfs: DvfsTable,
}

impl DoraModels {
    /// Predicts the web page load time at the candidate frequency implied
    /// by `inputs` (Algorithm 1's `PredictLoadTime`).
    ///
    /// Predictions are floored at one millisecond: a regression can dip
    /// below zero far outside its training envelope, and a non-positive
    /// load time would poison the PPW comparison.
    pub fn predict_load_time(&self, inputs: &PredictorInputs) -> Seconds {
        let tier = self.tier_of(inputs);
        load_time_of(self.load_time.predict(tier, inputs))
    }

    /// Predicts total device power at the candidate frequency (Algorithm
    /// 1's `PredictTotalPower`): the dynamic surface plus the Eq. 5
    /// leakage evaluated at the candidate's voltage and the current die
    /// temperature. `include_leakage = false` reproduces the
    /// `DORA_no_lkg` ablation.
    pub fn predict_total_power(
        &self,
        inputs: &PredictorInputs,
        temp: Celsius,
        include_leakage: bool,
    ) -> Watts {
        let opp = self.dvfs.nearest_opp(inputs.core_frequency);
        let tier = self.dvfs.bus_tier(opp.frequency);
        self.total_power_of(
            self.power.predict(tier, inputs),
            opp.voltage,
            temp,
            include_leakage,
        )
    }

    /// Total power from the dynamic surface's raw output: floored, plus
    /// the Eq. 5 leakage at `voltage` unless it is left out.
    fn total_power_of(
        &self,
        dynamic: f64,
        voltage: f64,
        temp: Celsius,
        include_leakage: bool,
    ) -> Watts {
        let dynamic = Watts::new(dynamic.max(1e-2));
        if !include_leakage {
            return dynamic;
        }
        dynamic + self.leakage.eval(voltage, temp)
    }

    /// Predicted energy efficiency `PPW = 1 / (T · P)` (Algorithm 1 line 8).
    pub fn predict_ppw(
        &self,
        inputs: &PredictorInputs,
        temp: Celsius,
        include_leakage: bool,
    ) -> Ppw {
        let t = self.predict_load_time(inputs);
        let p = self.predict_total_power(inputs, temp, include_leakage);
        Ppw::from_time_power(t, p)
    }

    fn tier_of(&self, inputs: &PredictorInputs) -> BusTier {
        let f = self.dvfs.nearest(inputs.core_frequency);
        self.dvfs.bus_tier(f)
    }

    /// The supply voltage (volts) of the nearest table frequency.
    pub fn voltage_at(&self, core_frequency: Frequency) -> f64 {
        self.dvfs.nearest_opp(core_frequency).voltage
    }

    /// Convenience check that the bundle is internally consistent: every
    /// fit of both surfaces, global and per tier, takes the nine Table I
    /// inputs, so no prediction can panic on arity.
    ///
    /// # Errors
    ///
    /// [`ModelError::ShapeMismatch`] naming the first surface with a fit
    /// over another number of inputs.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (name, surface) in [("load_time", &self.load_time), ("power", &self.power)] {
            if let Some(fit) = surface.fits().find(|f| f.surface().inputs() != INPUTS) {
                return Err(ModelError::ShapeMismatch(format!(
                    "{name} surface has a fit over {} inputs; Table I has {INPUTS}",
                    fit.surface().inputs()
                )));
            }
        }
        Ok(())
    }
}

/// Load time from the time surface's raw output, floored at 1 ms.
fn load_time_of(raw: f64) -> Seconds {
    Seconds::new(raw.max(1e-3))
}

/// A [`DoraModels`] bundle bound at one decision's fixed inputs: the
/// candidate sweep both Algorithm 1 searches run through.
///
/// Algorithm 1 evaluates every candidate under the same page (X1–X5),
/// MPKI (X6) and co-runner utilization (X9); only X7 and X8 move. Each
/// surface fit is bound at those inputs the first time a candidate in its
/// bus tier comes up ([`FittedSurface::bind`]), so a candidate pays only
/// for its frequency-dependent terms. Predictions equal
/// [`DoraModels::predict_load_time`] and
/// [`DoraModels::predict_total_power`] bit for bit.
pub(crate) struct BoundModels<'a> {
    models: &'a DoraModels,
    /// X1–X9 with X7/X8 unset; the binding ignores them.
    fixed: [f64; INPUTS],
    temp: Celsius,
    include_leakage: bool,
    load_time: BoundPiecewise<'a>,
    power: BoundPiecewise<'a>,
}

impl<'a> BoundModels<'a> {
    /// Binds `models` at one decision's sampled conditions.
    pub(crate) fn new(
        models: &'a DoraModels,
        page: PageFeatures,
        l2_mpki: Mpki,
        corun_utilization: Utilization,
        temp: Celsius,
        include_leakage: bool,
    ) -> Self {
        let inputs = PredictorInputs {
            page,
            l2_mpki,
            core_frequency: Frequency::default(),
            bus_frequency: Frequency::default(),
            corun_utilization,
        };
        BoundModels {
            models,
            fixed: inputs.to_array(),
            temp,
            include_leakage,
            load_time: BoundPiecewise::new(&models.load_time),
            power: BoundPiecewise::new(&models.power),
        }
    }

    /// `(frequency, load time, total power)` at every operating point of
    /// the bundle's DVFS table, ascending in frequency.
    pub(crate) fn candidates(mut self) -> impl Iterator<Item = (Frequency, Seconds, Watts)> + 'a {
        self.models.dvfs.opps().iter().map(move |&opp| {
            let (load_time, power) = self.predict(opp);
            (opp.frequency, load_time, power)
        })
    }

    /// Predicted load time and total power at table operating point
    /// `opp`, as `predict_load_time` and `predict_total_power` give them
    /// for the inputs `PredictorInputs::for_frequency` builds.
    ///
    /// Kept out of line: inlined into the Algorithm 1 sweep it made each
    /// one-cluster decision about 5 % slower (`decide-replay`, x86-64).
    #[inline(never)]
    fn predict(&mut self, opp: Opp) -> (Seconds, Watts) {
        let tier = self.models.dvfs.bus_tier(opp.frequency);
        let time = self.load_time.evaluate(&self.fixed, tier, opp.frequency);
        let dynamic = self.power.evaluate(&self.fixed, tier, opp.frequency);
        (
            load_time_of(time),
            self.models
                .total_power_of(dynamic, opp.voltage, self.temp, self.include_leakage),
        )
    }
}

/// One [`PiecewiseSurface`] with each tier's fit bound on first use.
struct BoundPiecewise<'a> {
    surface: &'a PiecewiseSurface,
    tiers: [Option<BoundSurface<'a>>; 3],
}

impl<'a> BoundPiecewise<'a> {
    fn new(surface: &'a PiecewiseSurface) -> Self {
        BoundPiecewise {
            surface,
            tiers: [None, None, None],
        }
    }

    /// The surface at core clock `core` in bus tier `tier`, the other
    /// inputs at `fixed`.
    fn evaluate(&mut self, fixed: &[f64; INPUTS], tier: BusTier, core: Frequency) -> f64 {
        let surface = self.surface;
        let free = surface
            .encoding
            .encode_frequencies(core, tier.bus_frequency());
        self.tiers[tier.index()]
            .get_or_insert_with(|| surface.fit_for(tier).bind(fixed, &CANDIDATE_INPUTS))
            .evaluate(&free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_modeling::surface::{ResponseSurface, SurfaceKind};

    fn page() -> PageFeatures {
        PageFeatures::new(2100, 1300, 620, 680, 590).expect("valid")
    }

    /// A trivially fitted 9-input surface: y = c for all inputs.
    fn constant_surface(c: f64) -> FittedSurface {
        let xs: Vec<Vec<f64>> = (0..24)
            .map(|i| (0..9).map(|j| ((i * 7 + j * 3) % 13) as f64).collect())
            .collect();
        let ys = vec![c; xs.len()];
        ResponseSurface::new(SurfaceKind::Linear, 9)
            .fit(&xs, &ys)
            .expect("constant is trivially fittable")
    }

    fn models(time_s: f64, power_w: f64) -> DoraModels {
        DoraModels {
            load_time: PiecewiseSurface::new(
                [None, None, None],
                constant_surface(time_s),
                FrequencyEncoding::Natural,
            ),
            power: PiecewiseSurface::new(
                [None, None, None],
                constant_surface(power_w),
                FrequencyEncoding::Natural,
            ),
            leakage: Eq5Params {
                k1: 0.22,
                alpha: 800.0,
                beta: -4300.0,
                k2: 0.05,
                gamma: 2.0,
                delta: -2.0,
            },
            dvfs: DvfsTable::default(),
        }
    }

    #[test]
    fn inputs_vector_is_table1_ordered() {
        let dvfs = DvfsTable::default();
        let inputs = PredictorInputs::for_frequency(
            page(),
            Frequency::from_mhz(1497.6),
            &dvfs,
            Mpki::clamped(4.5),
            Utilization::clamped(0.8),
        );
        let v = inputs.to_vector();
        assert_eq!(v.len(), 9);
        assert_eq!(v[0], 2100.0); // X1 dom nodes
        assert_eq!(v[5], 4.5); // X6 mpki
        assert!((v[6] - 1.4976).abs() < 1e-9); // X7 GHz
        assert_eq!(v[7], 800.0); // X8 bus MHz (high tier)
        assert_eq!(v[8], 0.8); // X9 corun utilization
    }

    #[test]
    fn bus_frequency_follows_tier() {
        let dvfs = DvfsTable::default();
        let low = PredictorInputs::for_frequency(
            page(),
            Frequency::from_mhz(300.0),
            &dvfs,
            Mpki::ZERO,
            Utilization::ZERO,
        );
        let mid = PredictorInputs::for_frequency(
            page(),
            Frequency::from_mhz(960.0),
            &dvfs,
            Mpki::ZERO,
            Utilization::ZERO,
        );
        assert_eq!(low.bus_frequency.as_mhz(), 200.0);
        assert!((mid.bus_frequency.as_mhz() - 460.8).abs() < 1e-9);
    }

    #[test]
    fn predictions_compose_into_ppw() {
        let m = models(2.0, 2.5);
        let inputs = PredictorInputs::for_frequency(
            page(),
            Frequency::from_mhz(1497.6),
            &m.dvfs,
            Mpki::clamped(3.0),
            Utilization::clamped(0.5),
        );
        let warm = Celsius::new(40.0);
        let t = m.predict_load_time(&inputs);
        let p_no_lkg = m.predict_total_power(&inputs, warm, false);
        let p_lkg = m.predict_total_power(&inputs, warm, true);
        assert!((t.value() - 2.0).abs() < 1e-6);
        assert!((p_no_lkg.value() - 2.5).abs() < 1e-6);
        assert!(p_lkg > p_no_lkg, "leakage adds power");
        let ppw = m.predict_ppw(&inputs, warm, true);
        assert!((ppw.value() - 1.0 / (t.value() * p_lkg.value())).abs() < 1e-9);
    }

    #[test]
    fn leakage_raises_power_more_when_hot() {
        let m = models(1.0, 2.0);
        let inputs = PredictorInputs::for_frequency(
            page(),
            Frequency::from_mhz(2265.6),
            &m.dvfs,
            Mpki::clamped(3.0),
            Utilization::clamped(0.5),
        );
        let cold = m.predict_total_power(&inputs, Celsius::new(30.0), true);
        let hot = m.predict_total_power(&inputs, Celsius::new(70.0), true);
        assert!(hot > cold + Watts::new(0.2), "hot {hot} vs cold {cold}");
    }

    #[test]
    fn predictions_are_floored_positive() {
        let m = models(-5.0, -3.0);
        let inputs = PredictorInputs::for_frequency(
            page(),
            Frequency::from_mhz(300.0),
            &m.dvfs,
            Mpki::ZERO,
            Utilization::ZERO,
        );
        assert!(m.predict_load_time(&inputs) > Seconds::ZERO);
        assert!(m.predict_total_power(&inputs, Celsius::new(30.0), false) > Watts::ZERO);
        assert!(m.predict_ppw(&inputs, Celsius::new(30.0), true).is_finite());
    }

    #[test]
    fn piecewise_prefers_tier_fit() {
        let tiered = PiecewiseSurface::new(
            [Some(constant_surface(10.0)), None, None],
            constant_surface(99.0),
            FrequencyEncoding::Natural,
        );
        let dvfs = DvfsTable::default();
        let inputs = PredictorInputs::for_frequency(
            page(),
            Frequency::from_mhz(300.0),
            &dvfs,
            Mpki::ZERO,
            Utilization::ZERO,
        );
        assert!((tiered.predict(BusTier::Low, &inputs) - 10.0).abs() < 1e-6);
        assert!((tiered.predict(BusTier::High, &inputs) - 99.0).abs() < 1e-6);
        assert_eq!(tiered.tier_count(), 1);
    }

    #[test]
    fn validate_rejects_fits_over_other_than_nine_inputs() {
        let eight = ResponseSurface::new(SurfaceKind::Linear, 8);
        let short = FittedSurface::from_parts(eight, vec![0.0; 8], vec![1.0; 8], vec![1.0; 9])
            .expect("valid parts");
        assert!(models(1.0, 1.0).validate().is_ok());
        let mut m = models(1.0, 1.0);
        m.power = PiecewiseSurface::new(
            [None, Some(short.clone()), None],
            constant_surface(1.0),
            FrequencyEncoding::Natural,
        );
        assert!(m.validate().is_err(), "a short tier fit must be caught");
        let mut m = models(1.0, 1.0);
        m.load_time = PiecewiseSurface::new([None, None, None], short, FrequencyEncoding::Period);
        assert!(m.validate().is_err(), "a short global fit must be caught");
    }

    #[test]
    fn bound_models_match_point_predictions() {
        let m = models(2.0, 2.5);
        let warm = Celsius::new(40.0);
        for include_leakage in [false, true] {
            let mut bound = BoundModels::new(
                &m,
                page(),
                Mpki::clamped(3.0),
                Utilization::clamped(0.5),
                warm,
                include_leakage,
            );
            for &opp in m.dvfs.opps() {
                let inputs = PredictorInputs::for_frequency(
                    page(),
                    opp.frequency,
                    &m.dvfs,
                    Mpki::clamped(3.0),
                    Utilization::clamped(0.5),
                );
                let (t, p) = bound.predict(opp);
                assert_eq!(t, m.predict_load_time(&inputs));
                assert_eq!(p, m.predict_total_power(&inputs, warm, include_leakage));
            }
        }
    }

    #[test]
    fn voltage_lookup_snaps_to_table() {
        let m = models(1.0, 1.0);
        assert_eq!(m.voltage_at(Frequency::from_mhz(2265.6)), 1.100);
        assert_eq!(m.voltage_at(Frequency::from_mhz(300.0)), 0.800);
        // Between entries: snaps to nearest.
        let v = m.voltage_at(Frequency::from_mhz(1000.0));
        assert!(v > 0.79 && v < 1.11);
        assert!(m.validate().is_ok());
    }
}
