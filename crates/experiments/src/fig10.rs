//! Fig. 10 — the leakage term matters.
//!
//! (a) `DORA` vs `DORA_no_lkg` on Amazon with a medium-intensity
//! co-runner: ignoring the temperature-dependent leakage when predicting
//! power picks a hotter-than-optimal frequency and costs ~10 % PPW in the
//! paper.
//!
//! (b) Sustained-browsing device power across frequencies at room versus
//! cold ambient: at room temperature the high-frequency tail inflates
//! (hot die ⇒ more leakage ⇒ hotter still), which moves the measured
//! `fopt` down one bin (1.9 → 1.7 GHz in the paper).

use crate::pipeline::Pipeline;
use crate::report::{fmt_f, render_series, Table};
use dora::{DoraConfig, DoraGovernor};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::runner::run_scenario;
use dora_campaign::workload::WorkloadSet;
use dora_coworkloads::Intensity;
use dora_governors::{InteractiveGovernor, PinnedGovernor};
use dora_soc::board::BoardConfig;
use dora_soc::Frequency;

/// Panel (a): the ablation on Amazon+medium.
#[derive(Debug, Clone)]
pub struct LeakageAblation {
    /// DORA's PPW normalized to interactive.
    pub dora_nppw: f64,
    /// DORA_no_lkg's PPW normalized to interactive.
    pub no_lkg_nppw: f64,
    /// Mean frequency each variant settled on (GHz): `(DORA, no_lkg)`.
    pub mean_freqs_ghz: (f64, f64),
}

/// Panel (b): one ambient condition's sweep.
#[derive(Debug, Clone)]
pub struct AmbientSweep {
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// `(frequency GHz, mean power W, peak die °C)` per ladder frequency.
    pub rows: Vec<(f64, f64, f64)>,
    /// The measured PPW-optimal frequency for the Fig. 10 workload.
    pub fopt: Frequency,
}

/// The Fig. 10 dataset.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Panel (a).
    pub ablation: LeakageAblation,
    /// Panel (b) at room ambient.
    pub room: AmbientSweep,
    /// Panel (b) at cold ambient.
    pub cold: AmbientSweep,
}

#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
fn ablation(pipeline: &Pipeline) -> LeakageAblation {
    // The ablation needs the PPW optimum inside the leakage-sensitive
    // high-voltage band (the paper's Amazon sits at 1.9 GHz; with this
    // reproduction's power balance Amazon's optimum is lower, so the
    // compute-lean ESPN under a just-feasible 4 s target plays its role:
    // its unconstrained optimum falls at 1.7-2.0 GHz where hot leakage
    // decides between bins).
    let set = WorkloadSet::paper54();
    let workload = set
        .find_by_class("ESPN", Intensity::Medium)
        .expect("ESPN+medium exists");
    let config = &pipeline
        .scenario
        .to_builder()
        .deadline(dora::units::Seconds::new(4.0))
        .build();
    let mut interactive = InteractiveGovernor::new(config.board.dvfs.clone());
    let base = run_scenario(workload, &mut interactive, config).ppw.value();
    let run_variant = |include_leakage: bool| {
        let mut g = DoraGovernor::new(
            pipeline.models.clone(),
            workload.page.features,
            DoraConfig {
                include_leakage,
                qos_target: dora::units::Seconds::new(4.0),
                ..DoraConfig::default()
            },
        );
        run_scenario(workload, &mut g, config)
    };
    let with = run_variant(true);
    let without = run_variant(false);
    LeakageAblation {
        dora_nppw: with.ppw.value() / base,
        no_lkg_nppw: without.ppw.value() / base,
        mean_freqs_ghz: (
            with.mean_frequency.as_ghz(),
            without.mean_frequency.as_ghz(),
        ),
    }
}

#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
fn ambient_sweep(pipeline: &Pipeline, board: BoardConfig) -> AmbientSweep {
    let ambient_c = board.thermal.ambient.value();
    let config = pipeline.scenario.to_builder().board(board).build();
    let set = WorkloadSet::paper54();
    let workload = set
        .find_by_class("Amazon", Intensity::Medium)
        .expect("Amazon+medium exists");
    let rows = config
        .board
        .dvfs
        .paper_ladder()
        .into_iter()
        .map(|f| {
            let mut pinned = PinnedGovernor::new("pin", f);
            let r = run_scenario(workload, &mut pinned, &config);
            (f.as_ghz(), r.mean_power.value(), r.final_temp.value())
        })
        .collect();
    let o = CampaignDriver::new()
        .executor(pipeline.executor)
        .oracle(workload, &config);
    AmbientSweep {
        ambient_c,
        rows,
        fopt: o.fopt,
    }
}

/// Measures both panels.
pub fn run(pipeline: &Pipeline) -> Fig10 {
    let room = dora_soc::SocProfile::msm8974().board_config();
    let cold = BoardConfig {
        thermal: dora_soc::thermal::ThermalParams::nexus5_cold(),
        ..room.clone()
    };
    Fig10 {
        ablation: ablation(pipeline),
        room: ambient_sweep(pipeline, room),
        cold: ambient_sweep(pipeline, cold),
    }
}

impl Fig10 {
    /// The PPW advantage of modelling leakage (fraction; paper ~10 %).
    pub fn leakage_advantage(&self) -> f64 {
        self.ablation.dora_nppw / self.ablation.no_lkg_nppw - 1.0
    }

    /// Renders both panels.
    pub fn render(&self) -> String {
        let mut b = Table::new(vec![
            "Freq (GHz)".into(),
            format!("power @ {:.0}C amb (W)", self.cold.ambient_c),
            format!("power @ {:.0}C amb (W)", self.room.ambient_c),
            "room - cold (W)".into(),
            "peak die @ room (C)".into(),
        ]);
        for (cold_row, room_row) in self.cold.rows.iter().zip(&self.room.rows) {
            b.row(vec![
                fmt_f(cold_row.0, 2),
                fmt_f(cold_row.1, 2),
                fmt_f(room_row.1, 2),
                fmt_f(room_row.1 - cold_row.1, 2),
                fmt_f(room_row.2, 1),
            ]);
        }
        let room_series: Vec<(f64, f64)> = self.room.rows.iter().map(|r| (r.0, r.1)).collect();
        let cold_series: Vec<(f64, f64)> = self.cold.rows.iter().map(|r| (r.0, r.1)).collect();
        format!(
            "Fig. 10(a): leakage-aware vs leakage-blind DORA (ESPN+medium, 4s target)\n\
             DORA PPW vs interactive:        {}\n\
             DORA_no_lkg PPW vs interactive: {}\n\
             leakage-awareness advantage:    {}\n\
             mean frequency: DORA {} GHz, no_lkg {} GHz\n\n\
             Fig. 10(b): device power vs frequency under two ambients\n{}\
             measured fopt: room {}  cold {}\n\n{}{}",
            fmt_f(self.ablation.dora_nppw, 3),
            fmt_f(self.ablation.no_lkg_nppw, 3),
            fmt_f(self.leakage_advantage() * 100.0, 1) + "%",
            fmt_f(self.ablation.mean_freqs_ghz.0, 2),
            fmt_f(self.ablation.mean_freqs_ghz.1, 2),
            b.render(),
            self.room.fopt,
            self.cold.fopt,
            render_series("power_room", &room_series),
            render_series("power_cold", &cold_series),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scale;

    #[test]
    #[ignore = "needs the trained pipeline plus two ambient sweeps; exercised by the fig10 binary"]
    fn reproduces_fig10_shape() {
        let pipeline = Pipeline::build(Scale::Full, 42);
        let fig = run(&pipeline);
        // (a) modelling leakage does not hurt, and typically helps.
        assert!(
            fig.leakage_advantage() > -0.02,
            "leakage model should not hurt: {:.3}",
            fig.leakage_advantage()
        );
        // (b) room ambient draws more power at every frequency, and the
        // gap widens toward the top (hot leakage).
        let gaps: Vec<f64> = fig
            .room
            .rows
            .iter()
            .zip(&fig.cold.rows)
            .map(|(r, c)| r.1 - c.1)
            .collect();
        assert!(gaps.iter().all(|&g| g > 0.0), "{gaps:?}");
        assert!(
            gaps.last().expect("rows") > gaps.first().expect("rows"),
            "gap must widen with frequency: {gaps:?}"
        );
        // The room fopt never exceeds the cold fopt.
        assert!(fig.room.fopt <= fig.cold.fopt);
    }
}
