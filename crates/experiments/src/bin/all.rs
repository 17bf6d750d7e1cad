//! Regenerates every table and figure of the paper in one run and writes
//! the combined report to stdout (tee it into `EXPERIMENTS.md`'s measured
//! section). Pass `--quick` for a reduced training grid.

use dora_experiments::pipeline::{Pipeline, Scale};

fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    #[expect(
        clippy::disallowed_types,
        reason = "the elapsed-time banner is host-side reporting, not simulation state"
    )]
    let t0 = std::time::Instant::now();
    eprintln!("[all] training pipeline ({scale:?})...");
    let pipeline = Pipeline::build(scale, 42);
    eprintln!(
        "[all] trained on {} observations in {:.1}s",
        pipeline.observations.len(),
        t0.elapsed().as_secs_f64()
    );

    banner("Table II");
    println!(
        "{}",
        dora_experiments::table02::run(&pipeline.scenario.board).render()
    );

    banner("Table III");
    println!(
        "{}",
        dora_experiments::table03::run(&dora_experiments::table03::default_config()).render()
    );

    banner("Fig. 1");
    println!(
        "{}",
        dora_experiments::fig01::run(&pipeline.scenario).render()
    );

    banner("Fig. 2");
    println!(
        "{}",
        dora_experiments::fig02::run(&pipeline.scenario).render()
    );

    banner("Fig. 3");
    println!(
        "{}",
        dora_experiments::fig03::run(&pipeline.scenario).render()
    );

    banner("Fig. 5");
    println!("{}", dora_experiments::fig05::run(&pipeline).render());

    banner("Fig. 6");
    println!(
        "{}",
        dora_experiments::fig06::run(&pipeline, &pipeline.scenario).render()
    );

    banner("Fig. 7");
    println!("{}", dora_experiments::fig07::run(&pipeline).render());

    banner("Fig. 8");
    println!("{}", dora_experiments::fig08::run(&pipeline).render());

    banner("Fig. 9");
    println!("{}", dora_experiments::fig09::run(&pipeline).render());

    banner("Fig. 10");
    println!("{}", dora_experiments::fig10::run(&pipeline).render());

    banner("Fig. 11");
    println!("{}", dora_experiments::fig11::run(&pipeline).render());

    banner("Section V-A (model selection)");
    println!(
        "{}",
        dora_experiments::model_selection::run(&pipeline).render()
    );

    banner("Section IV-C (decision interval)");
    let study = dora_experiments::interval_study::run(&pipeline);
    println!("{}", study.render());
    let adaptation = dora_experiments::interval_study::run_adaptation(&pipeline);
    println!(
        "{}",
        dora_experiments::interval_study::IntervalStudy::render_adaptation(&adaptation)
    );

    banner("Section V-H (overhead)");
    println!("{}", dora_experiments::overhead::run(&pipeline).render());

    banner("Beyond the paper: design-choice ablations");
    println!("{}", dora_experiments::ablation::run(&pipeline).render());

    banner("Beyond the paper: generalization to unseen pages");
    println!(
        "{}",
        dora_experiments::generalization::run(&pipeline).render()
    );

    eprintln!(
        "[all] complete in {:.1}s wall clock",
        t0.elapsed().as_secs_f64()
    );
}
