//! The CLI subcommands.

use crate::args::{Args, OutputFormat};
use dora::units::{Celsius, Mpki, Seconds, Utilization, WattHours};
use dora::{from_text, to_text, DoraConfig, DoraGovernor, DoraModels};
use dora_browser::{Catalog, PageFeatures};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::evaluate::Policy;
use dora_campaign::export::results_to_csv;
use dora_campaign::fleet::FleetConfig;
use dora_campaign::runner::{run_page, run_page_observed, ScenarioConfig};
use dora_campaign::workload::{Workload, WorkloadSet};
use dora_coworkloads::Kernel;
use dora_experiments::pipeline::{Pipeline, Scale};
use dora_governors::{Governor, InteractiveGovernor, PerformanceGovernor, PowersaveGovernor};

/// `dora train`: run the offline campaign and write the model bundle.
pub fn train(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let out = args.require("out")?;
    let common = args.common(42)?;
    let scale = if args.flag("quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let executor = common.executor;
    eprintln!(
        "training ({scale:?}, seed {}, {} worker{})...",
        common.seed,
        executor.jobs(),
        if executor.jobs() == 1 { "" } else { "s" }
    );
    let pipeline = Pipeline::build_with(scale, common.seed, &executor);
    let eval = dora::trainer::evaluate_models(&pipeline.models, &pipeline.observations);
    eprintln!(
        "trained on {} observations; train-set MAPE: time {:.2}%, power {:.2}%",
        pipeline.observations.len(),
        eval.load_time.mape * 100.0,
        eval.power.mape * 100.0
    );
    std::fs::write(out, to_text(&pipeline.models)).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn load_models(path: &str) -> Result<DoraModels, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    from_text(&text).map_err(|e| e.to_string())
}

/// `dora inspect`: summarize a persisted model bundle.
pub fn inspect(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args
        .positional(0)
        .ok_or("usage: dora inspect <models.txt>")?;
    let models = load_models(path)?;
    println!("model bundle: {path}");
    println!(
        "  DVFS table: {} settings, {} - {}",
        models.dvfs.len(),
        models.dvfs.min_frequency(),
        models.dvfs.max_frequency()
    );
    println!(
        "  load-time surface: {} ({:?} encoding), {} tier fits",
        models.load_time.global_fit().surface().kind(),
        models.load_time.encoding(),
        models.load_time.tier_count()
    );
    println!(
        "  power surface: {} ({:?} encoding), {} tier fits",
        models.power.global_fit().surface().kind(),
        models.power.encoding(),
        models.power.tier_count()
    );
    let lk = models.leakage;
    println!(
        "  leakage (Eq. 5): k1={:.4} alpha={:.1} beta={:.1} k2={:.4} gamma={:.2} delta={:.2}",
        lk.k1, lk.alpha, lk.beta, lk.k2, lk.gamma, lk.delta
    );
    println!(
        "  leakage at (1.0V, 50C): {:.3} W; at (1.1V, 65C): {:.3} W",
        lk.eval(1.0, Celsius::new(50.0)).value(),
        lk.eval(1.1, Celsius::new(65.0)).value()
    );
    Ok(())
}

/// `dora profile`: extract Table I features from an HTML file.
pub fn profile(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args
        .positional(0)
        .ok_or("usage: dora profile <page.html>")?;
    let html = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let page = PageFeatures::from_html(&html).map_err(|e| e.to_string())?;
    println!("{path}:");
    println!("  X1 DOM tree nodes:    {}", page.dom_nodes());
    println!("  X2 class attributes:  {}", page.class_attrs());
    println!("  X3 href attributes:   {}", page.href_attrs());
    println!("  X4 <a> tags:          {}", page.a_tags());
    println!("  X5 <div> tags:        {}", page.div_tags());
    println!("  complexity score:     {:.0}", page.complexity_score());
    Ok(())
}

fn resolve_page(args: &Args) -> Result<PageFeatures, String> {
    match (args.get("page"), args.get("html")) {
        (Some(name), None) => Catalog::alexa18()
            .page(name)
            .map(|p| p.features)
            .ok_or_else(|| format!("unknown page {name:?}; see `dora pages`")),
        (None, Some(path)) => {
            let html = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            PageFeatures::from_html(&html).map_err(|e| e.to_string())
        }
        _ => Err("exactly one of --page or --html is required".into()),
    }
}

/// `dora predict`: print the Algorithm 1 curve and decision.
pub fn predict(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args
        .positional(0)
        .ok_or("usage: dora predict <models.txt> --page NAME")?;
    let models = load_models(path)?;
    let page = resolve_page(&args)?;
    let mpki = args.get_f64("mpki", 3.0)?;
    let util = args.get_f64("util", 0.7)?;
    let temp = args.get_f64("temp", 45.0)?;
    let deadline = args.get_f64("deadline", 3.0)?;
    if deadline <= 0.0 {
        return Err(format!("--deadline must be positive, got {deadline}"));
    }
    let decision = dora::select_frequency(
        &models,
        page,
        Seconds::new(deadline),
        Mpki::clamped(mpki),
        Utilization::clamped(util),
        Celsius::new(temp),
        true,
    );
    println!(
        "conditions: MPKI {mpki:.1}, co-run util {util:.2}, die {temp:.0}C, deadline {deadline:.1}s"
    );
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>9}",
        "freq", "time(s)", "power(W)", "PPW", "feasible"
    );
    for p in &decision.curve {
        println!(
            "{:<11} {:>9.3} {:>9.3} {:>9.4} {:>9}",
            p.point.frequency.to_string(),
            p.load_time.value(),
            p.power.value(),
            p.ppw.value(),
            p.feasible
        );
    }
    println!(
        "fopt = {}  (feasible: {}; fD = {}, fE = {})",
        decision.chosen.frequency,
        decision.feasible,
        decision
            .point_deadline()
            .map_or("none".to_string(), |p| p.frequency.to_string()),
        decision.point_energy().frequency
    );
    Ok(())
}

fn resolve_kernel(args: &Args) -> Result<Option<Kernel>, String> {
    match args.get("kernel") {
        None => Ok(None),
        Some(name) if name.eq_ignore_ascii_case("none") => Ok(None),
        Some(name) => Kernel::by_name(name)
            .map(Some)
            .ok_or_else(|| format!("unknown kernel {name:?}; see `dora kernels`")),
    }
}

/// A probe collecting the decision trace `dora govern --trace` prints:
/// every governor decision (with DORA's predicted candidate curve) and
/// every resulting DVFS transition, in order.
#[derive(Debug, Default)]
struct DecisionTrace {
    lines: Vec<String>,
}

impl dora_sim_core::probe::Probe for DecisionTrace {
    fn on_event(&mut self, at: dora_sim_core::SimTime, event: &dora_sim_core::probe::ProbeEvent) {
        use dora_sim_core::probe::ProbeEvent;
        match event {
            ProbeEvent::GovernorDecision {
                governor,
                cluster,
                chosen_khz,
                curve,
            } => {
                let chosen = dora_soc::Frequency::from_khz(*chosen_khz);
                self.lines
                    .push(format!("{at}  {governor} -> cluster{cluster}@{chosen}"));
                for p in curve {
                    let f = dora_soc::Frequency::from_khz(p.frequency_khz);
                    self.lines.push(format!(
                        "{:12}  cluster{}@{f}: T={:.3}s P={:.3}W PPW={:.4}{}",
                        "",
                        p.cluster,
                        p.load_time.value(),
                        p.power.value(),
                        p.ppw.value(),
                        if p.feasible { "" } else { "  (misses QoS)" },
                    ));
                }
            }
            ProbeEvent::DvfsSwitch {
                cluster,
                from_khz,
                to_khz,
            } => {
                let from = dora_soc::Frequency::from_khz(*from_khz);
                let to = dora_soc::Frequency::from_khz(*to_khz);
                self.lines
                    .push(format!("{at}  dvfs cluster{cluster} {from} -> {to}"));
            }
            ProbeEvent::TaskMigrated {
                core,
                from_cluster,
                to_cluster,
            } => {
                self.lines.push(format!(
                    "{at}  migrate core{core} cluster{from_cluster} -> cluster{to_cluster}"
                ));
            }
            _ => {}
        }
    }
}

/// `dora govern`: simulate one governed page load.
pub fn govern(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args
        .positional(0)
        .ok_or("usage: dora govern <models.txt> --page NAME")?;
    let page_name = args.require("page")?;
    let catalog = Catalog::alexa18();
    let page = catalog
        .page(page_name)
        .ok_or_else(|| format!("unknown page {page_name:?}; see `dora pages`"))?;
    let kernel = resolve_kernel(&args)?;
    let common = args.common(42)?;
    let deadline = args.get_f64("deadline", 3.0)?;
    let config = ScenarioConfig::builder()
        .seed(common.seed)
        .deadline(Seconds::new(deadline))
        .board(common.soc.board_config())
        .build();
    let governor_name = args.get("governor").unwrap_or("dora");
    let mut governor: Box<dyn Governor> = match governor_name {
        "dora" | "DORA" => {
            let models = load_models(path)?;
            let dora_config = DoraConfig {
                qos_target: Seconds::new(deadline),
                ..DoraConfig::default()
            };
            // One governor type either way; a multi-cluster board searches
            // its own per-cluster tables, otherwise the models' table.
            if config.board.clusters.len() > 1 {
                Box::new(DoraGovernor::from_profile(
                    &models,
                    &config.board,
                    page.features,
                    dora_config,
                ))
            } else {
                Box::new(DoraGovernor::new(models, page.features, dora_config))
            }
        }
        "interactive" => Box::new(InteractiveGovernor::new(config.board.dvfs.clone())),
        "performance" => Box::new(PerformanceGovernor::new(config.board.dvfs.clone())),
        "powersave" => Box::new(PowersaveGovernor::new(config.board.dvfs.clone())),
        other => return Err(format!("unknown governor {other:?}")),
    };
    let trace = if common.trace {
        Some(std::rc::Rc::new(std::cell::RefCell::new(
            DecisionTrace::default(),
        )))
    } else {
        None
    };
    let r = match &trace {
        Some(t) => run_page_observed(page, kernel.as_ref(), governor.as_mut(), &config, t.clone()),
        None => run_page(page, kernel.as_ref(), governor.as_mut(), &config),
    };
    println!("{}  under {}", r.workload_id, r.governor);
    println!(
        "  load time:   {:.3} s ({}; deadline {deadline:.1}s)",
        r.load_time.value(),
        if r.met_deadline { "met" } else { "missed" }
    );
    println!("  mean power:  {:.3} W", r.mean_power.value());
    println!("  energy:      {:.2} J", r.energy.value());
    println!("  PPW:         {:.4}", r.ppw.value());
    println!(
        "  mean clock:  {:.2} GHz over {} switches",
        r.mean_frequency.as_ghz(),
        r.switches
    );
    println!("  die at end:  {:.1} C", r.final_temp.value());
    println!(
        "  L2 MPKI:     {:.2}   co-run util: {:.2}",
        r.mean_mpki.value(),
        r.corun_utilization.value()
    );
    if let Some(t) = trace {
        println!("decision trace (measured window):");
        for line in &t.borrow().lines {
            println!("  {line}");
        }
    }
    Ok(())
}

/// `dora csv`: run a workload slice under one stock governor, emit CSV.
pub fn csv(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let page = args.require("page")?;
    let all = WorkloadSet::paper54();
    let slice: Vec<Workload> = all
        .workloads()
        .iter()
        .filter(|w| w.page.name.eq_ignore_ascii_case(page))
        .filter(|w| match args.get("kernel") {
            Some(k) => w.kernel.name().eq_ignore_ascii_case(k),
            None => true,
        })
        .cloned()
        .collect();
    if slice.is_empty() {
        return Err(format!("no workloads match page {page:?}"));
    }
    let policy = match args.get("governor").unwrap_or("interactive") {
        "interactive" => Policy::Interactive,
        "performance" => Policy::Performance,
        "powersave" => Policy::Powersave,
        "conservative" => Policy::Conservative,
        other => return Err(format!("csv supports stock governors only, got {other:?}")),
    };
    let common = args.common(42)?;
    let evaluation = CampaignDriver::new()
        .executor(common.executor)
        .evaluate(
            &WorkloadSet::from_workloads(slice),
            &[policy],
            None,
            &ScenarioConfig::builder()
                .seed(common.seed)
                .board(common.soc.board_config())
                .build(),
        )
        .map_err(|e| e.to_string())?;
    print!("{}", results_to_csv(evaluation.results()));
    Ok(())
}

/// `dora fleet`: stream a population of sampled device sessions through
/// the sharded executor and report fleet-wide battery-life deltas per
/// governor.
pub fn fleet(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let common = args.common(42)?;
    let deadline = args.get_f64("deadline", 3.0)?;
    let mut config = FleetConfig {
        sessions: args.get_u64("sessions", 1000)?,
        seed: common.seed,
        shard_size: args.get_u64("shard", 256)?.max(1),
        deadline: Seconds::new(deadline),
        archetypes: dora_campaign::fleet::DeviceArchetype::population_for(&common.soc),
        ..FleetConfig::default()
    };
    if config.sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    if args.flag("quick") {
        config.warmup = dora_sim_core::SimDuration::from_secs(2);
    }
    let mut policies = vec![Policy::Interactive, Policy::Performance, Policy::Powersave];
    let models = match args.positional(0) {
        Some(path) => {
            policies.push(Policy::Dora);
            Some(load_models(path)?)
        }
        None => None,
    };
    if args.flag("oracle") {
        policies.push(Policy::OfflineOpt);
    }
    config.policies = policies;
    eprintln!(
        "fleet: {} sessions over {} archetypes, shard {}, {} worker{}...",
        config.sessions,
        config.archetypes.len(),
        config.shard_size,
        common.executor.jobs(),
        if common.executor.jobs() == 1 { "" } else { "s" }
    );
    let report = CampaignDriver::new()
        .executor(common.executor)
        .fleet(&config, models.as_ref())
        .map_err(|e| e.to_string())?;
    match common.format {
        OutputFormat::Text => print!("{}", report.render(Seconds::new(deadline))),
        OutputFormat::Csv => print!("{}", report.to_csv()),
    }
    Ok(())
}

/// `dora session`: run a multi-page browsing session under a governor.
pub fn session(raw: &[String]) -> Result<(), String> {
    use dora_campaign::session::{run_session, SessionConfig};
    let args = Args::parse(raw)?;
    let catalog = Catalog::alexa18();
    let itinerary = args.get("pages").unwrap_or("Reddit,CNN,Amazon,MSN");
    let pages: Result<Vec<_>, String> = itinerary
        .split(',')
        .map(|name| {
            catalog
                .page(name.trim())
                .ok_or_else(|| format!("unknown page {name:?}; see `dora pages`"))
        })
        .collect();
    let pages = pages?;
    let kernel = resolve_kernel(&args)?;
    let common = args.common(42)?;
    let config = SessionConfig {
        deadline: Seconds::new(args.get_f64("deadline", 3.0)?),
        board: common.soc.board_config(),
        seed: common.seed,
        ..SessionConfig::default()
    };
    let governor_name = args.get("governor").unwrap_or("interactive");
    let mut governor: Box<dyn Governor> = match governor_name {
        "dora" | "DORA" => {
            let path = args
                .positional(0)
                .ok_or("usage: dora session <models.txt> --governor dora ...")?;
            let models = load_models(path)?;
            let dora_config = DoraConfig {
                qos_target: config.deadline,
                ..DoraConfig::default()
            };
            // One governor type either way; a multi-cluster board searches
            // its own per-cluster tables, otherwise the models' table.
            if config.board.clusters.len() > 1 {
                Box::new(DoraGovernor::from_profile(
                    &models,
                    &config.board,
                    pages[0].features,
                    dora_config,
                ))
            } else {
                Box::new(DoraGovernor::new(models, pages[0].features, dora_config))
            }
        }
        "interactive" => Box::new(InteractiveGovernor::new(config.board.dvfs.clone())),
        "performance" => Box::new(PerformanceGovernor::new(config.board.dvfs.clone())),
        "powersave" => Box::new(PowersaveGovernor::new(config.board.dvfs.clone())),
        other => return Err(format!("unknown governor {other:?}")),
    };
    let r = run_session(&pages, kernel.as_ref(), governor.as_mut(), &config);
    println!("{}-page session under {}", r.loads.len(), r.governor);
    for l in &r.loads {
        println!(
            "  {:<12} {:.2}s  {}",
            l.page,
            l.load_time.value(),
            if l.met_deadline { "met" } else { "missed" }
        );
    }
    println!(
        "  energy: {:.1} J over {:.1} s ({:.2} W mean)",
        r.energy.value(),
        r.duration.value(),
        r.mean_power().value()
    );
    println!(
        "  battery estimate (8.74 Wh pack): {:.1} h",
        r.battery_hours(WattHours::new(8.74))
    );
    Ok(())
}

/// `dora pages`: list the catalog.
pub fn pages() -> Result<(), String> {
    let catalog = Catalog::alexa18();
    println!(
        "{:<12} {:<6} {:<9} {:>7} {:>7} {:>6} {:>6} {:>6}",
        "page", "class", "split", "nodes", "class", "href", "a", "div"
    );
    for p in catalog.pages() {
        println!(
            "{:<12} {:<6} {:<9} {:>7} {:>7} {:>6} {:>6} {:>6}",
            p.name,
            p.class.to_string(),
            if p.training { "train" } else { "held-out" },
            p.features.dom_nodes(),
            p.features.class_attrs(),
            p.features.href_attrs(),
            p.features.a_tags(),
            p.features.div_tags(),
        );
    }
    Ok(())
}

/// `dora kernels`: list the co-run suite.
pub fn kernels() -> Result<(), String> {
    println!(
        "{:<18} {:<8} {:>10} {:>10}",
        "kernel", "class", "mean APKI", "duty"
    );
    for k in Kernel::all() {
        println!(
            "{:<18} {:<8} {:>10.1} {:>10.2}",
            k.name(),
            k.intensity().to_string(),
            k.mean_apki(),
            k.mean_duty_cycle(),
        );
    }
    Ok(())
}
