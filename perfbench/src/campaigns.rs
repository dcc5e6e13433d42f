//! The three campaign workloads — `perf-long`, `nrh-sweep` and `attacks`.
//!
//! The untraced pass runs each campaign through the program's own
//! [`CampaignRunner`] (one worker, no cache), exactly as `prac-bench run`
//! executes cache misses.  The traced pass re-drives the same cells through
//! the public calls the runner's executor makes — configuration resolution,
//! trace generation, `SystemSimulation` construction, stepping, forking and
//! the serialized attacker — with a span around each call, and reproduces
//! the cells' headline figures so the untraced outputs can be checked
//! against them.

use std::collections::HashMap;
use std::io;

use campaign::registry::{find_campaign, Profile};
use campaign::scenario::{Campaign, PerfScenario, Scenario, ScenarioSpec};
use campaign::CampaignRunner;
use dram_sim::device::DramDeviceConfig;
use dram_sim::DeviceProfile;
use prac_core::config::MitigationPolicy;
use prac_core::timing::DramTimingSummary;
use pracleak::adversary::run_adversary;
use pracleak::setup::AttackSetup;
use serde_json::{Map, Value};
use system_sim::{
    fork_horizon, workload_traces, AttackKind, EngineKind, ExperimentConfig, MitigationSetup,
    PrefixOutcome, SystemResult, SystemSimulation,
};

use crate::trace::Tracer;
use crate::util::Problem;

/// Tick budget per attacker access of an `attacks` cell; mirrors the cap
/// the campaign executor applies (a drift shows up as a figure mismatch).
const ATTACK_TICKS_PER_ACCESS: u64 = 4_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignWorkload {
    PerfLong,
    NrhSweep,
    Attacks,
}

impl CampaignWorkload {
    pub fn name(self) -> &'static str {
        match self {
            CampaignWorkload::PerfLong => "perf-long",
            CampaignWorkload::NrhSweep => "nrh-sweep",
            CampaignWorkload::Attacks => "attacks",
        }
    }

    /// Whether the runner shares simulated prefixes across a group's cells.
    pub fn fork_prefix(self) -> bool {
        !matches!(self, CampaignWorkload::PerfLong)
    }

    /// Plans the workload's cells: registry campaigns, with `seed` XORed
    /// into every seeded cell (seed 0 leaves them byte-identical).
    pub fn plan(self, seed: u64) -> Vec<Campaign> {
        let quick = Profile::quick();
        let mut campaigns = match self {
            CampaignWorkload::PerfLong => {
                let profile = Profile {
                    cores: 4,
                    instructions_per_core: 100_000,
                    ..quick
                };
                vec![registry_campaign("fig10", &profile)]
            }
            CampaignWorkload::NrhSweep => vec![
                registry_campaign("fig13", &quick),
                registry_campaign("fig14", &quick),
            ],
            CampaignWorkload::Attacks => {
                let mut attacks = registry_campaign("attacks", &quick);
                attacks
                    .scenarios
                    .retain(|s| s.name.starts_with("nrh256/") || s.name.starts_with("ecc/"));
                vec![attacks]
            }
        };
        for campaign in &mut campaigns {
            for scenario in &mut campaign.scenarios {
                mix_seed(&mut scenario.spec, seed);
            }
        }
        campaigns
    }

    /// The seed-0 probe every run checks against the golden: the first
    /// cells of each planned campaign (one prefix group on `nrh-sweep`)
    /// and the first on-die-ECC cell of `attacks`.
    pub fn probe_plan(self) -> Vec<Campaign> {
        let keep = match self {
            CampaignWorkload::PerfLong => 3,
            CampaignWorkload::NrhSweep => 5,
            CampaignWorkload::Attacks => 2,
        };
        let mut campaigns = self.plan(0);
        for campaign in &mut campaigns {
            let ecc = campaign
                .scenarios
                .iter()
                .position(|s| s.name.starts_with("ecc/"));
            let mut kept: Vec<_> = campaign.scenarios.iter().take(keep).cloned().collect();
            kept.extend(ecc.map(|i| campaign.scenarios[i].clone()));
            campaign.scenarios = kept;
        }
        campaigns
    }
}

/// `<campaign>/<cell name>` of every planned cell, in plan order.
pub fn cell_ids(campaigns: &[Campaign]) -> Vec<String> {
    campaigns
        .iter()
        .flat_map(|campaign| {
            campaign
                .scenarios
                .iter()
                .map(move |scenario| format!("{}/{}", campaign.name, scenario.name))
        })
        .collect()
}

pub fn registry_campaign(name: &str, profile: &Profile) -> Campaign {
    find_campaign(name, profile).unwrap_or_else(|| panic!("campaign `{name}` is registered"))
}

/// XORs the benchmark seed into a cell's own seed field, if it has one.
pub fn mix_seed(spec: &mut ScenarioSpec, seed: u64) {
    match spec {
        ScenarioSpec::Perf(perf) => perf.seed ^= seed,
        ScenarioSpec::Attack { seed: s, .. }
        | ScenarioSpec::SideChannel { seed: s, .. }
        | ScenarioSpec::Covert { seed: s, .. } => *s ^= seed,
        ScenarioSpec::AboLatency { .. }
        | ScenarioSpec::TmaxSeries { .. }
        | ScenarioSpec::SolveWindow { .. }
        | ScenarioSpec::Storage { .. } => {}
    }
}

/// One executed cell of the untraced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    /// `<campaign>/<cell name>`.
    pub id: String,
    pub scenario: Scenario,
    pub metrics: Map,
    /// The runner's per-cell wall time (a prefix group's wall split evenly).
    pub wall_ms: f64,
}

/// Runs every cell through the program's campaign runner, one worker.
pub fn run_untraced(campaigns: &[Campaign], fork_prefix: bool) -> io::Result<Vec<CellOutput>> {
    let runner = CampaignRunner::new()
        .with_workers(1)
        .with_fork_prefix(fork_prefix);
    let mut cells = Vec::new();
    for campaign in campaigns {
        for record in runner.run(campaign)?.records {
            cells.push(CellOutput {
                id: format!("{}/{}", campaign.name, record.scenario.name),
                scenario: record.scenario,
                metrics: record.metrics,
                wall_ms: record.wall_ms,
            });
        }
    }
    Ok(cells)
}

/// Compares a pass with the reference pass by cell id: cells missing from
/// either side, repeated ids, and cells whose metrics differ.
pub fn compare_cells(reference: &[CellOutput], pass: &[CellOutput], what: &str) -> Vec<Problem> {
    let cells = |outputs: &[CellOutput]| -> HashMap<String, Map> {
        outputs
            .iter()
            .map(|cell| (cell.id.clone(), cell.metrics.clone()))
            .collect()
    };
    compare_maps(&cells(reference), &cells(pass), pass.len(), what)
}

fn compare_maps(
    reference: &HashMap<String, Map>,
    pass: &HashMap<String, Map>,
    pass_len: usize,
    what: &str,
) -> Vec<Problem> {
    let mut problems = Vec::new();
    for (id, metrics) in reference {
        let problem = match pass.get(id) {
            None => format!("missing from the {what}"),
            Some(other) => {
                let differing: Vec<&str> = other
                    .iter()
                    .filter(|(name, value)| metrics.get(*name) != Some(*value))
                    .map(|(name, _)| name.as_str())
                    .chain(
                        metrics
                            .keys()
                            .filter(|name| !other.contains_key(*name))
                            .map(String::as_str),
                    )
                    .collect();
                if differing.is_empty() {
                    continue;
                }
                format!("the {what} changed {}", differing.join(", "))
            }
        };
        problems.push((id.clone(), problem));
    }
    for id in pass.keys().filter(|id| !reference.contains_key(*id)) {
        problems.push((id.clone(), format!("only in the {what}")));
    }
    if pass_len != pass.len() {
        problems.push(("cells".into(), format!("the {what} repeats cell ids")));
    }
    problems
}

/// Simulated ticks a cell reports for its protected and baseline legs.
pub fn reported_ticks(metrics: &Map) -> f64 {
    let field = |name: &str| metrics.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    // Perf cells report execution time at 0.25 ns per tick.
    let perf_ns = field("execution_time_protected_ns") + field("execution_time_baseline_ns");
    perf_ns * 4.0 + field("elapsed_ticks") + field("baseline_elapsed_ticks")
}

pub fn is_capped(metrics: &Map) -> bool {
    metrics.get("completed").and_then(Value::as_bool) == Some(false)
}

/// Deterministic work counts gathered by the traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub sim_ticks: u64,
    pub prefix_ticks_shared: u64,
    pub protected_legs: u64,
    pub forked_legs: u64,
    pub trace_ops: u64,
    pub instructions: u64,
    pub cycles: u64,
    pub llc_misses: u64,
    pub requests: u64,
    pub row_hits: u64,
    pub row_accesses: u64,
    pub latency_ticks: u64,
    pub rfms_abo: u64,
    pub rfms_acb: u64,
    pub rfms_tb: u64,
    pub rfms_periodic: u64,
    pub rfms_para: u64,
    pub activations: u64,
    pub alerts: u64,
    pub refreshes: u64,
    pub max_row_counter: u64,
    pub attack_ticks: u64,
    pub attack_accesses: u64,
    pub breached_cells: u64,
    pub units: u64,
}

impl Counters {
    /// Adds one simulated leg's statistics.
    fn add_result(&mut self, result: &SystemResult) {
        for core in &result.core_stats {
            self.instructions += core.instructions;
            self.cycles += core.cycles;
            self.llc_misses += core.llc_misses;
        }
        let ctrl = &result.controller_stats;
        self.requests += ctrl.requests_completed();
        self.row_hits += ctrl.row_hits;
        self.row_accesses += ctrl.row_hits + ctrl.row_misses + ctrl.row_conflicts;
        self.latency_ticks += ctrl.total_latency_ticks;
        self.rfms_abo += ctrl.abo_rfms;
        self.rfms_acb += ctrl.acb_rfms;
        self.rfms_tb += ctrl.tb_rfms;
        self.rfms_periodic += ctrl.periodic_rfms;
        self.rfms_para += ctrl.para_rfms;
        let dram = &result.dram_stats;
        self.activations += dram.activations;
        self.alerts += dram.alerts_asserted;
        self.refreshes += dram.refreshes;
        self.max_row_counter = self.max_row_counter.max(u64::from(dram.max_row_counter));
    }
}

/// The traced replay of one pass: spans land in `tracer`, work counts in
/// `counters`, and the result is each cell's reproduced figures by id.
pub fn run_traced(
    campaigns: &[Campaign],
    fork_prefix: bool,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Vec<(String, Map)> {
    let mut figures = Vec::new();
    for campaign in campaigns {
        let mut per_cell: Vec<Option<Map>> = vec![None; campaign.scenarios.len()];
        for unit in work_units(campaign, fork_prefix) {
            let cell = unit[0] as u64;
            counters.units += 1;
            let span = tracer.enter("campaign.exec", cell);
            let results = match &campaign.scenarios[unit[0]].spec {
                ScenarioSpec::Perf(_) => {
                    let perfs: Vec<&PerfScenario> = unit
                        .iter()
                        .map(|&i| match &campaign.scenarios[i].spec {
                            ScenarioSpec::Perf(perf) => perf.as_ref(),
                            _ => unreachable!("work units group perf cells only"),
                        })
                        .collect();
                    perf_group(&perfs, cell, tracer, counters)
                }
                ScenarioSpec::Attack {
                    attack,
                    setup,
                    nrh,
                    accesses,
                    profile,
                    seed,
                } => vec![attack_cell(
                    attack, setup, *nrh, *accesses, *profile, *seed, cell, tracer, counters,
                )],
                other => {
                    vec![tracer.span("campaign.execute", cell, || campaign::exec::execute(other))]
                }
            };
            tracer.exit(span);
            for (&index, result) in unit.iter().zip(results) {
                per_cell[index] = Some(result);
            }
        }
        for (scenario, result) in campaign.scenarios.iter().zip(per_cell) {
            figures.push((
                format!("{}/{}", campaign.name, scenario.name),
                result.expect("every cell was executed"),
            ));
        }
    }
    figures
}

/// Compares reproduced figures with the untraced outputs by cell id.  The
/// traced figures are a subset of a cell's metrics, so only the figures
/// the traced pass reproduces are compared.
pub fn figure_mismatches(untraced: &[CellOutput], traced: &[(String, Map)]) -> Vec<Problem> {
    let traced_map: HashMap<String, Map> = traced.iter().cloned().collect();
    let reference: HashMap<String, Map> = untraced
        .iter()
        .map(|cell| {
            let figures = traced_map.get(&cell.id).map_or_else(Map::new, |figures| {
                figures
                    .keys()
                    .filter_map(|name| Some((name.clone(), cell.metrics.get(name)?.clone())))
                    .collect()
            });
            (cell.id.clone(), figures)
        })
        .collect();
    compare_maps(&reference, &traced_map, traced.len(), "traced pass")
}

/// The runner's work units: with prefix sharing on, perf cells whose
/// specs differ only in `setup` form one group (first-appearance order);
/// everything else runs alone.
fn work_units(campaign: &Campaign, fork_prefix: bool) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    for (index, scenario) in campaign.scenarios.iter().enumerate() {
        let key = match (&scenario.spec, fork_prefix, scenario.spec.to_json()) {
            (ScenarioSpec::Perf(_), true, Value::Object(mut map)) => {
                map.remove("setup");
                Some(Value::Object(map).to_string())
            }
            _ => None,
        };
        match key {
            Some(key) => match group_of.get(&key) {
                Some(&unit) => units[unit].push(index),
                None => {
                    group_of.insert(key, units.len());
                    units.push(vec![index]);
                }
            },
            None => units.push(vec![index]),
        }
    }
    units
}

fn experiment_config(perf: &PerfScenario, setup: MitigationSetup) -> ExperimentConfig {
    ExperimentConfig {
        rowhammer_threshold: perf.rowhammer_threshold,
        prac_level: perf.prac_level,
        setup,
        instructions_per_core: perf.instructions_per_core,
        cores: perf.cores,
        channels: perf.channels.max(1),
        ranks: perf.ranks,
        profile: perf.profile,
        attack: perf.attack,
        engine: EngineKind::default(),
        sim_threads: 1,
    }
}

fn config_error_figures(error: &prac_core::error::ConfigError) -> Map {
    let mut m = Map::new();
    m.insert("completed".into(), false.into());
    m.insert("config_error".into(), error.to_string().into());
    m
}

fn perf_figures(perf: &PerfScenario, protected: &SystemResult, baseline: &SystemResult) -> Map {
    let normalized = if baseline.total_ipc() > 0.0 {
        protected.total_ipc() / baseline.total_ipc()
    } else {
        0.0
    };
    let ctrl = &protected.controller_stats;
    let mut m = Map::new();
    m.insert("normalized_performance".into(), normalized.into());
    m.insert("abo_rfms".into(), ctrl.abo_rfms.into());
    m.insert("acb_rfms".into(), ctrl.acb_rfms.into());
    m.insert("tb_rfms".into(), ctrl.tb_rfms.into());
    m.insert("periodic_rfms".into(), ctrl.periodic_rfms.into());
    m.insert("para_rfms".into(), ctrl.para_rfms.into());
    m.insert(
        "execution_time_protected_ns".into(),
        protected.execution_time_ns().into(),
    );
    m.insert(
        "execution_time_baseline_ns".into(),
        baseline.execution_time_ns().into(),
    );
    m.insert(
        "completed".into(),
        (protected.completed && baseline.completed).into(),
    );
    if perf.attack.is_some() {
        let peak = protected.dram_stats.max_row_counter;
        m.insert("max_row_activations".into(), peak.into());
        m.insert(
            "nrh_breached".into(),
            (peak >= perf.rowhammer_threshold).into(),
        );
    }
    m
}

/// Resolves, generates traces for, constructs and runs one leg cold.
fn cold_leg(
    config: &ExperimentConfig,
    perf: &PerfScenario,
    cell: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<SystemResult, prac_core::error::ConfigError> {
    let system = tracer.span("core.resolve", cell, || config.build_system_config())?;
    let traces = tracer.span("workloads.trace_gen", cell, || {
        workload_traces(config, &system, &perf.workload.workload, perf.seed)
    });
    counters.trace_ops += traces.iter().map(|t| t.ops().len() as u64).sum::<u64>();
    let simulation = tracer.span("sim.construct", cell, || {
        SystemSimulation::new(system, traces)
    });
    let result = tracer.span("sim.step", cell, || simulation.run());
    counters.sim_ticks += result.elapsed_ticks;
    counters.add_result(&result);
    Ok(result)
}

/// One perf cell cold: protected leg, then baseline leg.
fn perf_cold(perf: &PerfScenario, cell: u64, tracer: &mut Tracer, counters: &mut Counters) -> Map {
    let protected_config = experiment_config(perf, perf.setup.clone());
    let baseline_config = experiment_config(perf, MitigationSetup::BaselineNoAbo);
    let legs = cold_leg(&protected_config, perf, cell, tracer, counters).and_then(|protected| {
        counters.protected_legs += 1;
        cold_leg(&baseline_config, perf, cell, tracer, counters)
            .map(|baseline| (protected, baseline))
    });
    match legs {
        Ok((protected, baseline)) => perf_figures(perf, &protected, &baseline),
        Err(error) => config_error_figures(&error),
    }
}

/// A prefix group: traces and baseline once, the baseline's
/// mitigation-free prefix forked per protected leg where its horizon
/// allows — the same decisions the campaign executor makes.
fn perf_group(
    perfs: &[&PerfScenario],
    cell: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Vec<Map> {
    let cold_all = |tracer: &mut Tracer, counters: &mut Counters| -> Vec<Map> {
        perfs
            .iter()
            .map(|perf| perf_cold(perf, cell, tracer, counters))
            .collect()
    };
    if perfs.len() <= 1 {
        return cold_all(tracer, counters);
    }
    let template = perfs[0];
    let baseline_config = experiment_config(template, MitigationSetup::BaselineNoAbo);
    let Ok(baseline_system) = tracer.span("core.resolve", cell, || {
        baseline_config.build_system_config()
    }) else {
        return cold_all(tracer, counters);
    };
    let traces = tracer.span("workloads.trace_gen", cell, || {
        workload_traces(
            &baseline_config,
            &baseline_system,
            &template.workload.workload,
            template.seed,
        )
    });
    counters.trace_ops += traces.iter().map(|t| t.ops().len() as u64).sum::<u64>();

    let mut results: Vec<Option<Map>> = vec![None; perfs.len()];
    let mut legs = Vec::new();
    for (slot, perf) in perfs.iter().enumerate() {
        if perf.setup == MitigationSetup::BaselineNoAbo {
            continue;
        }
        let config = experiment_config(perf, perf.setup.clone());
        match tracer.span("core.resolve", cell, || config.build_system_config()) {
            Ok(system) => {
                let horizon = fork_horizon(&system.device);
                legs.push((slot, system, horizon));
            }
            Err(error) => results[slot] = Some(config_error_figures(&error)),
        }
    }

    let pause_at = legs
        .iter()
        .map(|(_, _, horizon)| *horizon)
        .filter(|horizon| *horizon > 0)
        .min();
    let (baseline, prefix) = match pause_at {
        Some(pause) => {
            let simulation = tracer.span("sim.construct", cell, || {
                SystemSimulation::new(baseline_system.clone(), traces.clone())
            });
            match tracer.span("sim.step", cell, || simulation.run_until(pause)) {
                PrefixOutcome::Paused(prefix) if prefix.is_mitigation_free() => {
                    counters.sim_ticks += prefix.now();
                    let fork = tracer.span("sim.fork", cell, || prefix.fork());
                    let result = tracer.span("sim.step", cell, || fork.resume());
                    counters.sim_ticks += result.elapsed_ticks - prefix.now();
                    (result, Some(prefix))
                }
                PrefixOutcome::Paused(prefix) => {
                    let result = tracer.span("sim.step", cell, || prefix.resume());
                    counters.sim_ticks += result.elapsed_ticks;
                    (result, None)
                }
                PrefixOutcome::Finished(result) => {
                    counters.sim_ticks += result.elapsed_ticks;
                    (result, None)
                }
            }
        }
        None => {
            let simulation = tracer.span("sim.construct", cell, || {
                SystemSimulation::new(baseline_system, traces.clone())
            });
            let result = tracer.span("sim.step", cell, || simulation.run());
            counters.sim_ticks += result.elapsed_ticks;
            (result, None)
        }
    };
    counters.add_result(&baseline);

    for (slot, system, horizon) in legs {
        counters.protected_legs += 1;
        let forkable = prefix
            .as_ref()
            .filter(|prefix| horizon >= prefix.now() && prefix.now() > 0);
        let protected = match forkable {
            Some(prefix) => {
                counters.forked_legs += 1;
                counters.prefix_ticks_shared += prefix.now();
                let fork = tracer.span("sim.fork", cell, || {
                    let mut fork = prefix.fork();
                    fork.refit_mitigation(
                        &system.device.prac,
                        system.device.tref_every_n_refreshes,
                    );
                    fork
                });
                let result = tracer.span("sim.step", cell, || fork.resume());
                counters.sim_ticks += result.elapsed_ticks - prefix.now();
                result
            }
            None => {
                let simulation = tracer.span("sim.construct", cell, || {
                    SystemSimulation::new(system, traces.clone())
                });
                let result = tracer.span("sim.step", cell, || simulation.run());
                counters.sim_ticks += result.elapsed_ticks;
                result
            }
        };
        counters.add_result(&protected);
        results[slot] = Some(perf_figures(perfs[slot], &protected, &baseline));
    }
    for (slot, perf) in perfs.iter().enumerate() {
        if results[slot].is_none() {
            results[slot] = Some(perf_figures(perf, &baseline, &baseline));
        }
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every cell produced figures"))
        .collect()
}

/// One `attacks` cell: the defended and the undefended serialized attacker.
#[allow(clippy::too_many_arguments)]
fn attack_cell(
    attack: &AttackKind,
    setup: &MitigationSetup,
    nrh: u32,
    accesses: u64,
    profile: DeviceProfile,
    seed: u64,
    cell: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Map {
    let organization = DramDeviceConfig::paper_default().organization;
    let timing = if profile == DeviceProfile::JedecBaseline {
        DramTimingSummary::ddr5_8000b()
    } else {
        profile.timing().summary(organization.rows_per_bank)
    };
    let resolved = match tracer.span("core.resolve", cell, || setup.resolve(nrh, &timing)) {
        Ok(resolved) => resolved,
        Err(error) => return config_error_figures(&error),
    };
    let defended = AttackSetup::new(nrh)
        .with_policy(resolved.policy)
        .with_counter_reset(resolved.counter_reset)
        .with_tref_every(resolved.tref_every_n_refreshes)
        .with_refresh(true);
    let undefended = AttackSetup::new(nrh)
        .with_policy(MitigationPolicy::Disabled)
        .with_refresh(true);
    let max_ticks = accesses.saturating_mul(ATTACK_TICKS_PER_ACCESS);
    let mitigated = tracer.span("attack.run", cell, || {
        run_adversary(attack, &defended, accesses, max_ticks, seed)
    });
    let baseline = tracer.span("attack.run", cell, || {
        run_adversary(attack, &undefended, accesses, max_ticks, seed)
    });
    for outcome in [&mitigated, &baseline] {
        counters.attack_ticks += outcome.elapsed_ticks;
        counters.attack_accesses += outcome.accesses_completed;
        counters.activations += outcome.activations;
        counters.alerts += outcome.abo_events;
    }
    counters.max_row_counter = counters
        .max_row_counter
        .max(u64::from(mitigated.max_row_activations));
    counters.breached_cells += u64::from(mitigated.breached(nrh));

    let mut m = Map::new();
    m.insert(
        "max_row_activations".into(),
        mitigated.max_row_activations.into(),
    );
    m.insert("nrh_breached".into(), mitigated.breached(nrh).into());
    m.insert("rfms_triggered".into(), mitigated.rfms_triggered.into());
    m.insert("abo_events".into(), mitigated.abo_events.into());
    m.insert("activations".into(), mitigated.activations.into());
    m.insert("elapsed_ticks".into(), mitigated.elapsed_ticks.into());
    m.insert(
        "baseline_elapsed_ticks".into(),
        baseline.elapsed_ticks.into(),
    );
    if let Some(ecc) = profile.on_die_ecc() {
        let overshoot = u64::from(mitigated.max_row_activations).saturating_sub(u64::from(nrh));
        let adjudication =
            ecc.adjudicate(overshoot, workloads::attack::row_bits(&organization), seed);
        m.insert("ecc_raw_flips".into(), adjudication.raw_flips.into());
        m.insert(
            "ecc_flips_escaped".into(),
            adjudication.flips_escaped.into(),
        );
    }
    m.insert(
        "completed".into(),
        (mitigated.completed && baseline.completed).into(),
    );
    m
}
