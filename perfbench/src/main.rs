//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <perf-long|nrh-sweep|attacks|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir DIR] [--spans FILE]
//! perfbench --selftest
//! perfbench --write-golden <workload>
//! ```
//!
//! With `--trace 0` the run measures the program untraced and prints the
//! end-to-end metrics; with `--trace 1` it measures untraced and traced
//! passes of the same inputs and prints the per-layer split.  Every run
//! checks its outputs: a small seed-0 probe against the golden in
//! `golden/` whatever the seed, the whole run against the golden at seed
//! 0, and at any other seed by the untraced and traced runs agreeing.
//! `attempted` counts cells and requests, `failed` those with at least
//! one failed check.  The last line of standard output is the JSON
//! result; a `{"detail": …}` line before it carries sample counts, capped
//! cells and the model-accuracy line.

mod alloc;
mod campaigns;
mod serve;
mod trace;
mod util;

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use campaign::cache::ResultCache;
use campaign::registry::Profile;
use campaign::scenario::Campaign;
use campaign::Server;
use result_store::ResultStore;
use serde_json::{Map, Value};
use system_sim::EngineKind;

use campaigns::{CampaignWorkload, CellOutput, Counters};
use trace::{LayerTotals, Tracer};
use util::{median, Golden, GoldenCell, Metrics, Problem};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed that reproduces the registry cells byte-for-byte.
const DEFAULT_SEED: u64 = 0;
/// Plannings per round on campaign workloads.  A round is timed as one
/// sample (its time per planning); one runs before the first pass and one
/// after each timed pass, and `setup_s` is the median of the rounds.
const PLAN_ROUND: usize = 30;
/// Store opens timed before the first `serve-mixed` batch; one more
/// follows each timed batch, and `setup_s` is the median of all of them.
const OPEN_ROUND: usize = 20;
/// Serve hit-latency samples per window (each window's p99 has 10 beyond it).
const HIT_WINDOW: usize = 1_000;
/// Batches of a `--trace 0` serve run replayed traced as its output check
/// (the warm-up batch and the first timed one).
const SERVE_CHECK_BATCHES: usize = 2;
/// Timed serve batches between resets of the live store to the
/// pre-populated snapshot.  Misses append records; without resets the
/// store, and the heap that indexes it, would grow with the number of
/// batches a run makes, that is with host speed.
const SERVE_RESET_BATCHES: usize = 20;
/// The paper's TPRAC slowdown at NRH = 1024 (Figure 10), for the
/// model-accuracy line.
const PAPER_TPRAC_SLOWDOWN: f64 = 0.034;

/// Every end-to-end metric, in result order: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ticks_per_s", "1/s"),
    ("peak_heap_mb", "MiB"),
    ("ok_rate", "share"),
    ("requests_per_s", "1/s"),
    ("hit_p50_us", "us"),
    ("hit_p99_us", "us"),
    ("miss_p50_ms", "ms"),
];

/// Every per-layer metric of the traced run: `(name, unit)`.  Layers a
/// workload does not touch report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.plan_s", "s"),
    ("campaign.exec_s", "s"),
    ("campaign.units", "count"),
    ("campaign.capped_cells", "count"),
    ("campaign.execute_s", "s"),
    ("campaign.key_s", "s"),
    ("campaign.spec_decode_s", "s"),
    ("core.resolve_s", "s"),
    ("core.resolves", "count"),
    ("workloads.trace_gen_s", "s"),
    ("workloads.trace_ops", "count"),
    ("sim.construct_s", "s"),
    ("sim.constructs", "count"),
    ("sim.step_s", "s"),
    ("sim.ticks", "count"),
    ("sim.ns_per_tick", "ns"),
    ("sim.fork_s", "s"),
    ("sim.forks", "count"),
    ("sim.fork_ratio", "share"),
    ("sim.prefix_ticks_shared", "count"),
    ("cpu.instructions", "count"),
    ("cpu.llc_misses", "count"),
    ("cpu.mpki", "1/kinstr"),
    ("cpu.ipc", "instr/cycle"),
    ("memctrl.requests", "count"),
    ("memctrl.row_hit_rate", "share"),
    ("memctrl.avg_latency_ticks", "ticks"),
    ("memctrl.rfms_abo", "count"),
    ("memctrl.rfms_acb", "count"),
    ("memctrl.rfms_tb", "count"),
    ("memctrl.rfms_periodic", "count"),
    ("memctrl.rfms_para", "count"),
    ("dram.activations", "count"),
    ("dram.alerts", "count"),
    ("dram.refreshes", "count"),
    ("dram.max_row_counter", "count"),
    ("attack.run_s", "s"),
    ("attack.ticks", "count"),
    ("attack.ns_per_tick", "ns"),
    ("attack.accesses", "count"),
    ("attack.breached_cells", "count"),
    ("store.open_s", "s"),
    ("store.records", "count"),
    ("store.bytes", "bytes"),
    ("store.get_s", "s"),
    ("store.insert_s", "s"),
    ("cache.decode_s", "s"),
    ("serve.parse_s", "s"),
    ("serve.reply_s", "s"),
    ("serve.respond_s", "s"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.hit_ratio", "share"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Campaign(CampaignWorkload),
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Campaign(CampaignWorkload::PerfLong),
        Workload::Campaign(CampaignWorkload::NrhSweep),
        Workload::Campaign(CampaignWorkload::Attacks),
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Campaign(kind) => kind.name(),
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    spans: Option<PathBuf>,
}

/// What a run found: checked outputs, failures, and the lines to print.
#[derive(Debug, Default)]
struct Outcome {
    /// Outputs checked: cells and requests, each counted once.
    attempted: u64,
    /// The first problem found with each failed output, by its id.
    failures: BTreeMap<String, String>,
    metrics: Metrics,
    detail: Map,
}

impl Outcome {
    /// Counts `outputs` newly checked cells or requests.
    fn attempt(&mut self, outputs: usize) {
        self.attempted += outputs as u64;
    }

    /// Records failed checks; an output failing several checks fails once.
    fn fail(&mut self, problems: Vec<Problem>) {
        for (id, what) in problems {
            self.failures.entry(id).or_insert(what);
        }
    }

    /// Like [`Outcome::fail`], for the seed-0 probe's outputs.
    fn fail_probe(&mut self, problems: Vec<Problem>) {
        self.fail(
            problems
                .into_iter()
                .map(|(id, what)| (format!("seed0/{id}"), what))
                .collect(),
        );
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// `attempted` as printed: never below `failed` (a golden cell that
    /// was not produced fails without having been attempted) nor below 1.
    fn attempted(&self) -> u64 {
        self.attempted.max(self.failed()).max(1)
    }

    fn detail(&mut self, name: &str, value: impl Into<Value>) {
        self.detail.insert(name.into(), value.into());
    }

    fn result_line(&self) -> String {
        let mut line = Map::new();
        line.insert("correct".into(), (self.failed() == 0).into());
        line.insert("attempted".into(), self.attempted().into());
        line.insert("failed".into(), self.failed().into());
        line.insert("metrics".into(), self.metrics.to_json());
        Value::Object(line).to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--selftest") => selftest().map(|()| None),
        Some("--write-golden") => match args.get(1).and_then(|w| Workload::parse(w)) {
            Some(workload) => write_golden(workload).map(|()| None),
            None => Err(usage("--write-golden needs a workload name")),
        },
        _ => parse_options(&args).and_then(|options| run(&options).map(Some)),
    };
    match result {
        Ok(Some(outcome)) => {
            for (id, problem) in outcome.failures.iter().take(20) {
                eprintln!("output check: {id}: {problem}");
            }
            let mut detail = Map::new();
            detail.insert("detail".into(), Value::Object(outcome.detail.clone()));
            println!("{}", Value::Object(detail));
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

fn usage(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message.to_string())
}

fn parse_options(args: &[String]) -> io::Result<Options> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--work-dir" | "--spans" => {
                values.insert(flag.as_str(), value.as_str());
            }
            other => return Err(usage(&format!("unknown flag {other}"))),
        }
    }
    let workload = values
        .get("--workload")
        .and_then(|w| Workload::parse(w))
        .ok_or_else(|| {
            usage("--workload must be one of perf-long, nrh-sweep, attacks, serve-mixed")
        })?;
    let number = |flag: &str, default: &str| -> io::Result<f64> {
        values
            .get(flag)
            .copied()
            .unwrap_or(default)
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| usage(&format!("{flag} must be a non-negative number")))
    };
    let seed = values
        .get("--seed")
        .copied()
        .unwrap_or("0")
        .parse::<u64>()
        .map_err(|_| usage("--seed must be a non-negative integer"))?;
    let trace = match values.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err(usage("--trace must be 0 or 1")),
    };
    Ok(Options {
        workload,
        seed,
        seconds: number("--seconds", "10")?.min(120.0),
        trace,
        work_dir: PathBuf::from(values.get("--work-dir").copied().unwrap_or(".bench_work")),
        spans: values.get("--spans").map(PathBuf::from),
    })
}

fn run(options: &Options) -> io::Result<Outcome> {
    let scratch = options.work_dir.join(format!(
        "{}-{}",
        options.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)?;
    let outcome = match options.workload {
        Workload::Campaign(kind) => run_campaign(kind, options),
        Workload::ServeMixed => run_serve(options, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

// ---------------------------------------------------------------- campaigns

fn golden_of(cells: &[CellOutput]) -> Golden {
    cells
        .iter()
        .map(|cell| {
            (
                cell.id.clone(),
                GoldenCell {
                    key: cell.scenario.key(),
                    hash: util::metrics_hash(&cell.metrics),
                },
            )
        })
        .collect()
}

/// The run's seed-0 cells against the golden entries `keep` accepts.
fn check_golden(
    outcome: &mut Outcome,
    workload: Workload,
    cells: &[CellOutput],
    keep: impl Fn(&str) -> bool,
) -> io::Result<()> {
    let golden = util::golden_subset(&util::read_golden(workload.name())?, keep);
    outcome.fail(util::golden_mismatches(&golden, &golden_of(cells)));
    Ok(())
}

/// Ids that the seed-0 plan and the golden do not share.
fn plan_mismatches(planned: &[String], golden: &Golden) -> Vec<Problem> {
    let planned: BTreeSet<&str> = planned.iter().map(String::as_str).collect();
    let golden: BTreeSet<&str> = golden.keys().map(String::as_str).collect();
    planned
        .symmetric_difference(&golden)
        .map(|id| {
            (
                id.to_string(),
                "planned cells and golden cells differ".into(),
            )
        })
        .collect()
}

/// The seed-0 probe every campaign run makes, whatever its seed: the
/// whole seed-0 plan must name exactly the golden's cells, and the probe
/// cells must reproduce their golden keys and hashes.  Returns the probe
/// cells.
fn probe_campaign(kind: CampaignWorkload, outcome: &mut Outcome) -> io::Result<Vec<CellOutput>> {
    let golden = util::read_golden(kind.name())?;
    let mut problems = plan_mismatches(&campaigns::cell_ids(&kind.plan(DEFAULT_SEED)), &golden);
    let probe = kind.probe_plan();
    let ids: BTreeSet<String> = campaigns::cell_ids(&probe).into_iter().collect();
    let expected = util::golden_subset(&golden, |id| ids.contains(id));
    let cells = campaigns::run_untraced(&probe, kind.fork_prefix())?;
    problems.extend(util::golden_mismatches(&expected, &golden_of(&cells)));
    outcome.attempt(ids.len().max(cells.len()));
    outcome.fail_probe(problems);
    Ok(cells)
}

fn run_campaign(kind: CampaignWorkload, options: &Options) -> io::Result<Outcome> {
    let workload = Workload::Campaign(kind);
    let mut outcome = Outcome::default();
    probe_campaign(kind, &mut outcome)?;

    // Set-up: planning the cells.
    let mut plan_times = Vec::new();
    let campaigns = plan_round(kind, options.seed, &mut plan_times);

    // Per pass: its wall time, and the mean execution time of a cell as
    // the runner records it.
    let mut walls = Vec::new();
    let mut cell_ms = Vec::new();
    let timed_pass = |walls: &mut Vec<f64>, cell_ms: &mut Vec<f64>| {
        let started = Instant::now();
        let cells = campaigns::run_untraced(&campaigns, kind.fork_prefix());
        walls.push(started.elapsed().as_secs_f64());
        if let Ok(cells) = &cells {
            cell_ms.push(cells.iter().map(|cell| cell.wall_ms).sum::<f64>() / cells.len() as f64);
        }
        cells
    };

    // The first pass is timed like the others and is the reference every
    // check compares against.
    alloc::reset_peak();
    let timed = Instant::now();
    let first = timed_pass(&mut walls, &mut cell_ms)?;
    outcome.attempt(first.len());
    if options.seed == DEFAULT_SEED {
        check_golden(&mut outcome, workload, &first, |_| true)?;
    }
    let capped: Vec<Value> = first
        .iter()
        .filter(|cell| campaigns::is_capped(&cell.metrics))
        .map(|cell| cell.id.as_str().into())
        .collect();
    outcome.detail("cells", first.len());
    outcome.detail("capped_cells", capped.clone());
    if kind == CampaignWorkload::PerfLong {
        model_accuracy(&mut outcome, &first);
    }

    let mut traced = match options.trace {
        true => Some(TracedPasses::new(kind, options.seed, &campaigns)),
        false => None,
    };
    loop {
        match &mut traced {
            Some(traced) => traced.pass(&campaigns, kind.fork_prefix(), &first, &mut outcome),
            None => {
                plan_round(kind, options.seed, &mut plan_times);
            }
        }
        if timed.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
        let cells = timed_pass(&mut walls, &mut cell_ms)?;
        outcome.fail(campaigns::compare_cells(&first, &cells, "repeated pass"));
    }
    let peak_heap = alloc::peak_mb();
    outcome.detail("peak_rss_mb", util::peak_rss_mb());
    let wall_s = median(&walls);
    outcome.detail(
        "pass_walls_s",
        walls.iter().map(|&w| Value::from(w)).collect::<Vec<_>>(),
    );

    if let Some(traced) = &traced {
        let mut layers = traced.layers(options.spans.as_deref())?;
        outcome.detail("traced_passes", traced.walls.len());
        let traced_wall = layers.get("trace.traced_wall_s").copied().unwrap_or(0.0);
        layers.insert("trace.untraced_wall_s", wall_s);
        layers.insert("trace.overhead_s", traced_wall - wall_s);
        layers.insert("campaign.capped_cells", capped.len() as f64);
        emit_layers(&mut outcome, &layers);
        write_spans_note(&mut outcome, options);
        return Ok(outcome);
    }

    if options.seed != DEFAULT_SEED {
        let mut tracer = Tracer::new();
        let mut counters = Counters::default();
        let figures =
            campaigns::run_traced(&campaigns, kind.fork_prefix(), &mut tracer, &mut counters);
        outcome.fail(campaigns::figure_mismatches(&first, &figures));
    }

    let ticks: f64 = first
        .iter()
        .map(|cell| campaigns::reported_ticks(&cell.metrics))
        .sum();
    let m = &mut outcome.metrics;
    m.set("wall_s", wall_s, "s");
    m.set("setup_s", median(&plan_times), "s");
    m.set("sim_ticks_per_s", ticks / wall_s, "1/s");
    m.set("peak_heap_mb", peak_heap, "MiB");
    m.set("requests_per_s", first.len() as f64 / wall_s, "1/s");
    // Cell costs differ by workload, so the median cell would jump between
    // workload clusters from seed to seed; the pass mean does not.
    m.set("miss_p50_ms", median(&cell_ms), "ms");
    // No cell of a campaign workload is a cache hit; the hit metrics stand
    // in with the time per cell of a pass, whose spread follows `wall_s`.
    let per_cell: Vec<f64> = walls.iter().map(|w| w / first.len() as f64).collect();
    let hit_p99 = util::percentile(&per_cell, 0.99);
    outcome.detail("setup_samples", plan_times.len());
    outcome.detail("hit_samples", per_cell.len());
    outcome.detail(
        "hit_samples_beyond_p99",
        per_cell.iter().filter(|&&t| t > hit_p99).count(),
    );
    outcome.detail("miss_samples", cell_ms.len());
    finish_end_to_end(&mut outcome, median(&per_cell), hit_p99);
    Ok(outcome)
}

/// Times one round of plannings as one sample (seconds per planning),
/// returning the planned campaigns.
fn plan_round(kind: CampaignWorkload, seed: u64, times: &mut Vec<f64>) -> Vec<Campaign> {
    let mut campaigns = Vec::new();
    let started = Instant::now();
    for _ in 0..PLAN_ROUND {
        campaigns = std::hint::black_box(kind.plan(seed));
    }
    times.push(started.elapsed().as_secs_f64() / PLAN_ROUND as f64);
    campaigns
}

/// TPRAC's mean simulated slowdown at NRH = 1024 next to the paper's.
fn model_accuracy(outcome: &mut Outcome, cells: &[CellOutput]) {
    let slowdowns: Vec<f64> = cells
        .iter()
        .filter(|cell| {
            cell.metrics
                .get("setup")
                .and_then(Value::as_str)
                .is_some_and(|label| label.starts_with("TPRAC"))
                && cell.metrics.get("nrh").and_then(Value::as_u64) == Some(1024)
                && !campaigns::is_capped(&cell.metrics)
        })
        .filter_map(|cell| {
            cell.metrics
                .get("normalized_performance")
                .and_then(Value::as_f64)
        })
        .map(|normalized| 1.0 - normalized)
        .collect();
    let mean = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
    let mut line = Map::new();
    line.insert("tprac_slowdown_nrh1024".into(), mean.into());
    line.insert("paper".into(), PAPER_TPRAC_SLOWDOWN.into());
    line.insert("cells".into(), slowdowns.len().into());
    line.insert(
        "note".into(),
        "quick-scale run (4 cores x 100k instructions, 9 synthetic workloads); capped cells \
         excluded; the model is unvalidated against hardware, the repository holds no \
         reference measurements"
            .into(),
    );
    outcome.detail("model_accuracy", Value::Object(line));
}

/// The traced passes of a campaign workload.  They alternate with the
/// untraced passes, so host-speed drift during a run reaches both alike
/// and `trace.overhead_s` compares like with like.
struct TracedPasses {
    tracer: Tracer,
    counters: Counters,
    walls: Vec<f64>,
}

impl TracedPasses {
    fn new(kind: CampaignWorkload, seed: u64, planned: &[Campaign]) -> Self {
        let mut tracer = Tracer::new();
        let campaigns = tracer.span("campaign.plan", 0, || kind.plan(seed));
        debug_assert_eq!(&campaigns, planned);
        Self {
            tracer,
            counters: Counters::default(),
            walls: Vec::new(),
        }
    }

    /// One traced pass, checked against the untraced first pass.
    fn pass(
        &mut self,
        campaigns: &[Campaign],
        fork_prefix: bool,
        first: &[CellOutput],
        outcome: &mut Outcome,
    ) {
        let started = Instant::now();
        let figures =
            campaigns::run_traced(campaigns, fork_prefix, &mut self.tracer, &mut self.counters);
        self.walls.push(started.elapsed().as_secs_f64());
        outcome.fail(campaigns::figure_mismatches(first, &figures));
    }

    /// Per-pass layer values; the spans go to `spans` when given.
    fn layers(&self, spans: Option<&Path>) -> io::Result<BTreeMap<&'static str, f64>> {
        let (tracer, counters, walls) = (&self.tracer, &self.counters, &self.walls);
        if let Some(path) = spans {
            tracer.write_tsv(path)?;
        }
        let passes = walls.len() as f64;
        // Counters accumulate over the passes; every pass does the same work.
        let per_pass = |count: u64| count as f64 / passes;
        let totals = tracer.totals();
        let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
        let count = |name: &str| totals.get(name).map_or(0.0, |t| t.count as f64);
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        layers.insert("campaign.plan_s", self_s("campaign.plan"));
        layers.insert(
            "campaign.exec_s",
            totals.get("campaign.exec").map_or(0.0, |t| t.total_s) / passes,
        );
        layers.insert("campaign.execute_s", self_s("campaign.execute") / passes);
        layers.insert("campaign.units", per_pass(counters.units));
        layers.insert("core.resolve_s", self_s("core.resolve") / passes);
        layers.insert("core.resolves", count("core.resolve") / passes);
        layers.insert(
            "workloads.trace_gen_s",
            self_s("workloads.trace_gen") / passes,
        );
        layers.insert("workloads.trace_ops", per_pass(counters.trace_ops));
        layers.insert("sim.construct_s", self_s("sim.construct") / passes);
        layers.insert("sim.constructs", count("sim.construct") / passes);
        layers.insert("sim.step_s", self_s("sim.step") / passes);
        layers.insert("sim.ticks", per_pass(counters.sim_ticks));
        layers.insert(
            "sim.ns_per_tick",
            ratio(
                self_s("sim.step") / passes * 1e9,
                per_pass(counters.sim_ticks),
            ),
        );
        layers.insert("sim.fork_s", self_s("sim.fork") / passes);
        layers.insert("sim.forks", count("sim.fork") / passes);
        layers.insert(
            "sim.fork_ratio",
            ratio(counters.forked_legs as f64, counters.protected_legs as f64),
        );
        layers.insert(
            "sim.prefix_ticks_shared",
            per_pass(counters.prefix_ticks_shared),
        );
        layers.insert("cpu.instructions", per_pass(counters.instructions));
        layers.insert("cpu.llc_misses", per_pass(counters.llc_misses));
        layers.insert(
            "cpu.mpki",
            ratio(
                counters.llc_misses as f64 * 1e3,
                counters.instructions as f64,
            ),
        );
        layers.insert(
            "cpu.ipc",
            ratio(counters.instructions as f64, counters.cycles as f64),
        );
        layers.insert("memctrl.requests", per_pass(counters.requests));
        layers.insert(
            "memctrl.row_hit_rate",
            ratio(counters.row_hits as f64, counters.row_accesses as f64),
        );
        layers.insert(
            "memctrl.avg_latency_ticks",
            ratio(counters.latency_ticks as f64, counters.requests as f64),
        );
        layers.insert("memctrl.rfms_abo", per_pass(counters.rfms_abo));
        layers.insert("memctrl.rfms_acb", per_pass(counters.rfms_acb));
        layers.insert("memctrl.rfms_tb", per_pass(counters.rfms_tb));
        layers.insert("memctrl.rfms_periodic", per_pass(counters.rfms_periodic));
        layers.insert("memctrl.rfms_para", per_pass(counters.rfms_para));
        layers.insert("dram.activations", per_pass(counters.activations));
        layers.insert("dram.alerts", per_pass(counters.alerts));
        layers.insert("dram.refreshes", per_pass(counters.refreshes));
        layers.insert("dram.max_row_counter", counters.max_row_counter as f64);
        layers.insert("attack.run_s", self_s("attack.run") / passes);
        layers.insert("attack.ticks", per_pass(counters.attack_ticks));
        layers.insert(
            "attack.ns_per_tick",
            ratio(
                self_s("attack.run") / passes * 1e9,
                per_pass(counters.attack_ticks),
            ),
        );
        layers.insert("attack.accesses", per_pass(counters.attack_accesses));
        layers.insert("attack.breached_cells", per_pass(counters.breached_cells));
        layers.insert("trace.traced_wall_s", median(walls));
        layers.insert("trace.spans", tracer.len() as f64 / passes);
        Ok(layers)
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Prints every per-layer metric; layers the workload does not touch are 0.
fn emit_layers(outcome: &mut Outcome, layers: &BTreeMap<&'static str, f64>) {
    for (name, unit) in PER_LAYER {
        let value = layers.get(name).copied().unwrap_or(0.0);
        outcome.metrics.set(name, value, unit);
    }
    debug_assert!(layers.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)));
}

fn write_spans_note(outcome: &mut Outcome, options: &Options) {
    if let Some(path) = &options.spans {
        outcome.detail("spans_file", path.display().to_string());
    }
}

/// Adds the hit percentiles (given in seconds) and `ok_rate`.
fn finish_end_to_end(outcome: &mut Outcome, hit_p50: f64, hit_p99: f64) {
    outcome.metrics.set("hit_p50_us", hit_p50 * 1e6, "us");
    outcome.metrics.set("hit_p99_us", hit_p99 * 1e6, "us");
    let ok_rate = 1.0 - ratio(outcome.failed() as f64, outcome.attempted() as f64);
    outcome.metrics.set("ok_rate", ok_rate, "share");
    debug_assert!(END_TO_END.iter().all(|(name, _)| outcome.metrics.has(name)));
}

// ------------------------------------------------------------------- serve

/// Whether a `serve-mixed` golden id belongs to one of `campaigns`.
fn in_campaigns(id: &str, campaigns: &[&str]) -> bool {
    id.split_once('/')
        .is_some_and(|(campaign, _)| campaigns.contains(&campaign))
}

/// The seed-0 probe every serve run makes, whatever its seed: the whole
/// seed-0 population must name exactly the golden's records; a small
/// seed-0 store must reproduce its golden records, and one seed-0 batch
/// over it must return the stored results and execute its misses to
/// their golden metrics.  Returns the probe population and replies.
fn probe_serve(dir: &Path, outcome: &mut Outcome) -> io::Result<(Vec<CellOutput>, serve::Replies)> {
    let golden = util::read_golden(Workload::ServeMixed.name())?;
    let planned: Vec<Campaign> = serve::POPULATION
        .iter()
        .map(|name| campaigns::registry_campaign(name, &Profile::quick()))
        .collect();
    let stored = util::golden_subset(&golden, |id| !id.starts_with(serve::MISS_PREFIX));
    let mut problems = plan_mismatches(&campaigns::cell_ids(&planned), &stored);

    let (population, replies) = serve::probe(dir)?;
    let expected = util::golden_subset(&golden, |id| {
        id.starts_with(serve::MISS_PREFIX) || in_campaigns(id, serve::PROBE_POPULATION)
    });
    let mut produced = golden_of(&population);
    produced.extend(serve::miss_golden(&replies));
    problems.extend(util::golden_mismatches(&expected, &produced));
    for (index, (request, reply)) in replies.iter().enumerate() {
        if let Some(problem) = serve::check_reply(request, reply, &population) {
            problems.push((format!("request/{index}"), problem));
        }
    }
    outcome.attempt(expected.len().max(produced.len()) + replies.len());
    outcome.fail_probe(problems);
    Ok((population, replies))
}

fn run_serve(options: &Options, scratch: &Path) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    probe_serve(&scratch.join("probe"), &mut outcome)?;
    let store_dir = scratch.join("store");
    let population = serve::populate(&store_dir, options.seed, serve::POPULATION)?;
    if options.seed == DEFAULT_SEED {
        outcome.attempt(population.len());
        check_golden(&mut outcome, Workload::ServeMixed, &population, |id| {
            !id.starts_with(serve::MISS_PREFIX)
        })?;
    }
    outcome.detail("records", population.len());

    // Set-up: opening the pre-populated store and building the service.
    // Samples open a frozen copy of the store, so the live one the server
    // appends to is opened once.
    let setup_dir = scratch.join("setup-store");
    copy_dir(&store_dir, &setup_dir)?;
    let mut tracer = Tracer::new();
    let mut open_times = Vec::new();
    for _ in 0..OPEN_ROUND {
        time_open(&setup_dir, &mut open_times, &mut tracer)?;
    }
    let (mut server, store) = time_open(&store_dir, &mut open_times, &mut tracer)?;
    let stats = store.stats();
    let opened = (stats.live_records as f64, stats.bytes as f64);

    // The traced replay: the same batches in the same order, answered
    // through the service's public calls with spans, against a fresh copy
    // of the pre-populated store; each reply must agree with the untraced
    // one.  With `--trace 1` it alternates with the untraced batches;
    // otherwise it replays the first batches once, as an output check.
    let mut replay = Replay {
        cache: serve::restore(&scratch.join("traced-store"), &population)?,
        generator: serve::Generator::new(options.seed, &population),
        spans_from: tracer.len(),
        tracer,
        walls: Vec::new(),
        index: 0,
    };
    let mut generator = serve::Generator::new(options.seed, &population);
    // Every request gets an id; a batch's reply digests are kept only until
    // the replay has checked them, so the benchmark's own bookkeeping
    // does not grow the heap it measures.
    let mut requests = 0usize;
    let run_batch = |server: &Server,
                     generator: &mut serve::Generator,
                     requests: &mut usize,
                     outcome: &mut Outcome,
                     hits: &mut util::Windows,
                     misses: &mut Vec<f64>|
     -> (f64, f64, Vec<u64>) {
        let batch = generator.batch();
        // The batch's wall is its requests' latencies: the checks between
        // requests are the benchmark's work, not the service's.
        let mut wall = 0.0;
        let mut bad = Vec::new();
        let mut ticks = 0.0;
        let mut digests = Vec::with_capacity(batch.len());
        for request in &batch {
            let sent = Instant::now();
            let (reply, text) = serve::respond(server, request);
            let latency = sent.elapsed().as_secs_f64();
            std::hint::black_box(text);
            wall += latency;
            match request.kind {
                serve::Kind::Hit => hits.push(latency),
                serve::Kind::Get => {}
                serve::Kind::Miss => {
                    misses.push(latency);
                    ticks += serve::miss_ticks(&reply);
                }
            }
            if let Some(problem) = serve::check_reply(request, &reply, &population) {
                bad.push((format!("request/{}", *requests + digests.len()), problem));
            }
            digests.push(serve::reply_digest(request, &reply));
        }
        *requests += batch.len();
        outcome.attempt(batch.len());
        outcome.fail(bad);
        (wall, ticks, digests)
    };

    // One warm-up batch, checked but not timed.  Without tracing, the
    // replay checks it and the first timed batch after the run.
    let mut checked_later = Vec::new();
    let (_, _, digests) = run_batch(
        &server,
        &mut generator,
        &mut requests,
        &mut outcome,
        &mut util::Windows::new(HIT_WINDOW),
        &mut Vec::new(),
    );
    if options.trace {
        replay.batch(&digests, &mut outcome);
    } else {
        checked_later.push(digests);
    }

    let mut hits = util::Windows::new(HIT_WINDOW);
    let mut misses = Vec::new();
    let mut walls = Vec::new();
    let mut tick_rates = Vec::new();
    alloc::reset_peak();
    let timed = Instant::now();
    loop {
        let (wall, ticks, digests) = run_batch(
            &server,
            &mut generator,
            &mut requests,
            &mut outcome,
            &mut hits,
            &mut misses,
        );
        walls.push(wall);
        tick_rates.push(ticks / wall);
        if options.trace {
            replay.batch(&digests, &mut outcome);
        } else {
            if checked_later.len() < SERVE_CHECK_BATCHES {
                checked_later.push(digests);
            }
            time_open(&setup_dir, &mut open_times, &mut Tracer::new())?;
        }
        if walls.len() % SERVE_RESET_BATCHES == 0 {
            let live = scratch.join(format!("live-{}", walls.len() / SERVE_RESET_BATCHES % 2));
            server = Server::new(fresh_copy(&setup_dir, &live)?, EngineKind::default());
            if options.trace {
                replay.cache = fresh_copy(&setup_dir, &live.with_extension("traced"))?;
            }
        }
        if timed.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }
    let peak_heap = alloc::peak_mb();
    outcome.detail("peak_rss_mb", util::peak_rss_mb());
    let wall_s = median(&walls);
    outcome.detail("batches", walls.len());
    for digests in &checked_later {
        replay.batch(digests, &mut outcome);
    }

    if options.trace {
        let (tracer, traced_walls) = (&replay.tracer, &replay.walls);
        if let Some(path) = &options.spans {
            tracer.write_tsv(path)?;
        }
        // The warm-up batch is the first replayed one; it is timed like
        // the rest since the traced store is cold anyway.
        let passes = traced_walls.len() as f64;
        let totals = tracer.totals();
        let per_batch =
            |name: &str| totals.get(name).map_or(0.0, |t: &LayerTotals| t.self_s) / passes;
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let opens = totals.get("store.open").map_or(1.0, |t| t.count as f64);
        layers.insert(
            "store.open_s",
            totals.get("store.open").map_or(0.0, |t| t.total_s) / opens,
        );
        layers.insert("store.records", opened.0);
        layers.insert("store.bytes", opened.1);
        for (metric, span) in [
            ("store.get_s", "store.get"),
            ("store.insert_s", "store.insert"),
            ("cache.decode_s", "cache.decode"),
            ("campaign.key_s", "campaign.key"),
            ("campaign.spec_decode_s", "campaign.spec_decode"),
            ("campaign.execute_s", "campaign.execute"),
            ("serve.parse_s", "serve.parse"),
            ("serve.reply_s", "serve.reply"),
        ] {
            layers.insert(metric, per_batch(span));
        }
        layers.insert(
            "serve.respond_s",
            totals.get("serve.respond").map_or(0.0, |t| t.total_s) / passes,
        );
        let hits = serve::BATCH_HITS as f64;
        let misses = serve::BATCH_MISSES as f64;
        layers.insert("serve.hits", hits);
        layers.insert("serve.misses", misses);
        layers.insert("serve.hit_ratio", hits / (hits + misses));
        layers.insert("trace.untraced_wall_s", wall_s);
        layers.insert("trace.traced_wall_s", median(traced_walls));
        layers.insert("trace.overhead_s", median(traced_walls) - wall_s);
        layers.insert(
            "trace.spans",
            (tracer.len() - replay.spans_from) as f64 / passes,
        );
        emit_layers(&mut outcome, &layers);
        outcome.detail("traced_batches", traced_walls.len());
        write_spans_note(&mut outcome, options);
        return Ok(outcome);
    }

    let m = &mut outcome.metrics;
    m.set("wall_s", wall_s, "s");
    m.set("setup_s", median(&open_times), "s");
    m.set("sim_ticks_per_s", median(&tick_rates), "1/s");
    m.set("peak_heap_mb", peak_heap, "MiB");
    m.set("requests_per_s", serve::BATCH as f64 / wall_s, "1/s");
    m.set("miss_p50_ms", median(&misses) * 1e3, "ms");
    let miss_samples = misses.len();
    let (samples, windows, beyond) = hits.counts();
    outcome.detail("setup_samples", open_times.len());
    outcome.detail("hit_samples", samples);
    outcome.detail("hit_p99_windows", windows);
    outcome.detail("hit_samples_beyond_p99_per_window", beyond);
    outcome.detail("miss_samples", miss_samples);
    finish_end_to_end(&mut outcome, hits.p50(), hits.p99());
    Ok(outcome)
}

/// The traced replay of the serve batches.
struct Replay {
    cache: ResultCache,
    generator: serve::Generator,
    /// Holds the set-up's `store.open` spans, then the replayed requests'.
    tracer: Tracer,
    /// Spans recorded before the first replayed request.
    spans_from: usize,
    walls: Vec<f64>,
    /// Index of the next replayed request.
    index: usize,
}

impl Replay {
    /// Replays the next batch traced.  Each reply must agree with the
    /// untraced batch's reply `digests`.
    fn batch(&mut self, digests: &[u64], outcome: &mut Outcome) {
        let store = self.cache.store_handle();
        let batch = self.generator.batch();
        let mut wall = 0.0;
        let mut bad = Vec::new();
        for (position, request) in batch.iter().enumerate() {
            let index = self.index;
            let sent = Instant::now();
            let reply =
                serve::respond_traced(&self.cache, &store, request, index as u64, &mut self.tracer);
            wall += sent.elapsed().as_secs_f64();
            if digests.get(position) != Some(&serve::reply_digest(request, &reply)) {
                bad.push((
                    format!("request/{index}"),
                    "traced and untraced replies differ".into(),
                ));
            }
            self.index += 1;
        }
        self.walls.push(wall);
        outcome.fail(bad);
    }
}

/// One timed set-up: `ResultCache::open` plus `Server::new` over `dir`.
fn time_open(
    dir: &Path,
    times: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> io::Result<(Server, Arc<ResultStore>)> {
    let started = Instant::now();
    let cache = tracer.span("store.open", 0, || ResultCache::open(dir))?;
    let store = cache.store_handle();
    let server = Server::new(cache, EngineKind::default());
    times.push(started.elapsed().as_secs_f64());
    Ok((server, store))
}

/// A cache over a fresh copy, at `dir`, of the store at `frozen`.
fn fresh_copy(frozen: &Path, dir: &Path) -> io::Result<ResultCache> {
    let _ = std::fs::remove_dir_all(dir);
    copy_dir(frozen, dir)?;
    ResultCache::open(dir)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

// ------------------------------------------------------ golden and selftest

/// Scratch directory for the developer commands, inside the working tree.
fn dev_dir(what: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{what}-{}", std::process::id()))
}

fn write_golden(workload: Workload) -> io::Result<()> {
    let golden = match workload {
        Workload::Campaign(kind) => golden_of(&campaigns::run_untraced(
            &kind.plan(DEFAULT_SEED),
            kind.fork_prefix(),
        )?),
        Workload::ServeMixed => {
            let dir = dev_dir("golden");
            let _ = std::fs::remove_dir_all(&dir);
            let golden = (|| -> io::Result<Golden> {
                let cells = serve::populate(&dir.join("store"), DEFAULT_SEED, serve::POPULATION)?;
                let (_, replies) = serve::probe(&dir.join("probe"))?;
                let mut golden = golden_of(&cells);
                golden.extend(serve::miss_golden(&replies));
                Ok(golden)
            })();
            let _ = std::fs::remove_dir_all(&dir);
            golden?
        }
    };
    util::write_golden(workload.name(), &golden)?;
    eprintln!(
        "wrote {} ({} cells)",
        util::golden_path(workload.name()).display(),
        golden.len()
    );
    Ok(())
}

/// Runs every workload's seed-0 probe through the output checks, and
/// checks that the checks themselves catch a corrupted, dropped or
/// diverging output.
fn selftest() -> io::Result<()> {
    let started = Instant::now();
    let mut failures = Vec::new();
    for kind in [
        CampaignWorkload::PerfLong,
        CampaignWorkload::NrhSweep,
        CampaignWorkload::Attacks,
    ] {
        let mut outcome = Outcome::default();
        let cells = probe_campaign(kind, &mut outcome)?;
        failures.extend(
            outcome
                .failures
                .iter()
                .map(|(id, what)| format!("{id}: {what}")),
        );
        let probe = kind.probe_plan();
        let mut tracer = Tracer::new();
        let mut counters = Counters::default();
        let mut figures =
            campaigns::run_traced(&probe, kind.fork_prefix(), &mut tracer, &mut counters);
        failures.extend(
            campaigns::figure_mismatches(&cells, &figures)
                .into_iter()
                .map(|(id, what)| format!("{id}: {what}")),
        );
        if !tracer.totals().contains_key("campaign.exec") {
            failures.push(format!(
                "{}: the traced pass recorded no spans",
                kind.name()
            ));
        }
        // The checks must catch a corrupted, a dropped and a diverging output.
        let mut caught = |what: &str, problems: Vec<Problem>| {
            if problems.is_empty() {
                failures.push(format!("{}: {what} passed the checks", kind.name()));
            }
        };
        let golden = golden_of(&cells);
        let mut corrupted = golden.clone();
        if let Some(cell) = corrupted.values_mut().next() {
            cell.hash ^= 1;
        }
        caught(
            "a corrupted hash",
            util::golden_mismatches(&golden, &corrupted),
        );
        let mut dropped = golden.clone();
        dropped.pop_first();
        caught("a dropped cell", util::golden_mismatches(&golden, &dropped));
        caught(
            "a shorter pass",
            campaigns::compare_cells(&cells, &cells[1..], "repeated pass"),
        );
        if let Some((_, figure)) = figures.first_mut() {
            figure.insert("completed".into(), Value::Null);
        }
        caught(
            "a corrupted figure",
            campaigns::figure_mismatches(&cells, &figures),
        );
        caught(
            "a dropped figure",
            campaigns::figure_mismatches(&cells, &figures[1..]),
        );
        eprintln!("selftest {}: {} cells checked", kind.name(), cells.len());
    }

    let dir = dev_dir("selftest");
    let _ = std::fs::remove_dir_all(&dir);
    let serve_result = selftest_serve(&dir, &mut failures);
    let _ = std::fs::remove_dir_all(&dir);
    serve_result?;

    if failures.is_empty() {
        eprintln!(
            "selftest passed in {:.1} s",
            started.elapsed().as_secs_f64()
        );
        Ok(())
    } else {
        for failure in &failures {
            eprintln!("selftest: {failure}");
        }
        Err(io::Error::other(format!(
            "{} selftest failures",
            failures.len()
        )))
    }
}

fn selftest_serve(dir: &Path, failures: &mut Vec<String>) -> io::Result<()> {
    let mut outcome = Outcome::default();
    let (population, replies) = probe_serve(&dir.join("probe"), &mut outcome)?;
    failures.extend(
        outcome
            .failures
            .iter()
            .map(|(id, what)| format!("{id}: {what}")),
    );
    for (request, reply) in &replies {
        if request.kind == serve::Kind::Hit {
            let mut corrupted = reply.clone();
            if let Value::Object(map) = &mut corrupted {
                map.insert("wall_ms".into(), (-1.0).into());
            }
            if serve::check_reply(request, &corrupted, &population).is_none() {
                failures.push("serve: a corrupted reply passed".into());
            }
        }
    }
    let mut misses = serve::miss_golden(&replies);
    if let Some(miss) = misses.values_mut().next() {
        miss.hash ^= 1;
    }
    if util::golden_mismatches(&serve::miss_golden(&replies), &misses).is_empty() {
        failures.push("serve: a corrupted miss passed".into());
    }
    let cache = serve::restore(&dir.join("traced"), &population)?;
    let store = cache.store_handle();
    let mut tracer = Tracer::new();
    for (index, (request, reply)) in replies.iter().enumerate() {
        let traced = serve::respond_traced(&cache, &store, request, index as u64, &mut tracer);
        if serve::reply_digest(request, reply) != serve::reply_digest(request, &traced) {
            failures.push(format!("serve: request {index} traced reply differs"));
        }
    }
    eprintln!("selftest serve-mixed: {} requests checked", replies.len());
    Ok(())
}
