//! The `serve-mixed` workload: one closed-loop caller asking the result
//! service (`Server::respond`, in process, no socket) over a store
//! pre-populated with the quick fig10/fig11/fig13/fig07/storage records.
//!
//! Every batch holds the same mix in a seeded order: mostly `query` hits,
//! some `get`s, and a few `query` misses.  A miss is a quick fig10 cell
//! with a fresh seeded `seed` field, so the service executes it and appends
//! a record — writes beside the reads.  Each batch misses once on each of
//! the nine quick-suite workloads (with a seeded setup), so every batch
//! asks for the same amount of simulation whatever the seed.

use std::io;
use std::path::Path;
use std::sync::Arc;

use campaign::cache::{CachedResult, ResultCache};
use campaign::registry::Profile;
use campaign::scenario::{fnv1a64, Scenario, ScenarioSpec};
use campaign::{CampaignRunner, Server};
use result_store::ResultStore;
use serde_json::{Map, Value};
use system_sim::EngineKind;

use crate::campaigns::{mix_seed, registry_campaign, CellOutput};
use crate::trace::Tracer;
use crate::util::{metrics_hash, Golden, GoldenCell, Rng};

/// Requests per batch, by kind.
pub const BATCH_HITS: usize = 255;
pub const BATCH_GETS: usize = 36;
pub const BATCH_MISSES: usize = 9;
pub const BATCH: usize = BATCH_HITS + BATCH_GETS + BATCH_MISSES;

/// The registry campaigns whose quick records pre-populate the store.
pub const POPULATION: &[&str] = &["fig10", "fig11", "fig13", "fig07", "storage"];

/// Requests of one batch, each with the service's reply.
pub type Replies = Vec<(Request, Value)>;

/// The campaigns whose seed-0 records the golden probe stores.
pub const PROBE_POPULATION: &[&str] = &["fig07", "storage"];

/// Golden ids of the probe batch's misses start with this.
pub const MISS_PREFIX: &str = "miss/";

/// The seed-0 probe every run checks against the golden: a fresh store at
/// `dir` holding the probe population, and one seed-0 batch answered by
/// the service over it.  Returns the population and each request with
/// its reply.
pub fn probe(dir: &Path) -> io::Result<(Vec<CellOutput>, Replies)> {
    let population = populate(dir, 0, PROBE_POPULATION)?;
    let server = Server::new(ResultCache::open(dir)?, EngineKind::default());
    let replies = Generator::new(0, &population)
        .batch()
        .into_iter()
        .map(|request| {
            let (reply, _) = respond(&server, &request);
            (request, reply)
        })
        .collect();
    Ok((population, replies))
}

/// Golden entries of a batch's misses, `miss/<n>` in batch order: the
/// miss cell's cache key and the hash of the metrics the reply carries.
pub fn miss_golden(replies: &Replies) -> Golden {
    replies
        .iter()
        .filter_map(|(request, reply)| Some((request.miss.as_ref()?, reply)))
        .enumerate()
        .map(|(n, (scenario, reply))| {
            let metrics = reply
                .get("metrics")
                .and_then(Value::as_object)
                .cloned()
                .unwrap_or_default();
            let cell = GoldenCell {
                key: scenario.key(),
                hash: metrics_hash(&metrics),
            };
            (format!("{MISS_PREFIX}{n}"), cell)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hit,
    Get,
    Miss,
}

/// One generated request: its protocol line and what it must return.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub line: String,
    /// Index into the population for hits and gets.
    pub record: usize,
    /// The miss cell (for misses).
    pub miss: Option<Scenario>,
}

/// Executes the named registry campaigns (quick profile) into a fresh store at `dir` through
/// the program's campaign runner (one worker, cache on).
pub fn populate(dir: &Path, seed: u64, names: &[&str]) -> io::Result<Vec<CellOutput>> {
    let cache = ResultCache::open(dir)?;
    let runner = CampaignRunner::new()
        .with_workers(1)
        .with_cache(cache.clone());
    let mut cells = Vec::new();
    for name in names {
        let mut campaign = registry_campaign(name, &Profile::quick());
        for scenario in &mut campaign.scenarios {
            mix_seed(&mut scenario.spec, seed);
        }
        for record in runner.run(&campaign)?.records {
            cells.push(CellOutput {
                id: format!("{name}/{}", record.scenario.name),
                scenario: record.scenario,
                metrics: record.metrics,
                wall_ms: record.wall_ms,
            });
        }
    }
    cache.flush()?;
    Ok(cells)
}

/// Writes already-executed population records into a fresh store at `dir`
/// (the traced replay's own copy of the pre-populated store).
pub fn restore(dir: &Path, population: &[CellOutput]) -> io::Result<ResultCache> {
    let cache = ResultCache::open(dir)?;
    for cell in population {
        cache.store(
            &cell.scenario,
            &CachedResult {
                metrics: cell.metrics.clone(),
                wall_ms: cell.wall_ms,
            },
        )?;
    }
    cache.flush()?;
    Ok(cache)
}

/// The seeded request generator.  Two generators with the same seed and
/// population yield the same batches.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: Rng,
    population: usize,
    /// Quick fig10 cells grouped by workload: `templates[w][setup]`.
    templates: Vec<Vec<Scenario>>,
    hit_keys: Vec<(String, String)>,
}

impl Generator {
    pub fn new(seed: u64, population: &[CellOutput]) -> Self {
        let mut templates: Vec<Vec<Scenario>> = Vec::new();
        for mut scenario in registry_campaign("fig10", &Profile::quick()).scenarios {
            mix_seed(&mut scenario.spec, seed);
            let workload = |s: &Scenario| match &s.spec {
                ScenarioSpec::Perf(perf) => perf.workload.workload.name.clone(),
                _ => unreachable!("fig10 holds perf cells only"),
            };
            match templates.last_mut() {
                Some(group) if workload(&group[0]) == workload(&scenario) => group.push(scenario),
                _ => templates.push(vec![scenario]),
            }
        }
        assert_eq!(
            templates.len(),
            BATCH_MISSES,
            "one miss per quick-suite workload"
        );
        let hit_keys = population
            .iter()
            .map(|cell| {
                (
                    cell.scenario.spec.to_json().to_string(),
                    format!("{:016x}", cell.scenario.key()),
                )
            })
            .collect();
        Self {
            rng: Rng::new(seed),
            population: population.len(),
            templates,
            hit_keys,
        }
    }

    pub fn batch(&mut self) -> Vec<Request> {
        let mut kinds: Vec<Kind> = std::iter::repeat_n(Kind::Hit, BATCH_HITS)
            .chain(std::iter::repeat_n(Kind::Get, BATCH_GETS))
            .chain(std::iter::repeat_n(Kind::Miss, BATCH_MISSES))
            .collect();
        self.rng.shuffle(&mut kinds);
        let mut next_workload = 0;
        kinds
            .into_iter()
            .map(|kind| match kind {
                Kind::Hit => {
                    let record = self.rng.below(self.population);
                    Request {
                        kind,
                        line: format!(r#"{{"op":"query","spec":{}}}"#, self.hit_keys[record].0),
                        record,
                        miss: None,
                    }
                }
                Kind::Get => {
                    let record = self.rng.below(self.population);
                    Request {
                        kind,
                        line: format!(r#"{{"op":"get","key":"{}"}}"#, self.hit_keys[record].1),
                        record,
                        miss: None,
                    }
                }
                Kind::Miss => {
                    let setups = &self.templates[next_workload];
                    next_workload += 1;
                    let mut scenario = setups[self.rng.below(setups.len())].clone();
                    if let ScenarioSpec::Perf(perf) = &mut scenario.spec {
                        perf.seed ^= self.rng.next_u64();
                    }
                    Request {
                        kind,
                        line: format!(r#"{{"op":"query","spec":{}}}"#, scenario.spec.to_json()),
                        record: 0,
                        miss: Some(scenario),
                    }
                }
            })
            .collect()
    }
}

/// Checks one reply against what the population says it must be.  Returns
/// a description of the first problem, if any.
pub fn check_reply(request: &Request, reply: &Value, population: &[CellOutput]) -> Option<String> {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Some(format!("ok:false reply {reply}"));
    }
    let hit = reply.get("hit").and_then(Value::as_bool);
    match request.kind {
        Kind::Hit => {
            let cell = &population[request.record];
            (hit != Some(true)
                || reply.get("metrics").and_then(Value::as_object) != Some(&cell.metrics)
                || reply.get("wall_ms").and_then(Value::as_f64) != Some(cell.wall_ms))
            .then(|| format!("query of {} does not return its stored result", cell.id))
        }
        Kind::Get => {
            let cell = &population[request.record];
            let mut payload = Map::new();
            payload.insert("spec".into(), cell.scenario.spec.to_json());
            payload.insert("metrics".into(), Value::Object(cell.metrics.clone()));
            payload.insert("wall_ms".into(), cell.wall_ms.into());
            (hit != Some(true) || reply.get("payload") != Some(&Value::Object(payload)))
                .then(|| format!("get of {} does not return its stored payload", cell.id))
        }
        Kind::Miss => {
            let scenario = request.miss.as_ref().expect("misses carry their cell");
            let key = format!("{:016x}", scenario.key());
            (hit != Some(false)
                || reply.get("key").and_then(Value::as_str) != Some(key.as_str())
                || reply.get("metrics").and_then(Value::as_object).is_none())
            .then(|| format!("miss {key} was not executed"))
        }
    }
}

/// A digest of the reply that two runs must agree on: a miss's own
/// `wall_ms` is host timing, so it is left out.
pub fn reply_digest(request: &Request, reply: &Value) -> u64 {
    let mut reply = reply.clone();
    if let (Kind::Miss, Value::Object(map)) = (request.kind, &mut reply) {
        map.remove("wall_ms");
    }
    fnv1a64(reply.to_string().as_bytes())
}

/// Simulated ticks a miss reply reports (protected + baseline legs).
pub fn miss_ticks(reply: &Value) -> f64 {
    reply
        .get("metrics")
        .and_then(Value::as_object)
        .map_or(0.0, crate::campaigns::reported_ticks)
}

/// Answers one request through the program's service and serializes the
/// reply as the socket handler would.
pub fn respond(server: &Server, request: &Request) -> (Value, String) {
    let (reply, _stop) = server.respond(&request.line);
    let text = reply.to_string();
    (reply, text)
}

/// The traced replay of one request: the same public calls the service
/// makes on its hit, get and miss paths, with a span around each.
pub fn respond_traced(
    cache: &ResultCache,
    store: &Arc<ResultStore>,
    request: &Request,
    id: u64,
    tracer: &mut Tracer,
) -> Value {
    let span = tracer.enter("serve.respond", id);
    let parsed: Value = tracer
        .span("serve.parse", id, || serde_json::from_str(&request.line))
        .expect("generated requests are valid JSON");
    let mut reply = Map::new();
    reply.insert("ok".into(), true.into());
    if parsed.get("op").and_then(Value::as_str) == Some("get") {
        let key = parsed
            .get("key")
            .and_then(Value::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .expect("generated gets carry a key");
        reply.insert("key".into(), format!("{key:016x}").into());
        match tracer.span("store.get", id, || store.get(key)) {
            Some(record) => {
                reply.insert("hit".into(), true.into());
                reply.insert("payload".into(), record.payload);
            }
            None => {
                reply.insert("hit".into(), false.into());
            }
        }
    } else {
        let spec_json = parsed.get("spec").expect("generated queries carry a spec");
        let spec = tracer
            .span("campaign.spec_decode", id, || {
                ScenarioSpec::from_json(spec_json)
            })
            .expect("generated specs decode");
        let scenario = Scenario::new("serve", spec);
        let key = tracer.span("campaign.key", id, || scenario.key());
        reply.insert("key".into(), format!("{key:016x}").into());
        // `ResultCache::lookup` computes the key again before its probe.
        let key = tracer.span("campaign.key", id, || scenario.key());
        let record = tracer.span("store.get", id, || store.get(key));
        let cached = record.and_then(|record| {
            tracer.span("cache.decode", id, || {
                decode_payload(&record.payload, &scenario)
            })
        });
        match cached {
            Some(cached) => {
                reply.insert("hit".into(), true.into());
                reply.insert("metrics".into(), Value::Object(cached.metrics));
                reply.insert("wall_ms".into(), cached.wall_ms.into());
            }
            None => {
                let started = std::time::Instant::now();
                let metrics = tracer.span("campaign.execute", id, || {
                    campaign::exec::execute_with(&scenario.spec, EngineKind::default())
                });
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                let result = CachedResult {
                    metrics: metrics.clone(),
                    wall_ms,
                };
                tracer
                    .span("store.insert", id, || cache.store(&scenario, &result))
                    .expect("miss record persists");
                reply.insert("hit".into(), false.into());
                reply.insert("metrics".into(), Value::Object(metrics));
                reply.insert("wall_ms".into(), wall_ms.into());
            }
        }
    }
    let reply = Value::Object(reply);
    let _text = tracer.span("serve.reply", id, || reply.to_string());
    tracer.exit(span);
    reply
}

/// The cache's hit-path decode: the stored spec must equal the asking
/// scenario's (collision guard), then the metrics are cloned out.
fn decode_payload(payload: &Value, scenario: &Scenario) -> Option<CachedResult> {
    if payload.get("spec") != Some(&scenario.spec.to_json()) {
        return None;
    }
    Some(CachedResult {
        metrics: payload.get("metrics")?.as_object()?.clone(),
        wall_ms: payload
            .get("wall_ms")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    })
}
