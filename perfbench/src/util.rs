//! Small helpers shared by the workloads: seeded randomness, order
//! statistics, peak memory, metric-map hashing and the golden files.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use campaign::scenario::fnv1a64;
use serde_json::{Map, Value};

/// SplitMix64: the benchmark's own seeded stream for request order and
/// miss cells (the program receives only the generated inputs).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Latency samples gathered in windows spread over a run.  The p50 pools
/// every sample; the p99 is the median of the windows' own p99s, so one
/// burst of host interference moves one window, not the reported tail.
#[derive(Debug, Clone)]
pub struct Windows {
    size: usize,
    closed: Vec<Vec<f64>>,
    open: Vec<f64>,
}

impl Windows {
    /// Windows of `size` samples (each window's p99 has `size / 100`
    /// samples beyond it).
    pub fn new(size: usize) -> Self {
        Self {
            size,
            closed: Vec::new(),
            open: Vec::with_capacity(size),
        }
    }

    pub fn push(&mut self, sample: f64) {
        self.open.push(sample);
        if self.open.len() == self.size {
            self.closed.push(std::mem::replace(
                &mut self.open,
                Vec::with_capacity(self.size),
            ));
        }
    }

    /// Every sample, including a trailing partial window.
    pub fn samples(&self) -> Vec<f64> {
        self.closed
            .iter()
            .flatten()
            .chain(&self.open)
            .copied()
            .collect()
    }

    pub fn p50(&self) -> f64 {
        median(&self.samples())
    }

    pub fn p99(&self) -> f64 {
        let tails: Vec<f64> = self.closed.iter().map(|w| percentile(w, 0.99)).collect();
        median(&tails)
    }

    /// `(samples, full windows, samples beyond each window's p99)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let beyond = self.size - (self.size as f64 * 0.99).ceil() as usize;
        (self.samples().len(), self.closed.len(), beyond)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), reported in
/// the detail line only: it flips between allocator retention modes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a hash of a metric map's canonical JSON (the shim sorts keys).
pub fn metrics_hash(metrics: &Map) -> u64 {
    fnv1a64(Value::Object(metrics.clone()).to_string().as_bytes())
}

/// Per-cell golden entry: the cell's cache key and its metric-map hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenCell {
    pub key: u64,
    pub hash: u64,
}

/// The golden of one workload at the default seed, keyed by
/// `<campaign>/<cell name>`.
pub type Golden = BTreeMap<String, GoldenCell>;

/// `perfbench/golden/<workload>.json`, next to the package manifest.
pub fn golden_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.json"))
}

pub fn read_golden(workload: &str) -> io::Result<Golden> {
    let path = golden_path(workload);
    let text = std::fs::read_to_string(&path)?;
    let invalid = |why: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {why}", path.display()),
        )
    };
    let value = serde_json::from_str(&text).map_err(|e| invalid(&e.to_string()))?;
    let cells = value
        .get("cells")
        .and_then(Value::as_object)
        .ok_or_else(|| invalid("missing `cells` object"))?;
    let hex = |v: Option<&Value>| {
        v.and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
    };
    cells
        .iter()
        .map(|(id, cell)| {
            let key = hex(cell.get("key")).ok_or_else(|| invalid(&format!("{id}: bad key")))?;
            let hash = hex(cell.get("hash")).ok_or_else(|| invalid(&format!("{id}: bad hash")))?;
            Ok((id.clone(), GoldenCell { key, hash }))
        })
        .collect()
}

pub fn write_golden(workload: &str, golden: &Golden) -> io::Result<()> {
    let mut cells = Map::new();
    for (id, cell) in golden {
        let mut entry = Map::new();
        entry.insert("key".into(), format!("{:016x}", cell.key).into());
        entry.insert("hash".into(), format!("{:016x}", cell.hash).into());
        cells.insert(id.clone(), Value::Object(entry));
    }
    let mut root = Map::new();
    root.insert("workload".into(), workload.into());
    root.insert(
        "note".into(),
        "metric-map hashes at seed 0; regenerate with `perfbench --write-golden <workload>`".into(),
    );
    root.insert("cells".into(), Value::Object(cells));
    let text = serde_json::to_string_pretty(&Value::Object(root))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(golden_path(workload), text + "\n")
}

/// One failed check: the id of the cell or request, and what went wrong.
pub type Problem = (String, String);

/// The golden entries whose ids `keep` accepts.
pub fn golden_subset(golden: &Golden, keep: impl Fn(&str) -> bool) -> Golden {
    golden
        .iter()
        .filter(|(id, _)| keep(id))
        .map(|(id, cell)| (id.clone(), cell.clone()))
        .collect()
}

/// Compares produced cells against the golden: cells the golden lacks,
/// golden cells that were not produced, wrong keys and wrong hashes.
pub fn golden_mismatches(golden: &Golden, produced: &Golden) -> Vec<Problem> {
    let mut problems = Vec::new();
    for (id, cell) in produced {
        let problem = match golden.get(id) {
            None => "not in the golden".to_string(),
            Some(expected) if expected.key != cell.key => {
                format!("cache key {:016x}, golden {:016x}", cell.key, expected.key)
            }
            Some(expected) if expected.hash != cell.hash => format!(
                "metrics hash {:016x}, golden {:016x}",
                cell.hash, expected.hash
            ),
            Some(_) => continue,
        };
        problems.push((id.clone(), problem));
    }
    for id in golden.keys().filter(|id| !produced.contains_key(*id)) {
        problems.push((id.clone(), "in the golden but not produced".into()));
    }
    problems
}

/// The metrics object of the result line, in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        for (name, (value, unit)) in &self.0 {
            let mut entry = Map::new();
            entry.insert("value".into(), (*value).into());
            entry.insert("unit".into(), (*unit).into());
            map.insert(name.clone(), Value::Object(entry));
        }
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_linear_interpolation() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 4.0);
    }

    #[test]
    fn golden_check_reports_missing_cells() {
        let cell = |hash| GoldenCell { key: 1, hash };
        let golden: Golden = [("a".to_string(), cell(1)), ("b".to_string(), cell(2))].into();
        let produced: Golden = [("a".to_string(), cell(1))].into();
        let problems = golden_mismatches(&golden, &produced);
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].0, "b");
        let wrong: Golden = [("a".to_string(), cell(9)), ("b".to_string(), cell(2))].into();
        assert_eq!(golden_mismatches(&golden, &wrong)[0].0, "a");
    }

    #[test]
    fn rng_is_seeded() {
        let first = |seed| Rng::new(seed).next_u64();
        assert_eq!(first(7), first(7));
        assert_ne!(first(7), first(8));
    }
}
