//! Set-associative caches with write-back/write-allocate behaviour.
//!
//! The replacement policies provided are LRU and SRRIP (the paper's LLC
//! policy).  The caches are functional/tag-only: they decide hit vs miss and
//! which dirty victim to write back; data values are never modelled.

use serde::{Deserialize, Serialize};

/// Replacement policy of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    Lru,
    /// Static Re-Reference Interval Prediction (2-bit RRPV).
    Srrip,
}

/// Geometry and behaviour of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * u64::from(self.line_bytes))
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; if a dirty victim was evicted
    /// its line address is reported so the caller can write it back.
    Miss {
        /// Dirty victim line address (already aligned), if any.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// `true` for hits.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp or RRPV value depending on the policy.
    meta: u32,
}

/// One cache level.
///
/// The lines live in one flat, set-major array: set `s` owns the `ways`
/// consecutive lines starting at `s * ways`.  Construction is a single
/// allocation and a clone (a forked simulation copies every cache) is a
/// single copy.  Line size and set count are powers of two, so an address
/// splits into offset, set and tag by shifts and a mask.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    ways: usize,
    /// log2 of the line size.
    line_shift: u32,
    /// log2 of the set count.
    set_shift: u32,
    lru_clock: u32,
    hits: u64,
    misses: u64,
}

const SRRIP_MAX: u32 = 3;
const SRRIP_INSERT: u32 = 2;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when the geometry does not describe at least one set, or when
    /// the line size / set count are not powers of two.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets >= 1, "cache must have at least one set");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let ways = config.ways as usize;
        Self {
            config,
            lines: vec![Line::default(); sets as usize * ways],
            ways,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            lru_clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit count since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn set_and_tag(&self, address: u64) -> (usize, u64) {
        let line = address >> self.line_shift;
        let set = (line & ((1 << self.set_shift) - 1)) as usize;
        let tag = line >> self.set_shift;
        (set, tag)
    }

    /// Line-aligned address reconstructed from a set index and tag.
    fn line_address(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_shift) | set as u64) << self.line_shift
    }

    /// The ways of set `set`.
    fn set_lines(&self, set: usize) -> &[Line] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// The ways of set `set`, mutably.
    fn set_lines_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// Looks up `address` without changing any state.
    #[must_use]
    pub fn probe(&self, address: u64) -> bool {
        let (set, tag) = self.set_and_tag(address);
        self.set_lines(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Accesses `address`; on a miss the line is filled (write-allocate) and
    /// the evicted dirty victim, if any, is returned for write-back.
    pub fn access(&mut self, address: u64, is_write: bool) -> AccessOutcome {
        self.lru_clock = self.lru_clock.wrapping_add(1);
        let (set, tag) = self.set_and_tag(address);
        let policy = self.config.replacement;
        let lru_clock = self.lru_clock;
        let base = set * self.ways;
        let set_lines = &mut self.lines[base..base + self.ways];

        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.dirty |= is_write;
            match policy {
                ReplacementPolicy::Lru => line.meta = lru_clock,
                ReplacementPolicy::Srrip => line.meta = 0,
            }
            self.hits += 1;
            return AccessOutcome::Hit;
        }

        self.misses += 1;
        let victim_index = Self::pick_victim(set_lines, policy);
        let victim = set_lines[victim_index];
        let writeback = if victim.valid && victim.dirty {
            Some(self.line_address(set, victim.tag))
        } else {
            None
        };
        let insert_meta = match policy {
            ReplacementPolicy::Lru => lru_clock,
            ReplacementPolicy::Srrip => SRRIP_INSERT,
        };
        self.set_lines_mut(set)[victim_index] = Line {
            tag,
            valid: true,
            dirty: is_write,
            meta: insert_meta,
        };
        AccessOutcome::Miss { writeback }
    }

    fn pick_victim(lines: &mut [Line], policy: ReplacementPolicy) -> usize {
        if let Some(idx) = lines.iter().position(|l| !l.valid) {
            return idx;
        }
        match policy {
            ReplacementPolicy::Lru => lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.meta)
                .map(|(i, _)| i)
                .unwrap_or(0),
            ReplacementPolicy::Srrip => {
                // Age RRPVs until one line reaches the maximum, then evict it.
                loop {
                    if let Some(idx) = lines.iter().position(|l| l.meta >= SRRIP_MAX) {
                        return idx;
                    }
                    for l in lines.iter_mut() {
                        l.meta = (l.meta + 1).min(SRRIP_MAX);
                    }
                }
            }
        }
    }

    /// Invalidates the line containing `address` (clflush).  Returns the
    /// dirty line address if a write-back is required.
    pub fn invalidate(&mut self, address: u64) -> Option<u64> {
        let (set, tag) = self.set_and_tag(address);
        let line_addr = self.line_address(set, tag);
        for line in self.set_lines_mut(set) {
            if line.valid && line.tag == tag {
                let was_dirty = line.dirty;
                *line = Line::default();
                return was_dirty.then_some(line_addr);
            }
        }
        None
    }

    /// Fills `address` without counting a demand access (prefetch fill).
    /// Returns the dirty victim, if any.
    pub fn fill(&mut self, address: u64) -> Option<u64> {
        let (set, tag) = self.set_and_tag(address);
        if self.set_lines(set).iter().any(|l| l.valid && l.tag == tag) {
            return None;
        }
        let policy = self.config.replacement;
        let lru_clock = self.lru_clock;
        let victim_index = Self::pick_victim(self.set_lines_mut(set), policy);
        let victim = self.set_lines(set)[victim_index];
        let writeback = if victim.valid && victim.dirty {
            Some(self.line_address(set, victim.tag))
        } else {
            None
        };
        self.set_lines_mut(set)[victim_index] = Line {
            tag,
            valid: true,
            dirty: false,
            meta: match policy {
                ReplacementPolicy::Lru => lru_clock,
                ReplacementPolicy::Srrip => SRRIP_INSERT,
            },
        };
        writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024, // 4 sets x 4 ways x 64 B
            ways: 4,
            line_bytes: 64,
            hit_latency: 2,
            replacement: policy,
        })
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let c = small_cache(ReplacementPolicy::Lru);
        assert_eq!(c.config().sets(), 4);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(
            c.access(0x1004, false).is_hit(),
            "same line, different offset"
        );
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        // Four distinct tags in set 0 (addresses differ by sets*line = 256).
        for i in 0..4u64 {
            c.access(i * 256, false);
        }
        // Touch the first line so the second becomes LRU.
        c.access(0, false);
        // A fifth line evicts address 256.
        c.access(4 * 256, false);
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn dirty_victims_are_reported_for_writeback() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0, true); // dirty
        for i in 1..4u64 {
            c.access(i * 256, false);
        }
        let outcome = c.access(4 * 256, false);
        match outcome {
            AccessOutcome::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, 0),
            other => panic!("expected a write-back of line 0, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line_and_reports_dirtiness() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0x1000, true);
        assert_eq!(c.invalidate(0x1000), Some(0x1000));
        assert!(!c.probe(0x1000));
        // Invalidate of a clean or absent line returns None.
        c.access(0x2000, false);
        assert_eq!(c.invalidate(0x2000), None);
        assert_eq!(c.invalidate(0x3000), None);
    }

    #[test]
    fn srrip_eventually_evicts_and_keeps_reused_lines() {
        let mut c = small_cache(ReplacementPolicy::Srrip);
        for i in 0..4u64 {
            c.access(i * 256, false);
        }
        // Re-reference line 0 so its RRPV drops to 0.
        c.access(0, false);
        c.access(4 * 256, false);
        assert!(c.probe(0), "recently re-referenced line must survive");
        assert_eq!(c.misses(), 5);
    }

    #[test]
    fn fill_does_not_count_as_demand_access() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.fill(0x4000);
        assert_eq!(c.misses(), 0);
        assert!(c.probe(0x4000));
        assert!(c.access(0x4000, false).is_hit());
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_is_rejected() {
        // 768 B / (4 ways x 64 B) = 3 sets.
        let _ = Cache::new(CacheConfig {
            size_bytes: 768,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
            replacement: ReplacementPolicy::Lru,
        });
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_set_geometry_is_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
            replacement: ReplacementPolicy::Lru,
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::CpuConfig;
    use proptest::prelude::*;

    /// The paper's L1D, L2 and LLC geometries and the tiny test geometries.
    fn indexing_geometries() -> Vec<CacheConfig> {
        let paper = CpuConfig::paper_default();
        let tiny = CpuConfig::tiny_for_tests();
        vec![paper.l1d, paper.l2, paper.llc, tiny.l1d, tiny.l2, tiny.llc]
    }

    proptest! {
        /// Shift/mask indexing equals the division form it replaced:
        /// `line = address / line_bytes`, `set = line % sets`,
        /// `tag = line / sets`, and back `(tag * sets + set) * line_bytes`.
        #[test]
        fn shift_mask_indexing_matches_division(addresses in proptest::collection::vec(0u64..u64::MAX, 1..64)) {
            for config in indexing_geometries() {
                let c = Cache::new(config);
                let sets = config.sets();
                let line_bytes = u64::from(config.line_bytes);
                for &address in &addresses {
                    let line = address / line_bytes;
                    let (set, tag) = c.set_and_tag(address);
                    prop_assert_eq!((set, tag), ((line % sets) as usize, line / sets));
                    prop_assert_eq!(c.line_address(set, tag), (tag * sets + set as u64) * line_bytes);
                }
            }
        }

        /// After accessing an address it is always present until evicted by
        /// at least `ways` distinct conflicting lines.
        #[test]
        fn recently_accessed_lines_are_present(addresses in proptest::collection::vec(0u64..(1 << 20), 1..200)) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 8 * 1024,
                ways: 8,
                line_bytes: 64,
                hit_latency: 1,
                replacement: ReplacementPolicy::Lru,
            });
            for addr in addresses {
                c.access(addr, false);
                prop_assert!(c.probe(addr));
            }
        }

        /// Hit + miss counts equal total accesses.
        #[test]
        fn hit_miss_accounting(addresses in proptest::collection::vec(0u64..(1 << 16), 1..300)) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 4 * 1024,
                ways: 4,
                line_bytes: 64,
                hit_latency: 1,
                replacement: ReplacementPolicy::Srrip,
            });
            let n = addresses.len() as u64;
            for addr in addresses {
                c.access(addr, false);
            }
            prop_assert_eq!(c.hits() + c.misses(), n);
        }
    }
}
