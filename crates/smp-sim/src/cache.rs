//! A parameterized set-associative cache with LRU replacement.
//!
//! Used for both levels of the simulated hierarchy: the UltraSPARC-II-style
//! direct-mapped L1 is the `assoc = 1` special case. The cache tracks only
//! tags (the simulator never stores data — algorithms run on host memory),
//! so a 4 MB simulated L2 costs a few hundred kilobytes of host memory.
//!
//! Reached by: every SMP suite cell (through [`crate::machine`]).

/// Hit/miss counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    ///
    /// Reached by: this crate's `tests/cache_properties.rs`.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A set-associative tag cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    /// log2(line size in bytes).
    line_shift: u32,
    /// Number of sets (power of two).
    sets: usize,
    /// Associativity.
    assoc: usize,
    /// `ways[set * assoc + way]` = line address tag or `u64::MAX` (empty).
    /// Way order within a set is LRU: index 0 is most recent.
    ways: Vec<u64>,
    /// Counters.
    pub stats: CacheStats,
}

const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Build a cache of `capacity_bytes` with `line_bytes` lines and
    /// `assoc`-way sets. Capacity and line size must be powers of two and
    /// consistent (`capacity = sets × assoc × line`).
    pub fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc >= 1);
        assert!(
            capacity_bytes.is_multiple_of(line_bytes * assoc),
            "capacity {capacity_bytes} not divisible by line {line_bytes} x assoc {assoc}"
        );
        let sets = capacity_bytes / (line_bytes * assoc);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            assoc,
            ways: vec![EMPTY; sets * assoc],
            stats: CacheStats::default(),
        }
    }

    /// The line address (byte address with the offset bits dropped).
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Access the line containing `addr`; updates LRU and counters and
    /// returns `true` on hit. On miss the line is installed (allocate on
    /// read *and* write — write-allocate policy).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let base = ((line as usize) & (self.sets - 1)) * self.assoc;
        // One walk from the MRU way: each way takes its predecessor's tag,
        // the first takes `line`. It stops at the way that held `line` (a
        // hit: the ways in front of it have moved down one) or falls off
        // the end (a miss: the LRU tag is dropped). Direct-mapped, that is
        // one compare and one store.
        let mut carry = line;
        let mut hit = false;
        for way in &mut self.ways[base..base + self.assoc] {
            let tag = std::mem::replace(way, carry);
            if tag == line {
                hit = true;
                break;
            }
            carry = tag;
        }
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// True if the line containing `addr` is currently resident (no LRU or
    /// counter side effects).
    ///
    /// Reached by: this crate's `tests/cache_properties.rs`.
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.assoc;
        self.ways[base..base + self.assoc].contains(&line)
    }
}

/// Geometry and reset, for the unit tests.
#[cfg(test)]
impl Cache {
    /// Drop all contents, keep counters.
    pub(crate) fn flush(&mut self) {
        self.ways.fill(EMPTY);
    }

    /// Capacity in bytes.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.sets * self.assoc * (1usize << self.line_shift)
    }

    /// Line size in bytes.
    pub(crate) fn line_bytes(&self) -> usize {
        1usize << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_invariants() {
        let c = Cache::new(1024, 64, 2);
        assert_eq!(c.capacity_bytes(), 1024);
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.sets, 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line() {
        Cache::new(1024, 48, 1);
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = Cache::new(1024, 64, 1);
        assert!(!c.access(0));
        assert!(c.access(32), "same 64B line");
        assert!(!c.access(64), "next line misses");
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        // 1024B / 64B direct mapped = 16 sets; addresses 0 and 1024 collide.
        let mut c = Cache::new(1024, 64, 1);
        assert!(!c.access(0));
        assert!(!c.access(1024));
        assert!(!c.access(0), "evicted by the conflicting line");
    }

    #[test]
    fn two_way_avoids_simple_conflict() {
        let mut c = Cache::new(2048, 64, 2);
        assert!(!c.access(0));
        assert!(!c.access(2048)); // same set, second way
        assert!(c.access(0), "both lines fit in a 2-way set");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(2048, 64, 2);
        // 16 sets; lines 0, 16, 32 (line numbers) map to set 0.
        let a = 0u64;
        let b = 16 * 64;
        let d = 32 * 64;
        c.access(a);
        c.access(b);
        c.access(a); // a is MRU now
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = Cache::new(1024, 64, 1);
        assert!(!c.probe(0));
        assert_eq!(c.stats.accesses(), 0);
        c.access(0);
        assert!(c.probe(0));
        assert_eq!(c.stats.accesses(), 1);
    }

    #[test]
    fn flush_clears_content_keeps_stats() {
        let mut c = Cache::new(1024, 64, 1);
        c.access(0);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn sequential_scan_hit_rate_matches_line_geometry() {
        // Scanning 4-byte elements with 64B lines: 15 hits per 16 accesses.
        let mut c = Cache::new(16 * 1024, 64, 1);
        for i in 0..4096u64 {
            c.access(i * 4);
        }
        assert_eq!(c.stats.misses, 4096 / 16);
        assert_eq!(c.stats.hits, 4096 - 4096 / 16);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        // Repeatedly scan 2x the capacity: with LRU every access misses
        // after the first pass too.
        let mut c = Cache::new(1024, 64, 2);
        let lines = 2 * 1024 / 64;
        for _round in 0..3 {
            for l in 0..lines as u64 {
                c.access(l * 64);
            }
        }
        assert_eq!(c.stats.hits, 0, "LRU cyclic scan of 2x capacity never hits");
    }
}
