//! The O(1) `Tlb` and the one-walk `Cache` against the models they
//! replaced.
//!
//! `RefTlb` and `RefCache` are the scan-and-rotate bodies of commit
//! 64667d8, kept verbatim: a `Vec` in recency order, a linear `position`,
//! a `rotate_right` per access. They are slow and obviously LRU, which is
//! what a reference should be. Every property drives the shipped model and
//! the reference with one generated address stream and requires the same
//! answer on every access, the same counters, the same residency
//! afterwards, and — by then pushing fresh lines through every touched set
//! until it is empty — the same eviction order.

use proptest::prelude::*;

use archgraph_smp_sim::cache::Cache;
use archgraph_smp_sim::tlb::Tlb;

// ------------------------------------------------------ reference models

#[derive(Debug, Clone)]
struct RefTlb {
    /// Page numbers, LRU order (index 0 = most recent); `u64::MAX` empty.
    entries: Vec<u64>,
    page_shift: u32,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn new(entries: usize, page_bytes: usize) -> Self {
        RefTlb {
            entries: vec![u64::MAX; entries],
            page_shift: page_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        if self.entries.is_empty() {
            return true;
        }
        let page = addr >> self.page_shift;
        if let Some(pos) = self.entries.iter().position(|&e| e == page) {
            self.entries[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            let last = self.entries.len() - 1;
            self.entries[last] = page;
            self.entries.rotate_right(1);
            self.misses += 1;
            false
        }
    }

    fn probe(&self, addr: u64) -> bool {
        self.entries.is_empty() || self.entries.contains(&(addr >> self.page_shift))
    }
}

const EMPTY: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct RefCache {
    line_shift: u32,
    sets: usize,
    assoc: usize,
    /// `ways[set * assoc + way]`; way order within a set is LRU, 0 most
    /// recent.
    ways: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        let sets = capacity_bytes / (line_bytes * assoc);
        RefCache {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            assoc,
            ways: vec![EMPTY; sets * assoc],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            // Move to MRU position.
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // Evict LRU (last way), install at MRU.
            ways.rotate_right(1);
            ways[0] = line;
            self.misses += 1;
            false
        }
    }

    /// `Cache::install` as `ProcCtx::{read, write}` called it until this
    /// change: always just after an `access` of the same address.
    fn install(&mut self, addr: u64) {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            ways[..=pos].rotate_right(1);
        } else {
            ways.rotate_right(1);
            ways[0] = line;
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.assoc;
        self.ways[base..base + self.assoc].contains(&line)
    }
}

// ------------------------------------------------------- address streams

/// One stretch of a stream, in units (pages for the TLB, lines for a
/// cache) so that one generator serves every geometry.
#[derive(Debug, Clone)]
enum Segment {
    /// `len` consecutive 4-byte elements from unit `start`: many accesses
    /// per unit, the MRU fast path.
    Sequential { start: u64, len: usize },
    /// One access per `stride` units.
    Stride { start: u64, stride: u64, len: usize },
    /// Picks from a hot set one under, at, or one over a capacity of the
    /// model (`which` chooses the capacity: the whole structure or one
    /// set), so LRU either keeps everything or thrashes.
    Hot {
        which: usize,
        over: usize,
        picks: Vec<u64>,
    },
    /// Uniform over `2^span_log2` units.
    Uniform { span_log2: u32, picks: Vec<u64> },
}

fn segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        (0u64..4096, 1usize..300).prop_map(|(start, len)| Segment::Sequential { start, len }),
        (0u64..4096, 1u64..130, 1usize..120).prop_map(|(start, stride, len)| Segment::Stride {
            start,
            stride,
            len
        }),
        (
            0usize..2,
            0usize..3,
            proptest::collection::vec(any::<u64>(), 1..200)
        )
            .prop_map(|(which, over, picks)| Segment::Hot { which, over, picks }),
        (1u32..13, proptest::collection::vec(any::<u64>(), 1..200))
            .prop_map(|(span_log2, picks)| Segment::Uniform { span_log2, picks }),
    ]
}

fn stream() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec(segment(), 1..7)
}

/// Turn segments into byte addresses. `hot` lists (stride, capacity) pairs
/// in units: units `stride` apart contend for `capacity` places.
fn addresses(segments: &[Segment], unit_bytes: u64, hot: &[(u64, usize)]) -> Vec<u64> {
    let mut out = Vec::new();
    for seg in segments {
        match seg {
            Segment::Sequential { start, len } => {
                out.extend((0..*len as u64).map(|i| start * unit_bytes + 4 * i));
            }
            Segment::Stride { start, stride, len } => {
                out.extend((0..*len as u64).map(|i| (start + i * stride) * unit_bytes));
            }
            Segment::Hot { which, over, picks } => {
                let (stride, capacity) = hot[which % hot.len()];
                let k = (capacity + over).saturating_sub(1).max(1) as u64;
                out.extend(
                    picks
                        .iter()
                        .map(|&r| (r % k) * stride * unit_bytes + (r >> 32) % unit_bytes),
                );
            }
            Segment::Uniform { span_log2, picks } => {
                let span = unit_bytes << span_log2;
                out.extend(picks.iter().map(|&r| r % span));
            }
        }
    }
    out
}

/// Distinct units a stream touched, as the address of each unit's byte 0.
fn touched(addrs: &[u64], unit_bytes: u64) -> Vec<u64> {
    let mut units: Vec<u64> = addrs.iter().map(|a| a / unit_bytes * unit_bytes).collect();
    units.sort_unstable();
    units.dedup();
    units
}

/// `Tlb` has no probe; a clone's `access` is one.
fn tlb_probe(t: &Tlb, addr: u64) -> bool {
    t.clone().access(addr)
}

const TLB_ENTRIES: [usize; 5] = [0, 1, 2, 8, 64];
const ASSOCS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tlb_matches_the_scan_and_rotate_reference(
        segments in stream(),
        entries_ix in 0usize..TLB_ENTRIES.len(),
        page_log2 in 8u32..14,
    ) {
        let entries = TLB_ENTRIES[entries_ix];
        let page = 1u64 << page_log2;
        let addrs = addresses(&segments, page, &[(1, entries), (3, entries)]);
        let mut new = Tlb::new(entries, page as usize);
        let mut reference = RefTlb::new(entries, page as usize);
        for (i, &a) in addrs.iter().enumerate() {
            prop_assert_eq!(new.access(a), reference.access(a), "access {} of {:#x}", i, a);
        }
        prop_assert_eq!((new.hits, new.misses), (reference.hits, reference.misses));

        // Residency, then eviction order: each fresh page must push out
        // the same victim, until nothing the stream touched is left.
        let pages = touched(&addrs, page);
        let fresh_base = (1u64 << 40) * page;
        for step in 0..=entries as u64 {
            for &pg in &pages {
                prop_assert_eq!(
                    tlb_probe(&new, pg),
                    reference.probe(pg),
                    "page {:#x} after {} fresh pages", pg, step
                );
            }
            let fresh = fresh_base + step * page;
            prop_assert_eq!(new.access(fresh), reference.access(fresh));
        }
        prop_assert_eq!((new.hits, new.misses), (reference.hits, reference.misses));
    }

    #[test]
    fn cache_matches_the_scan_and_rotate_reference(
        segments in stream(),
        assoc_ix in 0usize..ASSOCS.len(),
        sets_log2 in 0u32..7,
        line_log2 in 5u32..8,
    ) {
        let assoc = ASSOCS[assoc_ix];
        let sets = 1usize << sets_log2;
        let line = 1u64 << line_log2;
        let capacity = sets * assoc * line as usize;
        // Hot sets: lines that share one set against its ways, and
        // consecutive lines against the whole cache.
        let addrs = addresses(&segments, line, &[(sets as u64, assoc), (1, sets * assoc)]);
        let mut new = Cache::new(capacity, line as usize, assoc);
        let mut reference = RefCache::new(capacity, line as usize, assoc);
        for (i, &a) in addrs.iter().enumerate() {
            prop_assert_eq!(new.access(a), reference.access(a), "access {} of {:#x}", i, a);
        }
        prop_assert_eq!((new.stats.hits, new.stats.misses), (reference.hits, reference.misses));

        let lines = touched(&addrs, line);
        let fresh_base = (1u64 << 40) * sets as u64 * line;
        for step in 0..=assoc as u64 {
            for &l in &lines {
                prop_assert_eq!(
                    new.probe(l),
                    reference.probe(l),
                    "line {:#x} after {} fresh lines per set", l, step
                );
            }
            // One fresh line into every set.
            for set in 0..sets as u64 {
                let fresh = fresh_base + (step * sets as u64 + set) * line;
                prop_assert_eq!(new.access(fresh), reference.access(fresh));
            }
        }
        prop_assert_eq!((new.stats.hits, new.stats.misses), (reference.hits, reference.misses));
    }

    #[test]
    fn install_after_access_changed_nothing(
        segments in stream(),
        assoc_ix in 0usize..ASSOCS.len(),
    ) {
        // Why `Cache::install` could go: `ProcCtx` only ever called it
        // for a line the same cache had just been `access`ed for, which
        // is then already at MRU. On the reference model that call
        // leaves every way where it was.
        let assoc = ASSOCS[assoc_ix];
        let addrs = addresses(&segments, 32, &[(8, assoc), (1, 8 * assoc)]);
        let mut with = RefCache::new(8 * assoc * 32, 32, assoc);
        let mut without = with.clone();
        for &a in &addrs {
            prop_assert_eq!(with.access(a), without.access(a));
            with.install(a);
            prop_assert_eq!(&with.ways, &without.ways);
        }
    }
}
