//! A data-TLB model.
//!
//! On the UltraSPARC-II a data-TLB miss traps to a software handler —
//! dozens to hundreds of cycles — and the TLB holds only 64 entries
//! (512 KB of 8 KB pages). Pointer chasing through arrays tens of
//! megabytes large therefore misses the TLB on almost every access; a
//! sequential scan misses once per 2048 4-byte elements. Together with
//! the cache hierarchy this is the dominant mechanism behind the paper's
//! Ordered/Random gap on the SMP.
//!
//! Because a random walk misses on almost every access, the miss is the
//! path that has to be cheap on the host: a lookup costs one short hash
//! chain, and a miss moves no entry. `tests/reference_models.rs` holds the
//! model to the scan-and-rotate list it replaced, access for access.
//!
//! Reached by: every SMP suite cell (through [`crate::machine`]).

/// The page of a slot that has never been filled.
const EMPTY: u64 = u64::MAX;
/// No slot: an empty bucket, the end of a hash chain.
const NONE: u16 = u16::MAX;

/// One TLB entry. The slots form a ring in recency order — `older` leads
/// from the most recently used slot round to the least, whose `older` is
/// the most recent again, `newer` runs the other way — and slots whose
/// pages share a hash bucket are chained through `chain`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    older: u16,
    newer: u16,
    chain: u16,
}

/// A fully-associative, LRU translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    slots: Vec<Slot>,
    /// First slot of each hash chain, [`NONE`] when the bucket is empty;
    /// four buckets a slot, so a chain is rarely longer than one.
    buckets: Vec<u16>,
    /// `64 - log2(buckets.len())`: the hash keeps the product's top bits.
    bucket_shift: u32,
    /// The most recently used slot; its `newer` is the next victim.
    mru: u16,
    page_shift: u32,
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
}

impl Tlb {
    /// A TLB with `entries` slots over pages of `page_bytes` (power of
    /// two). `entries = 0` disables the model (every access "hits").
    pub fn new(entries: usize, page_bytes: usize) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(
            entries < NONE as usize,
            "slot indices are u16: at most {} entries",
            NONE - 1
        );
        // All slots start empty and are evicted in ring order like any
        // other entry; an empty slot is in no bucket, so it is never found.
        let ring = |i: usize, step: usize| ((i + step) % entries) as u16;
        let slots = (0..entries)
            .map(|i| Slot {
                page: EMPTY,
                older: ring(i, 1),
                newer: ring(i, entries - 1),
                chain: NONE,
            })
            .collect();
        let buckets = (4 * entries).next_power_of_two();
        Tlb {
            slots,
            buckets: vec![NONE; buckets],
            bucket_shift: 64 - buckets.trailing_zeros(),
            mru: 0,
            page_shift: page_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Fibonacci hashing: consecutive pages land in different buckets.
    #[inline]
    fn bucket_of(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.bucket_shift) as usize
    }

    /// Translate the page containing `addr`; returns `true` on hit.
    /// Misses install the page at the MRU position.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        if self.slots.is_empty() {
            return true;
        }
        let page = addr >> self.page_shift;
        // Sequential scans hit here 2047 times in 2048.
        if self.slots[self.mru as usize].page == page {
            self.hits += 1;
            return true;
        }
        let bucket = self.bucket_of(page);
        let mut s = self.buckets[bucket];
        while s != NONE {
            let slot = self.slots[s as usize];
            if slot.page == page {
                self.make_mru(s);
                self.hits += 1;
                return true;
            }
            s = slot.chain;
        }
        // Miss: the victim is the slot just behind the MRU in the ring, so
        // making it the MRU is a step of the head and relinks nothing.
        let victim = self.slots[self.mru as usize].newer;
        let evicted = self.slots[victim as usize].page;
        if evicted != EMPTY {
            self.unchain(victim, evicted);
        }
        let v = &mut self.slots[victim as usize];
        v.page = page;
        v.chain = self.buckets[bucket];
        self.buckets[bucket] = victim;
        self.mru = victim;
        self.misses += 1;
        false
    }

    /// Move slot `s`, which is not the MRU, to the MRU position.
    #[inline]
    fn make_mru(&mut self, s: u16) {
        let mru = self.mru;
        let lru = self.slots[mru as usize].newer;
        if s != lru {
            // Unlink, then relink between the LRU and the MRU.
            let Slot { older, newer, .. } = self.slots[s as usize];
            self.slots[newer as usize].older = older;
            self.slots[older as usize].newer = newer;
            self.slots[lru as usize].older = s;
            self.slots[mru as usize].newer = s;
            let moved = &mut self.slots[s as usize];
            moved.newer = lru;
            moved.older = mru;
        }
        self.mru = s;
    }

    /// Take slot `s`, which holds `page`, out of its hash chain.
    #[inline]
    fn unchain(&mut self, s: u16, page: u64) {
        let bucket = self.bucket_of(page);
        let after = self.slots[s as usize].chain;
        let mut at = self.buckets[bucket];
        if at == s {
            self.buckets[bucket] = after;
            return;
        }
        while self.slots[at as usize].chain != s {
            at = self.slots[at as usize].chain;
        }
        self.slots[at as usize].chain = after;
    }
}

/// Geometry, for the unit tests.
#[cfg(test)]
impl Tlb {
    /// Number of entries.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes per page.
    pub(crate) fn page_bytes(&self) -> usize {
        1usize << self.page_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.access(0));
        assert!(t.access(100));
        assert!(t.access(4095));
        assert!(!t.access(4096), "next page");
        assert_eq!(t.hits, 2);
        assert_eq!(t.misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 4096);
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // page 0 MRU
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(0), "page 0 survives");
        assert!(!t.access(4096), "page 1 evicted");
    }

    #[test]
    fn disabled_tlb_always_hits() {
        let mut t = Tlb::new(0, 4096);
        for i in 0..100u64 {
            assert!(t.access(i * 1_000_003));
        }
        assert_eq!(t.misses, 0);
    }

    #[test]
    fn sequential_scan_misses_once_per_page() {
        let mut t = Tlb::new(8, 8192);
        for i in 0..(4 * 2048u64) {
            t.access(i * 4);
        }
        assert_eq!(t.misses, 4, "one miss per 8 KB page of u32s");
    }

    #[test]
    fn random_scan_thrashes_small_tlb() {
        let mut t = Tlb::new(8, 8192);
        for i in 0..1000u64 {
            t.access((i * 2_654_435_761) % (1 << 30));
        }
        assert!(t.misses > 900, "misses = {}", t.misses);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_rejected() {
        Tlb::new(4, 3000);
    }

    #[test]
    fn geometry_accessors() {
        let t = Tlb::new(64, 8192);
        assert_eq!(t.capacity(), 64);
        assert_eq!(t.page_bytes(), 8192);
    }
}
