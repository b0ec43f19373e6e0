//! A sequential stream-detection prefetcher.
//!
//! This is the mechanism behind the paper's Ordered/Random gap: "caching
//! takes advantage of spatial and temporal locality, while prefetching
//! mechanisms use data address history to predict memory access patterns
//! and perform reads early ... prefetching shows limited or no improvement
//! for irregular codes where the access patterns cannot be predicted"
//! (§2.1). The model: the prefetcher tracks up to `streams` ascending
//! line-address streams; once `trigger` consecutive lines of a stream have
//! missed, subsequent lines of that stream are considered in flight and
//! cost an L2 hit instead of a memory round trip.
//!
//! Reached by: every SMP suite cell (through [`crate::machine`]).

/// State of the per-processor stream prefetcher.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    /// Next expected line address for each established stream
    /// (`u64::MAX` = free slot). LRU order: index 0 most recently used.
    streams: Vec<u64>,
    /// Candidate streams: (next expected line, observed run length).
    candidates: Vec<(u64, usize)>,
    /// Eviction bound for the candidate table. This must be an explicit
    /// field: bounding against `candidates.capacity()` is Clone-unsafe,
    /// because `Vec::clone` allocates for the clone's *length*, so a cloned
    /// prefetcher would evict earlier than its template and diverge.
    max_candidates: usize,
    /// Consecutive misses required to establish a stream.
    trigger: usize,
    /// Number of useful prefetches delivered.
    pub hits: u64,
}

impl Prefetcher {
    /// A prefetcher with `streams` stream slots and the given trigger
    /// length. `streams = 0` produces an always-miss (disabled) prefetcher.
    pub fn new(streams: usize, trigger: usize) -> Self {
        let max_candidates = streams.max(4) * 2;
        Prefetcher {
            streams: vec![u64::MAX; streams],
            candidates: Vec::with_capacity(max_candidates),
            max_candidates,
            trigger: trigger.max(1),
            hits: 0,
        }
    }

    /// Report a demand miss on `line`. Returns `true` when the prefetcher
    /// had this line in flight (an established stream predicted it), in
    /// which case the stream advances; otherwise the miss trains the
    /// candidate table.
    pub fn on_miss(&mut self, line: u64) -> bool {
        // Established stream hit?
        if let Some(pos) = self.streams.iter().position(|&s| s == line) {
            self.streams[pos] = line + 1;
            self.streams[..=pos].rotate_right(1);
            self.hits += 1;
            return true;
        }
        if self.streams.is_empty() {
            return false;
        }
        // Train candidates: did we recently miss on line - 1?
        if let Some(pos) = self.candidates.iter().position(|&(next, _)| next == line) {
            let (_, run) = self.candidates.remove(pos);
            let run = run + 1;
            if run >= self.trigger {
                // Promote to an established stream, evicting LRU.
                let last = self.streams.len() - 1;
                self.streams[last] = line + 1;
                self.streams.rotate_right(1);
            } else {
                self.candidates.push((line + 1, run));
            }
        } else {
            if self.candidates.len() >= self.max_candidates {
                self.candidates.remove(0);
            }
            self.candidates.push((line + 1, 1));
        }
        false
    }

    /// Number of stream slots.
    pub fn stream_slots(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_misses_establish_stream() {
        let mut p = Prefetcher::new(2, 2);
        assert!(!p.on_miss(100)); // candidate (101, 1)
        assert!(!p.on_miss(101)); // run 2 = trigger -> stream expects 102
        assert!(p.on_miss(102), "established stream covers the next line");
        assert!(p.on_miss(103));
        assert_eq!(p.hits, 2);
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = Prefetcher::new(4, 2);
        let mut covered = 0;
        // Widely-spaced pseudo-random lines: no two consecutive.
        for i in 0..1000u64 {
            let line = (i * 2_654_435_761) % 1_000_003;
            if p.on_miss(line) {
                covered += 1;
            }
        }
        assert!(
            covered <= 2,
            "random pattern should not train streams: {covered}"
        );
    }

    #[test]
    fn disabled_prefetcher_never_hits() {
        let mut p = Prefetcher::new(0, 2);
        for l in 0..100u64 {
            assert!(!p.on_miss(l));
        }
        assert_eq!(p.hits, 0);
    }

    #[test]
    fn multiple_interleaved_streams() {
        let mut p = Prefetcher::new(2, 2);
        // Interleave two ascending streams at 0.. and 10_000..
        let mut hits = 0;
        for k in 0..50u64 {
            if p.on_miss(k) {
                hits += 1;
            }
            if p.on_miss(10_000 + k) {
                hits += 1;
            }
        }
        // Both streams establish after the trigger; nearly all later
        // misses are covered.
        assert!(
            hits >= 90,
            "interleaved streams should both prefetch: {hits}"
        );
    }

    #[test]
    fn stream_eviction_by_lru() {
        let mut p = Prefetcher::new(1, 1);
        assert!(!p.on_miss(0)); // candidate
        assert!(!p.on_miss(1)); // promote: stream expects 2
        assert!(p.on_miss(2));
        // A new stream replaces the only slot.
        assert!(!p.on_miss(500));
        assert!(!p.on_miss(501)); // promotes, evicting the old stream
        assert!(!p.on_miss(3), "old stream was evicted");
        assert!(p.on_miss(502));
    }

    #[test]
    fn clone_preserves_candidate_eviction_bound() {
        // Regression: the candidate table used to be bounded by
        // `candidates.capacity()`, which `Vec::clone` shrinks to the clone's
        // length. A cloned prefetcher then evicted candidates its template
        // kept, and the two diverged on identical miss streams.
        let mut a = Prefetcher::new(2, 2); // bound = max(2,4)*2 = 8
        for base in [100, 200, 300] {
            assert!(!a.on_miss(base)); // three live candidates, len 3 < 8
        }
        let mut b = a.clone();
        for p in [&mut a, &mut b] {
            // Under the old capacity-based bound, the clone (capacity ==
            // len == 3) evicts candidate (101, 1) here; the template
            // (capacity 8) keeps it.
            assert!(!p.on_miss(400));
            // Matches candidate (101, 1) -> run 2 == trigger -> stream
            // expecting 102 — but only where (101, 1) survived.
            assert!(!p.on_miss(101));
        }
        assert!(a.on_miss(102), "template predicts line 102");
        assert!(b.on_miss(102), "clone must behave like its template");
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn trigger_length_respected() {
        let mut p = Prefetcher::new(2, 4);
        assert!(!p.on_miss(10));
        assert!(!p.on_miss(11));
        assert!(!p.on_miss(12));
        assert!(!p.on_miss(13)); // run reaches 4 -> establish, expect 14
        assert!(p.on_miss(14));
    }
}
