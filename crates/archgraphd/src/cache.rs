//! Content-addressed result cache for completed cells.
//!
//! Keys are [`CellSpec::cache_key`] fingerprints — FNV-1a over the
//! result-determining fields only (kernel, machine, p, n, m, fault
//! plan). The engine pin is a label that selects nothing (`mta-sim` has
//! one issue loop), so it is *not* part of the key and one result serves
//! every spelling of it.
//!
//! Storage reuses the sweep [`Checkpoint`] store (one small file per
//! cell, atomic temp-file-plus-rename writes), so the cache has the
//! same crash-safety story as sweep resume: a daemon killed mid-write
//! leaves either the old entry or the complete new one, never a torn
//! file, and a restarted daemon picks the cache up from disk. The
//! directory is stamped with [`CACHE_SPEC`]; bumping it (on any payload
//! or key-schema change) makes old daemons' caches discard themselves
//! instead of serving misdecoded entries.
//!
//! Only *successful* runs are cached. Failures (watchdog trips,
//! deadlocks, injected panics) always re-run — a failure is a property
//! of the run, not of the spec.
//!
//! Reached by: `archgraphd`'s `submit` op (cached cells) and its `status` op.

use std::path::PathBuf;

use archgraph_bench::sweep::Checkpoint;
use archgraph_bench::CellSpec;

/// Configuration stamp for the cache directory. Reusing the checkpoint
/// store's spec-sentinel machinery: a directory stamped with a different
/// string (older daemon, different payload schema) is discarded on open.
/// v3: the recency sidecars of the removed LRU bound are gone, so a v2
/// directory, which holds one beside every entry, is discarded rather
/// than counted twice.
pub const CACHE_SPEC: &str = "archgraphd-cache-v3";

/// Simulated fingerprint as stored and served: owned label/value pairs
/// in render order.
pub type Sim = Vec<(String, u64)>;

/// A point-in-time accounting of the cache, surfaced through `status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheUsage {
    /// Entries currently on disk.
    pub entries: usize,
    /// Total payload bytes currently on disk.
    pub bytes: u64,
}

/// The daemon's on-disk result cache (or a disabled stand-in). It is
/// unbounded: the reproduction's cells make a few kilobytes of entries.
#[derive(Debug)]
pub struct Cache {
    store: Checkpoint,
}

impl Cache {
    /// Open (or create) the cache rooted at `dir`.
    pub fn open(dir: PathBuf) -> Cache {
        Cache {
            store: Checkpoint::at_spec(dir, CACHE_SPEC),
        }
    }

    /// A cache that stores nothing and never hits.
    pub fn disabled() -> Cache {
        Cache {
            store: Checkpoint::disabled(),
        }
    }

    /// Is the cache actually persisting entries?
    pub fn enabled(&self) -> bool {
        self.store.enabled()
    }

    /// The cached fingerprint for `spec`, if an equivalent cell (same
    /// content address) completed before. Undecodable entries read as
    /// misses — the cell simply re-runs and overwrites them.
    ///
    /// A disabled cache answers `None` before it computes the key.
    ///
    /// Reached by: frozen benchmarks/src (`probes.rs`, the
    /// `archgraphd.cache.lookup_us` row).
    pub fn lookup(&self, spec: &CellSpec) -> Option<Sim> {
        if !self.enabled() {
            return None;
        }
        self.lookup_key(&spec.cache_key())
    }

    /// [`Cache::lookup`] by a content address already computed, so that a
    /// cell hashes its spec once for the probe, its event and its record.
    pub(crate) fn lookup_key(&self, key: &str) -> Option<Sim> {
        self.store.lookup_with(key, decode)
    }

    /// Would `lookup` hit for `spec`? The `list` op asks this of every
    /// suite cell.
    pub fn contains(&self, spec: &CellSpec) -> bool {
        self.store
            .lookup(&spec.cache_key())
            .map(|p| decode(&p).is_some())
            .unwrap_or(false)
    }

    /// Record a successful run of `spec`. Best-effort, like checkpoint
    /// writes: a full disk degrades to a cacheless daemon, not a dead one.
    ///
    /// Reached by: frozen benchmarks/src (`probes.rs`, the
    /// `archgraphd.cache.record_us` row).
    pub fn record(&self, spec: &CellSpec, sim: &[(String, u64)]) {
        self.record_key(&spec.cache_key(), sim);
    }

    /// [`Cache::record`] under a content address already computed.
    pub(crate) fn record_key(&self, key: &str, sim: &[(String, u64)]) {
        self.store.record(key, &encode(sim));
    }

    /// Current on-disk footprint, from one directory listing.
    pub fn usage(&self) -> CacheUsage {
        let (entries, bytes) = self.store.entries();
        CacheUsage { entries, bytes }
    }
}

/// Payload layout: `v1 ok <label>=<value> ...` on one line, labels in
/// render order (order matters — it is part of the bench JSON identity).
fn encode(sim: &[(String, u64)]) -> String {
    let mut out = String::from("v1 ok");
    for (k, v) in sim {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
    }
    out
}

/// The pairs of a payload, in one allocation for the list and one per
/// label (`Sim` owns its labels).
fn decode(payload: &str) -> Option<Sim> {
    let mut it = payload.split_whitespace();
    if it.next() != Some("v1") || it.next() != Some("ok") {
        return None;
    }
    let pairs = payload.bytes().filter(|&b| b == b'=').count();
    let mut sim = Vec::with_capacity(pairs);
    for pair in it {
        let (k, v) = pair.split_once('=')?;
        sim.push((k.to_string(), v.parse().ok()?));
    }
    Some(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_bench::cells::find;

    fn temp_cache(name: &str) -> (Cache, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "archgraphd-cache-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (Cache::open(dir.clone()), dir)
    }

    #[test]
    fn round_trips_a_fingerprint() {
        let (cache, dir) = temp_cache("roundtrip");
        let spec = find("fig2/mta/p8").unwrap();
        assert_eq!(cache.lookup(&spec), None, "cold cache misses");
        let sim = vec![
            ("cycles".to_string(), 12345u64),
            ("issued".to_string(), 678),
        ];
        cache.record(&spec, &sim);
        assert_eq!(cache.lookup(&spec), Some(sim));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn engine_variants_share_one_entry() {
        let (cache, dir) = temp_cache("engines");
        let trace = find("fig2/mta/p8").unwrap();
        let mut single_step = trace.clone();
        single_step.engine = Some(archgraph_mta_sim::MtaEngine::SingleStep);
        let sim = vec![("cycles".to_string(), 9u64), ("issued".to_string(), 8)];
        cache.record(&trace, &sim);
        assert_eq!(
            cache.lookup(&single_step),
            Some(sim),
            "one result serves every engine pin"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn survives_a_reopen_like_a_daemon_restart() {
        let (cache, dir) = temp_cache("reopen");
        let spec = find("bfs/smp/p8").unwrap();
        let sim = vec![
            ("instructions".to_string(), 1u64),
            ("accesses".to_string(), 2),
        ];
        cache.record(&spec, &sim);
        drop(cache);
        let reopened = Cache::open(dir.clone());
        assert_eq!(reopened.lookup(&spec), Some(sim));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn undecodable_entries_read_as_misses() {
        assert_eq!(
            decode("v1 ok cycles=1 issued=2").as_deref(),
            Some(&[("cycles".to_string(), 1u64), ("issued".to_string(), 2u64)][..])
        );
        for bad in [
            "",
            "v0 ok cycles=1",
            "v1 err",
            "v1 ok cycles",
            "v1 ok cycles=abc",
        ] {
            assert_eq!(decode(bad), None, "{bad:?} must not decode");
        }
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = Cache::disabled();
        assert!(!cache.enabled());
        let spec = find("msf/native").unwrap();
        cache.record(&spec, &[("weight".to_string(), 1)]);
        assert_eq!(cache.lookup(&spec), None);
        assert!(!cache.contains(&spec));
        assert_eq!(cache.usage(), CacheUsage::default());
    }

    /// One payload from `encode` for a single-pair sim is
    /// `"v1 ok cycles=1"` = 14 bytes.
    fn one_pair(v: u64) -> Sim {
        vec![("cycles".to_string(), v)]
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let (cache, dir) = temp_cache("unbounded");
        for name in ["fig2/mta/p8", "bfs/smp/p8", "color/mta/p8", "euler/smp/p8"] {
            cache.record(&find(name).unwrap(), &one_pair(7));
        }
        let u = cache.usage();
        assert_eq!(u.entries, 4);
        assert_eq!(u.bytes, 4 * 14);
        let _ = std::fs::remove_dir_all(dir);
    }
}
