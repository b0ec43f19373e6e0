//! Per-stage host-time histograms, served as the `status` op's `stages`
//! object.
//!
//! Every request a connection handler answers is timed stage by stage:
//!
//! | stage | from → to |
//! |---|---|
//! | `accept` | the accept loop taking the connection → its handler running (once per connection, with its first request) |
//! | `read` | the handler asking for the next request line → the line read, idle time included |
//! | `parse` | `protocol::parse_request` |
//! | `admission` | `Scheduler::submit`: the cache probe and `admit` (submits only) |
//! | `flush` | the reply rendered and written through its last line; a cold submit's wait for its cells is in it |
//!
//! A request's stages are recorded once its reply is out, so a `status`
//! reply never counts itself. Every cell a worker pulls is timed too:
//! `queue_wait` (admission → pull), `run` (the runner; not for a cell
//! settled unrun) and `store` (the cache record of a fresh result).
//!
//! Each stage is a histogram of fixed log₂-µs buckets in atomics: bucket 0
//! counts durations under 1 µs, bucket `i ≥ 1` those in `[2^(i-1), 2^i)`
//! µs, and the last one everything longer. Recording is a clock read at
//! each stage boundary and three relaxed atomic adds; nothing takes a lock.
//! The fields of one histogram are read one at a time, so a `status` taken
//! while requests are in flight may see a count one ahead of its buckets.
//!
//! Reached by: `archgraphd`'s `status` op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Buckets per histogram; the last holds everything from 2^22 µs (≈ 4.2 s)
/// up.
pub const BUCKETS: usize = 24;

/// One stage's histogram as `status` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCounts {
    /// Timings recorded.
    pub count: u64,
    /// Their sum, in nanoseconds.
    pub sum_ns: u64,
    /// Timings per log₂-µs bucket (see the module header).
    pub buckets: [u64; BUCKETS],
}

/// A stage of a request or of a pulled cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Accept,
    Read,
    Parse,
    Admission,
    Flush,
    QueueWait,
    Run,
    Store,
}

/// The stage names, in [`Stage`] order: the keys of the `stages` object.
pub(crate) const NAMES: [&str; 8] = [
    "accept",
    "read",
    "parse",
    "admission",
    "flush",
    "queue_wait",
    "run",
    "store",
];

/// Every stage's histogram with its name, in the order `status` lists them.
pub type StagesSnapshot = [(&'static str, StageCounts); 8];

#[derive(Default)]
struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// The bucket of `d`: 0 under 1 µs, else one more than ⌊log₂ µs⌋, capped.
fn bucket(d: Duration) -> usize {
    let us = d.as_micros();
    let bits = (u128::BITS - us.leading_zeros()) as usize;
    bits.min(BUCKETS - 1)
}

impl Histogram {
    fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket(d)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn read(&self) -> StageCounts {
        StageCounts {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// One daemon's stage histograms, shared by its handlers and workers.
#[derive(Default)]
pub(crate) struct Stages {
    hist: [Histogram; 8],
}

impl Stages {
    pub(crate) fn record(&self, stage: Stage, d: Duration) {
        self.hist[stage as usize].record(d);
    }

    pub(crate) fn snapshot(&self) -> StagesSnapshot {
        std::array::from_fn(|i| (NAMES[i], self.hist[i].read()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_microseconds() {
        let us = Duration::from_micros;
        assert_eq!(bucket(Duration::from_nanos(999)), 0);
        assert_eq!(bucket(us(1)), 1);
        assert_eq!(bucket(us(2)), 2);
        assert_eq!(bucket(us(3)), 2);
        assert_eq!(bucket(us(4)), 3);
        assert_eq!(bucket(us(1 << 21)), 22);
        assert_eq!(bucket(us(1 << 22)), BUCKETS - 1);
        assert_eq!(bucket(Duration::MAX), BUCKETS - 1);
    }

    #[test]
    fn a_recorded_timing_lands_in_its_stage_alone() {
        let stages = Stages::default();
        stages.record(Stage::Parse, Duration::from_micros(40));
        stages.record(Stage::Parse, Duration::from_nanos(300));
        let snap = stages.snapshot();
        assert_eq!(snap.map(|(name, _)| name), NAMES);
        for (name, counts) in snap {
            if name != "parse" {
                assert_eq!(counts, StageCounts::default(), "{name}");
            }
        }
        let parse = snap[Stage::Parse as usize].1;
        assert_eq!((parse.count, parse.sum_ns), (2, 40_300));
        assert_eq!((parse.buckets[0], parse.buckets[6]), (1, 1));
        assert_eq!(parse.buckets.iter().sum::<u64>(), 2);
    }
}
