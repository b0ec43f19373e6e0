//! Deterministic fault plans shared by both machine simulators.
//!
//! A [`FaultPlan`] perturbs a run along two composable axes, both pure
//! functions of `(entity, seed)` — never of host time or host thread:
//!
//! * the **address-keyed axis** (PR 5): latency spikes, stuck full/empty
//!   bits, and delayed sync-retry wakeups on a seeded subset of memory
//!   addresses;
//! * the **structural axis**: per-processor *stalls* (processor `p`
//!   issues nothing during deterministic windows derived from
//!   `(p, seed)`), *degraded links* (memory ops from processor `p` to
//!   address shard `s` pay a deterministic extra latency — partial
//!   network degradation), and *brownouts* (a machine-wide latency
//!   multiplier over one interval of the run).
//!
//! Because every decision is a pure function of schedule-invariant
//! inputs — the address, the issuing processor, and the operation's own
//! issue time — the same plan perturbs every run of a kernel
//! bit-identically. The SMP machine consumes the stall/brownout
//! subset of the same plan (links and full/empty faults are meaningless
//! on a cache-based SMP) so degradation ratios stay comparable across
//! machines.
//!
//! A plan is written `<spec>:<seed>` — in `ARCHGRAPH_FAULTS`, a cell
//! spec's `faults` or a daemon request — where `<spec>` is a
//! comma-separated list of:
//!
//! | item | effect |
//! |---|---|
//! | `mem-latency=<thirds>` | affected addresses' memory ops complete `<thirds>` later |
//! | `stuck-full` | affected words' full/empty bit is stuck full |
//! | `stuck-empty` | affected words' full/empty bit is stuck empty |
//! | `wake-delay=<thirds>` | failed sync ops on affected addresses retry `<thirds>` later |
//! | `stall=<thirds>` | every processor issues nothing for `<thirds>` out of each stall period, in per-processor windows |
//! | `stall-period=<thirds>` | the stall repeat period (default 300; must exceed `stall`) |
//! | `link-latency=<thirds>` | memory ops over affected (processor, address-shard) links complete `<thirds>` later |
//! | `brownout=<mult>` | ops *issued* inside the brownout interval pay `mult×` their base memory latency |
//! | `brownout-at=<thirds>` | brownout interval start (default 0) |
//! | `brownout-for=<thirds>` | brownout interval length (default: the rest of the run) |
//! | `rate=<log2>` | one address (or link) in `2^log2` is affected (default 4) |
//!
//! e.g. `stall=30,stall-period=300:7` or `link-latency=60,rate=1:9`. All magnitudes are in
//! thirds of an MTA cycle (the simulator's native tick — memory ops
//! occupy 3 thirds); the SMP machine divides by 3 to recover cycles.
//! Duplicate items, magnitudes above 2^32, a `stall-period` without a
//! `stall`, and brownout bounds without a `brownout` are all rejected —
//! a malformed plan must never silently run a clean experiment.
//!
//! [`FaultPlan`] implements `Display` in a canonical form that
//! round-trips through [`FaultPlan::parse`] to an equal plan (the
//! property suite pins this), which is what lets daemon specs and
//! checkpoint stamps treat the spec string as the plan's identity.
//!
//! A plan reaches the machines through the run scope
//! ([`crate::run::RunConfig`]), never through the environment.
//!
//! Reached by: the suite's fault-plan cells (`bfs/mta/p8+stall`, …).

use std::fmt;

/// Largest accepted magnitude for any numeric fault item. Keeps every
/// downstream time computation (`issue_at + latency + extras`,
/// `(mult − 1) · latency`) far from `u64` overflow.
pub const MAX_MAGNITUDE: u64 = 1 << 32;

/// Number of address shards the link-fault axis distinguishes: shard
/// `addr & (LINK_SHARDS - 1)` models which memory module / network path
/// an address lives behind.
pub const LINK_SHARDS: usize = 16;

/// Default `stall-period` (thirds) when `stall=` is given alone.
pub const DEFAULT_STALL_PERIOD: u64 = 300;

/// Hash domains keeping the three seeded subsets (addresses, stall
/// phases, links) statistically independent under one seed.
const STALL_DOMAIN: u64 = 0x5354_414C_4C00_0001;
const LINK_DOMAIN: u64 = 0x4C49_4E4B_0000_0002;

/// A deterministic, seeded fault-injection plan. See the module docs for
/// the spec grammar and the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Extra completion latency (thirds) on affected addresses.
    mem_latency: u64,
    /// Extra retry delay (thirds) for failed sync ops on affected addresses.
    wake_delay: u64,
    /// Affected words read as permanently full.
    stuck_full: bool,
    /// Affected words read as permanently empty.
    stuck_empty: bool,
    /// One address (or link) in `2^rate_log2` is affected.
    rate_log2: u32,
    /// Per-processor stall window length (thirds); 0 = no stalls.
    stall_len: u64,
    /// Stall repeat period (thirds); always > `stall_len`.
    stall_period: u64,
    /// Extra latency (thirds) over affected (processor, shard) links.
    link_latency: u64,
    /// Brownout latency multiplier; 1 = no brownout.
    brownout_mult: u64,
    /// Brownout interval start (thirds).
    brownout_at: u64,
    /// Brownout interval length (thirds); `u64::MAX` = rest of the run.
    brownout_for: u64,
}

/// SplitMix64 finalizer: a cheap, well-mixed hash so "one entity in 2^k"
/// picks an arbitrary-looking but fully deterministic subset.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Parse a `<spec>:<seed>` string. Errors name the offending item.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (spec, seed) = s
            .rsplit_once(':')
            .ok_or_else(|| format!("fault plan {s:?} is missing the `:<seed>` suffix"))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("fault-plan seed {seed:?} is not an unsigned integer"))?;
        let mut plan = FaultPlan {
            seed,
            mem_latency: 0,
            wake_delay: 0,
            stuck_full: false,
            stuck_empty: false,
            rate_log2: 4,
            stall_len: 0,
            stall_period: DEFAULT_STALL_PERIOD,
            link_latency: 0,
            brownout_mult: 1,
            brownout_at: 0,
            brownout_for: u64::MAX,
        };
        let mut seen: Vec<&str> = Vec::new();
        let (mut saw_period, mut saw_at, mut saw_for) = (false, false, false);
        for item in spec.split(',') {
            let (key, val) = match item.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (item, None),
            };
            if seen.contains(&key) {
                return Err(format!("duplicate fault item `{key}`"));
            }
            seen.push(key);
            let num = |what: &str| -> Result<u64, String> {
                let n: u64 = val
                    .ok_or_else(|| format!("fault item `{item}` needs `={what}`"))?
                    .parse()
                    .map_err(|_| {
                        format!("fault item `{item}`: value is not an unsigned integer")
                    })?;
                if n > MAX_MAGNITUDE {
                    return Err(format!("fault item `{item}`: value exceeds 2^32"));
                }
                Ok(n)
            };
            match key {
                "mem-latency" => plan.mem_latency = num("thirds")?,
                "wake-delay" => plan.wake_delay = num("thirds")?,
                "rate" => {
                    let r = num("log2")?;
                    if r > 63 {
                        return Err(format!("fault item `{item}`: rate must be <= 63"));
                    }
                    plan.rate_log2 = r as u32;
                }
                "stall" => {
                    plan.stall_len = num("thirds")?;
                    if plan.stall_len == 0 {
                        return Err("fault item `stall=0` stalls nothing — omit it".into());
                    }
                }
                "stall-period" => {
                    plan.stall_period = num("thirds")?;
                    saw_period = true;
                }
                "link-latency" => plan.link_latency = num("thirds")?,
                "brownout" => {
                    plan.brownout_mult = num("mult")?;
                    if plan.brownout_mult < 2 {
                        return Err(format!(
                            "fault item `{item}`: a brownout multiplier must be >= 2 \
                             (1x is not a brownout)"
                        ));
                    }
                }
                "brownout-at" => {
                    plan.brownout_at = num("thirds")?;
                    saw_at = true;
                }
                "brownout-for" => {
                    plan.brownout_for = num("thirds")?;
                    saw_for = true;
                }
                "stuck-full" if val.is_none() => plan.stuck_full = true,
                "stuck-empty" if val.is_none() => plan.stuck_empty = true,
                _ => return Err(format!("unrecognized fault item `{item}`")),
            }
        }
        if plan.stuck_full && plan.stuck_empty {
            return Err("a word cannot be stuck both full and empty".into());
        }
        if plan.stall_len == 0 && saw_period {
            return Err("`stall-period` without `stall` periods nothing".into());
        }
        if plan.stall_len != 0 && plan.stall_len >= plan.stall_period {
            return Err(format!(
                "stall={} must be shorter than stall-period={} (the processor \
                 must get some issue slots back)",
                plan.stall_len, plan.stall_period
            ));
        }
        if plan.brownout_mult == 1 && (saw_at || saw_for) {
            return Err("`brownout-at`/`brownout-for` without `brownout` bound nothing".into());
        }
        Ok(plan)
    }

    /// Is `addr` in the affected subset? Pure function of `(addr, seed)`.
    #[inline]
    pub fn affects(&self, addr: usize) -> bool {
        let mask = (1u64 << self.rate_log2) - 1;
        mix(addr as u64 ^ self.seed) & mask == 0
    }

    /// Extra completion latency (thirds) for a memory op on `addr` from
    /// the address-keyed axis alone.
    #[inline]
    pub fn extra_latency(&self, addr: usize) -> u64 {
        if self.mem_latency != 0 && self.affects(addr) {
            self.mem_latency
        } else {
            0
        }
    }

    /// Extra retry delay (thirds) for a failed sync op on `addr`.
    #[inline]
    pub fn extra_wake_delay(&self, addr: usize) -> u64 {
        if self.wake_delay != 0 && self.affects(addr) {
            self.wake_delay
        } else {
            0
        }
    }

    /// The tag state forced on `addr`, if any (`Some(true)` = stuck full).
    #[inline]
    pub fn stuck_tag(&self, addr: usize) -> Option<bool> {
        if (self.stuck_full || self.stuck_empty) && self.affects(addr) {
            Some(self.stuck_full)
        } else {
            None
        }
    }

    /// Processor `proc`'s stall-window phase within the period, in
    /// `[0, period − len)`: windows never wrap a period boundary, so a
    /// single [`FaultPlan::stall_adjust`] always clears one.
    #[inline]
    fn stall_phase(&self, proc: usize) -> u64 {
        mix(self.seed ^ STALL_DOMAIN ^ proc as u64) % (self.stall_period - self.stall_len)
    }

    /// The first time ≥ `t` (thirds) at which processor `proc` may issue:
    /// `t` itself outside a stall window, else the window's end. Pure
    /// function of `(proc, seed, t)`, which the MTA issue loop applies to
    /// `issue_at = max(event, proc_clock)`.
    #[inline]
    pub fn stall_adjust(&self, proc: usize, t: u64) -> u64 {
        if self.stall_len == 0 {
            return t;
        }
        let phase = self.stall_phase(proc);
        let off = (t + self.stall_period - phase) % self.stall_period;
        if off < self.stall_len {
            t + (self.stall_len - off)
        } else {
            t
        }
    }

    /// Is the link from processor `proc` to `addr`'s shard degraded?
    /// Pure function of `(proc, shard(addr), seed)` at the plan's rate.
    #[inline]
    pub fn link_affected(&self, proc: usize, addr: usize) -> bool {
        if self.link_latency == 0 {
            return false;
        }
        let shard = (addr & (LINK_SHARDS - 1)) as u64;
        let mask = (1u64 << self.rate_log2) - 1;
        mix(self.seed ^ LINK_DOMAIN ^ ((proc as u64) << 8) ^ shard) & mask == 0
    }

    /// Extra completion latency (thirds) from the link axis for a memory
    /// op by `proc` on `addr`.
    #[inline]
    pub fn link_extra(&self, proc: usize, addr: usize) -> u64 {
        if self.link_affected(proc, addr) {
            self.link_latency
        } else {
            0
        }
    }

    /// Extra completion latency (thirds) from the brownout for an op
    /// *issued* at `issue_at` with base memory latency `latency`. Whether
    /// an op browns out is decided by its issue time, never by its
    /// completion time.
    #[inline]
    pub fn brownout_extra(&self, issue_at: u64, latency: u64) -> u64 {
        if self.brownout_mult <= 1 {
            return 0;
        }
        if issue_at >= self.brownout_at && issue_at - self.brownout_at < self.brownout_for {
            (self.brownout_mult - 1) * latency
        } else {
            0
        }
    }

    /// Total extra completion latency (thirds) for a memory op by
    /// processor `proc` on `addr`, issued at `issue_at` with base
    /// latency `latency`: the address-keyed axis plus both structural
    /// latency axes. Completion is
    /// `base + latency + extra_mem_latency(...)`.
    #[inline]
    pub fn extra_mem_latency(&self, proc: usize, addr: usize, issue_at: u64, latency: u64) -> u64 {
        self.extra_latency(addr)
            + self.link_extra(proc, addr)
            + self.brownout_extra(issue_at, latency)
    }

    /// Does the plan stall processors at all?
    #[inline]
    pub fn has_stalls(&self) -> bool {
        self.stall_len != 0
    }

    /// [`FaultPlan::stall_adjust`] in the SMP machine's `f64` cycle
    /// domain (thirds ÷ 3): the first cycle ≥ `t` at which `proc` may
    /// execute.
    pub fn stall_adjust_cycles(&self, proc: usize, t: f64) -> f64 {
        if self.stall_len == 0 {
            return t;
        }
        // Work in the thirds domain, snapping the `× 3` round-trip noise
        // of near-integer thirds, so the window-membership decision
        // agrees exactly with the integer [`FaultPlan::stall_adjust`]
        // wherever both domains apply (a window *start* must stall, not
        // fall `period − ε` past the previous window).
        let mut tt = t * 3.0;
        let r = tt.round();
        if (tt - r).abs() < 1e-6 {
            tt = r;
        }
        let period = self.stall_period as f64;
        let len = self.stall_len as f64;
        let phase = self.stall_phase(proc) as f64;
        let off = (tt - phase).rem_euclid(period);
        if off < len {
            (tt + (len - off)) / 3.0
        } else {
            t
        }
    }

    /// The machine-wide brownout latency multiplier in effect at cycle
    /// `t` (SMP subset): `mult` inside the interval, 1 outside.
    pub fn brownout_mult_at_cycle(&self, t: f64) -> f64 {
        if self.brownout_mult <= 1 {
            return 1.0;
        }
        let at = self.brownout_at as f64 / 3.0;
        let lasts = if self.brownout_for == u64::MAX {
            f64::INFINITY
        } else {
            self.brownout_for as f64 / 3.0
        };
        if t >= at && t - at < lasts {
            self.brownout_mult as f64
        } else {
            1.0
        }
    }
}

impl fmt::Display for FaultPlan {
    /// Canonical spec form: items in a fixed order, defaults omitted,
    /// `rate` always present (so even an all-default plan renders to a
    /// parseable spec). `parse(plan.to_string())` returns an equal plan —
    /// pinned by the property suite.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut items: Vec<String> = Vec::new();
        if self.mem_latency != 0 {
            items.push(format!("mem-latency={}", self.mem_latency));
        }
        if self.wake_delay != 0 {
            items.push(format!("wake-delay={}", self.wake_delay));
        }
        if self.stuck_full {
            items.push("stuck-full".into());
        }
        if self.stuck_empty {
            items.push("stuck-empty".into());
        }
        if self.stall_len != 0 {
            items.push(format!("stall={}", self.stall_len));
            items.push(format!("stall-period={}", self.stall_period));
        }
        if self.link_latency != 0 {
            items.push(format!("link-latency={}", self.link_latency));
        }
        if self.brownout_mult > 1 {
            items.push(format!("brownout={}", self.brownout_mult));
            if self.brownout_at != 0 {
                items.push(format!("brownout-at={}", self.brownout_at));
            }
            if self.brownout_for != u64::MAX {
                items.push(format!("brownout-for={}", self.brownout_for));
            }
        }
        items.push(format!("rate={}", self.rate_log2));
        write!(f, "{}:{}", items.join(","), self.seed)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn parse_full_grammar() {
        let p = FaultPlan::parse("mem-latency=30,wake-delay=9,rate=3:42").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.mem_latency, 30);
        assert_eq!(p.wake_delay, 9);
        assert_eq!(p.rate_log2, 3);
        assert!(!p.stuck_full && !p.stuck_empty);
        let p = FaultPlan::parse("stuck-empty:1").unwrap();
        assert!(p.stuck_empty);
        let p = FaultPlan::parse(
            "stall=30,stall-period=90,link-latency=60,brownout=4,brownout-at=300,brownout-for=900:7",
        )
        .unwrap();
        assert_eq!(p.stall_len, 30);
        assert_eq!(p.stall_period, 90);
        assert_eq!(p.link_latency, 60);
        assert_eq!(p.brownout_mult, 4);
        assert_eq!(p.brownout_at, 300);
        assert_eq!(p.brownout_for, 900);
        // stall alone gets the default period.
        let p = FaultPlan::parse("stall=30:7").unwrap();
        assert_eq!(p.stall_period, DEFAULT_STALL_PERIOD);
        // brownout alone covers the whole run.
        let p = FaultPlan::parse("brownout=2:7").unwrap();
        assert_eq!((p.brownout_at, p.brownout_for), (0, u64::MAX));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "mem-latency=30", // no seed
            "mem-latency:x",  // bad seed
            "mem-latency:7",  // missing value
            "bogus:7",        // unknown item
            "stuck-full=1:7", // flag with value
            "rate=64:7",      // rate too large
            "stuck-full,stuck-empty:7",
            "stall=0:7",                    // zero-length stall
            "stall=300,stall-period=300:7", // stall swallows the period
            "stall-period=90:7",            // period without stall
            "brownout=0:7",                 // zero multiplier
            "brownout=1:7",                 // 1x is not a brownout
            "brownout-at=5:7",              // bound without brownout
            "brownout-for=5:7",
            "mem-latency=4294967297:7",     // > 2^32
            "stall=18446744073709551616:7", // > u64
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn parse_rejects_duplicates_and_trailing_separators() {
        for bad in [
            "mem-latency=3,mem-latency=5:7",
            "rate=1,rate=1:7",
            "stuck-full,stuck-full:7",
            "stall=3,stall=3:7",
            "mem-latency=3,:7", // trailing comma → empty item
            ",mem-latency=3:7", // leading comma
            "mem-latency=3,,rate=1:7",
            ":7", // empty spec
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn affects_is_seeded_and_rate_limited() {
        let p = FaultPlan::parse("mem-latency=10,rate=2:7").unwrap();
        let hit: Vec<usize> = (0..4096).filter(|&a| p.affects(a)).collect();
        // 1-in-4 rate: binomial(4096, 1/4) stays comfortably in this band.
        assert!(hit.len() > 512 && hit.len() < 1536, "{}", hit.len());
        let p2 = FaultPlan::parse("mem-latency=10,rate=2:8").unwrap();
        let hit2: Vec<usize> = (0..4096).filter(|&a| p2.affects(a)).collect();
        assert_ne!(hit, hit2, "different seeds pick different subsets");
        // rate=0 hits everything.
        let all = FaultPlan::parse("mem-latency=10,rate=0:7").unwrap();
        assert!((0..4096).all(|a| all.affects(a)));
    }

    #[test]
    fn helpers_respect_the_affected_subset() {
        let p = FaultPlan::parse("mem-latency=30,wake-delay=9,stuck-empty,rate=1:3").unwrap();
        for a in 0..256 {
            if p.affects(a) {
                assert_eq!(p.extra_latency(a), 30);
                assert_eq!(p.extra_wake_delay(a), 9);
                assert_eq!(p.stuck_tag(a), Some(false));
            } else {
                assert_eq!(p.extra_latency(a), 0);
                assert_eq!(p.extra_wake_delay(a), 0);
                assert_eq!(p.stuck_tag(a), None);
            }
        }
    }

    #[test]
    fn stall_windows_are_per_processor_and_adjustment_is_idempotent() {
        let p = FaultPlan::parse("stall=30,stall-period=90:7").unwrap();
        let mut distinct_phases = std::collections::HashSet::new();
        for proc in 0..8usize {
            distinct_phases.insert(p.stall_phase(proc));
            let mut stalled = 0u64;
            for t in 0..900u64 {
                let adj = p.stall_adjust(proc, t);
                assert!(adj >= t);
                if adj != t {
                    stalled += 1;
                }
                // An adjusted time is itself issueable (idempotent).
                assert_eq!(p.stall_adjust(proc, adj), adj);
            }
            // Exactly 30 of every 90 thirds are stalled.
            assert_eq!(stalled, 300, "proc {proc}");
        }
        assert!(
            distinct_phases.len() > 1,
            "phases must differ across processors"
        );
        // Stall-free plans: identity.
        let clean = FaultPlan::parse("mem-latency=3:7").unwrap();
        assert_eq!(clean.stall_adjust(3, 17), 17);
        assert!(!clean.has_stalls());
    }

    #[test]
    fn link_faults_key_on_processor_and_shard() {
        let p = FaultPlan::parse("link-latency=60,rate=1:9").unwrap();
        // Same shard, same processor → same verdict regardless of the
        // rest of the address.
        for shard in 0..LINK_SHARDS {
            for proc in 0..8usize {
                let base = p.link_affected(proc, shard);
                assert_eq!(p.link_affected(proc, shard + LINK_SHARDS * 7), base);
                assert_eq!(p.link_extra(proc, shard), if base { 60 } else { 0 });
            }
        }
        // Some link differs across processors (1-in-2 rate over 8×16
        // pairs makes a uniform outcome astronomically unlikely).
        let procs_differ = (0..LINK_SHARDS)
            .any(|s| (1..8usize).any(|proc| p.link_affected(proc, s) != p.link_affected(0, s)));
        assert!(procs_differ, "links must be per-(proc, shard)");
        let clean = FaultPlan::parse("mem-latency=3:9").unwrap();
        assert_eq!(clean.link_extra(0, 0), 0);
    }

    #[test]
    fn brownout_is_an_issue_time_window() {
        let p = FaultPlan::parse("brownout=4,brownout-at=300,brownout-for=900:7").unwrap();
        assert_eq!(p.brownout_extra(299, 51), 0);
        assert_eq!(p.brownout_extra(300, 51), 3 * 51);
        assert_eq!(p.brownout_extra(1199, 51), 3 * 51);
        assert_eq!(p.brownout_extra(1200, 51), 0);
        // Unbounded brownout covers everything from its start.
        let p = FaultPlan::parse("brownout=2:7").unwrap();
        assert_eq!(p.brownout_extra(0, 51), 51);
        assert_eq!(p.brownout_extra(u64::MAX - 1, 51), 51);
    }

    #[test]
    fn smp_cycle_domain_helpers_track_the_thirds_domain() {
        let p = FaultPlan::parse("stall=30,stall-period=90,brownout=4,brownout-at=300:7").unwrap();
        for proc in 0..4usize {
            for t in 0..300u64 {
                let adj = p.stall_adjust(proc, t);
                let adj_cycles = p.stall_adjust_cycles(proc, t as f64 / 3.0);
                assert!(
                    (adj_cycles - adj as f64 / 3.0).abs() < 1e-9,
                    "proc {proc} t {t}"
                );
            }
        }
        assert_eq!(p.brownout_mult_at_cycle(99.0), 1.0);
        assert_eq!(p.brownout_mult_at_cycle(100.0), 4.0);
        let clean = FaultPlan::parse("mem-latency=3:7").unwrap();
        assert_eq!(clean.stall_adjust_cycles(0, 7.5), 7.5);
        assert_eq!(clean.brownout_mult_at_cycle(7.5), 1.0);
    }

    #[test]
    fn combined_extra_latency_sums_the_axes() {
        let p = FaultPlan::parse("mem-latency=30,link-latency=60,brownout=2,rate=0:7").unwrap();
        // rate=0: every address and link affected; brownout from 0.
        assert_eq!(p.extra_mem_latency(0, 5, 10, 51), 30 + 60 + 51);
        let p = FaultPlan::parse("mem-latency=30,rate=0:7").unwrap();
        assert_eq!(p.extra_mem_latency(0, 5, 10, 51), 30);
    }

    #[test]
    fn display_round_trips_hand_written_plans() {
        for spec in [
            "mem-latency=30,rate=1:9",
            "stuck-empty,rate=0:5",
            "stall=30,stall-period=300:7",
            "link-latency=60,rate=1:9",
            "brownout=4,brownout-at=300,brownout-for=900:7",
            "mem-latency=30,wake-delay=9,stuck-full,stall=15,stall-period=150,\
             link-latency=30,brownout=2,rate=2:13",
            "rate=4:0", // all-default plan still renders parseably
        ] {
            let p = FaultPlan::parse(spec).unwrap();
            let rendered = p.to_string();
            let back =
                FaultPlan::parse(&rendered).unwrap_or_else(|e| panic!("{spec} → {rendered}: {e}"));
            assert_eq!(back, p, "{spec} → {rendered}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every accepted spec — random subsets of every axis with
        /// random magnitudes — round-trips through its canonical
        /// `Display` form to an equal plan.
        #[test]
        fn accepted_specs_round_trip_through_display(
            a in any::<u64>(), // address axis: mem / wake / stuck
            b in any::<u64>(), // stall axis: len / period
            c in any::<u64>(), // link + brownout axes
            rate in 0u64..8,
            seed in any::<u64>(),
        ) {
            let mut items: Vec<String> = Vec::new();
            let mem = a % 100;
            let wake = (a >> 8) % 50;
            if mem > 0 {
                items.push(format!("mem-latency={mem}"));
            }
            if wake > 0 {
                items.push(format!("wake-delay={wake}"));
            }
            match (a >> 16) % 3 {
                1 => items.push("stuck-full".to_string()),
                2 => items.push("stuck-empty".to_string()),
                _ => {}
            }
            let stall = b % 80;
            if stall > 0 {
                items.push(format!("stall={stall}"));
                // Optionally spell the period out; the default (300)
                // always exceeds the max generated length.
                if b & (1 << 16) != 0 {
                    items.push(format!("stall-period={}", stall + 1 + (b >> 24) % 500));
                }
            }
            let link = c % 100;
            if link > 0 {
                items.push(format!("link-latency={link}"));
            }
            let bmode = (c >> 8) % 4; // none / bare / +at / +at+for
            if bmode > 0 {
                items.push(format!("brownout={}", 2 + (c >> 16) % 8));
                if bmode >= 2 {
                    items.push(format!("brownout-at={}", (c >> 24) % 5000));
                }
                if bmode == 3 {
                    items.push(format!("brownout-for={}", 1 + (c >> 40) % 9000));
                }
            }
            items.push(format!("rate={rate}"));
            let spec = format!("{}:{seed}", items.join(","));
            let plan = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("generated spec {spec} rejected: {e}"));
            let shown = plan.to_string();
            let back = FaultPlan::parse(&shown)
                .unwrap_or_else(|e| panic!("display form {shown} rejected: {e}"));
            prop_assert_eq!(back, plan, "{} → {}", spec, shown);
        }
    }
}
