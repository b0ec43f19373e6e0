//! # archgraphd
//!
//! A resident sweep daemon for the archgraph simulators. Clients submit
//! experiment specs (kernel, machine, problem size, fault plan, cycle
//! budget) over a line-delimited JSON protocol on a Unix socket. The
//! daemon validates specs, schedules cells across a bounded worker pool
//! round-robin across jobs (admission-controlled), streams per-cell
//! results as they complete, and caches completed cells by
//! content-addressed spec fingerprint, so repeated and restarted sweeps
//! are nearly free.
//!
//! The protocol, scheduling, and cache layers are libraries (tested
//! in-process); the `archgraphd` binary wires them to real sockets and
//! the real simulators, and `archgraph-client` is the matching thin CLI.
//! See `DESIGN.md` §9 for the protocol reference and the cache-soundness
//! argument.

#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stages;

use std::sync::Arc;

use archgraph_bench::{sweep, CellSpec, RunConfig};

/// The real cell runner: executes [`CellSpec::run`] under panic
/// isolation, under the spec's own fault plan and cycle budget and nothing
/// else.
///
/// The outer scope is **unconditional** — [`RunConfig::CLEAN`], whatever
/// the calling thread had in force (the daemon never reads the
/// environment's `ARCHGRAPH_*` variables) — and a spec that carries its
/// own plan or budget scopes it inside (`CellSpec::run_full`). That is what
/// keeps the result cache sound: a fault plan the spec didn't ask for can
/// never leak into a cached fingerprint.
///
/// Panics inside the simulation (watchdog trips, deadlock detection, the
/// deliberate `ARCHGRAPH_BENCH_PANIC_CELL` hook) come back as `Err` with
/// the panic message; the daemon streams them as structured cell errors
/// and never dies with the cell.
pub fn sim_runner() -> queue::Runner {
    Arc::new(|spec: &CellSpec| {
        sweep::isolate(&spec.display_name(), || {
            RunConfig::CLEAN.scope(|| spec.run())
        })
        .map(|fp| fp.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        .map_err(|failure| failure.message)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_bench::cells::{CellSpec, Kernel, MachineKind};

    fn small_color() -> CellSpec {
        let mut s = CellSpec::new(Kernel::Color, MachineKind::Mta, 2);
        s.n = 128;
        s.m = 384;
        s
    }

    #[test]
    fn sim_runner_matches_direct_execution() {
        let spec = small_color();
        let direct = spec.run();
        let served = sim_runner()(&spec).expect("clean cell runs");
        let expect: Vec<(String, u64)> = direct
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(served, expect);
    }

    #[test]
    fn sim_runner_isolates_watchdog_trips() {
        // A served cell's error line names the watchdog, so every
        // simulated cell's panicking shim must carry its text through.
        for (name, mut spec) in archgraph_bench::bench_suite() {
            if spec.machine == MachineKind::Native {
                continue;
            }
            spec.max_cycles = Some(10);
            let err = sim_runner()(&spec).expect_err("10 cycles can never finish");
            assert!(err.contains("cycle budget exceeded"), "{name}: {err}");
        }
    }

    #[test]
    fn sim_runner_applies_the_spec_fault_plan() {
        let clean = sim_runner()(&small_color()).unwrap();
        let mut faulty_spec = small_color();
        faulty_spec.faults = Some("mem-latency=40,rate=1:9".into());
        let faulty = sim_runner()(&faulty_spec).expect("faulty run still completes");
        assert_ne!(clean, faulty, "the fault plan must perturb the simulation");
        // And it is deterministic: same plan, same fingerprint.
        assert_eq!(faulty, sim_runner()(&faulty_spec).unwrap());
    }
}
