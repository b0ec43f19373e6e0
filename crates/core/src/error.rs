//! Structured simulation failures shared by both machine simulators.
//!
//! The MTA kernels lean on full/empty-bit synchronization, so a
//! mis-synchronized kernel (or a buggy engine) deadlocks; before this
//! module existed such a kernel simply hung the simulator, and the only
//! livelock guard in the workspace was a hard-coded panic constant in the
//! Shiloach–Vishkin driver. Every runner now has a `try_` API returning
//! `Result<_, SimError>`:
//!
//! * [`SimError::Deadlock`] — every unhalted stream is parked on a failing
//!   full/empty operation and no operation can ever succeed again. Carries
//!   per-stream diagnostics ([`BlockedStream`]) and the detection cycle,
//!   both simulated quantities, pinned by `mta-sim`'s guardrails suite.
//! * [`SimError::CycleBudgetExceeded`] — a watchdog converted a runaway
//!   run (infinite loop, livelocked iteration) into an error instead of an
//!   unbounded hang. The budget is the run scope's
//!   ([`crate::run::RunConfig`]); the default is generous enough that no
//!   legitimate paper-scale experiment comes near it.
//!
//! The rule for entry points: each kernel has one `try_` entry that takes
//! every option (a schedule, a config, an iteration bound); the panicking
//! forms are the defaults the frozen benchmark tree names
//! (`simulate_walk_ranking`, `simulate_sv_mta`, `shiloach_vishkin`,
//! `SmpMachine::phase`, …). Each delegates to its `try_` form and panics
//! with the error's `Display` text, so a failure inside a sweep cell
//! surfaces as a structured, catchable panic — and a served cell's error
//! line carries that text (`cycle budget exceeded`).
//!
//! Reached by: every simulated suite cell (the watchdog and deadlock errors).

use std::fmt;

use crate::run::MAX_CYCLES_ENV;

/// Default cycle budget for both machines: far above any paper-scale run
/// (the largest `--full` cells finish in well under 2^33 cycles) yet small
/// enough that a hung kernel dies in bounded time instead of wedging a CI
/// runner until its job timeout.
pub const DEFAULT_MAX_CYCLES: u64 = 1 << 36;

/// Diagnostics for one stream parked on a failing full/empty operation at
/// the moment a deadlock was detected. All fields are simulated quantities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedStream {
    /// Global stream index (processor-major, as in the issue loops).
    pub stream: usize,
    /// Program counter of the failing synchronizing instruction.
    pub pc: usize,
    /// Mnemonic of the failing operation: `"readfe"`, `"writeef"` or
    /// `"readff"`.
    pub op: &'static str,
    /// Memory word the operation is parked on.
    pub addr: usize,
    /// Full/empty state of that word at detection time (`true` = full).
    pub full: bool,
}

impl fmt::Display for BlockedStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream {} at pc {}: {} mem[{}] ({})",
            self.stream,
            self.pc,
            self.op,
            self.addr,
            if self.full { "full" } else { "empty" }
        )
    }
}

/// A structured simulation failure. See the module docs for the contract
/// each variant carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Every unhalted stream is parked on a full/empty operation that can
    /// never succeed: the machine state is permanently frozen.
    Deadlock {
        /// Cycle at which the last blocked stream entered its current
        /// blocked spell — the point the machine stopped making progress.
        /// Engine-invariant (derived from schedule-invariant issue times).
        cycle: u64,
        /// One entry per blocked stream, ascending by stream index.
        blocked: Vec<BlockedStream>,
    },
    /// A watchdog budget ran out before the kernel finished.
    CycleBudgetExceeded {
        /// The configured budget, in the unit named by `what`.
        budget: u64,
        /// How far the run had progressed when the watchdog fired.
        spent: u64,
        /// What was being counted: `"mta cycles"`, `"smp cycles"`,
        /// `"shiloach-vishkin iterations"`, ...
        what: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, blocked } => {
                write!(
                    f,
                    "deadlock at cycle {cycle}: {} stream(s) parked on full/empty bits that can never change",
                    blocked.len()
                )?;
                for b in blocked {
                    write!(f, "\n  {b}")?;
                }
                Ok(())
            }
            SimError::CycleBudgetExceeded {
                budget,
                spent,
                what,
            } => write!(
                f,
                "cycle budget exceeded: {spent} {what} spent against a budget of {budget} \
                 (raise {MAX_CYCLES_ENV} or the cell's max_cycles if the run is legitimate)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_lists_streams() {
        let e = SimError::Deadlock {
            cycle: 42,
            blocked: vec![
                BlockedStream {
                    stream: 0,
                    pc: 3,
                    op: "readfe",
                    addr: 17,
                    full: false,
                },
                BlockedStream {
                    stream: 5,
                    pc: 9,
                    op: "writeef",
                    addr: 17,
                    full: true,
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock at cycle 42"), "{s}");
        assert!(
            s.contains("stream 0 at pc 3: readfe mem[17] (empty)"),
            "{s}"
        );
        assert!(
            s.contains("stream 5 at pc 9: writeef mem[17] (full)"),
            "{s}"
        );
    }

    #[test]
    fn budget_display_names_the_unit_and_knob() {
        let e = SimError::CycleBudgetExceeded {
            budget: 100,
            spent: 101,
            what: "mta cycles",
        };
        let s = e.to_string();
        assert!(s.contains("101 mta cycles"), "{s}");
        assert!(s.contains("budget of 100"), "{s}");
        assert!(s.contains(MAX_CYCLES_ENV), "{s}");
    }

    #[test]
    fn default_budget_is_generous() {
        // Far above the largest --full cell (< 2^33 cycles), far below
        // "runs until the heat death of the runner".
        const _: () = assert!(DEFAULT_MAX_CYCLES > 1 << 35);
        const _: () = assert!(DEFAULT_MAX_CYCLES < 1 << 45);
    }
}
