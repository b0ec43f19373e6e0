//! The run scope: the fault plan and cycle budget every simulator built
//! inside it runs under.
//!
//! Besides its machine parameters, a simulated run has two knobs: a
//! [`FaultPlan`], which perturbs simulated time by design, and a cycle
//! watchdog budget, which only decides whether the run fails. They travel
//! together as one [`RunConfig`], installed for a dynamic extent by
//! [`RunConfig::scope`]. `MtaMachine`, `Memory` and `SmpMachine` capture
//! [`RunConfig::current`] when they are constructed; outside any scope that
//! is [`RunConfig::CLEAN`].
//!
//! Nothing below the binaries reads the environment. The `archgraph-bench`
//! binaries parse [`FAULTS_ENV`] and [`MAX_CYCLES_ENV`] once, through
//! [`RunConfig::from_vars`], and scope their whole `main`. A cell spec that
//! names its own plan or budget outranks the enclosing scope
//! (`CellSpec::run_full`), and `archgraphd` runs every cell under its spec
//! alone.
//!
//! The scope is per thread. Code that fans simulations out to other threads
//! re-enters the caller's configuration on each of them, as the bench
//! harness's `grid::par_map` does, so a scoped plan covers every cell of a
//! parallel sweep.
//!
//! Reached by: every suite cell (its fault plan and cycle budget) and `archgraphd`'s `submit` op.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;

use crate::error::DEFAULT_MAX_CYCLES;
use crate::fault::FaultPlan;

/// Environment variable the binaries read a fault plan from, `<spec>:<seed>`.
pub const FAULTS_ENV: &str = "ARCHGRAPH_FAULTS";

/// Environment variable the binaries read a cycle budget from.
pub const MAX_CYCLES_ENV: &str = "ARCHGRAPH_MAX_CYCLES";

/// What a simulated run is configured with beyond its machine parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// The fault plan every machine built in the scope perturbs itself
    /// with; `None` is a clean machine.
    pub faults: Option<FaultPlan>,
    /// The watchdog budget in simulated cycles: per region on the MTA, over
    /// the whole machine clock on the SMP. A run that outlives it fails
    /// with `SimError::CycleBudgetExceeded`.
    pub max_cycles: u64,
}

impl RunConfig {
    /// A clean machine under [`DEFAULT_MAX_CYCLES`]: what a thread runs
    /// under outside any scope.
    pub const CLEAN: RunConfig = RunConfig {
        faults: None,
        max_cycles: DEFAULT_MAX_CYCLES,
    };

    /// The configuration in force on this thread.
    pub fn current() -> RunConfig {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Run `f` with `self` in force on this thread. Panic-safe and
    /// nestable: the outer configuration is restored on exit.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let _scope = self.enter();
        f()
    }

    /// Put `self` in force on this thread until the returned guard drops —
    /// [`RunConfig::scope`] for a whole `main`.
    pub fn enter(&self) -> Scope {
        Scope {
            outer: CURRENT.with(|c| c.replace(self.clone())),
            _not_send: PhantomData,
        }
    }

    /// Parse a configuration from variables looked up by name:
    /// [`FAULTS_ENV`] (a plan, [`FaultPlan::parse`]'s grammar) and
    /// [`MAX_CYCLES_ENV`] (a positive cycle count), each defaulting to
    /// [`RunConfig::CLEAN`]'s value when absent. The binaries pass
    /// `std::env::var`. A malformed value is an error naming the variable:
    /// a bad plan must never silently run a clean experiment.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<RunConfig, String> {
        let faults = var(FAULTS_ENV)
            .map(|s| FaultPlan::parse(&s).map_err(|e| format!("{FAULTS_ENV}: {e}")))
            .transpose()?;
        let max_cycles = match var(MAX_CYCLES_ENV) {
            None => DEFAULT_MAX_CYCLES,
            Some(s) => match s.parse() {
                Ok(c) if c > 0 => c,
                _ => {
                    return Err(format!(
                        "{MAX_CYCLES_ENV}={s:?} is not a positive cycle count"
                    ))
                }
            },
        };
        Ok(RunConfig { faults, max_cycles })
    }
}

impl fmt::Display for RunConfig {
    /// `faults=<plan> max-cycles=<n>`, the plan in its canonical form (`-`
    /// for none): equal configurations render equally, which is what lets
    /// a checkpoint directory be stamped with the configuration it was
    /// recorded under.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.faults {
            Some(plan) => write!(f, "faults={plan}")?,
            None => f.write_str("faults=-")?,
        }
        write!(f, " max-cycles={}", self.max_cycles)
    }
}

std::thread_local! {
    static CURRENT: RefCell<RunConfig> = const { RefCell::new(RunConfig::CLEAN) };
}

/// Guard of [`RunConfig::enter`]: restores the outer configuration when
/// dropped. Tied to the thread it was entered on.
#[must_use = "the configuration is in force only while the guard lives"]
pub struct Scope {
    outer: RunConfig,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        let outer = std::mem::replace(&mut self.outer, RunConfig::CLEAN);
        CURRENT.with(|c| *c.borrow_mut() = outer);
    }
}

/// Run `f` with `plan` in force (`None`: a clean machine) and the
/// enclosing budget unchanged.
pub fn with_fault_plan<R>(plan: Option<FaultPlan>, f: impl FnOnce() -> R) -> R {
    RunConfig {
        faults: plan,
        ..RunConfig::current()
    }
    .scope(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn scopes_nest_and_restore_the_outer_config() {
        assert_eq!(RunConfig::current(), RunConfig::CLEAN);
        let plan = FaultPlan::parse("mem-latency=30,rate=1:9").unwrap();
        let tight = RunConfig {
            faults: Some(plan.clone()),
            max_cycles: 1234,
        };
        let (inner, outer) = tight.scope(|| {
            let inner = with_fault_plan(None, RunConfig::current);
            (inner, RunConfig::current())
        });
        assert_eq!(
            inner,
            RunConfig {
                faults: None,
                max_cycles: 1234
            },
            "with_fault_plan keeps the enclosing budget"
        );
        assert_eq!(outer, tight);
        assert_eq!(RunConfig::current(), RunConfig::CLEAN, "fully unwound");
        // A panic inside the scope restores it too.
        let caught = std::panic::catch_unwind(|| tight.scope(|| panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(RunConfig::current(), RunConfig::CLEAN);
    }

    #[test]
    fn a_scope_is_per_thread() {
        let plan = FaultPlan::parse("stall=30:7").unwrap();
        let seen = with_fault_plan(Some(plan), || {
            std::thread::scope(|s| s.spawn(RunConfig::current).join().unwrap())
        });
        assert_eq!(seen, RunConfig::CLEAN, "a new thread starts clean");
    }

    #[test]
    fn from_vars_parses_both_knobs_and_names_a_bad_one() {
        assert_eq!(RunConfig::from_vars(vars(&[])), Ok(RunConfig::CLEAN));
        let cfg = RunConfig::from_vars(vars(&[
            (FAULTS_ENV, "stall=30,stall-period=300:7"),
            (MAX_CYCLES_ENV, "99"),
        ]))
        .unwrap();
        assert_eq!(cfg.faults, FaultPlan::parse("stall=30:7").ok());
        assert_eq!(cfg.max_cycles, 99);
        for (bad, named) in [
            ((FAULTS_ENV, "bogus"), FAULTS_ENV),
            ((FAULTS_ENV, ""), FAULTS_ENV),
            ((MAX_CYCLES_ENV, "0"), MAX_CYCLES_ENV),
            ((MAX_CYCLES_ENV, "-3"), MAX_CYCLES_ENV),
        ] {
            let err = RunConfig::from_vars(vars(&[bad])).unwrap_err();
            assert!(err.contains(named), "{bad:?}: {err}");
        }
    }

    #[test]
    fn display_is_canonical() {
        assert_eq!(
            RunConfig::CLEAN.to_string(),
            format!("faults=- max-cycles={DEFAULT_MAX_CYCLES}")
        );
        let spelled = RunConfig::from_vars(vars(&[(FAULTS_ENV, "stall=30:7")])).unwrap();
        let canonical =
            RunConfig::from_vars(vars(&[(FAULTS_ENV, "stall=30,stall-period=300,rate=4:7")]))
                .unwrap();
        assert_eq!(spelled.to_string(), canonical.to_string());
    }
}
