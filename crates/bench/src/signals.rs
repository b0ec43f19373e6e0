//! Graceful SIGTERM/SIGINT handling for sweep drivers and the daemon.
//!
//! Before this module, a killed `--full` sweep died wherever the signal
//! landed — including halfway through writing a checkpoint cell, leaving
//! a torn file that resume silently discarded (the decode fails, the cell
//! re-simulates). Two fixes close that hole:
//!
//! * checkpoint writes are atomic (temp file + rename, see
//!   [`crate::sweep::Checkpoint::record`]), so a kill can never tear a
//!   recorded cell; and
//! * drivers call [`install_graceful`], which replaces the default
//!   die-now disposition with a flag: the in-progress cell finishes, its
//!   checkpoint is flushed, and the driver exits at the next cell
//!   boundary with the conventional `128 + signo` status.
//!
//! The handler itself only stores to an atomic (async-signal-safe); all
//! real work happens on the normal control path via [`pending`] /
//! [`exit_if_pending`]. The exit-on-pending helpers are inert unless
//! [`install_graceful`] was called — library users and tests that never
//! install the handlers are unaffected.
//!
//! No `libc` crate: the two symbols needed (`signal`, and the signal
//! numbers) are declared directly; this is Unix-only and compiles to
//! nothing elsewhere.
//!
//! Reached by: `--bin fig1`, `fig2`, `table1` and `calibrate` (`scripts/reproduce_all.sh`) and `archgraphd`.

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

/// SIGINT on every Unix the workspace targets.
pub const SIGINT: i32 = 2;
/// SIGTERM on every Unix the workspace targets.
pub const SIGTERM: i32 = 15;

/// Last graceful-shutdown signal received (0 = none).
static PENDING: AtomicI32 = AtomicI32::new(0);
/// Were the handlers installed in this process?
static INSTALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::PENDING;
    use std::os::raw::c_int;
    use std::sync::atomic::Ordering;

    extern "C" fn on_signal(signo: c_int) {
        // Async-signal-safe: one relaxed store, nothing else.
        PENDING.store(signo, Ordering::Relaxed);
    }

    extern "C" {
        // `signal(2)` from the platform libc. The return value (the
        // previous disposition) is deliberately ignored.
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(super::SIGTERM, on_signal);
            signal(super::SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Install the graceful SIGTERM/SIGINT handlers for this process.
/// Idempotent. Call once at the top of a driver `main`.
pub fn install_graceful() {
    if !INSTALLED.swap(true, Ordering::SeqCst) {
        imp::install();
    }
}

/// The signal number of a pending graceful shutdown, if one arrived.
/// Always `None` before [`install_graceful`] (the default dispositions
/// would have killed the process outright).
pub fn pending() -> Option<i32> {
    match PENDING.load(Ordering::Relaxed) {
        0 => None,
        s => Some(s),
    }
}

/// Exit with the conventional `128 + signo` status if a graceful
/// shutdown is pending *and* the handlers were installed by this process
/// (so library tests can never be exited by a stray flag). Call at cell
/// boundaries, after durable state has been flushed.
pub fn exit_if_pending() {
    if !INSTALLED.load(Ordering::SeqCst) {
        return;
    }
    if let Some(signo) = pending() {
        eprintln!(
            "received signal {signo}: completed cells are flushed; exiting ({})",
            128 + signo
        );
        std::process::exit(128 + signo);
    }
}

// The end-to-end handler test lives in `tests/signals.rs` — a dedicated
// integration binary, because once a real SIGTERM's flag is raised in a
// process, any concurrently running sweep test that reaches a flush
// point would exit. The library test processes never install handlers.
