//! Seeded crash points for the process-kill fault-injection harness.
//!
//! `tests/crash_recovery.rs` forks child writers that must die at a
//! *precise* step of the W1–W3 publication protocol so the recovery path
//! (DESIGN.md §3.9) can be exercised against every classification:
//! pre-W2, at-W2, and post-W2. A child arms one [`CrashPoint`]; the write
//! path calls `maybe_crash` at each instrumented step and the armed
//! point turns into `std::process::abort()` — a real `SIGABRT`, no
//! unwinding, no destructors, exactly like a crash.
//!
//! The hook is a single relaxed load of a process-global that compares
//! against a constant; disarmed (the default, and the only state normal
//! programs ever see) it is a predictable not-taken branch. The write
//! path is instrumented permanently rather than behind a cargo feature so
//! the bytes being fault-injected are the bytes being shipped.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instrumented steps of the publication protocol at which an armed
/// process will abort. Names follow the W1–W3 step naming of DESIGN.md
/// §3.2 and the journal stages of §3.9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CrashPoint {
    /// Immediately before the W2 `current.swap` — the slot is filled and
    /// journalled but not published. Recovery must *discard* it.
    PreW2 = 1,
    /// Immediately after the W2 swap, before the journal has captured the
    /// swapped-out previous value. Recovery must adopt the published slot
    /// and repair the previous slot's ledger by census.
    AtW2 = 2,
    /// After the journal holds the swapped-out value, before the W3
    /// freeze. Recovery must roll the publication forward exactly.
    PostW2 = 3,
}

/// 0 = disarmed; otherwise the `CrashPoint` discriminant.
static ARMED: AtomicU8 = AtomicU8::new(0);

/// 0 = an armed point aborts (the process-death harness); 1 = an armed
/// point panics instead (the in-process unwind harness — same injection
/// sites, same W1–W3 boundaries, but the failure stays catchable so the
/// panic-safe publication guard can be exercised without forking).
static MODE: AtomicU8 = AtomicU8::new(0);

/// Arm `point`: the next time the write path reaches it, the process
/// aborts. Intended for forked test children; affects the whole process.
pub fn arm(point: CrashPoint) {
    MODE.store(0, Ordering::Relaxed);
    ARMED.store(point as u8, Ordering::Relaxed);
}

/// Arm `point` in *panic* mode: the next time the write path reaches it,
/// the writing thread panics (unwinds) instead of aborting, and the
/// point disarms itself — one injected unwind per arm. This drives the
/// publication guard (DESIGN.md §3.13) through the exact same W1–W3
/// boundaries the crash harness kills processes at.
pub fn arm_panic(point: CrashPoint) {
    MODE.store(1, Ordering::Relaxed);
    ARMED.store(point as u8, Ordering::Relaxed);
}

/// Disarm any armed crash point.
pub fn disarm() {
    ARMED.store(0, Ordering::Relaxed);
    MODE.store(0, Ordering::Relaxed);
}

/// Abort (or, in panic mode, unwind) if `point` is armed. Called by the
/// write path at each instrumented step.
#[inline(always)]
pub(crate) fn maybe_crash(point: CrashPoint) {
    if ARMED.load(Ordering::Relaxed) == point as u8 {
        crash_now(point);
    }
}

/// The armed branch, kept out of the inlined fast path.
#[cold]
fn crash_now(point: CrashPoint) {
    if MODE.load(Ordering::Relaxed) == 1 {
        // Self-disarm first: the unwind repair and every subsequent
        // write must run the normal path, not re-trigger the injection.
        disarm();
        panic!("injected panic at crash point {point:?}");
    }
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hook_is_a_no_op() {
        // Must not abort the test runner. Nothing here arms a point: the
        // registry is process-global, and this binary's other tests run
        // the real write path concurrently (tests/panic_safety.rs arms
        // points under its own lock).
        maybe_crash(CrashPoint::PreW2);
        maybe_crash(CrashPoint::AtW2);
        maybe_crash(CrashPoint::PostW2);
    }
}
