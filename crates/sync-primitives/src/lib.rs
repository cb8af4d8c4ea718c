//! RMW-based spin synchronization primitives.
//!
//! The ARC paper's lock baseline is "a classical lock-based approach (using
//! read/write spin-locks still implemented using RMW instructions)" (§5).
//! This crate provides that substrate from scratch:
//!
//! * [`rwlock::SpinRwLock`] — a reader-writer spinlock whose read path is a
//!   single `fetch_add` and whose write path is a CAS plus reader drain,
//!   used by the lock-based register baseline;
//! * [`seqlock::SeqCounter`] — the version-counter core of a sequence lock,
//!   used by the seqlock register ablation (optimistic lock-free reads);
//! * [`backoff::Backoff`] — bounded exponential backoff for all spin loops.
//!
//! None of the locks are wait-free; that is exactly why the paper includes
//! a lock baseline — to show what wait-freedom buys once CPU time is
//! stolen from the lock holder.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backoff;
pub mod rwlock;
pub mod seqlock;

pub use backoff::Backoff;
pub use rwlock::{ReadGuard, SpinRwLock, WriteGuard};
pub use seqlock::SeqCounter;
