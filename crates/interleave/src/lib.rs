//! Exhaustive interleaving model checking for the register protocols.
//!
//! The ARC paper proves correctness on paper (§4). This crate provides the
//! mechanical counterpart, run on the code that ships: each register's
//! test-only `model_check` module steps its shipped functions one shared
//! access per step with [`stepper`], and a depth-first [`explore`]r
//! enumerates *all* interleavings of small configurations (writers × k
//! writes, R readers × m reads), checking after every step:
//!
//! * **torn reads** — a completed read whose data words come from
//!   different writes;
//! * **regularity** — a read never returns a value older than the last
//!   write that completed before the read began;
//! * **no new-old inversion** — a read never returns a value older than
//!   one returned by a read that completed before it began;
//! * **slot exclusion** — the writer never stores into a slot while a
//!   reader holds it;
//! * **wait-freedom (bounded steps)** — every operation completes within
//!   its statically-known maximum number of steps (no retry loops).
//!
//! The exploration is sound for the *protocol logic* under sequential
//! consistency; the (strictly weaker-ordering) questions about the C11
//! mapping are addressed separately (DESIGN.md §3.1, stress tests).
//!
//! `arc-register`'s `model_check` steps the ARC protocol, two writers on
//! one slab, crash recovery and the watch edge, and `baseline-registers`'
//! steps the RF and Peterson baselines, each checked with [`ObsChecker`];
//! `mn-register`'s steps the (M,N) collect and scan, checked with
//! [`MwChecker`]. No register is checked through a copy of its code.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod explorer;
pub mod spec;
pub mod stepper;

pub use explorer::{explore, random_walks, ExploreLimits, Model, Outcome, Report};
pub use spec::{MwChecker, ObsChecker};
