//! Exhaustive interleaving model checking for the register protocols.
//!
//! The ARC paper proves correctness on paper (§4). This crate provides the
//! mechanical counterpart: each protocol is expressed as an explicit state
//! machine over a modeled shared memory, where **every shared-memory access
//! is one atomic step**, and a depth-first explorer enumerates *all*
//! interleavings of small configurations (1 writer × k writes, R readers ×
//! m reads), checking after every step:
//!
//! * **torn reads** — a completed read whose data words come from
//!   different writes;
//! * **regularity** — a read never returns a value older than the last
//!   write that completed before the read began;
//! * **no new-old inversion** — a read never returns a value older than
//!   one returned by a read that completed before it began;
//! * **slot exclusion** — the writer never stores into a slot while a
//!   reader is between its pin and its release of that slot;
//! * **wait-freedom (bounded steps)** — every operation completes within
//!   its statically-known maximum number of steps (no retry loops).
//!
//! The exploration is sound for the *protocol logic* under sequential
//! consistency; the (strictly weaker-ordering) questions about the C11
//! mapping are addressed separately (DESIGN.md §3.1, stress tests).
//!
//! Every mechanism the registers run is checked on its shipped code, which
//! [`stepper`] runs one shared access per step: `arc-register`'s test-only
//! `model_check` module steps the ARC protocol, two writers on one slab,
//! crash recovery and the watch edge, checked with [`ObsChecker`], and
//! `mn-register`'s steps the (M,N) collect and scan, checked with
//! [`MwChecker`]. The models here cover only the RF and Peterson baselines.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod explorer;
pub mod peterson_model;
pub mod rf_model;
pub mod spec;
pub mod stepper;

pub use explorer::{explore, random_walks, ExploreLimits, Model, Outcome, Report};
pub use peterson_model::PetersonModel;
pub use rf_model::RfModel;
pub use spec::{ModelConfig, MwChecker, ObsChecker};
