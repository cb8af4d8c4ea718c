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
//! The ARC protocol, the slab layout, two writers sharing one slab, crash
//! recovery and the watch edge have no model here: the `arc-register`
//! crate's test-only `model_check` module drives [`explore`] and
//! [`random_walks`] over the shipped `raw.rs` and `recovery.rs` functions
//! themselves, with one batch writer or one writer thread per register,
//! watcher threads that park and are woken through the shipped wait and
//! wake, and a daemon that kills or unwinds the real writer at every
//! access, and checks them with [`ObsChecker`]. The models here cover
//! only the other constructions:
//! RF, Peterson, and the MN timestamp construction over atomic
//! sub-registers ([`mn_model`]).

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod explorer;
pub mod mn_model;
pub mod peterson_model;
pub mod rf_model;
pub mod spec;

pub use explorer::{explore, random_walks, ExploreLimits, Model, Outcome, Report};
pub use mn_model::{MnDefect, MnModel};
pub use peterson_model::PetersonModel;
pub use rf_model::RfModel;
pub use spec::{ModelConfig, ObsChecker};
