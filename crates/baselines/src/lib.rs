//! Baseline (1,N) register algorithms the ARC paper compares against (§5).
//!
//! | Module | Algorithm | Progress | RMW per read | Copies per read |
//! |--------|-----------|----------|--------------|-----------------|
//! | [`rf`] | Readers-Field, Larsson et al. 2009 \[2\] | wait-free | 1 (`fetch_or`) | 0 (in place) |
//! | [`peterson`] | Peterson 1983 \[11\] (reconstruction) | wait-free | 0 | 1–2 (copy out) |
//! | [`rwlock_register`] | read/write spinlock | blocking | 2 | 0 (in place) |
//! | [`seqlock_register`] | sequence lock (extra ablation) | lock-free reads | 0 | ≥1 + retries |
//!
//! All four implement [`register_common::RegisterFamily`], so the
//! conformance tests and the figure benches drive them identically to ARC.
//!
//! The RF and Peterson reconstructions and their deviations from the
//! original papers are documented in DESIGN.md §3.3 and in the module docs.
//! The test-only `model_check` module checks both on the code that ships,
//! through every interleaving of small workloads.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(test)]
mod model_check;
pub mod peterson;
pub mod rf;
pub mod rwlock_register;
pub mod seqlock_register;
pub mod wordbuf;

pub use peterson::{PetersonFamily, PetersonReader, PetersonRegister, PetersonWriter};
pub use rf::{RfFamily, RfReader, RfRegister, RfWriter, RF_MAX_READERS};
pub use rwlock_register::{LockFamily, LockReader, LockRegister, LockWriter};
pub use seqlock_register::{SeqlockFamily, SeqlockReader, SeqlockRegister, SeqlockWriter};
