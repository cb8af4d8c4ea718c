//! The generic (1,N) register interface.
//!
//! The ARC paper compares four algorithms (ARC, RF, Peterson, lock-based)
//! under identical workloads. To write the workloads, conformance tests and
//! benches once, every implementation exposes the same shape:
//!
//! * a **build** step that creates the shared object and splits it into one
//!   [`WriteHandle`] and up to `spec.readers` [`ReadHandle`]s;
//! * `write(&mut self, &[u8])` on the writer;
//! * `read_with(&mut self, f)` on readers, which runs `f` over the current
//!   snapshot. Algorithms that can expose the slot in place (ARC, RF, lock)
//!   call `f` on the shared buffer directly; copy-based algorithms
//!   (Peterson, seqlock) call `f` on their private copy — the asymmetry is
//!   intrinsic to the algorithms and is exactly what the paper measures.

use std::fmt;

/// Construction parameters common to all register families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterSpec {
    /// Maximum number of concurrent readers (the paper's `N`).
    pub readers: usize,
    /// Maximum payload size in bytes the register must be able to hold.
    pub capacity: usize,
}

impl RegisterSpec {
    /// Convenience constructor.
    pub const fn new(readers: usize, capacity: usize) -> Self {
        Self { readers, capacity }
    }
}

/// Errors raised when building a register for a given [`RegisterSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The algorithm cannot host this many readers (e.g. RF caps at 58).
    TooManyReaders {
        /// Readers requested by the spec.
        requested: usize,
        /// Hard limit of the algorithm.
        limit: usize,
    },
    /// The initial value exceeds the requested capacity.
    InitialTooLarge {
        /// Length of the provided initial value.
        len: usize,
        /// Capacity from the spec.
        capacity: usize,
    },
    /// A capacity of zero bytes was requested.
    ZeroCapacity,
    /// Zero readers were requested.
    ZeroReaders,
    /// A register group/table of zero registers was requested.
    ZeroRegisters,
    /// The storage backend could not produce (or validate) the shared slab.
    Slab(crate::errors::SlabError),
    /// The requested geometry is one the protocol cannot run on (slot
    /// count below the minimum, index width overflow, ...). Formerly an
    /// `assert!` inside the builders; see [`crate::errors::ConfigError`].
    Config(crate::errors::ConfigError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TooManyReaders { requested, limit } => {
                write!(f, "requested {requested} readers but algorithm supports at most {limit}")
            }
            BuildError::InitialTooLarge { len, capacity } => {
                write!(f, "initial value of {len} bytes exceeds capacity {capacity}")
            }
            BuildError::ZeroCapacity => write!(f, "register capacity must be non-zero"),
            BuildError::ZeroReaders => write!(f, "register must admit at least one reader"),
            BuildError::ZeroRegisters => {
                write!(f, "register group must hold at least one register")
            }
            BuildError::Slab(e) => write!(f, "slab backend error: {e}"),
            BuildError::Config(e) => write!(f, "register configuration error: {e}"),
        }
    }
}

impl From<crate::errors::SlabError> for BuildError {
    fn from(e: crate::errors::SlabError) -> Self {
        BuildError::Slab(e)
    }
}

impl From<crate::errors::ConfigError> for BuildError {
    fn from(e: crate::errors::ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl std::error::Error for BuildError {}

/// The single writer's handle. Exactly one exists per register instance.
pub trait WriteHandle: Send + 'static {
    /// Store a new register value. Wait-free for the wait-free algorithms.
    ///
    /// `value.len()` may differ between calls (the paper supports writes of
    /// different sizes) but must not exceed the build-time capacity.
    ///
    /// # Panics
    ///
    /// Implementations panic if `value.len()` exceeds the capacity; this is
    /// a programming error, not a runtime condition.
    fn write(&mut self, value: &[u8]);
}

/// A reader's handle. Up to `spec.readers` exist per register instance.
pub trait ReadHandle: Send + 'static {
    /// Run `f` over the most recent register snapshot and return its result.
    ///
    /// The slice passed to `f` is the full value written by the write this
    /// read is linearized after (same length as that write's `value`).
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, f: F) -> R;

    /// Copy the current snapshot into `out`, returning the value length.
    ///
    /// Default implementation goes through [`ReadHandle::read_with`] and
    /// the shared tuned [`crate::copy::copy_payload`] routine.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the current value.
    fn read_into(&mut self, out: &mut [u8]) -> usize {
        self.read_with(|v| crate::copy::copy_payload(v, out))
    }
}

/// A reader that can hand out the current snapshot **by reference** — an
/// RAII guard dereferencing to `&[u8]` — instead of copying it out.
///
/// For algorithms whose readers pin their snapshot against the writer
/// (ARC: a standing presence unit keeps the slot out of W1 rotation), the
/// guard borrows the shared buffer directly: the read costs no memcpy at
/// any payload size, and the borrow stays valid for as long as the guard
/// is held — DESIGN.md §3.8 covers the slot-budget consequence of holding
/// one for a long time.
///
/// Algorithms that **cannot** expose their buffer fall back honestly:
/// a seqlock read is only known consistent after the trailing counter
/// validation, so its "guard" is a borrow of the handle's private
/// copy-validated scratch — the copy still happens, and
/// [`RefReadHandle::zero_copy`] reports it. Workloads comparing guard
/// reads across families must report that flag alongside the numbers,
/// or the comparison silently mixes borrow costs with memcpy costs.
pub trait RefReadHandle: ReadHandle {
    /// The guard type: borrows the handle, dereferences to the snapshot
    /// bytes. Dropping it ends the read (for pin-based algorithms this
    /// releases the snapshot for reclamation per the algorithm's rules).
    type Guard<'a>: std::ops::Deref<Target = [u8]>
    where
        Self: 'a;

    /// Borrow the most recent snapshot. The handle is mutably borrowed
    /// for the guard's lifetime, so a handle holds at most one guard —
    /// which is what bounds pinned slots at one per reader (Lemma 4.1).
    fn read_ref(&mut self) -> Self::Guard<'_>;

    /// Whether guards borrow the shared buffer (`true`) or a private
    /// copy the read already paid for (`false` — e.g. seqlock's
    /// copy-validate loop). Deliberately **not** defaulted: every
    /// implementor must state which side it is on, so a copy-based
    /// fallback can never silently claim zero-copy semantics.
    fn zero_copy() -> bool;
}

/// A reader that can report the **publication version** of every value it
/// reads: the number of writes completed up to (and including) the one
/// the read observes, 0 for the initial value.
///
/// Contract: per handle, versions never decrease across reads, and
/// strictly increase whenever the observed value changes. This is the
/// version-function view of an atomic register — the substrate of the
/// watch/notification layer.
pub trait VersionedReadHandle: ReadHandle {
    /// Run `f` over `(version, value)` of the most recent snapshot.
    fn read_versioned_with<R, F: FnOnce(u64, &[u8]) -> R>(&mut self, f: F) -> R;
}

/// A versioned reader that can additionally **park** until the register
/// publishes past a version watermark — the opt-in blocking edge of the
/// watch layer. Reads themselves stay whatever the algorithm promises
/// (wait-free for ARC); only the explicit wait blocks.
pub trait WatchHandle: VersionedReadHandle {
    /// Block until the published version exceeds `last`; returns the
    /// version observed (≥ `last + 1`). The publication that satisfies
    /// the wait is guaranteed readable on return.
    fn wait_for_update(&mut self, last: u64) -> u64;

    /// Like [`WatchHandle::wait_for_update`] but gives up after
    /// `timeout`; `None` means no newer publication arrived in time.
    fn wait_for_update_timeout(&mut self, last: u64, timeout: std::time::Duration) -> Option<u64>;
}

/// A family of (1,N) register algorithms: the type-level entry point used by
/// the conformance suite and the figure benches.
pub trait RegisterFamily: 'static {
    /// Writer handle type.
    type Writer: WriteHandle;
    /// Reader handle type.
    type Reader: ReadHandle;

    /// Short name used in bench output rows ("arc", "rf", "peterson", ...).
    const NAME: &'static str;

    /// Hard reader-count limit of the algorithm, if any.
    ///
    /// RF returns `Some(58)` (6 index bits + 58 presence bits in a 64-bit
    /// word); the others return `None`.
    fn reader_limit() -> Option<usize> {
        None
    }

    /// Whether reads are wait-free (true for ARC/RF/Peterson, false for the
    /// lock-based and seqlock baselines).
    fn wait_free_reads() -> bool {
        true
    }

    /// Build a register initialized to `initial` and split it into handles.
    fn build(
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError>;
}

/// The writer side of a table of `(1,N)` registers (one writer role per
/// register, all held by this handle).
pub trait TableWriteHandle: Send + 'static {
    /// Store a new value into register `k`. Wait-free per register.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or the value exceeds the capacity.
    fn write(&mut self, k: usize, value: &[u8]);

    /// Apply a batch of `(register, value)` writes in one pass.
    ///
    /// Each write linearizes individually; implementations may amortize
    /// bookkeeping across the batch but must not change semantics.
    fn write_batch(&mut self, ops: &[(usize, &[u8])]) {
        for &(k, value) in ops {
            self.write(k, value);
        }
    }
}

/// A reader's view over a whole table of `(1,N)` registers (counts as one
/// reader handle on every register).
pub trait TableReadHandle: Send + 'static {
    /// Run `f` over the most recent snapshot of register `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, k: usize, f: F) -> R;

    /// Read many registers in one pass, invoking `f(k, value)` per key.
    ///
    /// Implementations may reorder the visits (e.g. sort keys for
    /// sequential memory traversal); every key is visited exactly once
    /// per occurrence.
    fn read_many<F: FnMut(usize, &[u8])>(&mut self, keys: &[usize], mut f: F) {
        for &k in keys {
            self.read_with(k, |v| f(k, v));
        }
    }
}

/// A family of multi-register table layouts driven by the multi-register
/// workloads (`workload_harness::multi`) and the `group_scaling` bench.
pub trait TableFamily: 'static {
    /// The whole-table writer handle.
    type Writer: TableWriteHandle;
    /// A whole-table reader handle.
    type Reader: TableReadHandle;

    /// Short name used in bench output rows ("arc-group", "arc-indep").
    const NAME: &'static str;

    /// Build a table of `registers` registers, each to `spec` (readers =
    /// concurrent reader handles per register, which must cover the
    /// `readers` handles returned here), all initialized to `initial`.
    fn build(
        registers: usize,
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError>;

    /// Total heap bytes the table owns (payloads + coordination state),
    /// for the bytes-per-register density comparison. `None` when the
    /// layout cannot account for itself.
    fn heap_bytes(_writer: &Self::Writer) -> Option<usize> {
        None
    }
}

/// What [`MwTableFamily::build`] returns: one whole-table writer handle
/// per writer role, plus the reader handles.
pub type MwTableHandles<F> = (Vec<<F as MwTableFamily>::Writer>, Vec<<F as MwTableFamily>::Reader>);

/// A family of **multi-writer** table layouts: K registers that any of
/// `writers` roles may write (each write linearizing table-wide per
/// register), driven by the `workload_harness::multi` MW driver and the
/// `mn_scaling` bench.
///
/// This is the (M,N)-table counterpart of [`TableFamily`] (which fixes
/// one writer role per table). The handle traits are shared: every
/// writer role gets its own whole-table [`TableWriteHandle`], so W
/// writer threads can each own one and write any key concurrently.
pub trait MwTableFamily: 'static {
    /// A whole-table writer handle (one per writer role).
    type Writer: TableWriteHandle;
    /// A whole-table reader handle.
    type Reader: TableReadHandle;

    /// Short name used in bench output rows ("mn-slab", ...).
    const NAME: &'static str;

    /// Build a table of `registers` multi-writer registers with `writers`
    /// writer roles, each register to `spec` (readers = concurrent
    /// whole-table reader handles, which must cover the handles returned
    /// here), all initialized to `initial`. Returns exactly `writers`
    /// writer handles.
    fn build(
        registers: usize,
        writers: usize,
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<MwTableHandles<Self>, BuildError>;

    /// Total heap bytes the table owns, for density comparisons. `None`
    /// when the layout cannot account for itself.
    fn heap_bytes(_writers: &[Self::Writer]) -> Option<usize> {
        None
    }
}

/// Validate a spec against an optional per-algorithm reader limit.
///
/// Shared by every implementation's `build`.
pub fn validate_spec(
    spec: RegisterSpec,
    initial: &[u8],
    limit: Option<usize>,
) -> Result<(), BuildError> {
    if spec.capacity == 0 {
        return Err(BuildError::ZeroCapacity);
    }
    if spec.readers == 0 {
        return Err(BuildError::ZeroReaders);
    }
    if let Some(limit) = limit {
        if spec.readers > limit {
            return Err(BuildError::TooManyReaders { requested: spec.readers, limit });
        }
    }
    if initial.len() > spec.capacity {
        return Err(BuildError::InitialTooLarge { len: initial.len(), capacity: spec.capacity });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip() {
        let s = RegisterSpec::new(8, 4096);
        assert_eq!(s.readers, 8);
        assert_eq!(s.capacity, 4096);
    }

    #[test]
    fn validate_accepts_sane_spec() {
        assert!(validate_spec(RegisterSpec::new(4, 128), &[0u8; 64], None).is_ok());
    }

    #[test]
    fn validate_rejects_zero_capacity() {
        assert_eq!(
            validate_spec(RegisterSpec::new(4, 0), &[], None),
            Err(BuildError::ZeroCapacity)
        );
    }

    #[test]
    fn validate_rejects_zero_readers() {
        assert_eq!(
            validate_spec(RegisterSpec::new(0, 16), &[], None),
            Err(BuildError::ZeroReaders)
        );
    }

    #[test]
    fn validate_rejects_oversized_initial() {
        assert_eq!(
            validate_spec(RegisterSpec::new(1, 16), &[0u8; 17], None),
            Err(BuildError::InitialTooLarge { len: 17, capacity: 16 })
        );
    }

    #[test]
    fn validate_enforces_reader_limit() {
        assert_eq!(
            validate_spec(RegisterSpec::new(59, 16), &[], Some(58)),
            Err(BuildError::TooManyReaders { requested: 59, limit: 58 })
        );
        assert!(validate_spec(RegisterSpec::new(58, 16), &[], Some(58)).is_ok());
    }

    #[test]
    fn build_error_display_is_informative() {
        let msgs = [
            BuildError::TooManyReaders { requested: 99, limit: 58 }.to_string(),
            BuildError::InitialTooLarge { len: 5, capacity: 4 }.to_string(),
            BuildError::ZeroCapacity.to_string(),
            BuildError::ZeroReaders.to_string(),
        ];
        assert!(msgs[0].contains("99") && msgs[0].contains("58"));
        assert!(msgs[1].contains('5') && msgs[1].contains('4'));
        assert!(msgs[2].contains("capacity"));
        assert!(msgs[3].contains("reader"));
    }
}
