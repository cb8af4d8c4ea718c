//! Typed errors for shared-memory slab validation.
//!
//! A slab that arrives over a file descriptor is untrusted input: it may be
//! truncated, of a different layout generation, geometrically inconsistent
//! with its own length, or torn by a writer that died mid-initialization.
//! Every one of those shapes must surface as a *typed* error — never UB,
//! never a panic — so a process can refuse to attach and report why.

use std::fmt;

/// Why a shared slab could not be created, attached, or validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// The mapping is smaller than the structure it claims to hold.
    TooSmall {
        /// Bytes actually mapped.
        len: usize,
        /// Bytes required (superblock, or the geometry's computed total).
        need: usize,
    },
    /// The superblock magic does not identify an ARC slab.
    BadMagic {
        /// The 8 bytes found where the magic belongs.
        found: u64,
    },
    /// The slab was produced by an incompatible layout generation.
    LayoutVersion {
        /// Layout version recorded in the superblock.
        found: u32,
        /// Layout version this build understands.
        expected: u32,
    },
    /// The superblock checksum does not match its geometry fields — the
    /// superblock is torn or corrupted.
    BadChecksum {
        /// Checksum recorded in the superblock.
        found: u64,
        /// Checksum recomputed over the geometry fields.
        expected: u64,
    },
    /// The recorded geometry is internally inconsistent (zero registers or
    /// slots, a slot count below the protocol minimum, or sizes that
    /// overflow the address space).
    BadGeometry {
        /// Which consistency rule failed.
        reason: &'static str,
    },
    /// The geometry is self-consistent but does not fit the mapping: the
    /// computed total size disagrees with the mapped length.
    SizeMismatch {
        /// Total bytes the recorded geometry requires.
        expected: usize,
        /// Bytes actually mapped.
        mapped: usize,
    },
    /// The requested backend is not available on this platform.
    Unsupported {
        /// What was requested (e.g. `"memfd shared-memory backend"`).
        what: &'static str,
    },
    /// An operating-system call failed.
    Os {
        /// The syscall or libc function that failed.
        call: &'static str,
        /// Its `errno` (0 when unavailable).
        errno: i32,
    },
}

impl fmt::Display for SlabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlabError::TooSmall { len, need } => {
                write!(f, "mapping of {len} bytes is smaller than the required {need}")
            }
            SlabError::BadMagic { found } => {
                write!(f, "superblock magic {found:#018x} does not identify an ARC slab")
            }
            SlabError::LayoutVersion { found, expected } => {
                write!(f, "slab layout version {found} is not the supported version {expected}")
            }
            SlabError::BadChecksum { found, expected } => {
                write!(
                    f,
                    "superblock checksum {found:#018x} does not match the geometry \
                     (expected {expected:#018x}) — torn or corrupted superblock"
                )
            }
            SlabError::BadGeometry { reason } => {
                write!(f, "slab geometry is inconsistent: {reason}")
            }
            SlabError::SizeMismatch { expected, mapped } => {
                write!(f, "slab geometry requires {expected} bytes but the mapping has {mapped}")
            }
            SlabError::Unsupported { what } => {
                write!(f, "{what} is not supported on this platform")
            }
            SlabError::Os { call, errno } => {
                write!(f, "{call} failed with errno {errno}")
            }
        }
    }
}

impl std::error::Error for SlabError {}

impl SlabError {
    /// Whether this error is a *transient* OS condition (`EINTR`,
    /// `EAGAIN`) that a bounded retry with backoff may clear, as opposed
    /// to a deterministic refusal (bad geometry, corrupt superblock,
    /// `ENOSYS`) that will fail identically on every attempt.
    pub fn is_transient(&self) -> bool {
        // EINTR = 4, EAGAIN/EWOULDBLOCK = 11 on every Linux ABI we build.
        matches!(self, SlabError::Os { errno: 4 | 11, .. })
    }
}

/// Why a register/group/table *configuration* is unusable: geometry the
/// protocol cannot run on. Historically these were `assert!`s in the
/// constructors; the `try_`/builder paths return them typed so a bad
/// config degrades into an error instead of aborting the process. The
/// `Display` strings are byte-for-byte the old panic messages — the
/// preserved panicking wrappers forward them, so `should_panic`
/// expectations and log greps keep working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A reader cap of zero was requested (ARC is a (1,N) register with
    /// N ≥ 1).
    ZeroReaders,
    /// The requested reader cap exceeds the protocol's 2³² − 2 ceiling.
    TooManyReaders {
        /// Readers requested.
        requested: u64,
    },
    /// Fewer than the protocol minimum of 3 slots (N + 2 with N ≥ 1).
    TooFewSlots {
        /// Slots requested.
        n_slots: usize,
    },
    /// The slot count does not fit the packed slot-index field.
    SlotIndexWidth {
        /// Slots requested.
        n_slots: usize,
        /// Width of the index field in bits (31: the writer's candidate
        /// cache spends the top bit of each entry as a hint tag).
        bits: u32,
    },
    /// A register table of zero registers was requested.
    ZeroRegisters,
    /// A sharded table of zero shards was requested.
    ZeroShards,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroReaders => write!(f, "ARC needs at least one reader"),
            ConfigError::TooManyReaders { requested } => {
                write!(f, "ARC admits at most 2^32 - 2 readers, got {requested}")
            }
            ConfigError::TooFewSlots { n_slots } => {
                write!(f, "ARC needs at least 3 slots (got {n_slots})")
            }
            ConfigError::SlotIndexWidth { n_slots, bits } => {
                write!(f, "slot index must fit {bits} bits (got {n_slots} slots)")
            }
            ConfigError::ZeroRegisters => write!(f, "need at least one register"),
            ConfigError::ZeroShards => write!(f, "need at least one shard"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_failing_part() {
        assert!(SlabError::TooSmall { len: 3, need: 128 }.to_string().contains("128"));
        assert!(SlabError::BadMagic { found: 0xdead }.to_string().contains("magic"));
        assert!(SlabError::LayoutVersion { found: 9, expected: 1 }.to_string().contains('9'));
        assert!(SlabError::BadChecksum { found: 1, expected: 2 }.to_string().contains("torn"));
        assert!(SlabError::BadGeometry { reason: "zero registers" }.to_string().contains("zero"));
        assert!(SlabError::SizeMismatch { expected: 640, mapped: 64 }.to_string().contains("640"));
        assert!(SlabError::Unsupported { what: "memfd" }.to_string().contains("memfd"));
        assert!(SlabError::Os { call: "mmap", errno: 22 }.to_string().contains("mmap"));
    }

    #[test]
    fn transient_errnos_are_exactly_eintr_and_eagain() {
        assert!(SlabError::Os { call: "mmap", errno: 4 }.is_transient());
        assert!(SlabError::Os { call: "mmap", errno: 11 }.is_transient());
        assert!(!SlabError::Os { call: "mmap", errno: 12 }.is_transient()); // ENOMEM
        assert!(!SlabError::BadGeometry { reason: "zero registers" }.is_transient());
    }

    #[test]
    fn config_error_messages_match_the_legacy_asserts() {
        // The panicking constructor wrappers forward these Display
        // strings; `should_panic(expected = ...)` tests key on the
        // substrings asserted here.
        assert_eq!(ConfigError::ZeroReaders.to_string(), "ARC needs at least one reader");
        assert!(ConfigError::TooManyReaders { requested: 5_000_000_000 }
            .to_string()
            .contains("at most 2^32 - 2 readers"));
        assert_eq!(
            ConfigError::TooFewSlots { n_slots: 2 }.to_string(),
            "ARC needs at least 3 slots (got 2)"
        );
        assert!(ConfigError::SlotIndexWidth { n_slots: 1 << 31, bits: 31 }
            .to_string()
            .contains("slot index must fit 31 bits"));
        assert_eq!(ConfigError::ZeroRegisters.to_string(), "need at least one register");
        assert_eq!(ConfigError::ZeroShards.to_string(), "need at least one shard");
    }
}
