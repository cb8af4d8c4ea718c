//! The relocatable slab: one contiguous, offset-addressed mapping holding a
//! whole register group, on heap memory or on a shareable `memfd`.
//!
//! PR 1–5 grew [`crate::ArcGroup`] as three process-private allocations
//! (headers / packed slots / arena). This module replaces them with **one
//! slab** whose internal structure is pure offset arithmetic from a single
//! base pointer:
//!
//! ```text
//! offset 0    superblock   128 B   magic, layout version, geometry,
//!                                  checksum, recovery epoch + claim
//!      128    headers      K × 64 B        one line per register
//!         …   packed slots K × n_slots × 64 B
//!         …   slot versions K × n_slots × 8 B
//!         …   pin registry K × max_readers × 8 B   (reader-death sweep)
//!         …   lease ext    K × 32 B   (birth token, heartbeat, health,
//!                                      last-good version — §3.10)
//!         …   arena        K × n_slots × capacity  (only when needed)
//! ```
//!
//! Because nothing inside the slab is a pointer, the same bytes are valid at
//! **any base address**: two processes (or two mappings in one process) can
//! map the same `memfd` at different addresses and run the unchanged
//! [`crate::raw`] protocol against it — the "many serving processes, one
//! register plane" unlock of the roadmap.
//!
//! # Trust boundary
//!
//! A slab that arrives over a file descriptor is untrusted input. The
//! superblock is validated before any derived pointer is formed: magic,
//! layout version, an FNV-1a checksum over the geometry words, internal
//! geometry consistency (checked arithmetic throughout), and finally the
//! recomputed total size against the actual mapping length. Every failure
//! is a typed [`SlabError`] — no UB, no panic (property-tested in
//! `tests/superblock_props.rs`). The magic is stored **last** at
//! initialization with `Release` ordering, so a concurrent attacher either
//! sees no magic (refuses) or a fully initialized slab.
//!
//! # Set-up in bulk
//!
//! A new shm slab's protocol regions, superblock through lease extension,
//! are mapped with one `madvise(MADV_POPULATE_WRITE)` once the node policy
//! is bound, so the build's header writes and initial fill find their
//! pages mapped instead of faulting them in one at a time. On base pages
//! one `fallocate(2)` allocates them first; huge pages skip it, because
//! it allocates through the file and would ignore the THP advice and a
//! hugetlb mapping's node policy. The arena is left to first touch: it is
//! K × n_slots × capacity bytes, mostly written only by later
//! publications. A mapping attached later populates what a set
//! constructor's loop walks, once, at its first writer or reader set. A
//! refused `fallocate` fails the build with a typed error; a refused
//! populate only loses the advice (DESIGN.md §3.11).
//!
//! # Platform support
//!
//! The shareable backend uses `memfd_create` + `mmap(MAP_SHARED)` and is
//! Linux-only (declared directly as `extern "C"` — this crate takes no
//! dependencies). Elsewhere [`SlabBackend::Shm`] reports
//! [`SlabError::Unsupported`] and the heap backend — same slab format,
//! process-private memory — remains available.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

pub use register_common::errors::SlabError;

use crate::current::MAX_READERS;
#[cfg(target_os = "linux")]
use crate::faults::RetryPolicy;
use crate::faults::{self, FaultSite};
use crate::register::INLINE_CAP;

/// Identifies a mapping as an ARC slab: `b"ARCSLAB1"` as a little-endian
/// word.
pub const SLAB_MAGIC: u64 = u64::from_le_bytes(*b"ARCSLAB1");

/// The slab layout generation this build reads and writes. Bumped whenever
/// the byte layout of any region changes incompatibly.
///
/// * v1 — PR 6: superblock + headers + slots + versions + pin registry.
/// * v2 — PR 7: per-register lease-extension region (birth token,
///   heartbeat, health word, last-good version) and the superblock
///   recovery-claim word.
/// * v3 — PR 8: placement words (page quantum + page/node policy) join
///   the checksummed geometry, and shm mapping lengths are explicitly
///   rounded up to the page quantum (so `mapped_len` is validated
///   against the *rounded* total, not the raw layout total).
/// * v4 — the publication journal's `wip_old` holds the previous slot
///   `current`-shaped (index, counter `u32::MAX`) at stage `PUB_PREV`, so
///   recovery no longer reads it as a bare slot index.
/// * v5 — each register header carries the watchers' waiter word at
///   byte 60 (padding before), the target the writer checks before it
///   wakes watchers parked on the register's version word.
pub const SLAB_LAYOUT_VERSION: u32 = 5;

/// Reserved bytes at offset 0 for the superblock (128 = two cache
/// lines; the second line is the mutable epoch + reserve, so epoch bumps
/// never ping the read-mostly geometry line).
pub const SUPERBLOCK_LEN: usize = 128;

/// Storage backing for a register group's slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlabBackend {
    /// Process-private zeroed heap memory (the default). Same slab format,
    /// not shareable across processes.
    #[default]
    Heap,
    /// A `memfd_create` + `mmap(MAP_SHARED)` mapping (Linux): the group can
    /// be re-mapped by other processes (or again in this one) via
    /// [`crate::ArcGroup::memfd`] / [`crate::ArcGroup::attach_fd`].
    Shm,
}

// ---------------------------------------------------------------------
// Placement: page sizing and NUMA node policy
// ---------------------------------------------------------------------

/// Requested page sizing for a shm slab mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Base (4 KiB) pages — the default.
    #[default]
    Base,
    /// Prefer huge pages: try a `MFD_HUGETLB` memfd (2 MiB pages from
    /// the kernel's reserved pool) and fall back transparently to base
    /// pages + `madvise(MADV_HUGEPAGE)` (THP) when the pool is empty or
    /// the kernel refuses. The fallback never changes semantics — only
    /// TLB pressure (DESIGN.md §3.11).
    Huge,
}

/// Requested NUMA placement for a shm slab's pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodePolicy {
    /// No explicit policy: first-touch faulting places each page on the
    /// node of the CPU that first writes it (the default, and the only
    /// behavior on single-node machines).
    #[default]
    FirstTouch,
    /// `mbind(MPOL_BIND)` the whole mapping to one node. Best-effort:
    /// when the syscall is unavailable or refuses, the slab records
    /// [`NodePolicy::FirstTouch`] as its effective policy.
    Bind(u32),
    /// `mbind(MPOL_INTERLEAVE)` the mapping round-robin across all
    /// probed nodes. On a 1-node machine this degrades to the identity
    /// placement (recorded as such).
    Interleave,
}

/// A requested slab placement: page sizing × node policy. What actually
/// happened is recorded as a [`PlacementInfo`] in the superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabPlacement {
    /// Page sizing request.
    pub pages: PagePolicy,
    /// NUMA node request.
    pub nodes: NodePolicy,
}

/// How a slab's pages actually ended up (request + fallbacks applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMode {
    /// Base pages, no THP advice.
    Base,
    /// Base pages with `madvise(MADV_HUGEPAGE)` applied (the THP
    /// fallback of [`PagePolicy::Huge`]).
    ThpAdvised,
    /// A real `MFD_HUGETLB` mapping on reserved 2 MiB pages.
    HugeTlb,
}

impl PageMode {
    /// Stable lowercase label for benchmark JSON.
    pub fn label(self) -> &'static str {
        match self {
            PageMode::Base => "base",
            PageMode::ThpAdvised => "thp",
            PageMode::HugeTlb => "hugetlb",
        }
    }
}

/// The *effective* placement of a slab, recorded in its superblock at
/// initialization and validated (alongside the geometry) at attach: the
/// byte quantum its mapping length is rounded to, the page mode that
/// actually materialized, and the node policy that actually applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementInfo {
    /// Rounding quantum of the mapping length in bytes: 1 for heap
    /// slabs (unrounded), the system page size for base-page shm slabs,
    /// the huge page size (2 MiB) when huge pages were requested —
    /// *whether or not* the hugetlb path succeeded, so the recorded
    /// length invariant is independent of the fallback taken.
    pub quantum: usize,
    /// Effective page mode.
    pub pages: PageMode,
    /// Effective node policy ([`NodePolicy::FirstTouch`] when a bind or
    /// interleave request could not be applied).
    pub nodes: NodePolicy,
}

impl PlacementInfo {
    /// The placement of a heap slab: unrounded, base pages, first-touch.
    pub fn heap() -> Self {
        Self { quantum: 1, pages: PageMode::Base, nodes: NodePolicy::FirstTouch }
    }

    /// Encode into the superblock's placement word: page mode in bits
    /// 0..8, node-policy kind in bits 8..16, bound node id in bits
    /// 32..64. (The quantum travels in its own word.)
    fn encode(self) -> u64 {
        let pages = match self.pages {
            PageMode::Base => 0u64,
            PageMode::ThpAdvised => 1,
            PageMode::HugeTlb => 2,
        };
        let (kind, node) = match self.nodes {
            NodePolicy::FirstTouch => (0u64, 0u64),
            NodePolicy::Bind(n) => (1, n as u64),
            NodePolicy::Interleave => (2, 0),
        };
        pages | kind << 8 | node << 32
    }

    /// Decode a placement word; `None` on unknown bits (validation
    /// rejects such superblocks as corrupt).
    fn decode(word: u64, quantum: u64) -> Option<Self> {
        let pages = match word & 0xff {
            0 => PageMode::Base,
            1 => PageMode::ThpAdvised,
            2 => PageMode::HugeTlb,
            _ => return None,
        };
        let node = (word >> 32) as u32;
        let nodes = match (word >> 8) & 0xff {
            0 => NodePolicy::FirstTouch,
            1 => NodePolicy::Bind(node),
            2 => NodePolicy::Interleave,
            _ => return None,
        };
        if word & 0xffff_0000 != 0 {
            return None; // reserved bits 16..32 must be zero
        }
        let quantum = usize::try_from(quantum).ok()?;
        Some(Self { quantum, pages, nodes })
    }
}

/// Huge page size assumed by [`PagePolicy::Huge`] (the x86-64/aarch64
/// default hugetlb size; a mapping rounded to this is also ideally
/// aligned for THP).
pub const HUGE_PAGE_LEN: usize = 2 << 20;

/// Round `len` up to a multiple of `quantum` (a power of two).
fn round_up(len: usize, quantum: usize) -> Result<usize, SlabError> {
    debug_assert!(quantum.is_power_of_two());
    len.checked_add(quantum - 1).map(|v| v & !(quantum - 1)).ok_or(OVERFLOW)
}

// ---------------------------------------------------------------------
// Geometry and offsets
// ---------------------------------------------------------------------

/// Geometry flag: payloads of at most [`INLINE_CAP`] bytes live in the
/// slot line (no arena region for small capacities).
pub(crate) const FLAG_INLINE: u32 = 1 << 0;
/// Geometry flag: the §3.4 free-slot hint is enabled.
pub(crate) const FLAG_HINT: u32 = 1 << 1;
/// Geometry flag: the R2 no-RMW read fast path is enabled.
pub(crate) const FLAG_FAST_PATH: u32 = 1 << 2;
/// Geometry flag: the slab carries a reader pin registry (§3.9). Shared
/// (shm) slabs always set it — the registry is what makes dead readers
/// sweepable from another process. Heap slabs skip it by default: the
/// registry attributes pins to *pids*, and an in-process reader cannot
/// die without taking the slab with it, so the region would be stamped
/// on every unit transition and read by no one.
pub(crate) const FLAG_PINS: u32 = 1 << 3;
const FLAG_MASK: u32 = FLAG_INLINE | FLAG_HINT | FLAG_FAST_PATH | FLAG_PINS;

/// The build-time shape of a slab, as recorded in (and validated against)
/// its superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlabGeometry {
    /// Number of registers `K`.
    pub registers: usize,
    /// Slots per register.
    pub n_slots: usize,
    /// Payload capacity in bytes per register.
    pub capacity: usize,
    /// Reader cap `N` per register (also sizes the pin registry).
    pub max_readers: u32,
    /// `FLAG_*` bits.
    pub flags: u32,
}

impl SlabGeometry {
    /// Whether the slab needs an arena region at all.
    fn needs_arena(&self) -> bool {
        !(self.flags & FLAG_INLINE != 0 && self.capacity <= INLINE_CAP)
    }

    /// Whether the layout carries the reader pin registry ([`FLAG_PINS`]).
    pub(crate) fn has_pin_registry(&self) -> bool {
        self.flags & FLAG_PINS != 0
    }
}

/// Byte offsets of every region, derived from a validated geometry with
/// checked arithmetic. All region bases are 64-byte aligned by
/// construction (each region size above them is a multiple of 64, or is
/// explicitly rounded up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlabLayout {
    /// The geometry these offsets were computed from.
    pub geometry: SlabGeometry,
    /// Start of the `[RegHeader; K]` region.
    pub hdr_off: usize,
    /// Start of the `[PackedSlot; K * n_slots]` region.
    pub slot_off: usize,
    /// Start of the `[AtomicU64; K * n_slots]` slot-version region.
    pub ver_off: usize,
    /// Start of the `[AtomicU64; K * max_readers]` pin-registry region.
    pub pin_off: usize,
    /// Start of the `[LeaseExt; K]` lease-extension region (§3.10): four
    /// words per register — writer birth token, heartbeat, health,
    /// last-good version.
    pub ext_off: usize,
    /// Start of the arena region (equals `total` when there is no arena).
    pub arena_off: usize,
    /// Arena length in bytes (0 for all-inline slabs).
    pub arena_len: usize,
    /// Total slab size in bytes.
    pub total: usize,
}

/// Bytes per register header / packed slot (asserted against the real
/// struct sizes in `crate::group`).
pub(crate) const HDR_BYTES: usize = 64;
pub(crate) const SLOT_BYTES: usize = 64;
/// Bytes per register in the lease-extension region: birth token,
/// heartbeat, health word, last-good version — four `u64` words.
pub(crate) const EXT_BYTES: usize = 32;

const OVERFLOW: SlabError = SlabError::BadGeometry { reason: "slab size overflows usize" };

fn align_up_64(n: usize) -> Result<usize, SlabError> {
    n.checked_add(63).map(|v| v & !63).ok_or(OVERFLOW)
}

impl SlabLayout {
    /// Validate `geometry` and derive all region offsets.
    pub fn compute(geometry: SlabGeometry) -> Result<Self, SlabError> {
        if geometry.registers == 0 {
            return Err(SlabError::BadGeometry { reason: "zero registers" });
        }
        if geometry.n_slots < 3 {
            return Err(SlabError::BadGeometry { reason: "fewer than 3 slots per register" });
        }
        if geometry.n_slots >= 1 << 31 {
            return Err(SlabError::BadGeometry { reason: "slot index must fit 31 bits" });
        }
        if geometry.capacity == 0 {
            return Err(SlabError::BadGeometry { reason: "zero payload capacity" });
        }
        if geometry.max_readers == 0 {
            return Err(SlabError::BadGeometry { reason: "zero readers" });
        }
        if geometry.max_readers > MAX_READERS {
            return Err(SlabError::BadGeometry { reason: "reader cap above 2^32 - 2" });
        }
        if geometry.flags & !FLAG_MASK != 0 {
            return Err(SlabError::BadGeometry { reason: "unknown geometry flags" });
        }
        let total_slots = geometry.registers.checked_mul(geometry.n_slots).ok_or(OVERFLOW)?;
        let hdr_off = SUPERBLOCK_LEN;
        let slot_off = geometry
            .registers
            .checked_mul(HDR_BYTES)
            .and_then(|b| b.checked_add(hdr_off))
            .ok_or(OVERFLOW)?;
        let ver_off = total_slots
            .checked_mul(SLOT_BYTES)
            .and_then(|b| b.checked_add(slot_off))
            .ok_or(OVERFLOW)?;
        let pin_off =
            total_slots.checked_mul(8).and_then(|b| b.checked_add(ver_off)).ok_or(OVERFLOW)?;
        let pin_end = if geometry.has_pin_registry() {
            geometry
                .registers
                .checked_mul(geometry.max_readers as usize)
                .and_then(|e| e.checked_mul(8))
                .and_then(|b| b.checked_add(pin_off))
                .ok_or(OVERFLOW)?
        } else {
            pin_off
        };
        let ext_off = pin_end;
        let ext_end = geometry
            .registers
            .checked_mul(EXT_BYTES)
            .and_then(|b| b.checked_add(ext_off))
            .ok_or(OVERFLOW)?;
        let arena_off = align_up_64(ext_end)?;
        let arena_len = if geometry.needs_arena() {
            total_slots.checked_mul(geometry.capacity).ok_or(OVERFLOW)?
        } else {
            0
        };
        let total = arena_off.checked_add(arena_len).ok_or(OVERFLOW)?;
        Ok(Self {
            geometry,
            hdr_off,
            slot_off,
            ver_off,
            pin_off,
            ext_off,
            arena_off,
            arena_len,
            total,
        })
    }
}

// ---------------------------------------------------------------------
// The superblock
// ---------------------------------------------------------------------

/// The slab's self-description at offset 0.
///
/// Every field is an atomic because the bytes are (potentially) shared
/// memory: all geometry words are written once before the magic is
/// published and are read-only afterwards; `epoch` is the one mutable
/// word, bumped by each completed recovery.
#[repr(C, align(64))]
pub(crate) struct Superblock {
    /// [`SLAB_MAGIC`], stored last at initialization (`Release`).
    magic: AtomicU64,
    /// `layout_version << 32 | flags`.
    version_flags: AtomicU64,
    /// Number of registers `K`.
    registers: AtomicU64,
    /// Slots per register.
    n_slots: AtomicU64,
    /// Payload capacity per register.
    capacity: AtomicU64,
    /// Reader cap `N` per register.
    max_readers: AtomicU64,
    /// FNV-1a over the six geometry words above plus `page_quantum` and
    /// `placement` below.
    checksum: AtomicU64,
    /// Writer-liveness epoch: bumped once per completed recovery, so
    /// attachers can tell "this plane has been repaired `epoch` times".
    epoch: AtomicU64,
    /// Cross-process recovery arbitration token (§3.10): the pid of the
    /// mapping currently running `recover()`, 0 when free. CAS-claimed so
    /// exactly one attacher repairs; a claim held by a dead pid is stolen.
    recovery_claim: AtomicU64,
    /// Rounding quantum of the mapping length (v3): 1 for heap slabs,
    /// the page size (base) or [`HUGE_PAGE_LEN`] (huge) for shm slabs.
    /// Checksummed with the geometry; `validate` checks the mapped
    /// length against `round_up(layout.total, quantum)`.
    page_quantum: AtomicU64,
    /// Effective placement word (v3): [`PlacementInfo::encode`].
    /// Checksummed with the geometry.
    placement: AtomicU64,
    /// Reserve for future layout generations (second cache line).
    _reserved: [u64; 5],
}

const _: () = assert!(std::mem::size_of::<Superblock>() == SUPERBLOCK_LEN);

/// FNV-1a over a sequence of words — dependency-free, stable across
/// platforms, and good enough to catch torn or scribbled superblocks (the
/// threat model is corruption, not adversaries).
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Superblock {
    fn expected_checksum(
        magic: u64,
        version_flags: u64,
        g: &SlabGeometry,
        quantum: u64,
        placement: u64,
    ) -> u64 {
        fnv1a(&[
            magic,
            version_flags,
            g.registers as u64,
            g.n_slots as u64,
            g.capacity as u64,
            g.max_readers as u64,
            quantum,
            placement,
        ])
    }

    /// Record `layout`'s geometry and the slab's effective `placement`.
    /// Called exactly once, after every other region of the slab is
    /// initialized; the `Release` store of the magic is what publishes
    /// the whole slab to attachers.
    pub fn initialize(&self, layout: &SlabLayout, placement: PlacementInfo) {
        let g = &layout.geometry;
        let vf = (SLAB_LAYOUT_VERSION as u64) << 32 | g.flags as u64;
        let quantum = placement.quantum as u64;
        let pword = placement.encode();
        self.version_flags.store(vf, Ordering::Relaxed);
        self.registers.store(g.registers as u64, Ordering::Relaxed);
        self.n_slots.store(g.n_slots as u64, Ordering::Relaxed);
        self.capacity.store(g.capacity as u64, Ordering::Relaxed);
        self.max_readers.store(g.max_readers as u64, Ordering::Relaxed);
        self.page_quantum.store(quantum, Ordering::Relaxed);
        self.placement.store(pword, Ordering::Relaxed);
        self.checksum
            .store(Self::expected_checksum(SLAB_MAGIC, vf, g, quantum, pword), Ordering::Relaxed);
        self.epoch.store(0, Ordering::Relaxed);
        self.recovery_claim.store(0, Ordering::Relaxed);
        self.magic.store(SLAB_MAGIC, Ordering::Release);
    }

    /// Validate this superblock against `mapped_len` actual bytes and
    /// reconstruct the slab layout. Every exit is a typed error.
    pub fn validate(&self, mapped_len: usize) -> Result<SlabLayout, SlabError> {
        let magic = self.magic.load(Ordering::Acquire);
        if magic != SLAB_MAGIC {
            return Err(SlabError::BadMagic { found: magic });
        }
        let vf = self.version_flags.load(Ordering::Relaxed);
        let layout_version = (vf >> 32) as u32;
        if layout_version != SLAB_LAYOUT_VERSION {
            return Err(SlabError::LayoutVersion {
                found: layout_version,
                expected: SLAB_LAYOUT_VERSION,
            });
        }
        let registers = self.registers.load(Ordering::Relaxed);
        let n_slots = self.n_slots.load(Ordering::Relaxed);
        let capacity = self.capacity.load(Ordering::Relaxed);
        let max_readers = self.max_readers.load(Ordering::Relaxed);
        // Word-size check before the usize casts below (a 32-bit attacher
        // of a 64-bit slab must refuse, not truncate).
        if registers > usize::MAX as u64
            || n_slots > usize::MAX as u64
            || capacity > usize::MAX as u64
            || max_readers > u32::MAX as u64
        {
            return Err(SlabError::BadGeometry { reason: "geometry exceeds this word size" });
        }
        let geometry = SlabGeometry {
            registers: registers as usize,
            n_slots: n_slots as usize,
            capacity: capacity as usize,
            max_readers: max_readers as u32,
            flags: vf as u32,
        };
        let quantum = self.page_quantum.load(Ordering::Relaxed);
        let pword = self.placement.load(Ordering::Relaxed);
        let found = self.checksum.load(Ordering::Relaxed);
        let expected = Self::expected_checksum(magic, vf, &geometry, quantum, pword);
        if found != expected {
            return Err(SlabError::BadChecksum { found, expected });
        }
        if quantum == 0 || quantum > usize::MAX as u64 || !quantum.is_power_of_two() {
            return Err(SlabError::BadGeometry { reason: "page quantum not a power of two" });
        }
        if PlacementInfo::decode(pword, quantum).is_none() {
            return Err(SlabError::BadGeometry { reason: "unknown placement word" });
        }
        let layout = SlabLayout::compute(geometry)?;
        // The mapping is exactly the layout total rounded up to the page
        // quantum the creator recorded — shm slabs are rounded explicitly
        // at creation (never left to the kernel's implicit rounding), so
        // a mismatch here is truncation or a forged quantum, not noise.
        let rounded = round_up(layout.total, quantum as usize)?;
        if rounded != mapped_len {
            return Err(SlabError::SizeMismatch { expected: rounded, mapped: mapped_len });
        }
        Ok(layout)
    }

    /// The effective placement recorded at initialization. Meaningful
    /// only after [`Superblock::validate`] has accepted the superblock
    /// (defaults to the heap placement on undecodable words, which
    /// validation refuses anyway).
    pub fn placement_info(&self) -> PlacementInfo {
        let quantum = self.page_quantum.load(Ordering::Relaxed);
        let pword = self.placement.load(Ordering::Relaxed);
        PlacementInfo::decode(pword, quantum.max(1)).unwrap_or_else(PlacementInfo::heap)
    }

    /// The recovery epoch (number of completed recoveries on this slab).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Bump the recovery epoch (one completed recovery).
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Try to claim the cross-process recovery token for `pid`. Succeeds
    /// when the token is free, already ours, or held by a pid that
    /// `alive` reports dead (a claimant that crashed mid-repair must not
    /// wedge the plane forever — its journal-driven repair is idempotent,
    /// so the stealer simply redoes it).
    pub fn try_claim_recovery(&self, pid: u64, alive: impl Fn(u64) -> bool) -> bool {
        match self.recovery_claim.compare_exchange(0, pid, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => true,
            Err(holder) => {
                holder == pid
                    || (!alive(holder)
                        && self
                            .recovery_claim
                            .compare_exchange(holder, pid, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok())
            }
        }
    }

    /// Release the recovery token if `pid` holds it (a stale release by a
    /// claimant that already lost the token to a stealer is a no-op).
    pub fn release_recovery(&self, pid: u64) {
        let _ = self.recovery_claim.compare_exchange(pid, 0, Ordering::Release, Ordering::Relaxed);
    }

    /// The pid currently holding the recovery token (0 = free).
    pub fn recovery_claimant(&self) -> u64 {
        self.recovery_claim.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// The mapping itself
// ---------------------------------------------------------------------

/// Owner of one slab mapping: a zeroed heap allocation or a shared-memory
/// `mmap`, both 64-byte aligned and addressed only via `base() + offset`.
pub(crate) struct Slab {
    base: std::ptr::NonNull<u8>,
    len: usize,
    kind: SlabKind,
    /// Effective placement (request + fallbacks), recorded into the
    /// superblock at initialization.
    placement: PlacementInfo,
}

enum SlabKind {
    Heap(std::alloc::Layout),
    #[cfg(target_os = "linux")]
    Shm {
        fd: std::os::fd::OwnedFd,
    },
}

// SAFETY: the slab is a raw memory region; all concurrent access to it goes
// through the atomics / protocol-protected cells the owning group derives,
// and the mapping itself is freed only at drop (with the owner's usual
// uniqueness guarantees).
unsafe impl Send for Slab {}
// SAFETY: shared references to the slab only ever yield the base pointer
// and geometry; all mutation of the mapped region goes through the
// protocol-protected cells described above.
unsafe impl Sync for Slab {}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab").field("len", &self.len).field("backend", &self.backend()).finish()
    }
}

impl Slab {
    /// Allocate a zeroed, process-private slab of `len` bytes. An
    /// allocator refusal is a typed [`SlabError::Os`] (`ENOMEM`), not an
    /// abort: slab sizes scale with `K × n_slots × capacity`, so running
    /// out of memory here is a *capacity* condition the caller chose, and
    /// it must be able to degrade (smaller table, shm backend, …).
    pub fn heap(len: usize) -> Result<Self, SlabError> {
        let layout = std::alloc::Layout::from_size_align(len, 64)
            .map_err(|_| SlabError::BadGeometry { reason: "slab size overflows usize" })?;
        if let Some(errno) = faults::fail_errno(FaultSite::HeapAlloc) {
            return Err(SlabError::Os { call: "alloc_zeroed", errno });
        }
        // SAFETY: len >= SUPERBLOCK_LEN > 0 for every computed layout.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(base) = std::ptr::NonNull::new(ptr) else {
            return Err(SlabError::Os { call: "alloc_zeroed", errno: faults::ENOMEM });
        };
        Ok(Self { base, len, kind: SlabKind::Heap(layout), placement: PlacementInfo::heap() })
    }

    /// Create a zeroed, shareable slab of at least `len` bytes on a fresh
    /// `memfd`, with the requested `placement` applied best-effort.
    ///
    /// The mapping length is `len` rounded up to the placement's page
    /// quantum **explicitly** (never left to the kernel's implicit
    /// per-page rounding): the system page size for base pages,
    /// [`HUGE_PAGE_LEN`] when huge pages are requested — the huge
    /// quantum is kept even when the hugetlb pool is empty and the THP
    /// fallback is taken, so the recorded length invariant does not
    /// depend on which path succeeded. The effective placement is
    /// recorded on the slab (and later in the superblock).
    ///
    /// The first `protocol_len` bytes (superblock through lease
    /// extension, never the arena) are set up in bulk once the node
    /// policy is bound: on base pages one `fallocate` allocates them, and
    /// one `madvise(MADV_POPULATE_WRITE)` maps them (module docs). A
    /// refused `fallocate` is a typed error. Huge pages only populate:
    /// `fallocate` allocates through the file, not the mapping, so it
    /// would fix base pages under the THP advice and, on hugetlb, ignore
    /// the node policy, which hugetlbfs keeps on the mapping.
    #[cfg(target_os = "linux")]
    pub fn shm(
        len: usize,
        protocol_len: usize,
        placement: SlabPlacement,
    ) -> Result<Self, SlabError> {
        let (fd, base, rounded, pages) = match placement.pages {
            PagePolicy::Huge => {
                let rounded = round_up(len, HUGE_PAGE_LEN)?;
                match shm_create(rounded, ffi::MFD_CLOEXEC | ffi::MFD_HUGETLB) {
                    Ok((fd, base)) => (fd, base, rounded, PageMode::HugeTlb),
                    Err(_) => {
                        // Hugetlb pool empty or unsupported: same rounded
                        // length on base pages, THP advised. madvise is
                        // itself best-effort (THP for shmem is a sysctl
                        // away on many kernels) — semantics never change,
                        // only TLB pressure.
                        let (fd, base) = shm_create(rounded, ffi::MFD_CLOEXEC)?;
                        if faults::fail_errno(FaultSite::Madvise).is_none() {
                            // SAFETY: advises the exact mapping created above.
                            unsafe {
                                ffi::madvise(base.as_ptr().cast(), rounded, ffi::MADV_HUGEPAGE)
                            };
                        }
                        (fd, base, rounded, PageMode::ThpAdvised)
                    }
                }
            }
            PagePolicy::Base => {
                let rounded = round_up(len, page_len())?;
                let (fd, base) = shm_create(rounded, ffi::MFD_CLOEXEC)?;
                (fd, base, rounded, PageMode::Base)
            }
        };
        // Node policy before anything faults the pages: placement is
        // decided at bind time, materialized by first touch.
        let nodes = apply_node_policy(base.as_ptr(), rounded, placement.nodes);
        let quantum = match pages {
            PageMode::Base => page_len(),
            _ => HUGE_PAGE_LEN,
        };
        // From here on a failure drops the slab: the mapping is unmapped
        // and the memfd closed.
        let slab = Self {
            base,
            len: rounded,
            kind: SlabKind::Shm { fd },
            placement: PlacementInfo { quantum, pages, nodes },
        };
        if pages == PageMode::Base {
            slab.allocate(protocol_len)?;
        }
        slab.populate(0, protocol_len);
        Ok(slab)
    }

    /// Allocate the file pages behind the first `len` bytes with one
    /// `fallocate`, after the node policy is bound: a base-page shmem
    /// mapping's `mbind` policy lives on the memfd's inode, which
    /// `fallocate` allocates through. Transient errnos are retried under
    /// [`RetryPolicy::transient_syscalls`].
    #[cfg(target_os = "linux")]
    fn allocate(&self, len: usize) -> Result<(), SlabError> {
        use std::os::fd::AsRawFd;
        let SlabKind::Shm { fd } = &self.kind else { return Ok(()) };
        RetryPolicy::transient_syscalls().run(SlabError::is_transient, |_| {
            if let Some(errno) = faults::fail_errno(FaultSite::Fallocate) {
                return Err(SlabError::Os { call: "fallocate", errno });
            }
            // SAFETY: plain fallocate (mode 0) of an owned fd over bytes
            // inside its size; a non-zero return is decoded as errno.
            match unsafe { ffi::fallocate(fd.as_raw_fd(), 0, 0, len as i64) } {
                0 => Ok(()),
                _ => Err(os_err("fallocate")),
            }
        })
    }

    /// Map bytes `off .. off + len` of this mapping (widened to whole
    /// pages) with one `madvise(MADV_POPULATE_WRITE)`, instead of one
    /// page fault per page at first touch. Advice only: a refusal (a
    /// kernel before 5.14 answers `EINVAL`) leaves the pages to first
    /// touch. Heap slabs ignore it.
    pub fn populate(&self, off: usize, len: usize) {
        #[cfg(target_os = "linux")]
        if matches!(self.kind, SlabKind::Shm { .. }) && len != 0 {
            if faults::fail_errno(FaultSite::Populate).is_some() {
                return;
            }
            let page = page_len();
            let start = off & !(page - 1);
            let end = off.saturating_add(len).saturating_add(page - 1) & !(page - 1);
            let end = end.min(self.len);
            // SAFETY: advises whole pages inside this live mapping;
            // populating changes no byte of it.
            unsafe {
                ffi::madvise(
                    self.base.as_ptr().add(start).cast(),
                    end - start,
                    ffi::MADV_POPULATE_WRITE,
                )
            };
        }
        #[cfg(not(target_os = "linux"))]
        let _ = (off, len);
    }

    /// Map an existing slab fd (shared) without validating its contents —
    /// the caller validates the superblock before deriving anything.
    ///
    /// Transient errnos (`EINTR`/`EAGAIN`) on the dup/fstat/mmap chain are
    /// retried under [`RetryPolicy::transient_syscalls`]; each attempt is
    /// self-contained (its dup'd fd and mapping are released on failure),
    /// so retrying never accumulates resources.
    #[cfg(target_os = "linux")]
    pub fn attach(fd: std::os::fd::BorrowedFd<'_>) -> Result<Self, SlabError> {
        RetryPolicy::transient_syscalls().run(SlabError::is_transient, |_| Self::attach_once(fd))
    }

    /// One attach attempt (the body [`Slab::attach`] retries).
    #[cfg(target_os = "linux")]
    fn attach_once(fd: std::os::fd::BorrowedFd<'_>) -> Result<Self, SlabError> {
        if let Some(errno) = faults::fail_errno(FaultSite::DupFd) {
            return Err(SlabError::Os { call: "dup", errno });
        }
        let fd = fd
            .try_clone_to_owned()
            .map_err(|e| SlabError::Os { call: "dup", errno: e.raw_os_error().unwrap_or(0) })?;
        let file = std::fs::File::from(fd);
        if let Some(errno) = faults::fail_errno(FaultSite::Fstat) {
            return Err(SlabError::Os { call: "fstat", errno });
        }
        let len = file
            .metadata()
            .map_err(|e| SlabError::Os { call: "fstat", errno: e.raw_os_error().unwrap_or(0) })?
            .len();
        if len > usize::MAX as u64 {
            return Err(SlabError::BadGeometry { reason: "slab size overflows usize" });
        }
        let len = len as usize;
        if len < SUPERBLOCK_LEN {
            return Err(SlabError::TooSmall { len, need: SUPERBLOCK_LEN });
        }
        let fd = std::os::fd::OwnedFd::from(file);
        let base = map_shared(&fd, len)?;
        // An attacher inherits whatever placement the creator recorded;
        // the real info is read from the validated superblock (this
        // field is a placeholder until then).
        Ok(Self { base, len, kind: SlabKind::Shm { fd }, placement: PlacementInfo::heap() })
    }

    /// The storage this slab lives on.
    pub fn backend(&self) -> SlabBackend {
        match self.kind {
            SlabKind::Heap(_) => SlabBackend::Heap,
            #[cfg(target_os = "linux")]
            SlabKind::Shm { .. } => SlabBackend::Shm,
        }
    }

    /// The effective placement of this mapping (request + fallbacks).
    pub fn placement(&self) -> PlacementInfo {
        self.placement
    }

    /// The slab's base address in this process. Valid for `len()` bytes.
    #[inline]
    pub fn base(&self) -> *mut u8 {
        self.base.as_ptr()
    }

    /// Mapped length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Which pages of this mapping are resident, by `mincore(2)`.
    #[cfg(all(test, target_os = "linux"))]
    pub(crate) fn resident_pages(&self) -> Vec<bool> {
        let mut vec = vec![0u8; self.len.div_ceil(page_len())];
        // SAFETY: `base` is page-aligned and maps `len` bytes; `vec` holds
        // the one byte per page mincore writes.
        let rc = unsafe { ffi::mincore(self.base.as_ptr().cast(), self.len, vec.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore: {}", std::io::Error::last_os_error());
        vec.into_iter().map(|b| b & 1 != 0).collect()
    }

    /// The superblock view at offset 0.
    #[inline]
    pub fn superblock(&self) -> &Superblock {
        debug_assert!(self.len >= SUPERBLOCK_LEN);
        // SAFETY: the mapping is at least SUPERBLOCK_LEN bytes (asserted at
        // construction), 64-byte aligned, and lives as long as `self`.
        unsafe { &*self.base.as_ptr().cast::<Superblock>() }
    }

    /// The fd backing this slab, if it has one (shm backend only).
    #[cfg(target_os = "linux")]
    pub fn fd(&self) -> Option<std::os::fd::BorrowedFd<'_>> {
        use std::os::fd::AsFd;
        match &self.kind {
            SlabKind::Heap(_) => None,
            SlabKind::Shm { fd } => Some(fd.as_fd()),
        }
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        match &self.kind {
            SlabKind::Heap(layout) => {
                // SAFETY: allocated with exactly this layout in `heap`.
                unsafe { std::alloc::dealloc(self.base.as_ptr(), *layout) };
            }
            #[cfg(target_os = "linux")]
            SlabKind::Shm { .. } => {
                // SAFETY: mapped with exactly this base/len in map_shared;
                // the fd closes when the OwnedFd drops after us.
                unsafe { ffi::munmap(self.base.as_ptr().cast(), self.len) };
            }
        }
    }
}

/// `memfd_create` + `ftruncate` + `mmap(MAP_SHARED)`: one zeroed shared
/// mapping of exactly `len` bytes (the caller has already rounded).
#[cfg(target_os = "linux")]
fn shm_create(
    len: usize,
    mfd_flags: std::ffi::c_uint,
) -> Result<(std::os::fd::OwnedFd, std::ptr::NonNull<u8>), SlabError> {
    use std::os::fd::FromRawFd;
    if let Some(errno) = faults::fail_errno(FaultSite::MemfdCreate) {
        return Err(SlabError::Os { call: "memfd_create", errno });
    }
    // SAFETY: plain memfd_create; a negative return is decoded as errno.
    let raw = unsafe { ffi::memfd_create(c"arc-slab".as_ptr(), mfd_flags) };
    if raw < 0 {
        return Err(os_err("memfd_create"));
    }
    // SAFETY: raw is a fresh, owned descriptor.
    let fd = unsafe { std::os::fd::OwnedFd::from_raw_fd(raw) };
    let file = std::fs::File::from(fd);
    // An injected or real ftruncate failure drops `file` on the way out —
    // the fresh memfd closes, nothing leaks.
    if let Some(errno) = faults::fail_errno(FaultSite::Ftruncate) {
        return Err(SlabError::Os { call: "ftruncate", errno });
    }
    file.set_len(len as u64)
        .map_err(|e| SlabError::Os { call: "ftruncate", errno: e.raw_os_error().unwrap_or(0) })?;
    let fd = std::os::fd::OwnedFd::from(file);
    let base = map_shared(&fd, len)?;
    Ok((fd, base))
}

/// The system base page size (cached; `getpagesize` cannot fail).
#[cfg(target_os = "linux")]
pub(crate) fn page_len() -> usize {
    use std::sync::atomic::AtomicUsize;
    static CACHE: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    // SAFETY: getpagesize takes no arguments and has no failure mode.
    let raw = unsafe { ffi::getpagesize() };
    let len = if raw > 0 && (raw as usize).is_power_of_two() { raw as usize } else { 4096 };
    CACHE.store(len, Ordering::Relaxed);
    len
}

/// Apply `policy` to `[addr, addr+len)` via `mbind(2)` and report what
/// actually took effect. Best-effort by design: the syscall is gated on
/// architectures whose number we know, a refusal (EPERM in tight
/// seccomp sandboxes, ENOSYS, EINVAL on CONFIG_NUMA=n kernels) records
/// [`NodePolicy::FirstTouch`] — the pages still exist and still zero-
/// fault correctly, they are just placed by first touch instead.
#[cfg(target_os = "linux")]
fn apply_node_policy(addr: *mut u8, len: usize, policy: NodePolicy) -> NodePolicy {
    let (mode, mask) = match policy {
        NodePolicy::FirstTouch => return NodePolicy::FirstTouch,
        NodePolicy::Bind(node) => {
            if node >= 64 {
                return NodePolicy::FirstTouch; // beyond one mask word: skip
            }
            (ffi::MPOL_BIND, [1u64 << node, 0u64])
        }
        NodePolicy::Interleave => {
            let mut mask = [0u64; 2];
            for node in crate::topology::Topology::system().nodes() {
                if node.id < 64 {
                    mask[0] |= 1 << node.id;
                }
            }
            if mask[0].count_ones() < 2 {
                // One node (or none probeable): interleaving is the
                // identity placement; record the truth.
                return NodePolicy::FirstTouch;
            }
            (ffi::MPOL_INTERLEAVE, mask)
        }
    };
    // An injected refusal behaves exactly like a kernel refusal: the
    // policy degrades to first-touch and is recorded as such.
    if faults::fail_errno(FaultSite::Mbind).is_some() {
        return NodePolicy::FirstTouch;
    }
    match ffi::mbind(addr.cast(), len, mode, &mask) {
        Some(0) => policy,
        _ => NodePolicy::FirstTouch,
    }
}

#[cfg(target_os = "linux")]
fn map_shared(fd: &std::os::fd::OwnedFd, len: usize) -> Result<std::ptr::NonNull<u8>, SlabError> {
    use std::os::fd::AsRawFd;
    if let Some(errno) = faults::fail_errno(FaultSite::Mmap) {
        return Err(SlabError::Os { call: "mmap", errno });
    }
    // SAFETY: plain mmap of an owned fd; failure is reported, success gives
    // a page-aligned (hence 64-byte-aligned) mapping of `len` bytes.
    let ptr = unsafe {
        ffi::mmap(
            std::ptr::null_mut(),
            len,
            ffi::PROT_READ | ffi::PROT_WRITE,
            ffi::MAP_SHARED,
            fd.as_raw_fd(),
            0,
        )
    };
    if ptr as isize == -1 {
        return Err(os_err("mmap"));
    }
    // A null return that is not MAP_FAILED is out-of-spec but must still
    // carry the real errno, not a fabricated 0.
    std::ptr::NonNull::new(ptr.cast::<u8>()).ok_or_else(|| os_err("mmap"))
}

#[cfg(target_os = "linux")]
fn os_err(call: &'static str) -> SlabError {
    SlabError::Os { call, errno: std::io::Error::last_os_error().raw_os_error().unwrap_or(0) }
}

// ---------------------------------------------------------------------
// Watcher parking (futex)
// ---------------------------------------------------------------------

/// How long [`futex_wait`] sleeps where no futex is available: a parked
/// watcher re-checks its register at least this often.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
const PARK_SLICE: std::time::Duration = std::time::Duration::from_millis(1);

/// Block the calling thread while the `u32` at `word` still holds
/// `expected`, for at most `timeout`: `FUTEX_WAIT`, without
/// `FUTEX_PRIVATE_FLAG`, so every mapping of a shared slab, in any
/// process, parks on the same word. The kernel compares the word and
/// queues the caller in one step. Returns on a wake, a changed word, the
/// timeout or a signal; the caller re-checks what it waits for.
///
/// Off Linux, and on architectures whose syscall number is not known
/// here, it sleeps for one [`PARK_SLICE`] (or the timeout, if shorter)
/// instead: watchers then poll, and [`futex_wake`] wakes nobody.
pub(crate) fn futex_wait(word: *const u32, expected: u32, timeout: Option<std::time::Duration>) {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let ts = timeout.map(|t| ffi::Timespec {
            tv_sec: t.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(t.subsec_nanos()),
        });
        let ts_ptr = ts.as_ref().map_or(std::ptr::null(), |t| t as *const ffi::Timespec);
        // SAFETY: FUTEX_WAIT only reads the word at `word` (the kernel
        // validates the address and fails with EFAULT, not a fault, if it
        // is unmapped); callers pass a live, aligned word of a slab they
        // borrow. `ts_ptr` is null or points at `ts`, alive until the call
        // returns.
        unsafe {
            ffi::syscall(ffi::SYS_FUTEX, word, ffi::FUTEX_WAIT, expected, ts_ptr, 0usize, 0u32)
        };
    }
    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        let _ = (word, expected);
        std::thread::sleep(timeout.map_or(PARK_SLICE, |t| t.min(PARK_SLICE)));
    }
}

/// Wake every thread parked on `word` by [`futex_wait`], in any process
/// that maps it; returns how many woke (always 0 where no futex is
/// available).
pub(crate) fn futex_wake(word: *const u32) -> usize {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        // SAFETY: FUTEX_WAKE only resolves the address of `word` to find its
        // sleepers (EFAULT if unmapped) and ignores the unused arguments;
        // callers pass a live, aligned word of a slab they borrow.
        let woke = unsafe {
            ffi::syscall(ffi::SYS_FUTEX, word, ffi::FUTEX_WAKE, i32::MAX, 0usize, 0usize, 0u32)
        };
        usize::try_from(woke).unwrap_or(0)
    }
    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        let _ = word;
        0
    }
}

// ---------------------------------------------------------------------
// Cache-line prefetch hints
// ---------------------------------------------------------------------

/// Ask for the cache line holding `p` in shared state, ahead of a read
/// (`prefetcht0` on x86_64, nothing elsewhere).
#[inline(always)]
pub(crate) fn prefetch_read(p: *const u8) {
    // SAFETY: a prefetch never faults, even on an unmapped address, and
    // changes no architectural state: it only starts a cache fill.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::asm!("prefetcht0 [{p}]", p = in(reg) p, options(nostack, preserves_flags, readonly));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Ask for the cache line holding `p` in owned state, ahead of a store:
/// `prefetchw` where the CPU has it ([`has_prefetchw`]), else the shared
/// fill of [`prefetch_read`].
#[inline(always)]
pub(crate) fn prefetch_write(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    if has_prefetchw() {
        // SAFETY: as in prefetch_read; the probe above found the
        // instruction, so the CPU decodes it.
        unsafe {
            std::arch::asm!("prefetchw [{p}]", p = in(reg) p, options(nostack, preserves_flags, readonly));
        }
        return;
    }
    prefetch_read(p);
}

/// Whether the CPU decodes `prefetchw`: CPUID leaf `0x8000_0001`, ECX bit
/// 8 (Linux's `3dnowprefetch` flag). Probed once per process. The
/// intrinsic `_mm_prefetch::<_MM_HINT_ET0>` would not do: without the
/// `prfchw` target feature, which is off by default, it lowers to
/// `prefetcht0`.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_prefetchw() -> bool {
    use std::arch::x86_64::__cpuid;
    static HAS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *HAS.get_or_init(|| {
        __cpuid(0x8000_0000).eax >= 0x8000_0001 && __cpuid(0x8000_0001).ecx & (1 << 8) != 0
    })
}

// ---------------------------------------------------------------------
// Process liveness
// ---------------------------------------------------------------------

/// Best-effort "is this pid alive" probe for writer leases and reader
/// pins. This process's own pid, as its identity page names it
/// ([`Identity::cached`]), is alive without a system call. Any other pid
/// is probed with `kill(pid, 0)` on Unix: delivery permission errors
/// (`EPERM`) count as *alive* — recovery must never adopt from a running
/// writer, so unknown means alive. On non-Unix platforms every recorded
/// pid is treated as alive (no false recovery; cross-process sharing is
/// Linux-only anyway).
pub(crate) fn pid_alive(pid: u64) -> bool {
    if pid == 0 {
        return false;
    }
    if Identity::cached().is_some_and(|me| me.pid == pid) {
        return true;
    }
    #[cfg(unix)]
    {
        if pid > i32::MAX as u64 {
            return true; // unprobeable: assume alive
        }
        #[cfg(test)]
        KILLS.with(|n| n.set(n.get() + 1));
        const ESRCH: i32 = 3;
        // SAFETY: signal 0 performs only the existence/permission check.
        if unsafe { ffi::kill(pid as i32, 0) } == 0 {
            true
        } else {
            std::io::Error::last_os_error().raw_os_error() != Some(ESRCH)
        }
    }
    #[cfg(not(unix))]
    {
        true
    }
}

#[cfg(test)]
thread_local! {
    /// `kill(2)` probes [`pid_alive`] made on this thread.
    pub(crate) static KILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Cold [`Identity::resolve`]s made on this thread.
    pub(crate) static COLD_RESOLVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// This process's id, as recorded in leases and pin-registry entries:
/// one `getpid`.
#[inline]
pub(crate) fn self_pid() -> u64 {
    std::process::id() as u64
}

/// The birth token of `pid`: its start time in clock ticks since boot,
/// field 22 of `/proc/<pid>/stat`. Pid × birth uniquely names a process
/// *incarnation*, closing the pid-reuse hole in lease-death probes: a
/// recycled pid is alive but carries a different birth, so a lease
/// stamped by the corpse no longer masquerades as live.
///
/// Returns 0 ("unknown") off-Linux or when `/proc` cannot be read — the
/// caller must treat 0 as "no birth evidence", never as a mismatch.
pub(crate) fn process_birth(pid: u64) -> u64 {
    #[cfg(target_os = "linux")]
    {
        // An injected /proc failure is indistinguishable from an
        // unreadable stat file: no birth evidence, pid-only semantics.
        if faults::fail_errno(FaultSite::ProcRead).is_some() {
            return 0;
        }
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            return 0;
        };
        // The comm field may itself contain spaces and parentheses; every
        // field after it is numeric, so parse from the *last* ')'.
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0 };
        // `rest` starts at field 3 (state); starttime is field 22.
        rest.split_ascii_whitespace().nth(19).and_then(|t| t.parse::<u64>().ok()).unwrap_or(0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        0
    }
}

/// A process incarnation as a writer lease records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Identity {
    /// The process id.
    pub(crate) pid: u64,
    /// Its birth token ([`process_birth`]; 0 = no birth evidence).
    pub(crate) birth: u64,
}

/// Low bits of an identity word that hold the birth token; the pid sits
/// above them. The kernel caps pids below 2^22, and a birth in 100 Hz
/// ticks fits 42 bits for about a billion years.
const BIRTH_BITS: u32 = 42;

/// The birth half of an identity word.
const BIRTH_MASK: u64 = (1 << BIRTH_BITS) - 1;

/// This process's identity page: one private anonymous page advised
/// `MADV_WIPEONFORK`, whose first word holds the identity packed `pid <<
/// BIRTH_BITS | birth` (0 = none: no process has pid 0). The kernel
/// zeroes the page in every child it copies the address space into, so
/// a non-zero word was stored by this process. Null until the first cold
/// resolve maps it, and for good where it cannot be had.
static IDENTITY_PAGE: AtomicPtr<AtomicU64> = AtomicPtr::new(std::ptr::null_mut());

/// Whether this process has tried to map [`IDENTITY_PAGE`]: it tries
/// once, so a refused page costs no system call per resolve.
static IDENTITY_PAGE_TRIED: AtomicBool = AtomicBool::new(false);

/// The fallback where no identity page can be had: the identity this
/// process last resolved, packed as on the page. A forked child inherits
/// it, so it is keyed by pid and read only after a `getpid`.
static IDENTITY: AtomicU64 = AtomicU64::new(0);

impl Identity {
    /// This process's identity. With an identity page, one load of its
    /// word and no system call; the first resolve of each process
    /// incarnation (and every resolve where the page could not be had)
    /// takes the cold path, a `getpid` and, unless cached, a `/proc`
    /// read.
    ///
    /// Claims take the identity as an argument and make no syscall, so
    /// resolve it before a claim's `swap` — in a batch, once before the
    /// first. A signal is delivered on syscall return, and a claimant
    /// killed between the swap and the lease store leaves a claimed role
    /// with no lease for recovery to find.
    #[inline]
    pub(crate) fn resolve() -> Self {
        match Self::cached() {
            Some(me) => me,
            None => Self::resolve_cold(),
        }
    }

    /// This process's identity as its identity page holds it, without a
    /// system call; `None` before the first resolve of this incarnation,
    /// while `/proc` yields no birth, or where the page could not be had.
    /// The cached birth is never 0.
    #[inline]
    pub(crate) fn cached() -> Option<Self> {
        let cell = page_word()?;
        let word = cell.load(Ordering::Relaxed);
        (word != 0).then_some(Identity { pid: word >> BIRTH_BITS, birth: word & BIRTH_MASK })
    }

    /// The resolve of a zero or absent page word: `getpid`, then the
    /// identity page's word (mapping the page on the process's first
    /// call) or, where there is no page, the getpid-keyed fallback.
    #[cold]
    #[inline(never)]
    fn resolve_cold() -> Self {
        #[cfg(test)]
        COLD_RESOLVES.with(|n| n.set(n.get() + 1));
        Self::resolve_in(identity_page().unwrap_or(&IDENTITY), self_pid(), process_birth)
    }

    /// [`Identity::resolve`] for process `pid` over the cache word
    /// `cache`, reading a birth with `read_birth` on a miss.
    fn resolve_in(cache: &AtomicU64, pid: u64, read_birth: impl FnOnce(u64) -> u64) -> Self {
        // Relaxed: the one word is the whole datum, and it publishes no
        // other data.
        let word = cache.load(Ordering::Relaxed);
        if word >> BIRTH_BITS == pid {
            return Identity { pid, birth: word & BIRTH_MASK };
        }
        let birth = read_birth(pid);
        // A birth of 0 is no evidence, not a token: leave the word alone
        // so the next resolve reads again.
        if birth != 0 && pid < 1 << (64 - BIRTH_BITS) && birth < 1 << BIRTH_BITS {
            cache.store(pid << BIRTH_BITS | birth, Ordering::Relaxed);
        }
        Identity { pid, birth }
    }
}

/// The identity page's word, if this process has mapped the page.
#[inline]
fn page_word() -> Option<&'static AtomicU64> {
    // SAFETY: a non-null page pointer names the first word of a page this
    // process mapped and never unmaps (a forked child inherits the
    // mapping at the same address).
    unsafe { IDENTITY_PAGE.load(Ordering::Acquire).as_ref() }
}

/// The identity page's word, mapping the page on the process's first
/// call; `None` where the page cannot be had. A thread that finds another
/// mid-mapping gets `None` and resolves through the fallback word once.
fn identity_page() -> Option<&'static AtomicU64> {
    if let Some(cell) = page_word() {
        return Some(cell);
    }
    if IDENTITY_PAGE_TRIED.swap(true, Ordering::Relaxed) {
        return None;
    }
    IDENTITY_PAGE.store(map_identity_page(), Ordering::Release);
    page_word()
}

/// Map one private anonymous page advised `MADV_WIPEONFORK` (Linux 4.14);
/// null if the kernel refuses either call (an older one answers the
/// advice with `EINVAL`) or a [`FaultSite::IdentityPage`] fault is armed.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn map_identity_page() -> *mut AtomicU64 {
    let null = std::ptr::null_mut();
    if faults::fail_errno(FaultSite::IdentityPage).is_some() {
        return null;
    }
    let len = page_len();
    // SAFETY: an anonymous mapping at an address the kernel picks touches
    // no existing memory; failure is reported as MAP_FAILED.
    let page = unsafe {
        ffi::mmap(
            std::ptr::null_mut(),
            len,
            ffi::PROT_READ | ffi::PROT_WRITE,
            ffi::MAP_PRIVATE | ffi::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    if page as isize == -1 || page.is_null() {
        return null;
    }
    let refused = faults::fail_errno(FaultSite::IdentityPage).is_some()
        // SAFETY: advice on the page just mapped.
        || unsafe { ffi::madvise(page, len, ffi::MADV_WIPEONFORK) } != 0;
    if refused {
        // SAFETY: unmaps the page just mapped, which nothing references.
        unsafe { ffi::munmap(page, len) };
        return null;
    }
    page.cast()
}

/// No identity page off Linux (or where its constants are not declared):
/// every resolve takes the getpid-keyed fallback.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn map_identity_page() -> *mut AtomicU64 {
    std::ptr::null_mut()
}

// ---------------------------------------------------------------------
// FFI (no libc crate: the toolchain links libc anyway; declare what we use)
// ---------------------------------------------------------------------

#[cfg(unix)]
mod ffi {
    #![allow(missing_docs)]
    use std::ffi::{c_char, c_int, c_uint, c_void};

    #[cfg(target_os = "linux")]
    pub const PROT_READ: c_int = 0x1;
    #[cfg(target_os = "linux")]
    pub const PROT_WRITE: c_int = 0x2;
    #[cfg(target_os = "linux")]
    pub const MAP_SHARED: c_int = 0x01;
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    pub const MAP_PRIVATE: c_int = 0x02;
    /// The x86_64 and aarch64 value (some other architectures differ).
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    pub const MAP_ANONYMOUS: c_int = 0x20;
    #[cfg(target_os = "linux")]
    pub const MFD_CLOEXEC: c_uint = 0x1;
    /// `memfd_create` flag: back the fd with the default hugetlb size.
    #[cfg(target_os = "linux")]
    pub const MFD_HUGETLB: c_uint = 0x4;
    /// `madvise` advice: fold this range into transparent huge pages.
    #[cfg(target_os = "linux")]
    pub const MADV_HUGEPAGE: c_int = 14;
    /// `madvise` advice (Linux 4.14): hand a child made by `fork` the
    /// range zero-filled instead of a copy.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    pub const MADV_WIPEONFORK: c_int = 18;
    /// `madvise` advice (Linux 5.14): map the range writable now, as
    /// write faults would.
    #[cfg(target_os = "linux")]
    pub const MADV_POPULATE_WRITE: c_int = 23;
    /// `mbind` mode: strict allocation from the nodemask.
    #[cfg(target_os = "linux")]
    pub const MPOL_BIND: c_int = 2;
    /// `mbind` mode: round-robin pages across the nodemask.
    #[cfg(target_os = "linux")]
    pub const MPOL_INTERLEAVE: c_int = 3;

    extern "C" {
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        #[cfg(target_os = "linux")]
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn fallocate(fd: c_int, mode: c_int, offset: i64, len: i64) -> c_int;
        #[cfg(all(test, target_os = "linux"))]
        pub fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn getpagesize() -> c_int;
        #[cfg(target_os = "linux")]
        pub fn syscall(num: std::ffi::c_long, ...) -> std::ffi::c_long;
    }

    /// `futex(2)` system call number.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub const SYS_FUTEX: std::ffi::c_long = 202;
    #[cfg(all(target_os = "linux", target_arch = "aarch64"))]
    pub const SYS_FUTEX: std::ffi::c_long = 98;
    /// `futex` op: sleep while the word holds the expected value.
    #[cfg(target_os = "linux")]
    pub const FUTEX_WAIT: c_int = 0;
    /// `futex` op: wake up to `val` sleepers on the word.
    #[cfg(target_os = "linux")]
    pub const FUTEX_WAKE: c_int = 1;

    /// `struct timespec` on the 64-bit targets the futex call supports.
    #[cfg(target_os = "linux")]
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `mbind(2)` has no glibc wrapper (it lives in libnuma, which this
    /// dependency-free workspace does not link), so it goes through
    /// `syscall(2)` with per-architecture numbers. `None` means "number
    /// unknown on this architecture" — callers treat that as a refusal
    /// and fall back to first-touch placement.
    #[cfg(target_os = "linux")]
    pub fn mbind(
        addr: *mut c_void,
        len: usize,
        mode: c_int,
        nodemask: &[u64; 2],
    ) -> Option<std::ffi::c_long> {
        #[cfg(target_arch = "x86_64")]
        const SYS_MBIND: std::ffi::c_long = 237;
        #[cfg(target_arch = "aarch64")]
        const SYS_MBIND: std::ffi::c_long = 235;
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        return {
            let _ = (addr, len, mode, nodemask);
            None
        };
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        {
            let maxnode: std::ffi::c_ulong = 128; // bits in the mask buffer
                                                  // SAFETY: the nodemask buffer holds maxnode/64 live words; the
                                                  // address range was just mapped by us; flags = 0.
            Some(unsafe {
                syscall(
                    SYS_MBIND,
                    addr,
                    len as std::ffi::c_ulong,
                    mode as std::ffi::c_long,
                    nodemask.as_ptr(),
                    maxnode,
                    0 as std::ffi::c_uint,
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> SlabGeometry {
        SlabGeometry {
            registers: 4,
            n_slots: 3,
            capacity: 48,
            max_readers: 1,
            flags: FLAG_INLINE | FLAG_HINT | FLAG_FAST_PATH,
        }
    }

    #[test]
    fn layout_regions_are_ordered_aligned_and_disjoint() {
        let l = SlabLayout::compute(geom()).unwrap();
        assert_eq!(l.hdr_off, SUPERBLOCK_LEN);
        assert!(l.hdr_off < l.slot_off && l.slot_off < l.ver_off && l.ver_off < l.pin_off);
        assert!(l.pin_off <= l.ext_off && l.ext_off < l.arena_off && l.arena_off <= l.total);
        for off in [l.hdr_off, l.slot_off, l.arena_off] {
            assert_eq!(off % 64, 0, "region at {off} not 64-byte aligned");
        }
        assert_eq!(l.ver_off % 8, 0);
        assert_eq!(l.pin_off % 8, 0);
        assert_eq!(l.ext_off % 8, 0);
        // Inline geometry at capacity <= INLINE_CAP: no arena.
        assert_eq!(l.arena_len, 0);
        assert_eq!(l.total, l.arena_off);
    }

    #[test]
    fn pin_registry_region_is_sized_only_when_flagged() {
        // geom() carries no FLAG_PINS: the region is empty and the lease
        // extension begins right at pin_off.
        let g = geom();
        let bare = SlabLayout::compute(g).unwrap();
        assert_eq!(bare.ext_off, bare.pin_off);
        assert_eq!(bare.arena_off, align_up_64(bare.ext_off + g.registers * EXT_BYTES).unwrap());
        // Flagged: K * max_readers entries of 8 bytes ahead of the lease
        // extension.
        let flagged =
            SlabLayout::compute(SlabGeometry { flags: geom().flags | FLAG_PINS, ..geom() })
                .unwrap();
        let pin_bytes = g.registers * g.max_readers as usize * 8;
        assert_eq!(flagged.ext_off, flagged.pin_off + pin_bytes);
        assert_eq!(
            flagged.arena_off,
            align_up_64(flagged.ext_off + g.registers * EXT_BYTES).unwrap()
        );
        assert_eq!(flagged.total, bare.total + (flagged.arena_off - bare.arena_off));
    }

    #[test]
    fn lease_extension_region_is_always_present() {
        // Every layout generation-2 slab carries the extension: the stall
        // watchdog and quarantine words must exist even on heap planes.
        let l = SlabLayout::compute(geom()).unwrap();
        assert!(l.arena_off - l.ext_off >= geom().registers * EXT_BYTES);
    }

    #[test]
    fn layout_includes_arena_when_needed() {
        let mut g = geom();
        g.capacity = 256;
        let l = SlabLayout::compute(g).unwrap();
        assert_eq!(l.arena_len, 4 * 3 * 256);
        assert_eq!(l.total, l.arena_off + l.arena_len);
        // Inline disabled forces the arena even for small capacities.
        let mut g2 = geom();
        g2.flags &= !FLAG_INLINE;
        let l2 = SlabLayout::compute(g2).unwrap();
        assert_eq!(l2.arena_len, 4 * 3 * 48);
    }

    #[test]
    fn layout_rejects_degenerate_geometry() {
        for (g, reason) in [
            (SlabGeometry { registers: 0, ..geom() }, "zero registers"),
            (SlabGeometry { n_slots: 2, ..geom() }, "fewer than 3 slots"),
            (SlabGeometry { capacity: 0, ..geom() }, "zero payload capacity"),
            (SlabGeometry { max_readers: 0, ..geom() }, "zero readers"),
            (SlabGeometry { flags: 0xFF00, ..geom() }, "unknown geometry flags"),
        ] {
            match SlabLayout::compute(g) {
                Err(SlabError::BadGeometry { reason: r }) => {
                    assert!(r.contains(reason.split(' ').next().unwrap()), "{r} vs {reason}")
                }
                other => panic!("expected BadGeometry({reason}), got {other:?}"),
            }
        }
        // Overflowing sizes are a typed error, not a panic.
        let g = SlabGeometry { registers: usize::MAX / 2, ..geom() };
        assert!(matches!(SlabLayout::compute(g), Err(SlabError::BadGeometry { .. })));
    }

    #[test]
    fn superblock_roundtrip_on_heap_slab() {
        let l = SlabLayout::compute(geom()).unwrap();
        let slab = Slab::heap(l.total).unwrap();
        // Freshly zeroed: no magic yet.
        assert!(matches!(
            slab.superblock().validate(l.total),
            Err(SlabError::BadMagic { found: 0 })
        ));
        slab.superblock().initialize(&l, slab.placement());
        let read_back = slab.superblock().validate(l.total).unwrap();
        assert_eq!(read_back, l);
        assert_eq!(slab.superblock().placement_info(), PlacementInfo::heap());
        assert_eq!(slab.superblock().epoch(), 0);
        assert_eq!(slab.superblock().bump_epoch(), 1);
        assert_eq!(slab.superblock().epoch(), 1);
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let l = SlabLayout::compute(geom()).unwrap();
        let slab = Slab::heap(l.total).unwrap();
        slab.superblock().initialize(&l, slab.placement());
        match slab.superblock().validate(l.total - 64) {
            Err(SlabError::SizeMismatch { expected, mapped }) => {
                assert_eq!(expected, l.total);
                assert_eq!(mapped, l.total - 64);
            }
            other => panic!("expected SizeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn fnv1a_is_order_sensitive() {
        assert_ne!(fnv1a(&[1, 2]), fnv1a(&[2, 1]));
        assert_ne!(fnv1a(&[0]), fnv1a(&[0, 0]));
    }

    #[test]
    fn self_is_alive_and_pid_zero_is_not() {
        assert!(pid_alive(self_pid()));
        assert!(!pid_alive(0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn birth_token_is_stable_and_nonzero_for_self() {
        let me = Identity::resolve();
        assert_eq!(me.pid, self_pid());
        assert_ne!(me.birth, 0, "own /proc stat must parse");
        assert_eq!(me.birth, process_birth(self_pid()), "birth token must be stable");
        assert_eq!(Identity::resolve(), me, "the cached identity is the resolved one");
        // A pid that cannot exist has no birth evidence.
        assert_eq!(process_birth(u64::MAX), 0);
    }

    #[test]
    fn identity_cache_is_keyed_by_pid_and_never_holds_a_zero_birth() {
        let cache = AtomicU64::new(0);
        let miss = |_| -> u64 { panic!("a cache hit reads no birth") };
        // No birth evidence: returned but not cached, so the next resolve
        // reads again.
        assert_eq!(Identity::resolve_in(&cache, 7, |_| 0), Identity { pid: 7, birth: 0 });
        assert_eq!(Identity::resolve_in(&cache, 7, |_| 70).birth, 70);
        assert_eq!(Identity::resolve_in(&cache, 7, miss).birth, 70);
        // Another pid, as in a forked child, reads its own birth.
        assert_eq!(Identity::resolve_in(&cache, 8, |_| 80).birth, 80);
        assert_eq!(Identity::resolve_in(&cache, 8, miss).birth, 80);
        // A pid or birth too wide for the word is returned, not cached.
        assert_eq!(Identity::resolve_in(&cache, 1 << 22, |_| 5).birth, 5);
        assert_eq!(Identity::resolve_in(&cache, 9, |_| 1 << 42).birth, 1 << 42);
        assert_eq!(Identity::resolve_in(&cache, 8, miss).birth, 80);
    }

    #[test]
    fn recovery_token_claims_releases_and_steals_from_the_dead() {
        let l = SlabLayout::compute(geom()).unwrap();
        let slab = Slab::heap(l.total).unwrap();
        slab.superblock().initialize(&l, slab.placement());
        let sb = slab.superblock();
        assert_eq!(sb.recovery_claimant(), 0);
        // First claim wins; re-claim by the same pid is idempotent.
        assert!(sb.try_claim_recovery(100, |_| true));
        assert!(sb.try_claim_recovery(100, |_| true));
        // A live holder blocks others.
        assert!(!sb.try_claim_recovery(200, |_| true));
        assert_eq!(sb.recovery_claimant(), 100);
        // A dead holder is stolen from.
        assert!(sb.try_claim_recovery(200, |pid| pid != 100));
        assert_eq!(sb.recovery_claimant(), 200);
        // Stale release by the former holder is a no-op.
        sb.release_recovery(100);
        assert_eq!(sb.recovery_claimant(), 200);
        sb.release_recovery(200);
        assert_eq!(sb.recovery_claimant(), 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn shm_slab_roundtrips_through_attach() {
        let l = SlabLayout::compute(geom()).unwrap();
        let slab = Slab::shm(l.total, l.arena_off, SlabPlacement::default()).unwrap();
        slab.superblock().initialize(&l, slab.placement());
        // Scribble a recognizable byte pattern into the header region.
        // SAFETY: we own the only view; offsets are in-bounds.
        unsafe { slab.base().add(l.hdr_off).write(0xAB) };
        let other = Slab::attach(slab.fd().unwrap()).unwrap();
        assert_eq!(other.len(), slab.len());
        assert_ne!(other.base(), slab.base(), "second mapping must relocate");
        assert_eq!(other.superblock().validate(other.len()).unwrap(), l);
        assert_eq!(other.superblock().placement_info(), slab.placement());
        // Same physical bytes through the other base address.
        // SAFETY: in-bounds read of the attached mapping.
        assert_eq!(unsafe { other.base().add(l.hdr_off).read() }, 0xAB);
    }

    /// Satellite: shm lengths are rounded to the page quantum by us, not
    /// by the kernel — the invariant `len == round_up(total, quantum)`
    /// holds on the mapping, the memfd, and through validation.
    #[cfg(target_os = "linux")]
    #[test]
    fn shm_lengths_are_explicitly_page_rounded() {
        let l = SlabLayout::compute(geom()).unwrap();
        let slab = Slab::shm(l.total, l.arena_off, SlabPlacement::default()).unwrap();
        let info = slab.placement();
        assert!(info.quantum >= 4096 && info.quantum.is_power_of_two());
        assert_eq!(slab.len() % info.quantum, 0, "mapping length not quantum-rounded");
        assert_eq!(slab.len(), round_up(l.total, info.quantum).unwrap());
        assert_eq!(info.pages, PageMode::Base);
        assert_eq!(info.nodes, NodePolicy::FirstTouch);
        // The *file* is the rounded length too (explicit ftruncate, not
        // kernel courtesy).
        use std::os::fd::AsRawFd;
        let file = std::fs::File::from(slab.fd().unwrap().try_clone_to_owned().unwrap());
        assert_eq!(file.metadata().unwrap().len(), slab.len() as u64);
        let _ = file.as_raw_fd(); // keep the dup alive to here
                                  // Validation accepts the rounded length and rejects the raw one
                                  // whenever rounding actually changed it.
        slab.superblock().initialize(&l, info);
        assert!(slab.superblock().validate(slab.len()).is_ok());
        if slab.len() != l.total {
            assert!(matches!(
                slab.superblock().validate(l.total),
                Err(SlabError::SizeMismatch { .. })
            ));
        }
    }

    /// Huge-page request on a machine with an empty hugetlb pool (CI's
    /// norm): the fallback path must produce a working slab, keep the
    /// 2 MiB rounding quantum, and record what actually happened.
    #[cfg(target_os = "linux")]
    #[test]
    fn huge_request_falls_back_without_changing_semantics() {
        let l = SlabLayout::compute(geom()).unwrap();
        let placement = SlabPlacement { pages: PagePolicy::Huge, nodes: NodePolicy::Bind(0) };
        let slab = Slab::shm(l.total, l.arena_off, placement).unwrap();
        let info = slab.placement();
        assert_eq!(info.quantum, HUGE_PAGE_LEN, "huge quantum survives any fallback");
        assert_eq!(slab.len(), round_up(l.total, HUGE_PAGE_LEN).unwrap());
        assert!(
            matches!(info.pages, PageMode::HugeTlb | PageMode::ThpAdvised),
            "huge request resolves to hugetlb or the THP fallback, got {:?}",
            info.pages
        );
        // Whatever materialized, the slab is a normal slab: initialize,
        // validate, attach, and read bytes through a second mapping.
        slab.superblock().initialize(&l, info);
        // SAFETY: in-bounds write to our own fresh mapping.
        unsafe { slab.base().add(l.hdr_off).write(0x5A) };
        let other = Slab::attach(slab.fd().unwrap()).unwrap();
        assert_eq!(other.superblock().validate(other.len()).unwrap(), l);
        assert_eq!(other.superblock().placement_info(), info);
        // SAFETY: in-bounds read of the attached mapping.
        assert_eq!(unsafe { other.base().add(l.hdr_off).read() }, 0x5A);
    }

    /// Interleave on a 1-node machine records the truthful effective
    /// policy (first-touch), and node binds beyond the mask are skipped.
    #[cfg(target_os = "linux")]
    #[test]
    fn node_policy_degrades_honestly() {
        let l = SlabLayout::compute(geom()).unwrap();
        let slab = Slab::shm(
            l.total,
            l.arena_off,
            SlabPlacement { pages: PagePolicy::Base, nodes: NodePolicy::Interleave },
        )
        .unwrap();
        let nodes = crate::topology::Topology::system().node_count();
        match slab.placement().nodes {
            NodePolicy::Interleave => assert!(nodes > 1, "interleave must not stick on 1 node"),
            NodePolicy::FirstTouch => {} // the honest single-node outcome
            other => panic!("unexpected effective policy {other:?}"),
        }
        let bound = Slab::shm(
            l.total,
            l.arena_off,
            SlabPlacement { pages: PagePolicy::Base, nodes: NodePolicy::Bind(9999) },
        )
        .unwrap();
        assert_eq!(bound.placement().nodes, NodePolicy::FirstTouch);
    }

    #[test]
    fn placement_word_roundtrips_and_rejects_junk() {
        for info in [
            PlacementInfo::heap(),
            PlacementInfo { quantum: 4096, pages: PageMode::Base, nodes: NodePolicy::FirstTouch },
            PlacementInfo {
                quantum: HUGE_PAGE_LEN,
                pages: PageMode::HugeTlb,
                nodes: NodePolicy::Bind(3),
            },
            PlacementInfo {
                quantum: HUGE_PAGE_LEN,
                pages: PageMode::ThpAdvised,
                nodes: NodePolicy::Interleave,
            },
        ] {
            let decoded = PlacementInfo::decode(info.encode(), info.quantum as u64);
            assert_eq!(decoded, Some(info));
        }
        assert_eq!(PlacementInfo::decode(0xFF, 1), None, "unknown page mode");
        assert_eq!(PlacementInfo::decode(0xFF00, 1), None, "unknown node kind");
        assert_eq!(PlacementInfo::decode(0x1_0000, 1), None, "reserved bits set");
    }

    /// The `prefetchw` probe reads the bit Linux reports as
    /// `3dnowprefetch`. Were it the wrong bit, every write hint would turn
    /// into `prefetcht0`, or `prefetchw` would run on a CPU that may not
    /// decode it.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn prefetchw_probe_agrees_with_cpuinfo() {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").expect("read /proc/cpuinfo");
        let flags = cpuinfo.lines().find(|l| l.starts_with("flags")).expect("a flags line");
        let listed = flags.split_whitespace().any(|f| f == "3dnowprefetch");
        assert_eq!(has_prefetchw(), listed, "CPUID 0x8000_0001 ECX bit 8 against {flags}");
        assert_eq!(has_prefetchw(), listed, "the cached answer");
        // Both hints run, on either answer, and fault on no address.
        for p in [std::ptr::null(), std::ptr::from_ref(&cpuinfo).cast::<u8>()] {
            prefetch_read(p);
            prefetch_write(p);
        }
    }
}
