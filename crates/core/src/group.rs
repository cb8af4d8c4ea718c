//! Slab-backed register groups: K ARC registers from **one relocatable
//! slab** — the crate's one storage layout.
//!
//! A table of a **million** small registers — the "large-scale data
//! sharing" in the paper's title — is dominated by per-register footprint
//! and placement: a million scattered boxed allocations would be
//! memory-bloated, allocation-heavy and cache-hostile. [`ArcGroup`]
//! therefore builds K registers in one shot inside a single
//! offset-addressed mapping (the [`crate::shm`] slab). The single register
//! of the paper is the K = 1 case: [`ArcRegister`](crate::ArcRegister) and
//! [`TypedArc`](crate::TypedArc) are thin views over a one-register group,
//! so shm, recovery, the pin registry, supervision and scrub all apply to
//! them too.
//!
//! The slab's regions:
//!
//! ```text
//! superblock : 128 B                        magic, geometry, recovery epoch
//! headers    : [RegHeader; K]               one 64 B line per register
//! slots      : [PackedSlot; K * n_slots]    one 64 B line per slot
//! versions   : [AtomicU64; K * n_slots]     slot publication stamps
//! pins       : [AtomicU64; K * max_readers] reader pin registry (§3.9;
//!                                           shm slabs — heap opts in)
//! lease-ext  : [AtomicU64; K * 4]           birth token, heartbeat,
//!                                           health, last-good (§3.10)
//! arena      : [u8; K * n_slots * capacity] only when capacity > INLINE_CAP
//! ```
//!
//! Nothing inside the slab is a pointer — every access is `base + offset`
//! — so the same bytes are valid at any base address. With the default
//! [`SlabBackend::Heap`] the slab is ordinary process-private memory; with
//! [`SlabBackend::Shm`] (Linux) it lives on a `memfd` that other processes
//! (or this one, again) can map via [`ArcGroup::attach_fd`] and drive with
//! the unchanged wait-free protocol. Because processes can now die while
//! holding roles, the slab also carries the §3.9 robustness state (writer
//! journal + lease in each header, a reader pin registry region), consumed
//! by [`ArcGroup::recover`].
//!
//! * **`RegHeader`** packs a register's hot coordination words (`current`,
//!   hint, reader bookkeeping, writer claim) into one 64-byte-aligned
//!   line, so neighboring registers' hot headers never false-share.
//! * **`PackedSlot`** fuses the slot's protocol counters (`r_start` /
//!   `r_end`) with its length word and the [`INLINE_CAP`]-byte inline
//!   value buffer into exactly one cache line: a fast-path read touches
//!   the header line plus one slot line, and a small-payload register
//!   costs `64 + n_slots × 64` bytes — `O(n_slots × INLINE_CAP)`.
//! * The optional **arena** gives each `(register, slot)` pair a disjoint
//!   `capacity`-byte region.
//!
//! # One protocol, one proof
//!
//! Every operation goes through the storage-generic protocol functions of
//! [`crate::raw`], with the crate-private `GroupCells` view merely
//! translating `(register, slot)` to a slab position. Register `k` only
//! ever touches header `k`, slots `k*n_slots .. (k+1)*n_slots` and arena
//! bytes `k*n_slots*capacity .. (k+1)*n_slots*capacity` — the disjointness
//! of those ranges (module [`layout`], property-tested in
//! `tests/group_props.rs`, model-checked on the real slab by the test-only
//! `model_check` module) is what makes the single-register safety argument
//! compose: no register's writer can recycle a slot pinned by another
//! register's reader, because it cannot even *name* another register's
//! slots.
//!
//! The packing pads nothing inside a register: its slot *counters* share
//! their slot's payload line (a reader releasing slot A may ping a line
//! another reader of slot A still loads from), and its header words share
//! one line (readers' R4 RMWs and the writer's W2 swap contend on it).
//! Both are *within* one register — the contention domain the protocol
//! already bounds — and cross-register traffic shares nothing. DESIGN.md
//! §3.5 records what the packing costs a contended writer/reader pair
//! against a layout that padded every hot word.
//!
//! # Batched operation
//!
//! [`GroupWriterSet`] holds the writer role of every register with 16
//! bytes of packed writer memory per register (the crate-private
//! `raw::WriterMem`, no per-register heap state):
//! [`GroupWriterSet::write_batch`] streams a batch of
//! `(register, value)` pairs through W1–W3 with the per-register candidate
//! caches staying warm across batches. [`GroupReaderSet`] joins every
//! register once and [`GroupReaderSet::read_many`] sorts the requested
//! keys so the slab is traversed in address order — sequential prefetch
//! instead of pointer chasing.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;

use register_common::traits::{validate_spec, BuildError, RegisterSpec};
use register_common::OpMetrics;

use register_common::errors::ConfigError;

use crate::current::{index_of, Current, MAX_READERS};
use crate::errors::{HandleError, WriteError};
use crate::raw::{
    outstanding_units_on, publish_with_on, quarantine_on, read_acquire_on, reader_join_on,
    reader_leave_on, register_watcher_on, wait_for_version_on, wait_for_version_timeout_on,
    wip_slot, wip_stage, writer_claim_on, writer_release_on, ArcCells, Intent, Line, RawOptions,
    RawReader, ReadOutcome, WriterMem, HEALTH_BAD_CURRENT, HEALTH_BAD_JOURNAL, HEALTH_BAD_LEN,
    HEALTH_OK, NO_HINT, SLOT_INDEX_BITS, STAGE_IDLE, STAGE_PUB_RAW,
};
use crate::recovery::{self, Liveness, RecoveryReport};
use crate::register::{ReadGuard, Snapshot, INLINE_CAP};
use crate::shm::{
    futex_wait, futex_wake, pid_alive, prefetch_read, prefetch_write, Identity, PlacementInfo,
    Slab, SlabBackend, SlabError, SlabGeometry, SlabLayout, SlabPlacement, FLAG_FAST_PATH,
    FLAG_HINT, FLAG_INLINE, FLAG_PINS, HDR_BYTES, SLOT_BYTES,
};
use crate::typed::Versioned;

pub mod layout {
    //! Pure slab offset arithmetic, factored out so the property tests can
    //! check disjointness over the whole parameter space without building
    //! slabs. Every accessor of [`super::ArcGroup`] goes through these.

    use std::ops::Range;

    /// Global index of `slot` of register `k` in the packed slot array.
    #[inline]
    pub const fn slot_index(k: usize, n_slots: usize, slot: usize) -> usize {
        k * n_slots + slot
    }

    /// The half-open range of global slot indices owned by register `k`.
    #[inline]
    pub const fn slot_range(k: usize, n_slots: usize) -> Range<usize> {
        k * n_slots..(k + 1) * n_slots
    }

    /// Byte offset of `(k, slot)`'s region in the shared arena.
    #[inline]
    pub const fn arena_offset(k: usize, n_slots: usize, capacity: usize, slot: usize) -> usize {
        slot_index(k, n_slots, slot) * capacity
    }

    /// The half-open range of arena bytes owned by register `k`.
    #[inline]
    pub const fn arena_range(k: usize, n_slots: usize, capacity: usize) -> Range<usize> {
        arena_offset(k, n_slots, capacity, 0)..arena_offset(k + 1, n_slots, capacity, 0)
    }
}

/// Why a register was quarantined (§3.10). Mirrors the slab's sticky
/// `HEALTH_*` health-word codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The `current` word (or the word W2 displaced from it) named an
    /// out-of-range slot — the synchronization word was scribbled.
    BadCurrent,
    /// The publication journal held an impossible stage or an
    /// out-of-range slot.
    BadJournal,
    /// A slot recorded a payload length above the register's capacity.
    BadLength,
}

impl QuarantineReason {
    fn from_code(code: u64) -> Option<Self> {
        match code {
            HEALTH_BAD_CURRENT => Some(Self::BadCurrent),
            HEALTH_BAD_JOURNAL => Some(Self::BadJournal),
            HEALTH_BAD_LEN => Some(Self::BadLength),
            _ => None,
        }
    }
}

/// Health of one register of a group (§3.10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterHealth {
    /// All scrubbed invariants hold.
    Healthy,
    /// A scrub or an in-protocol check found this register's ledger
    /// scribbled. Writer handles are refused ([`HandleError::Quarantined`])
    /// for the life of the plane; reads degrade to the last publication
    /// completed before quarantine. The rest of the plane is unaffected.
    Quarantined {
        /// What the detector found.
        reason: QuarantineReason,
        /// The published version at the moment of quarantine: degraded
        /// reads serve at most this publication, which bounds their
        /// staleness.
        last_good_version: u64,
    },
}

/// One quarantined register in a [`HealthReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedRegister {
    /// Register index.
    pub register: usize,
    /// What the detector found.
    pub reason: QuarantineReason,
    /// Published version at the moment of quarantine (staleness bound of
    /// degraded reads).
    pub last_good_version: u64,
}

/// Plane-wide health survey ([`ArcGroup::health_report`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Registers surveyed (the whole plane).
    pub registers: usize,
    /// Every quarantined register, ascending by index.
    pub quarantined: Vec<QuarantinedRegister>,
}

impl HealthReport {
    /// Whether every register is healthy.
    pub fn all_healthy(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// What one [`ArcGroup::scrub`] pass found (§3.10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Registers whose invariants were re-validated (the whole plane).
    pub registers_scrubbed: usize,
    /// Registers this pass newly quarantined.
    pub newly_quarantined: usize,
    /// Total quarantined registers after the pass (including older ones).
    pub quarantined_total: usize,
    /// Whether the superblock still validates (magic, version, checksum,
    /// geometry). A scribbled superblock cannot be quarantined away — it
    /// taints the plane and is surfaced here for the supervisor to report.
    pub superblock_ok: bool,
}

/// Point-in-time probe of one register's writer-liveness signals
/// ([`ArcGroup::writer_probe`]), consumed by the §3.10 stall watchdog —
/// see [`crate::supervise::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterProbe {
    /// The writer lease (claimant pid; 0 = role free).
    pub lease: u64,
    /// The writer-progress odometer (ticked at publication start and
    /// completion; meaningless as a number, meaningful when it stops).
    pub heartbeat: u64,
    /// Whether the publication journal shows an operation in flight. Only
    /// a *mid-publication* writer can stall anything worth flagging — a
    /// writer suspended between operations holds no protocol resource.
    pub mid_publication: bool,
    /// Whether the lease belongs to a corpse: dead pid, or live pid whose
    /// birth token names a different incarnation (pid reuse).
    pub lease_dead: bool,
}

/// One register's hot coordination words, packed into a single
/// 64-byte-aligned line so neighboring registers never false-share.
///
/// `repr(C)` as well: the header lives inside the shared slab, so its
/// byte layout is part of the slab format (guarded by the superblock's
/// layout version, not by rustc's field-reordering whims).
#[repr(C, align(64))]
struct RegHeader {
    /// The packed `(index, counter)` synchronization word.
    current: AtomicU64,
    /// §3.4 free-slot hint ([`NO_HINT`] when empty).
    hint: AtomicUsize,
    /// Published-version event word (bumped after W2). Living in the
    /// header line is what makes [`ArcGroup::poll_changed`] one pass over
    /// adjacent 64 B lines.
    version: AtomicU64,
    /// Publication-journal stage word (§3.9: `STAGE_* << 32 | slot`).
    wip: AtomicU64,
    /// Publication-journal context (previous slot / displaced raw word).
    wip_old: AtomicU64,
    /// Writer lease: pid of the process holding the claim (0 = none).
    lease: AtomicU64,
    /// Live reader handles of this register.
    live_readers: AtomicU32,
    /// Reader handles created since the last write (churn guard).
    gen_joins: AtomicU32,
    /// Whether the register's unique writer role is claimed.
    writer_claimed: AtomicBool,
    /// The watchers' waiter word (raw.rs module docs): 0, or the version
    /// (low 32 bits) some watcher waits for. The writer wakes the
    /// watchers parked on `version` only when it is non-zero.
    waiters: AtomicU32,
}

impl RegHeader {
    fn new() -> Self {
        Self {
            current: AtomicU64::new(Current::fresh(0)),
            hint: AtomicUsize::new(NO_HINT),
            version: AtomicU64::new(0),
            wip: AtomicU64::new(0),
            wip_old: AtomicU64::new(0),
            lease: AtomicU64::new(0),
            live_readers: AtomicU32::new(0),
            gen_joins: AtomicU32::new(0),
            writer_claimed: AtomicBool::new(false),
            waiters: AtomicU32::new(0),
        }
    }
}

/// One slot of the slab: protocol counters + length + inline value buffer
/// fused into exactly one cache line.
///
/// `len` and `inline` are protocol-protected plain memory (written by the
/// writer between W1 and W2, read under a standing presence unit); the
/// counters are the slot's [`crate::raw`] metadata.
#[repr(C, align(64))]
struct PackedSlot {
    r_start: AtomicU32,
    r_end: AtomicU32,
    /// Value length; doubles as the placement tag (`<= INLINE_CAP` ⇒ the
    /// bytes are in `inline`, otherwise in the arena region of this slot).
    len: UnsafeCell<usize>,
    inline: UnsafeCell<[u8; INLINE_CAP]>,
}

// The slab density claim of the module docs: counters (8) + len (8) +
// inline (INLINE_CAP = 48) fill one 64-byte line with no padding — and
// both strides must match what SlabLayout::compute assumes.
const _: () = assert!(std::mem::size_of::<PackedSlot>() == SLOT_BYTES);
const _: () = assert!(std::mem::size_of::<RegHeader>() == HDR_BYTES);

// A PackedSlot is never constructed by value: the slab's zeroed slot
// region *is* the initial state (zero counters ⇒ free; `Current::fresh(0)
// == 0` makes slot 0 the valid initial publication of a zeroed header
// word — though headers are written explicitly for the NO_HINT sentinel).

// SAFETY: the UnsafeCell fields are accessed under the ARC protocol —
// writer-exclusive between select_slot and publish, shared under a
// standing presence unit otherwise (module docs).
unsafe impl Sync for PackedSlot {}
// SAFETY: the cells hold plain bytes/words; moving the slot between
// threads carries no thread-affine state.
unsafe impl Send for PackedSlot {}

/// View of one register's protocol words inside the slab: the
/// [`ArcCells`] implementation the wait-free protocol runs over.
///
/// Constructed only by [`ArcGroup::cells`] with an in-range `k`, so the
/// header reference is resolved once and the slot accessors can skip the
/// per-access bounds check — on the R2 fast path (a handful of ns) that
/// check is measurable.
pub(crate) struct GroupCells<'a> {
    g: &'a ArcGroup,
    /// This register's header line.
    header: &'a RegHeader,
    /// This register's slot run: `slots[k * n_slots ..][.. n_slots]`.
    slots: &'a [PackedSlot],
    /// This register's slot-version stamps (parallel to `slots`; kept out
    /// of the packed slot line, which is exactly full — module docs).
    versions: &'a [AtomicU64],
    /// This register's pin-registry run: `max_readers` entries recording
    /// which slot each reader currently pins (§3.9 reader-death sweep).
    pins: &'a [AtomicU64],
    /// This register's lease-extension run (§3.10): exactly four words —
    /// `[birth, heartbeat, health, last_good]` — always present (the
    /// region exists on every layout-v2 slab, heap or shm).
    ext: &'a [AtomicU64],
}

impl<'a> GroupCells<'a> {
    /// The futex word watchers park on: the low 32 bits of the version
    /// word, which a publication always changes (its next 2^32 − 1 values
    /// differ there).
    #[inline]
    fn futex_word(&self) -> *const u32 {
        let word = std::ptr::from_ref(&self.header.version).cast::<u32>();
        if cfg!(target_endian = "big") {
            word.wrapping_add(1)
        } else {
            word
        }
    }

    /// # Safety-relevant invariant
    ///
    /// `slot < n_slots` at every call site: protocol slot indices come
    /// from `current` (only ever published in-range), from the W1 scan
    /// (`0..n_slots`), or from candidates re-validated against
    /// `n_slots` before probing.
    #[inline]
    fn slot(&self, slot: usize) -> &'a PackedSlot {
        debug_assert!(slot < self.slots.len());
        // SAFETY: the invariant above; slots.len() == n_slots.
        unsafe { self.slots.get_unchecked(slot) }
    }
}

impl ArcCells for GroupCells<'_> {
    #[inline]
    fn n_slots(&self) -> usize {
        self.slots.len()
    }
    #[inline]
    fn current_word(&self) -> &AtomicU64 {
        &self.header.current
    }
    #[inline]
    fn hint_word(&self) -> &AtomicUsize {
        &self.header.hint
    }
    #[inline]
    fn r_start(&self, slot: usize) -> &AtomicU32 {
        &self.slot(slot).r_start
    }
    #[inline]
    fn r_end(&self, slot: usize) -> &AtomicU32 {
        &self.slot(slot).r_end
    }
    #[inline]
    fn live_readers_word(&self) -> &AtomicU32 {
        &self.header.live_readers
    }
    #[inline]
    fn gen_joins_word(&self) -> &AtomicU32 {
        &self.header.gen_joins
    }
    #[inline]
    fn writer_claimed_word(&self) -> &AtomicBool {
        &self.header.writer_claimed
    }
    #[inline]
    fn version_word(&self) -> &AtomicU64 {
        &self.header.version
    }
    #[inline]
    fn slot_version(&self, slot: usize) -> &AtomicU64 {
        debug_assert!(slot < self.versions.len());
        // SAFETY: same invariant as `slot` — protocol slot indices are
        // always in range; versions.len() == n_slots.
        unsafe { self.versions.get_unchecked(slot) }
    }
    #[inline]
    fn wip_word(&self) -> &AtomicU64 {
        &self.header.wip
    }
    #[inline]
    fn wip_old_word(&self) -> &AtomicU64 {
        &self.header.wip_old
    }
    #[inline]
    fn lease_word(&self) -> &AtomicU64 {
        &self.header.lease
    }
    #[inline]
    fn birth_word(&self) -> &AtomicU64 {
        &self.ext[0]
    }
    #[inline]
    fn heartbeat_word(&self) -> &AtomicU64 {
        &self.ext[1]
    }
    #[inline]
    fn health_word(&self) -> &AtomicU64 {
        &self.ext[2]
    }
    #[inline]
    fn last_good_word(&self) -> &AtomicU64 {
        &self.ext[3]
    }
    #[inline]
    fn pin_entries(&self) -> u32 {
        // With a registry, every group reader gets an entry: the region
        // holds `max_readers` entries and dead readers keep their join
        // (hence their entry) until swept, so a joining reader always
        // finds a free one — which is what makes the at-W2 census exact.
        // Registry-less slabs (heap default) report 0: readers run with
        // NO_PIN and the sweep/census walks are empty.
        self.pins.len() as u32
    }
    #[inline]
    fn pin_entry(&self, i: u32) -> &AtomicU64 {
        debug_assert!((i as usize) < self.pins.len());
        // SAFETY: callers index by a slot obtained from a successful claim
        // scan over `0..pin_entries()`; pins.len() == max_readers.
        unsafe { self.pins.get_unchecked(i as usize) }
    }
    #[inline]
    fn waiters_word(&self) -> &AtomicU32 {
        &self.header.waiters
    }
    fn park(&self, seen: u64, timeout: Option<std::time::Duration>) {
        futex_wait(self.futex_word(), seen as u32, timeout);
    }
    fn wake(&self) -> usize {
        // The futex first: threads parked in any process. Then this
        // mapping's stream wakers, which registered in the same waiter
        // word (`crate::watch`).
        futex_wake(self.futex_word()) + self.g.streams.wake_all()
    }
    #[inline]
    fn max_readers(&self) -> u32 {
        self.g.max_readers
    }
    #[inline]
    fn opts(&self) -> RawOptions {
        self.g.opts
    }
    #[inline]
    fn prefetch(&self, line: Line, intent: Intent) {
        // `wrapping_add`, not the unchecked accessors: R1 and the
        // candidate FIFO may name a slot no range check has vetted yet (a
        // scribbled word), and a prefetch of any address is harmless.
        let p = match line {
            Line::Slot(s) => self.slots.as_ptr().wrapping_add(s).cast::<u8>(),
            Line::Stamp(s) => self.versions.as_ptr().wrapping_add(s).cast::<u8>(),
        };
        #[cfg(test)]
        prefetch_log::record(p, intent);
        match intent {
            Intent::Read => prefetch_read(p),
            Intent::Write => prefetch_write(p),
        }
    }
}

/// The prefetches `GroupCells` issue on this thread while a test records
/// them: each line's address and intent.
#[cfg(test)]
mod prefetch_log {
    use std::cell::RefCell;

    use crate::raw::Intent;

    thread_local! {
        static LOG: RefCell<Option<Vec<(usize, Intent)>>> = const { RefCell::new(None) };
    }

    pub(crate) fn record(p: *const u8, intent: Intent) {
        LOG.with_borrow_mut(|log| {
            if let Some(log) = log {
                log.push((p as usize, intent));
            }
        });
    }

    /// Run `f` and return the prefetches it issued.
    pub(crate) fn of(f: impl FnOnce()) -> Vec<(usize, Intent)> {
        LOG.set(Some(Vec::new()));
        f();
        LOG.take().unwrap_or_default()
    }
}

/// How long a [`ArcGroup::recover`] call that lost the cross-process
/// arbitration waits for the winning claimant to release the token before
/// giving up and returning `lost_arbitration`. Long enough for any real
/// repair pass (microseconds per register); short enough that a claimant
/// that died mid-recovery (its successor steals the token on the *next*
/// call) cannot wedge the loser forever.
const RECOVERY_WAIT: std::time::Duration = std::time::Duration::from_secs(5);

/// [`ArcGroup::populate`] bits: the headers and the pin registry, which
/// both set constructors walk ...
const POPULATED_HEADERS_PINS: u8 = 1;
/// ... and the lease extension, which only a writer set's claims do.
const POPULATED_EXT: u8 = 2;
const POPULATED_ALL: u8 = POPULATED_HEADERS_PINS | POPULATED_EXT;

/// Builder for [`ArcGroup`].
#[derive(Debug, Clone)]
pub struct GroupBuilder {
    registers: usize,
    max_readers: u32,
    capacity: usize,
    n_slots: Option<usize>,
    opts: RawOptions,
    inline: bool,
    backend: SlabBackend,
    placement: SlabPlacement,
    pin_registry: Option<bool>,
    initial: Vec<u8>,
}

impl GroupBuilder {
    /// Start building a group of `registers` registers, each admitting up
    /// to `max_readers` concurrent readers and values of up to `capacity`
    /// bytes.
    pub fn new(registers: usize, max_readers: u32, capacity: usize) -> Self {
        Self {
            registers,
            max_readers,
            capacity,
            n_slots: None,
            opts: RawOptions::default(),
            inline: true,
            backend: SlabBackend::Heap,
            placement: SlabPlacement::default(),
            pin_registry: None,
            initial: Vec::new(),
        }
    }

    /// Initial value of every register (Algorithm 1); empty by default.
    pub fn initial(mut self, value: &[u8]) -> Self {
        self.initial = value.to_vec();
        self
    }

    /// Override the per-register slot count (default `max_readers + 2`).
    /// Fewer slots forfeit writer wait-freedom — ablation use only.
    pub fn slots(mut self, n_slots: usize) -> Self {
        self.n_slots = Some(n_slots);
        self
    }

    /// Enable/disable the §3.4 free-slot hint (default on).
    pub fn hint(mut self, on: bool) -> Self {
        self.opts.hint = on;
        self
    }

    /// Enable/disable the R2 no-RMW read fast path (default on).
    pub fn fast_path(mut self, on: bool) -> Self {
        self.opts.fast_path = on;
        self
    }

    /// Enable/disable inline storage of small payloads (default on).
    pub fn inline(mut self, on: bool) -> Self {
        self.inline = on;
        self
    }

    /// Choose the slab storage backend (default [`SlabBackend::Heap`]).
    ///
    /// [`SlabBackend::Shm`] puts the slab on a shareable `memfd`
    /// (Linux-only; elsewhere `build` reports
    /// [`BuildError::Slab`]`(`[`SlabError::Unsupported`]`)`), so other
    /// processes can map the same registers via [`ArcGroup::attach_fd`].
    pub fn backend(mut self, backend: SlabBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Request a page-size / NUMA placement for the slab (§3.11). Only
    /// meaningful with [`SlabBackend::Shm`]; heap slabs ignore it. Every
    /// part of the request is best-effort with a transparent fallback —
    /// check [`ArcGroup::placement`] for what actually materialized.
    pub fn placement(mut self, placement: SlabPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Whether the slab carries the §3.9 reader pin registry
    /// (`K × max_readers` words attributing each standing pin to a pid so
    /// recovery can sweep dead readers and take the at-W2 census).
    ///
    /// Defaults to the backend's need: **on** for [`SlabBackend::Shm`]
    /// (the registry is what makes a crashed process's pins sweepable
    /// from a surviving mapping), **off** for [`SlabBackend::Heap`] — an
    /// in-process reader cannot die without taking the slab with it, so
    /// the region would be dead weight. Opt in on a heap slab only when
    /// driving [`ArcGroup::recover_with`] with a custom liveness oracle
    /// (e.g. sweeping handles a supervisor decided to abandon).
    pub fn pin_registry(mut self, on: bool) -> Self {
        self.pin_registry = Some(on);
        self
    }

    /// Build the group (one slab allocation regardless of K).
    pub fn build(self) -> Result<Arc<ArcGroup>, BuildError> {
        self.build_group().map(Arc::new)
    }

    /// [`GroupBuilder::build`] without the `Arc`, for the K = 1 views
    /// ([`crate::ArcRegister`], [`crate::TypedArc`]) that embed the group
    /// by value: their handles then reach the slab through one pointer,
    /// exactly like a [`GroupReader`]'s.
    pub(crate) fn build_group(self) -> Result<ArcGroup, BuildError> {
        if self.registers == 0 {
            return Err(BuildError::ZeroRegisters);
        }
        let spec = RegisterSpec::new(self.max_readers as usize, self.capacity);
        validate_spec(spec, &self.initial, Some(MAX_READERS as usize))?;
        let n_slots = self.n_slots.unwrap_or(self.max_readers as usize + 2);
        if n_slots < 3 {
            return Err(ConfigError::TooFewSlots { n_slots }.into());
        }
        if n_slots >= 1 << SLOT_INDEX_BITS {
            return Err(ConfigError::SlotIndexWidth { n_slots, bits: SLOT_INDEX_BITS }.into());
        }
        let mut flags = 0;
        if self.inline {
            flags |= FLAG_INLINE;
        }
        if self.opts.hint {
            flags |= FLAG_HINT;
        }
        if self.opts.fast_path {
            flags |= FLAG_FAST_PATH;
        }
        if self.pin_registry.unwrap_or(matches!(self.backend, SlabBackend::Shm)) {
            flags |= FLAG_PINS;
        }
        let geometry = SlabGeometry {
            registers: self.registers,
            n_slots,
            capacity: self.capacity,
            max_readers: self.max_readers,
            flags,
        };
        let layout = SlabLayout::compute(geometry)?;
        let slab = match self.backend {
            SlabBackend::Heap => Slab::heap(layout.total)?,
            #[cfg(target_os = "linux")]
            SlabBackend::Shm => Slab::shm(layout.total, layout.arena_off, self.placement)?,
            #[cfg(not(target_os = "linux"))]
            SlabBackend::Shm => {
                return Err(BuildError::Slab(SlabError::Unsupported {
                    what: "shared-memory slabs (memfd_create) are Linux-only",
                }))
            }
        };
        // Region initialization: a zeroed slab is already a valid slot /
        // version / pin state (`Current::fresh(0) == 0`, empty registry),
        // so only the headers need their non-zero words (the NO_HINT
        // sentinel) written — O(K), not O(K * n_slots). A shm slab's
        // protocol pages are already mapped (`Slab::shm`).
        let hdr = slab.base().wrapping_add(layout.hdr_off).cast::<RegHeader>();
        for k in 0..self.registers {
            // SAFETY: the header region holds `registers` RegHeader-sized,
            // 64-byte-aligned cells inside the freshly created mapping,
            // which nothing else references yet.
            unsafe { hdr.add(k).write(RegHeader::new()) };
        }
        let group = ArcGroup {
            slab,
            layout,
            populated: AtomicU8::new(POPULATED_ALL),
            streams: StreamWakers::default(),
            registers: self.registers,
            n_slots,
            capacity: self.capacity,
            max_readers: self.max_readers,
            opts: self.opts,
            inline: self.inline,
        };
        // Algorithm 1 per register: the initial value goes to slot 0,
        // which every header already publishes. No handle exists yet, so
        // plain writes are race-free; the Arc construction publishes them.
        if !self.initial.is_empty() {
            for k in 0..self.registers {
                // SAFETY: exclusive access — the group is not shared yet.
                unsafe {
                    group.fill_slot(k, 0, self.initial.len(), |buf| {
                        buf.copy_from_slice(&self.initial)
                    });
                }
            }
        }
        // Stamp the superblock last: the Release store of the magic
        // publishes a fully initialized slab to any attacher.
        group.slab.superblock().initialize(&group.layout, group.slab.placement());
        Ok(group)
    }
}

/// The wakers of a mapping's version streams (`crate::watch`). Threads
/// park on a register's version word in the slab; a task cannot, so it
/// leaves its waker here and registers in the same waiter word, and the
/// writer's wake drains the list. Each entry is one-shot.
#[derive(Default)]
struct StreamWakers {
    /// Whether the list may hold a waker, so that a wake takes the lock
    /// only when a stream waits: without streams the writer's wake writes
    /// nothing in this mapping's memory, which the woken readers read.
    pending: AtomicBool,
    list: Mutex<Vec<Waker>>,
}

impl StreamWakers {
    /// Leave `waker` for the next wake. The caller then registers in the
    /// waiter word: that `SeqCst` RMW releases the `pending` store to the
    /// writer's `Acquire` load of the word.
    fn add(&self, waker: &Waker) {
        let mut list = self.list.lock().unwrap_or_else(|p| p.into_inner());
        if !list.iter().any(|w| w.will_wake(waker)) {
            list.push(waker.clone());
        }
        self.pending.store(true, Ordering::Relaxed);
    }

    /// Wake and forget every waker left; returns how many.
    fn wake_all(&self) -> usize {
        if !self.pending.load(Ordering::Relaxed) {
            return 0;
        }
        let woken = {
            let mut list = self.list.lock().unwrap_or_else(|p| p.into_inner());
            self.pending.store(false, Ordering::Relaxed);
            std::mem::take(&mut *list)
        };
        let n = woken.len();
        woken.into_iter().for_each(Waker::wake);
        n
    }
}

/// K wait-free (1,N) registers sharing one slab (module docs).
///
/// Create with [`ArcGroup::builder`]; hand out per-register
/// [`GroupWriter`]/[`GroupReader`] handles, or whole-group
/// [`GroupWriterSet`]/[`GroupReaderSet`] handles for batched access.
pub struct ArcGroup {
    /// The one mapping holding every region (module docs); all access is
    /// `slab.base() + layout.*_off + index * stride`.
    slab: Slab,
    /// Region offsets, computed at build / validated at attach.
    layout: SlabLayout,
    /// Which protocol regions this mapping has populated (`POPULATED_*`
    /// bits): all of them at build, none at attach.
    populated: AtomicU8,
    /// Wakers of this mapping's version streams. Process-local: a stream
    /// hears only publications made through this mapping.
    streams: StreamWakers,
    // Geometry copies (also recorded in the superblock): plain fields so
    // the hot paths don't chase through `layout.geometry`.
    registers: usize,
    n_slots: usize,
    capacity: usize,
    max_readers: u32,
    opts: RawOptions,
    inline: bool,
}

impl ArcGroup {
    /// Start building a group.
    pub fn builder(registers: usize, max_readers: u32, capacity: usize) -> GroupBuilder {
        GroupBuilder::new(registers, max_readers, capacity)
    }

    /// Number of registers in the group.
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// Slots per register (normally `max_readers + 2`).
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Maximum payload size in bytes per register.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Configured per-register reader cap `N`.
    pub fn max_readers(&self) -> u32 {
        self.max_readers
    }

    /// Whether payloads of at most [`INLINE_CAP`] bytes live in the slot
    /// line (default true; see [`GroupBuilder::inline`]).
    pub fn inline_enabled(&self) -> bool {
        self.inline
    }

    /// The storage backend this group's slab lives on.
    pub fn backend(&self) -> SlabBackend {
        self.slab.backend()
    }

    /// The slab's *effective* placement (§3.11): page rounding quantum,
    /// the page mode that materialized (hugetlb / THP-advised / base),
    /// and the node policy that actually applied. Read from the
    /// superblock, so an attacher sees the creator's placement.
    pub fn placement(&self) -> PlacementInfo {
        self.slab.superblock().placement_info()
    }

    /// The slab's recovery epoch: how many completed [`ArcGroup::recover`]
    /// passes have repaired this plane (0 = never damaged). Shared slab
    /// state — every attacher of the same memfd sees the same count.
    pub fn epoch(&self) -> u64 {
        self.slab.superblock().epoch()
    }

    /// The `memfd` backing this group's slab ([`SlabBackend::Shm`] only):
    /// pass it to another process (or call [`ArcGroup::attach_fd`] in this
    /// one) to map the same registers at a different base address.
    #[cfg(target_os = "linux")]
    pub fn memfd(&self) -> Option<std::os::fd::BorrowedFd<'_>> {
        self.slab.fd()
    }

    /// Attach to an existing shared slab by its `memfd`.
    ///
    /// The descriptor is duplicated, mapped shared, and the superblock is
    /// fully validated (magic, layout version, checksum, geometry,
    /// mapped size) before any pointer into the slab is formed — a torn,
    /// truncated, or foreign mapping is a typed [`SlabError`], never UB.
    ///
    /// The attached group drives the *same* registers as the originator:
    /// writer claims are plane-wide exclusive, reads are wait-free against
    /// writers in other processes. Check [`ArcGroup::needs_recovery`]
    /// before claiming roles on a plane whose previous users may have
    /// died.
    #[cfg(target_os = "linux")]
    pub fn attach_fd(fd: std::os::fd::BorrowedFd<'_>) -> Result<Arc<Self>, SlabError> {
        let slab = Slab::attach(fd)?;
        let layout = slab.superblock().validate(slab.len())?;
        let g = layout.geometry;
        let opts =
            RawOptions { hint: g.flags & FLAG_HINT != 0, fast_path: g.flags & FLAG_FAST_PATH != 0 };
        Ok(Arc::new(ArcGroup {
            slab,
            layout,
            populated: AtomicU8::new(0),
            streams: StreamWakers::default(),
            registers: g.registers,
            n_slots: g.n_slots,
            capacity: g.capacity,
            max_readers: g.max_readers,
            opts,
            inline: g.flags & FLAG_INLINE != 0,
        }))
    }

    /// Whether any register holds state only recovery may clear: a writer
    /// lease or a reader pin owned by a dead process. A `true` here means
    /// [`ArcGroup::writer`] / [`ArcGroup::writer_set`] on the affected
    /// registers fail with [`HandleError::NeedsRecovery`] until
    /// [`ArcGroup::recover`] runs — a damaged plane cannot be opened
    /// silently.
    pub fn needs_recovery(&self) -> bool {
        self.needs_recovery_with(pid_alive)
    }

    /// [`ArcGroup::needs_recovery`] with a custom liveness oracle
    /// (supervisors that track membership themselves; tests). `alive` is
    /// called at most once per distinct pid per call.
    pub fn needs_recovery_with(&self, alive: impl FnMut(u64) -> bool) -> bool {
        let live = &mut Liveness::new(alive);
        (0..self.registers).any(|k| recovery::register_needs_recovery(&self.cells(k), live))
    }

    /// Alias for [`ArcGroup::needs_recovery`]: the plane is poisoned by a
    /// process that died holding a role.
    pub fn poisoned(&self) -> bool {
        self.needs_recovery()
    }

    /// Repair every register damaged by a dead process (DESIGN.md §3.9):
    /// classify and finish (or discard) interrupted publications, release
    /// dead readers' pinned slots, and free their roles. Bumps the slab's
    /// recovery [`epoch`](ArcGroup::epoch) if anything was repaired.
    ///
    /// **Arbitrated across attachers** (§3.10): concurrent `recover` calls
    /// from several mappings of the same plane race for the superblock's
    /// recovery token; exactly one wins and repairs, the others wait
    /// (bounded) for the winner to release and return a report with
    /// [`RecoveryReport::lost_arbitration`] set. A token held by a dead
    /// process is stolen, so a claimant crashing mid-recovery cannot wedge
    /// the plane — the repairs are idempotent and the next claimant
    /// re-runs them.
    ///
    /// Caller contract: no *live* process is mid-operation on the damaged
    /// registers while this runs (live handles may exist, parked between
    /// operations). Surviving readers stay wait-free — recovery writes
    /// only words the dead writer would have written.
    pub fn recover(&self) -> RecoveryReport {
        let me = Identity::resolve().pid;
        if self.slab.superblock().try_claim_recovery(me, pid_alive) {
            let report = self.recover_with(pid_alive);
            self.slab.superblock().release_recovery(me);
            return report;
        }
        // Lost the race: wait for the winner to finish (or die — its
        // successor steals the token), then report having repaired
        // nothing ourselves.
        let deadline = std::time::Instant::now() + RECOVERY_WAIT;
        let mut backoff = sync_primitives::Backoff::new();
        while self.slab.superblock().recovery_claimant() != 0
            && std::time::Instant::now() < deadline
        {
            backoff.snooze();
        }
        RecoveryReport { lost_arbitration: true, ..RecoveryReport::default() }
    }

    /// [`ArcGroup::recover`] with a custom liveness oracle.
    ///
    /// `alive` is called at most once per distinct pid per call, plus
    /// once before each repair (a dead writer's lease, a dead reader's
    /// pin), which it confirms: a pid that came back to life meanwhile
    /// keeps its role.
    ///
    /// Reader-pin sweeps (and the at-W2 census) read the pin registry,
    /// which shm slabs always carry; on a heap slab enable it with
    /// [`GroupBuilder::pin_registry`] or sweeps find nothing. Writer
    /// (lease/journal) recovery works on every layout.
    pub fn recover_with(&self, alive: impl FnMut(u64) -> bool) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut live = Liveness::new(alive);
        for k in 0..self.registers {
            recovery::recover_register(&self.cells(k), &mut live, &mut report);
        }
        if report.repaired_anything() {
            self.slab.superblock().bump_epoch();
        }
        report
    }

    /// Health of register `k` (§3.10): healthy, or quarantined with the
    /// reason and the staleness bound of degraded reads. Wait-free (two
    /// loads); safe from any thread without a handle.
    pub fn register_health(&self, k: usize) -> RegisterHealth {
        self.check_index(k);
        let cells = self.cells(k);
        let code = cells.health_word().load(Ordering::Acquire);
        match QuarantineReason::from_code(code) {
            None => RegisterHealth::Healthy,
            Some(reason) => RegisterHealth::Quarantined {
                reason,
                last_good_version: cells.last_good_word().load(Ordering::Acquire),
            },
        }
    }

    /// Survey the whole plane's register health (§3.10).
    pub fn health_report(&self) -> HealthReport {
        let mut report = HealthReport { registers: self.registers, quarantined: Vec::new() };
        for k in 0..self.registers {
            if let RegisterHealth::Quarantined { reason, last_good_version } =
                self.register_health(k)
            {
                report.quarantined.push(QuarantinedRegister {
                    register: k,
                    reason,
                    last_good_version,
                });
            }
        }
        report
    }

    /// Re-validate the plane's invariants on a *live* mapping (§3.10):
    /// the superblock (magic, layout version, checksum, geometry) and,
    /// per register, that `current` names an in-range slot, that the
    /// publication journal holds a possible stage and slot, and that no
    /// slot records a payload length above the register's capacity.
    ///
    /// A register failing a check is quarantined — sticky, first reason
    /// wins — never repaired: scrubbing detects scribbles (which
    /// [`ArcGroup::attach_fd`] only catches at attach time), it does not
    /// pretend to undo them. Readers and writers of healthy registers are
    /// unaffected by a concurrent scrub: every check is a plain atomic
    /// load.
    pub fn scrub(&self) -> ScrubReport {
        let superblock_ok = self.slab.superblock().validate(self.slab.len()).is_ok();
        let mut newly = 0;
        let mut total = 0;
        for k in 0..self.registers {
            let cells = self.cells(k);
            let before = cells.health_word().load(Ordering::Acquire);
            if before == HEALTH_OK {
                self.scrub_register(&cells);
            }
            let after = cells.health_word().load(Ordering::Acquire);
            if after != HEALTH_OK {
                total += 1;
                if before == HEALTH_OK {
                    newly += 1;
                }
            }
        }
        ScrubReport {
            registers_scrubbed: self.registers,
            newly_quarantined: newly,
            quarantined_total: total,
            superblock_ok,
        }
    }

    /// One register's scrub checks (quarantines on first violation).
    fn scrub_register(&self, cells: &GroupCells<'_>) {
        // `current` must name an in-range slot.
        let cur = cells.current_word().load(Ordering::SeqCst);
        if index_of(cur) as usize >= self.n_slots {
            quarantine_on(cells, HEALTH_BAD_CURRENT);
            return;
        }
        // The journal must hold a possible stage, and any non-idle stage
        // an in-range slot.
        let w = cells.wip_word().load(Ordering::Acquire);
        let stage = wip_stage(w);
        if stage > STAGE_PUB_RAW || (stage != STAGE_IDLE && wip_slot(w) >= self.n_slots) {
            quarantine_on(cells, HEALTH_BAD_JOURNAL);
            return;
        }
        // No slot may claim more bytes than the register's capacity. The
        // length word is protocol-protected plain memory; the scrub reads
        // it through an atomic view (same size and alignment) so a racing
        // writer's store merely yields either value, never a tear.
        for slot in 0..self.n_slots {
            // SAFETY: AtomicUsize is layout-compatible with usize and the
            // cell lives in the always-mapped slot region; the atomic view
            // only loads.
            let len = unsafe { &*(cells.slot(slot).len.get() as *const AtomicUsize) }
                .load(Ordering::Relaxed);
            if len > self.capacity {
                quarantine_on(cells, HEALTH_BAD_LEN);
                return;
            }
        }
    }

    /// Probe register `k`'s writer-liveness signals for the §3.10 stall
    /// watchdog: the lease, the heartbeat odometer, whether a publication
    /// is in flight, and whether the lease belongs to a corpse. Wait-free;
    /// classification (with history) is [`crate::supervise::classify`].
    pub fn writer_probe(&self, k: usize) -> WriterProbe {
        self.check_index(k);
        self.writer_probe_in(k, &mut Liveness::new(pid_alive))
    }

    /// [`ArcGroup::writer_probe`] within the pass `live` belongs to.
    fn writer_probe_in(
        &self,
        k: usize,
        live: &mut Liveness<impl FnMut(u64) -> bool>,
    ) -> WriterProbe {
        let cells = self.cells(k);
        let lease = cells.lease_word().load(Ordering::Acquire);
        WriterProbe {
            lease,
            heartbeat: cells.heartbeat_word().load(Ordering::Acquire),
            mid_publication: wip_stage(cells.wip_word().load(Ordering::Acquire)) != STAGE_IDLE,
            lease_dead: recovery::lease_dead(&cells, lease, live),
        }
    }

    /// One watchdog probe pass, as [`crate::supervise::PlaneSupervisor`]
    /// runs it: every register's [`ArcGroup::writer_probe`], handed to
    /// `f` in register order, and the [`ArcGroup::needs_recovery`]
    /// answer, which it returns. One walk: each register's pins are
    /// checked right after its probe, until one reads dead. Each distinct
    /// pid is probed, and its birth token read, once for the whole pass.
    pub fn probe_pass(&self, mut f: impl FnMut(usize, WriterProbe)) -> bool {
        let mut live = Liveness::new(pid_alive);
        let mut damaged = false;
        for k in 0..self.registers {
            let probe = self.writer_probe_in(k, &mut live);
            damaged = damaged || probe.lease_dead || recovery::pins_dead(&self.cells(k), &mut live);
            f(k, probe);
        }
        damaged
    }

    /// Fault injection: forge register `k`'s writer lease (pid + birth
    /// token) without claiming the role — simulates a claimant that
    /// vanished, or (with a live pid and a stale token) a recycled pid.
    /// Same philosophy as [`crate::crash`]: the harness drives the shipped
    /// bytes, so the hook ships. Not part of the supported API.
    #[doc(hidden)]
    pub fn fault_forge_lease(&self, k: usize, pid: u64, birth: u64) {
        self.check_index(k);
        let cells = self.cells(k);
        cells.birth_word().store(birth, Ordering::Relaxed);
        cells.lease_word().store(pid, Ordering::Release);
    }

    /// Fault injection: scribble register `k`'s `current` word with an
    /// arbitrary slot `index` (the §3.10 scrub/quarantine target). Not
    /// part of the supported API.
    #[doc(hidden)]
    pub fn fault_scribble_current(&self, k: usize, index: u64) {
        self.check_index(k);
        let cells = self.cells(k);
        let cur = cells.current_word().load(Ordering::SeqCst);
        cells.current_word().store(index << 32 | (cur & 0xFFFF_FFFF), Ordering::SeqCst);
    }

    /// Fault injection: scribble register `k`'s publication journal word.
    /// Not part of the supported API.
    #[doc(hidden)]
    pub fn fault_scribble_journal(&self, k: usize, word: u64) {
        self.check_index(k);
        self.cells(k).wip_word().store(word, Ordering::Release);
    }

    /// Fault injection: scribble the length word of slot `slot` of
    /// register `k`. Not part of the supported API.
    #[doc(hidden)]
    pub fn fault_scribble_len(&self, k: usize, slot: usize, len: usize) {
        self.check_index(k);
        assert!(slot < self.n_slots, "slot out of range");
        let cells = self.cells(k);
        // SAFETY: same atomic view as the scrubber's read — size- and
        // alignment-compatible, store-only.
        unsafe { &*(cells.slot(slot).len.get() as *const AtomicUsize) }
            .store(len, Ordering::Relaxed);
    }

    /// Live reader handles of register `k`.
    pub fn live_readers(&self, k: usize) -> u32 {
        self.check_index(k);
        self.header(k).live_readers.load(Ordering::Relaxed)
    }

    /// Outstanding presence units of register `k` (diagnostic; racy under
    /// concurrency, exact when quiescent).
    pub fn outstanding_units(&self, k: usize) -> u64 {
        self.check_index(k);
        outstanding_units_on(&self.cells(k))
    }

    /// Published version of register `k`: number of completed writes to it
    /// (0 = only the initial value). Monotone; safe to poll from any
    /// thread without a reader handle.
    #[inline]
    pub fn published_version(&self, k: usize) -> u64 {
        self.check_index(k);
        // Acquire pairs with the writer's post-W2 Release bump: a caller
        // that sees version v can immediately read publication v.
        self.header(k).version.load(Ordering::Acquire)
    }

    /// One-pass change poll: for every `(k, last_version)` watermark whose
    /// register has published past `last_version`, invoke `f(k, v)` with
    /// the version observed. Returns how many registers had changed.
    ///
    /// This is the batch edge of the watch layer: each probe is one
    /// `Acquire` load of the register's 64 B header line, so polling keys
    /// in ascending order walks adjacent lines sequentially (callers with
    /// sorted watch sets get hardware prefetch for free). Wait-free and
    /// handle-free — it never touches slots, readers, or locks.
    ///
    /// # Panics
    ///
    /// Panics if any key is out of range.
    pub fn poll_changed(
        &self,
        watermarks: &[(usize, u64)],
        mut f: impl FnMut(usize, u64),
    ) -> usize {
        let mut changed = 0;
        for &(k, last) in watermarks {
            self.check_index(k);
            let v = self.header(k).version.load(Ordering::Acquire);
            if v > last {
                changed += 1;
                f(k, v);
            }
        }
        changed
    }

    /// Block until register `k` publishes past `last`; returns the version
    /// observed. The caller parks on register `k`'s own version word in
    /// the slab (a futex on Linux), so only a publication of `k` wakes it,
    /// made through any mapping of the slab in any process. Opt-in and
    /// strictly outside the wait-free protocol.
    pub fn wait_for_update(&self, k: usize, last: u64) -> u64 {
        self.check_index(k);
        wait_for_version_on(&self.cells(k), last)
    }

    /// Like [`ArcGroup::wait_for_update`] with a timeout; `None` if it
    /// elapsed with no newer publication.
    pub fn wait_for_update_timeout(
        &self,
        k: usize,
        last: u64,
        timeout: std::time::Duration,
    ) -> Option<u64> {
        self.check_index(k);
        wait_for_version_timeout_on(&self.cells(k), last, timeout)
    }

    /// Register `k`'s waiter word (0 = no watcher registered).
    #[cfg(test)]
    pub(crate) fn waiters(&self, k: usize) -> u32 {
        self.header(k).waiters.load(Ordering::Relaxed)
    }

    /// A version stream's poll of register `k`: the published version if
    /// it is past `last`; otherwise `None`, with `waker` left for the next
    /// publication of this mapping (registered, then re-checked, as a
    /// parking thread does).
    pub(crate) fn poll_update(&self, k: usize, last: u64, waker: &Waker) -> Option<u64> {
        self.check_index(k);
        let v = self.published_version(k);
        if v > last {
            return Some(v);
        }
        self.streams.add(waker);
        register_watcher_on(&self.cells(k), last);
        let v = self.published_version(k);
        (v > last).then_some(v)
    }

    /// Bytes of memory the whole group owns (the slab — superblock +
    /// headers + slots + versions + pins + arena — plus the struct).
    /// Divide by [`ArcGroup::registers`] for the per-register footprint
    /// the `group_scaling` bench reports.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slab.len()
    }

    /// Claim the unique writer handle of register `k`.
    ///
    /// Fails with [`HandleError::NeedsRecovery`] if a dead process left
    /// this register's writer lease or a reader pin behind — run
    /// [`ArcGroup::recover`] first — and with [`HandleError::Quarantined`]
    /// if the register's ledger was found scribbled (§3.10; permanent).
    pub fn writer(self: &Arc<Self>, k: usize) -> Result<GroupWriter, HandleError> {
        self.check_index(k);
        GroupWriter::claim(self, k)
    }

    /// Register a reader handle on register `k` (up to `max_readers`
    /// concurrently per register).
    pub fn reader(self: &Arc<Self>, k: usize) -> Result<GroupReader, HandleError> {
        self.check_index(k);
        GroupReader::join(self, k)
    }

    /// Claim the writer role of **every** register, for batched writes.
    ///
    /// Fails (claiming nothing) with
    /// [`HandleError::WriterAlreadyClaimed`] if any register's writer is
    /// already out, [`HandleError::NeedsRecovery`] if any register was
    /// damaged by a dead process (run [`ArcGroup::recover`] first), or
    /// [`HandleError::Quarantined`] if a scrub pass benched any register
    /// (§3.10 — sticky for the life of the mapping).
    pub fn writer_set(self: &Arc<Self>) -> Result<GroupWriterSet, HandleError> {
        self.populate(POPULATED_ALL);
        // Resolved once, before the first claim's swap.
        let me = Identity::resolve();
        let mut live = Liveness::new(pid_alive);
        let mut mems = Vec::with_capacity(self.registers);
        for k in 0..self.registers {
            match self.claim_writer(k, &me, &mut live) {
                Ok(mem) => mems.push(mem),
                Err(e) => {
                    // Roll back the claims made so far.
                    for j in 0..k {
                        self.release_writer(j);
                    }
                    return Err(e);
                }
            }
        }
        Ok(GroupWriterSet { group: Arc::clone(self), mems, metrics: OpMetrics::default() })
    }

    /// Join **every** register as one reader, for batched reads.
    ///
    /// Counts as one of each register's `max_readers` reader handles;
    /// fails (joining nothing) if any register is at its cap.
    pub fn reader_set(self: &Arc<Self>) -> Result<GroupReaderSet, HandleError> {
        self.populate(POPULATED_HEADERS_PINS);
        let pid = Identity::resolve().pid;
        let mut rds = Vec::with_capacity(self.registers);
        for k in 0..self.registers {
            match self.join_reader(k, pid) {
                Ok(rd) => rds.push(rd),
                Err(e) => {
                    for (j, rd) in rds.into_iter().enumerate() {
                        self.leave_reader(j, rd);
                    }
                    return Err(e);
                }
            }
        }
        Ok(GroupReaderSet {
            group: Arc::clone(self),
            rds,
            scratch: Vec::new(),
            metrics: OpMetrics::default(),
        })
    }

    /// Map the protocol regions `need` names on this mapping, one
    /// populate each, unless this mapping has already: the loops of
    /// [`ArcGroup::writer_set`] and [`ArcGroup::reader_set`] then walk
    /// mapped pages instead of faulting one in per page. Single handles
    /// populate nothing, so a light attacher of a large plane stays cheap.
    fn populate(&self, need: u8) {
        if self.populated.load(Ordering::Relaxed) & need == need {
            return;
        }
        let l = &self.layout;
        self.slab.populate(l.hdr_off, l.slot_off - l.hdr_off);
        let end = if need & POPULATED_EXT != 0 { l.arena_off } else { l.ext_off };
        self.slab.populate(l.pin_off, end - l.pin_off);
        self.populated.fetch_or(need, Ordering::Relaxed);
    }

    /// Claim register `k`'s writer role (`k < registers`) for process
    /// `me`, refusing quarantined registers and ones a dead process left
    /// damaged (as `live`'s pass sees them); the claim hook of every
    /// writer handle.
    pub(crate) fn claim_writer(
        &self,
        k: usize,
        me: &Identity,
        live: &mut Liveness<impl FnMut(u64) -> bool>,
    ) -> Result<WriterMem, HandleError> {
        let cells = self.cells(k);
        if cells.health_word().load(Ordering::Acquire) != HEALTH_OK {
            return Err(HandleError::Quarantined);
        }
        if recovery::register_needs_recovery(&cells, live) {
            return Err(HandleError::NeedsRecovery);
        }
        let last_slot = writer_claim_on(&cells, me)?;
        Ok(WriterMem::new(last_slot, self.n_slots))
    }

    /// Release register `k`'s writer role (the drop hook of every writer
    /// handle).
    pub(crate) fn release_writer(&self, k: usize) {
        writer_release_on(&self.cells(k));
    }

    /// Join register `k` as a reader (`k < registers`) for process `pid`.
    pub(crate) fn join_reader(&self, k: usize, pid: u64) -> Result<RawReader, HandleError> {
        reader_join_on(&self.cells(k), pid)
    }

    /// Leave register `k`, releasing the reader's outstanding unit.
    pub(crate) fn leave_reader(&self, k: usize, rd: RawReader) {
        reader_leave_on(&self.cells(k), rd);
    }

    #[inline]
    fn check_index(&self, k: usize) {
        assert!(
            k < self.registers,
            "register index {k} out of range (group of {})",
            self.registers
        );
    }

    /// This register's header line inside the slab.
    ///
    /// Callers guarantee `k < registers`. The header region was
    /// initialized at build (or by the originating process of an attached
    /// slab — any bit pattern is a *valid* RegHeader, validation merely
    /// vouches for the offsets), is 64-byte aligned by layout, and lives
    /// as long as the slab, i.e. as long as `self`.
    #[inline]
    fn header(&self, k: usize) -> &RegHeader {
        debug_assert!(k < self.registers);
        // SAFETY: per above — in-bounds (layout.hdr_off + k * 64 for
        // k < registers is inside the mapping by SlabLayout::compute),
        // aligned, initialized, and borrow-tied to &self.
        unsafe { &*self.slab.base().add(self.layout.hdr_off).cast::<RegHeader>().add(k) }
    }

    /// Resolve register `k`'s cells view.
    ///
    /// Callers guarantee `k < registers` — every handle checks its index
    /// at creation and carries it immutably. Resolving the header and the
    /// slot run without per-call bounds checks keeps the R2 fast path to a
    /// few loads.
    #[inline]
    pub(crate) fn cells(&self, k: usize) -> GroupCells<'_> {
        debug_assert!(k < self.registers);
        let base = layout::slot_index(k, self.n_slots, 0);
        // SAFETY: k < registers, so header index k, the slot/version runs
        // [base, base + n_slots) and the pin run [k * max_readers,
        // (k+1) * max_readers) are all inside their regions, whose extents
        // SlabLayout::compute derived from exactly these bounds. Every
        // byte of the zeroed (or attached) regions is a valid value of
        // its type (atomics + UnsafeCell-wrapped plain data).
        unsafe {
            let slab = self.slab.base();
            GroupCells {
                g: self,
                header: self.header(k),
                slots: std::slice::from_raw_parts(
                    slab.add(self.layout.slot_off).cast::<PackedSlot>().add(base),
                    self.n_slots,
                ),
                versions: std::slice::from_raw_parts(
                    slab.add(self.layout.ver_off).cast::<AtomicU64>().add(base),
                    self.n_slots,
                ),
                pins: if self.layout.geometry.has_pin_registry() {
                    std::slice::from_raw_parts(
                        slab.add(self.layout.pin_off)
                            .cast::<AtomicU64>()
                            .add(k * self.max_readers as usize),
                        self.max_readers as usize,
                    )
                } else {
                    // No registry region (heap slabs by default): readers
                    // run with NO_PIN and every stamp is skipped.
                    &[]
                },
                // Four words per register (EXT_BYTES / 8), always present
                // on a layout-v2 slab.
                ext: std::slice::from_raw_parts(
                    slab.add(self.layout.ext_off).cast::<AtomicU64>().add(k * 4),
                    4,
                ),
            }
        }
    }

    /// Whether values of `len` bytes are stored in the slot line.
    #[inline]
    pub(crate) fn stored_inline(&self, len: usize) -> bool {
        self.inline && len <= INLINE_CAP
    }

    /// Slice view of the value in `cell` (= slot `slot` of register `k`,
    /// already resolved by the caller's [`GroupCells`]).
    ///
    /// # Safety
    ///
    /// Caller must hold read rights on `(k, slot)` per the protocol (a
    /// standing presence unit, or writer exclusivity), and `cell` must be
    /// that slot's cell.
    #[inline]
    unsafe fn slot_bytes_in(&self, cell: &PackedSlot, k: usize, slot: usize) -> &[u8] {
        // SAFETY: per the function contract the slot is stable; `len` was
        // written before the publication the caller's unit pins, and
        // deterministically selects the same placement the writer used.
        // Clamping to capacity turns a scribbled length word (§3.10) into
        // a short read instead of an out-of-bounds slice — free on the
        // fast path, and the scrubber quarantines the register besides.
        unsafe {
            let len = (*cell.len.get()).min(self.capacity);
            if self.stored_inline(len) {
                let inline: &[u8; INLINE_CAP] = &*cell.inline.get();
                &inline[..len]
            } else {
                let base = self.slab.base().add(self.layout.arena_off).add(layout::arena_offset(
                    k,
                    self.n_slots,
                    self.capacity,
                    slot,
                ));
                std::slice::from_raw_parts(base.cast_const(), len)
            }
        }
    }

    /// Write `len` bytes into slot `slot` of register `k` via `fill`, then
    /// record the length.
    ///
    /// # Safety
    ///
    /// Caller must hold *exclusive* write rights on `(k, slot)` per the
    /// protocol (between W1 and W2, or sole access at build time), with
    /// `k < registers` and `slot < n_slots`.
    #[inline]
    unsafe fn fill_slot(&self, k: usize, slot: usize, len: usize, fill: impl FnOnce(&mut [u8])) {
        let cell = self.cells(k).slot(slot);
        // SAFETY: exclusivity per the function contract; placement is the
        // same pure function of `len` that readers use.
        unsafe {
            let dst: &mut [u8] = if self.stored_inline(len) {
                let inline: &mut [u8; INLINE_CAP] = &mut *cell.inline.get();
                &mut inline[..len]
            } else {
                let base = self.slab.base().add(self.layout.arena_off).add(layout::arena_offset(
                    k,
                    self.n_slots,
                    self.capacity,
                    slot,
                ));
                std::slice::from_raw_parts_mut(base, len)
            };
            fill(dst);
            *cell.len.get() = len;
        }
    }

    /// The read hook of Algorithm 2: acquire register `k` with reader
    /// state `rd` (R1–R5), count the read in the handle's `m`, and return
    /// the slot to read. The typed register dereferences its side array
    /// through it.
    #[inline]
    pub(crate) fn acquire(&self, k: usize, rd: &mut RawReader, m: &mut OpMetrics) -> ReadOutcome {
        read_acquire_on(&self.cells(k), rd, m)
    }

    /// Read register `k` with reader state `rd`: the one snapshot read path
    /// of every byte-register handle.
    ///
    /// The snapshot borrows `rd` mutably for its whole life, so the pin it
    /// rests on cannot be released or moved while the bytes are visible.
    #[inline]
    pub(crate) fn read_in<'a>(
        &'a self,
        k: usize,
        rd: &'a mut RawReader,
        m: &mut OpMetrics,
    ) -> Snapshot<'a> {
        let cells = self.cells(k);
        let out = read_acquire_on(&cells, rd, m);
        // SAFETY: read_acquire pinned `(k, out.slot)` for this reader
        // state; the pin lasts until its next acquire or leave, and `rd`
        // stays mutably borrowed for the snapshot's lifetime.
        let bytes = unsafe { self.slot_bytes_in(cells.slot(out.slot), k, out.slot) };
        let inline = self.stored_inline(bytes.len());
        Snapshot::assemble(bytes, out, inline)
    }

    /// Acquire a zero-copy guard over register `k` with reader state `rd`;
    /// shared by every guard-returning read path.
    ///
    /// Splitting the borrows (`&self` for the slab, `&mut` for the reader
    /// state and the handle's counts) is what lets the guard hold all of
    /// them for its whole life.
    #[inline]
    pub(crate) fn read_ref_in<'a>(
        &'a self,
        k: usize,
        rd: &'a mut RawReader,
        m: &'a mut OpMetrics,
    ) -> ReadGuard<'a> {
        let cells = self.cells(k);
        let out = read_acquire_on(&cells, rd, m);
        // SAFETY: read_acquire pinned `(k, out.slot)` for this reader
        // state; the pin is held at least as long as the guard (the drop
        // probe only releases, never re-acquires), and `rd` is mutably
        // borrowed for that lifetime, so no other acquire can intervene.
        let bytes = unsafe { self.slot_bytes_in(cells.slot(out.slot), k, out.slot) };
        ReadGuard::assemble(bytes, out, rd, m, self, k)
    }

    /// The write hook of Algorithm 3 on register `k` (`raw::publish_with_on`:
    /// W1, `fill(slot)`, W2 + W3 under a `PublishGuard`), counted in the
    /// handle's `m`. Every writer handle, typed or byte, goes through here.
    #[inline]
    pub(crate) fn publish_with<R>(
        &self,
        k: usize,
        mem: &mut WriterMem,
        m: &mut OpMetrics,
        fill: impl FnOnce(usize) -> R,
    ) -> R {
        publish_with_on(&self.cells(k), mem, m, fill)
    }

    /// One byte write against register `k` (capacity check + W1 + copy +
    /// W2/W3), shared by all byte writer handles.
    #[inline]
    pub(crate) fn write_one(
        &self,
        k: usize,
        mem: &mut WriterMem,
        m: &mut OpMetrics,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), WriteError> {
        if len > self.capacity {
            return Err(WriteError::PayloadTooLarge { len, capacity: self.capacity });
        }
        self.publish_with(k, mem, m, |slot| {
            // SAFETY: publish_with hands over the slot W1 selected, which
            // is exclusively the writer's until the publish that follows.
            unsafe { self.fill_slot(k, slot, len, fill) }
        });
        Ok(())
    }
}

impl fmt::Debug for ArcGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArcGroup")
            .field("registers", &self.registers)
            .field("n_slots", &self.n_slots)
            .field("capacity", &self.capacity)
            .field("max_readers", &self.max_readers)
            .field("backend", &self.backend())
            .field("heap_bytes", &self.heap_bytes())
            .finish()
    }
}

pub(crate) mod sealed {
    /// Only this crate can make one (the field is private), so only it can
    /// call [`Sealed::slab_group`]: a bound on the public subtrait lets
    /// generic code call a supertrait's methods without naming the trait.
    pub struct Local(());

    pub(crate) const LOCAL: Local = Local(());

    /// What an owner gives this crate alone.
    pub trait Sealed {
        /// How handles store the register index: `usize` in a group, the
        /// zero-sized [`super::Register0`] on a one-register owner.
        type Index: Copy + Into<usize>;

        /// The owner's slab group. Outside code must not reach it: through
        /// a typed register's group it could clear the live writer's claim
        /// and store `T` from two writers at once.
        fn slab_group(&self, _: Local) -> &super::ArcGroup;
    }
}
pub(crate) use sealed::{Local, Sealed, LOCAL};

/// What a register handle keeps alive (sealed): an [`ArcGroup`], an
/// [`ArcRegister`](crate::ArcRegister) or a [`TypedArc`](crate::TypedArc).
///
/// The paper gives each register one write port and N read ports,
/// whatever its value type: [`GroupWriter`] and [`GroupReader`] are the
/// only handles, and the owner decides only their value methods, bytes
/// for a [`ByteOwner`], `T` for a `TypedArc<T>`.
///
/// Outside code can bound on the trait but cannot reach an owner's slab
/// group through it, neither on a concrete owner
///
/// ```compile_fail
/// use arc_register::{RegisterOwner, TypedArc};
/// let reg = TypedArc::new(1, 0u32);
/// let _ = reg.slab_group();
/// ```
///
/// nor through a generic bound:
///
/// ```compile_fail
/// use arc_register::{ArcGroup, RegisterOwner, TypedArc};
/// fn group_of<O: RegisterOwner>(owner: &O) -> &ArcGroup {
///     owner.slab_group(Default::default())
/// }
/// let reg = TypedArc::new(1, 0u32);
/// let _ = group_of(&*reg);
/// ```
pub trait RegisterOwner: Sealed {}

/// Owners whose registers hold byte strings, [`ArcGroup`] and
/// [`ArcRegister`](crate::ArcRegister) (sealed): their handles write
/// `&[u8]` and read [`Snapshot`]s and [`ReadGuard`]s over `[u8]`.
pub trait ByteOwner: RegisterOwner {}

impl Sealed for ArcGroup {
    type Index = usize;

    #[inline]
    fn slab_group(&self, _: Local) -> &ArcGroup {
        self
    }
}

impl RegisterOwner for ArcGroup {}

impl ByteOwner for ArcGroup {}

/// The register index of a one-register owner's handles: always 0 and
/// zero-sized, so such a handle stores no index and its paths need no
/// index arithmetic (DESIGN.md §3.5).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Register0;

impl From<Register0> for usize {
    fn from(_: Register0) -> usize {
        0
    }
}

/// The unique writer handle of one register: register `k` of a group, or
/// the one register of an [`ArcRegister`](crate::ArcRegister)
/// ([`ArcWriter`](crate::ArcWriter)) or a [`TypedArc`](crate::TypedArc)
/// ([`TypedWriter`](crate::TypedWriter)). `O` is what the handle keeps
/// alive.
pub struct GroupWriter<O: RegisterOwner = ArcGroup> {
    pub(crate) owner: Arc<O>,
    k: O::Index,
    pub(crate) mem: WriterMem,
    pub(crate) metrics: OpMetrics,
}

impl<O: RegisterOwner> GroupWriter<O> {
    /// Claim the writer role of register `k` (in range) of `owner`: the
    /// constructor behind every `writer` method.
    pub(crate) fn claim(owner: &Arc<O>, k: O::Index) -> Result<Self, HandleError> {
        let live = &mut Liveness::new(pid_alive);
        let mem = owner.slab_group(LOCAL).claim_writer(k.into(), &Identity::resolve(), live)?;
        Ok(Self { owner: Arc::clone(owner), k, mem, metrics: OpMetrics::default() })
    }

    /// Index of the register this writer owns (0 on a one-register owner).
    #[inline]
    pub fn index(&self) -> usize {
        self.k.into()
    }

    /// Slot index of the current publication.
    pub fn last_slot(&self) -> usize {
        self.mem.last_slot()
    }

    /// This handle's operation counts (writes, their RMWs and slot probes).
    pub fn metrics(&self) -> OpMetrics {
        self.metrics
    }

    /// What this writer keeps alive: its group, register or typed register.
    pub fn group(&self) -> &Arc<O> {
        &self.owner
    }
}

impl<O: ByteOwner> GroupWriter<O> {
    /// Store a new value into this register (Algorithm 3; wait-free, one
    /// memcpy).
    ///
    /// # Panics
    ///
    /// Panics if `value.len()` exceeds the register capacity.
    pub fn write(&mut self, value: &[u8]) {
        if let Err(e) = self.try_write(value) {
            panic!("{e}");
        }
    }

    /// Store a new value by filling exactly `len` bytes of the slot in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the register capacity.
    pub fn write_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        if let Err(e) = self.try_write_with(len, fill) {
            panic!("{e}");
        }
    }

    /// Fallible [`GroupWriter::write`]: an oversize payload is rejected
    /// with [`WriteError::PayloadTooLarge`] instead of a panic, and the
    /// register is untouched (no slot consumed, no version bumped).
    pub fn try_write(&mut self, value: &[u8]) -> Result<(), WriteError> {
        self.try_write_with(value.len(), |buf| buf.copy_from_slice(value))
    }

    /// Fallible [`GroupWriter::write_with`]; see [`GroupWriter::try_write`].
    ///
    /// A `fill` that panics unwinds through the panic-safe publication
    /// guard (DESIGN.md §3.13): the selected slot is discarded, the
    /// journal retired, and this handle stays valid — the next write
    /// proceeds normally.
    #[inline]
    pub fn try_write_with(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), WriteError> {
        let k = self.index();
        self.owner.slab_group(LOCAL).write_one(k, &mut self.mem, &mut self.metrics, len, fill)
    }
}

impl<O: RegisterOwner> fmt::Debug for GroupWriter<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupWriter")
            .field("k", &self.index())
            .field("last_slot", &self.last_slot())
            .finish()
    }
}

impl<O: RegisterOwner> Drop for GroupWriter<O> {
    #[inline]
    fn drop(&mut self) {
        self.owner.slab_group(LOCAL).release_writer(self.index());
    }
}

/// A reader handle (one per reading thread) on one register: register `k`
/// of a group, or the one register of an [`ArcRegister`](crate::ArcRegister)
/// ([`ArcReader`](crate::ArcReader)) or a [`TypedArc`](crate::TypedArc)
/// ([`TypedReader`](crate::TypedReader)). `O` is what the handle keeps
/// alive.
pub struct GroupReader<O: RegisterOwner = ArcGroup> {
    pub(crate) owner: Arc<O>,
    k: O::Index,
    /// Taken only by the drop.
    pub(crate) rd: Option<RawReader>,
    pub(crate) metrics: OpMetrics,
}

impl<O: RegisterOwner> GroupReader<O> {
    /// Join register `k` (in range) of `owner` as a reader: the
    /// constructor behind every `reader` method.
    pub(crate) fn join(owner: &Arc<O>, k: O::Index) -> Result<Self, HandleError> {
        let rd = owner.slab_group(LOCAL).join_reader(k.into(), Identity::resolve().pid)?;
        Ok(Self { owner: Arc::clone(owner), k, rd: Some(rd), metrics: OpMetrics::default() })
    }

    /// Index of the register this reader observes (0 on a one-register
    /// owner).
    #[inline]
    pub fn index(&self) -> usize {
        self.k.into()
    }

    /// Slot currently pinned by this handle, if it has read at least once.
    pub fn pinned_slot(&self) -> Option<usize> {
        self.rd.as_ref().and_then(|r| r.pinned_slot())
    }

    /// This handle's operation counts (fast and slow reads, their RMWs).
    pub fn metrics(&self) -> OpMetrics {
        self.metrics
    }

    /// What this reader keeps alive: its group, register or typed register.
    pub fn group(&self) -> &Arc<O> {
        &self.owner
    }
}

impl<O: ByteOwner> GroupReader<O> {
    /// Read the most recent value (Algorithm 2; wait-free, zero-copy). The
    /// [`Snapshot`]'s slot stays pinned until this handle's next read (or
    /// drop), the paper's read-completion semantics.
    #[inline]
    pub fn read(&mut self) -> Snapshot<'_> {
        let k = self.index();
        let rd = self.rd.as_mut().expect("reader state present until drop");
        self.owner.slab_group(LOCAL).read_in(k, rd, &mut self.metrics)
    }

    /// Read the most recent value as an RAII zero-copy [`ReadGuard`]
    /// (Algorithm 2). The guard's drop ends the read: if the register has
    /// moved on by then, the pin is released at once rather than at this
    /// handle's next read (DESIGN.md §3.8).
    #[inline]
    pub fn read_ref(&mut self) -> ReadGuard<'_> {
        let k = self.index();
        let rd = self.rd.as_mut().expect("reader state present until drop");
        self.owner.slab_group(LOCAL).read_ref_in(k, rd, &mut self.metrics)
    }

    /// Read the most recent value together with its publication version —
    /// [`GroupReader::read`] re-packaged for version-driven callers.
    #[inline]
    pub fn read_versioned(&mut self) -> Versioned<Snapshot<'_>> {
        let snap = self.read();
        Versioned { version: snap.version(), value: snap }
    }

    /// Copy the current value into `out`, returning its length. `out`'s
    /// capacity is reused and never shrunk, so a caller that keeps one
    /// `Vec` across reads makes no steady-state allocation. (Not named
    /// `read_into`, which would shadow [`ReadHandle::read_into`].)
    ///
    /// [`ReadHandle::read_into`]: register_common::traits::ReadHandle::read_into
    pub fn read_to_vec(&mut self, out: &mut Vec<u8>) -> usize {
        let guard = self.read_ref();
        register_common::copy::copy_to_vec(&guard, out)
    }

    /// Park until the register publishes past `last`, then read: the
    /// snapshot's version is at least `last + 1`, since the wake follows
    /// the W2 it announces. Waiting is outside the wait-free protocol
    /// ([`crate::watch`]). Loop: `last = r.wait_for_update(last).version()`.
    pub fn wait_for_update(&mut self, last: u64) -> Snapshot<'_> {
        self.owner.slab_group(LOCAL).wait_for_update(self.index(), last);
        self.read()
    }

    /// Like [`GroupReader::wait_for_update`] with a timeout: `None` if no
    /// newer publication arrived in time.
    pub fn wait_for_update_timeout(
        &mut self,
        last: u64,
        timeout: std::time::Duration,
    ) -> Option<Snapshot<'_>> {
        self.owner.slab_group(LOCAL).wait_for_update_timeout(self.index(), last, timeout)?;
        Some(self.read())
    }
}

impl<O: RegisterOwner> fmt::Debug for GroupReader<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupReader")
            .field("k", &self.index())
            .field("pinned_slot", &self.pinned_slot())
            .finish()
    }
}

impl<O: RegisterOwner> Drop for GroupReader<O> {
    #[inline]
    fn drop(&mut self) {
        if let Some(rd) = self.rd.take() {
            self.owner.slab_group(LOCAL).leave_reader(self.index(), rd);
        }
    }
}

/// The writer role of **every** register of a group, for batched writes.
///
/// Holds 16 bytes of packed writer memory per register; the per-register
/// candidate caches persist across batches, so steady-state slot selection
/// stays O(1) without any per-register heap state. One set of operation
/// counts covers the whole set.
pub struct GroupWriterSet {
    group: Arc<ArcGroup>,
    mems: Vec<WriterMem>,
    metrics: OpMetrics,
}

impl GroupWriterSet {
    /// Store a new value into register `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `value.len()` exceeds the capacity.
    #[inline]
    pub fn write(&mut self, k: usize, value: &[u8]) {
        if let Err(e) = self.try_write(k, value) {
            panic!("{e}");
        }
    }

    /// Store a new value into register `k` by filling the slot in place.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `len` exceeds the capacity.
    pub fn write_with(&mut self, k: usize, len: usize, fill: impl FnOnce(&mut [u8])) {
        if let Err(e) = self.try_write_with(k, len, fill) {
            panic!("{e}");
        }
    }

    /// Fallible form of [`GroupWriterSet::write`]: an oversized value
    /// returns [`WriteError::PayloadTooLarge`] without consuming a slot.
    /// An out-of-range `k` still panics — it is an indexing bug, not a
    /// runtime capacity condition.
    pub fn try_write(&mut self, k: usize, value: &[u8]) -> Result<(), WriteError> {
        self.try_write_with(k, value.len(), |buf| buf.copy_from_slice(value))
    }

    /// Fallible form of [`GroupWriterSet::write_with`]; see
    /// [`GroupWriterSet::try_write`].
    pub fn try_write_with(
        &mut self,
        k: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), WriteError> {
        self.group.check_index(k);
        self.group.write_one(k, &mut self.mems[k], &mut self.metrics, len, fill)
    }

    /// Apply a batch of `(register, value)` writes in one pass.
    ///
    /// Each write is individually wait-free and linearizable exactly as a
    /// single-register write; the batch amortizes the handle bookkeeping
    /// (one claim for the whole set, candidate caches warm across the
    /// pass) rather than changing semantics — a reader may observe any
    /// prefix-consistent subset of the batch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or any value exceeds capacity.
    pub fn write_batch(&mut self, ops: &[(usize, &[u8])]) {
        if let Err(e) = self.try_write_batch(ops) {
            panic!("{e}");
        }
    }

    /// Fallible form of [`GroupWriterSet::write_batch`]: stops at the
    /// first oversized value and returns its [`WriteError`]. Writes before
    /// the failing op are already published (each is individually
    /// linearizable — there is no batch atomicity to undo); the failing op
    /// and everything after it are untouched, so a caller can fix the
    /// offending value and resubmit the remaining suffix.
    pub fn try_write_batch(&mut self, ops: &[(usize, &[u8])]) -> Result<(), WriteError> {
        for &(k, value) in ops {
            self.try_write(k, value)?;
        }
        Ok(())
    }

    /// The group this writer set belongs to.
    pub fn group(&self) -> &Arc<ArcGroup> {
        &self.group
    }

    /// This set's operation counts, over every register it wrote.
    pub fn metrics(&self) -> OpMetrics {
        self.metrics
    }
}

impl fmt::Debug for GroupWriterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupWriterSet").field("registers", &self.mems.len()).finish()
    }
}

impl Drop for GroupWriterSet {
    fn drop(&mut self) {
        for k in 0..self.mems.len() {
            self.group.release_writer(k);
        }
    }
}

/// One reader over **every** register of a group, for batched reads.
pub struct GroupReaderSet {
    group: Arc<ArcGroup>,
    rds: Vec<RawReader>,
    /// Reusable key buffer for [`GroupReaderSet::read_many`].
    scratch: Vec<u32>,
    /// One set of operation counts for the whole set, not per register.
    metrics: OpMetrics,
}

impl GroupReaderSet {
    /// Read the most recent value of register `k` (wait-free, zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn read(&mut self, k: usize) -> Snapshot<'_> {
        self.group.check_index(k);
        self.group.read_in(k, &mut self.rds[k], &mut self.metrics)
    }

    /// Read the most recent value of register `k` as an RAII zero-copy
    /// guard (see [`ReadGuard`]); the whole set is mutably borrowed for
    /// the guard's life, so at most one guard per set exists at a time.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn read_ref(&mut self, k: usize) -> ReadGuard<'_> {
        self.group.check_index(k);
        self.group.read_ref_in(k, &mut self.rds[k], &mut self.metrics)
    }

    /// Read many registers in one pass, invoking `f(k, guard)` with a
    /// zero-copy [`ReadGuard`] per requested key. This is the **one**
    /// batched read implementation — [`GroupReaderSet::read_many`] and
    /// [`GroupReaderSet::read_many_versioned`] are copying/projecting
    /// wrappers over it.
    ///
    /// Keys are visited in **ascending register order** (not input order):
    /// the keys are sorted into a reusable scratch buffer so the slab is
    /// traversed sequentially — at 100k+ registers this turns random
    /// pointer-chasing into prefetch-friendly streaming. Duplicate keys
    /// are read once per occurrence.
    ///
    /// Each guard drops when its callback returns: a register whose value
    /// was re-published *while the callback ran* releases its pin right
    /// there instead of holding the superseded slot until the set's next
    /// pass over that key — which matters when K is large, passes are far
    /// apart, and callbacks do real work (DESIGN.md §3.8).
    ///
    /// # Panics
    ///
    /// Panics if any key is out of range.
    pub fn read_many_ref(&mut self, keys: &[usize], mut f: impl FnMut(usize, &ReadGuard<'_>)) {
        self.scratch.clear();
        self.scratch.reserve(keys.len());
        for &k in keys {
            self.group.check_index(k);
            self.scratch.push(k as u32);
        }
        self.scratch.sort_unstable();
        // The scratch buffer is disjoint from rds/group borrows below;
        // take it out to appease the borrow checker without reallocating.
        let scratch = std::mem::take(&mut self.scratch);
        for &k32 in &scratch {
            let k = k32 as usize;
            // Pin discipline: a duplicate key's later acquire only runs
            // after the earlier guard dropped (the callback returned).
            let guard = self.group.read_ref_in(k, &mut self.rds[k], &mut self.metrics);
            f(k, &guard);
        }
        self.scratch = scratch;
    }

    /// Read many registers in one pass, invoking `f(k, value)` for each
    /// requested key — the borrowing wrapper over
    /// [`GroupReaderSet::read_many_ref`] (ascending register order,
    /// duplicates preserved).
    ///
    /// # Panics
    ///
    /// Panics if any key is out of range.
    pub fn read_many(&mut self, keys: &[usize], mut f: impl FnMut(usize, &[u8])) {
        self.read_many_ref(keys, |k, guard| f(k, guard));
    }

    /// [`GroupReaderSet::read_many`] with publication versions: invokes
    /// `f(k, version, value)` per requested key (ascending register
    /// order, duplicates preserved). The version belongs to the exact
    /// value passed alongside it — pair with [`ArcGroup::poll_changed`]
    /// to re-read only the keys that moved. Wrapper over
    /// [`GroupReaderSet::read_many_ref`].
    ///
    /// # Panics
    ///
    /// Panics if any key is out of range.
    pub fn read_many_versioned(&mut self, keys: &[usize], mut f: impl FnMut(usize, u64, &[u8])) {
        self.read_many_ref(keys, |k, guard| f(k, guard.version(), guard));
    }

    /// The group this reader set belongs to.
    pub fn group(&self) -> &Arc<ArcGroup> {
        &self.group
    }

    /// This set's operation counts, over every register it read.
    pub fn metrics(&self) -> OpMetrics {
        self.metrics
    }
}

impl fmt::Debug for GroupReaderSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupReaderSet").field("registers", &self.rds.len()).finish()
    }
}

impl Drop for GroupReaderSet {
    fn drop(&mut self) {
        for (k, rd) in self.rds.drain(..).enumerate() {
            self.group.leave_reader(k, rd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(k: usize) -> Arc<ArcGroup> {
        ArcGroup::builder(k, 2, 64).initial(b"init").build().unwrap()
    }

    #[test]
    fn build_and_read_initial() {
        let g = small(8);
        assert_eq!(g.registers(), 8);
        assert_eq!(g.n_slots(), 4);
        for k in 0..8 {
            let mut r = g.reader(k).unwrap();
            assert_eq!(&*r.read(), b"init");
        }
    }

    /// Each prefetch asks for the line its operation touches next, with
    /// the intent that touch needs: a read shares every line it asks for,
    /// because all readers of the register share them, and a write owns
    /// the lines it stores to, never the header every reader loads.
    #[test]
    fn prefetches_name_their_lines_and_intents() {
        use crate::raw::current_index_on;
        use Intent::{Read, Write};

        let g = ArcGroup::builder(2, 1, 8).build().unwrap();
        let (mut w, mut r) = (g.writer(1).unwrap(), g.reader(1).unwrap());
        let cells = g.cells(1);
        let slot = |s: usize| std::ptr::from_ref(cells.slot(s)) as usize;
        let stamp = |s: usize| std::ptr::from_ref(cells.slot_version(s)) as usize;
        let header = std::ptr::from_ref(cells.header) as usize;

        let mut read = || {
            prefetch_log::of(|| {
                r.read();
            })
        };

        let first = current_index_on(&cells);
        assert_eq!(read(), [(slot(first), Read), (stamp(first), Read)], "first read");
        assert_eq!(read(), [(slot(first), Read)], "fast read: one shared hint, on the pinned slot");

        // Two writes past the reader's pin leave the older of them in the
        // writer's candidate FIFO, unread, for the write recorded next.
        w.write(b"a");
        let queued = current_index_on(&cells);
        w.write(b"b");
        let last = current_index_on(&cells);
        let hints = prefetch_log::of(|| w.write(b"c"));
        assert_eq!(current_index_on(&cells), queued, "the write takes the queued slot");
        assert_eq!(
            hints,
            [(slot(queued), Write), (stamp(queued), Write), (slot(last), Write)],
            "write: owned hints on the candidate, the new stamp and the old slot"
        );
        assert!(hints.iter().all(|&(p, _)| p / 64 != header / 64), "write hinted the header");

        assert_eq!(
            read(),
            [(slot(first), Read), (slot(queued), Read), (stamp(queued), Read)],
            "slow read: shared hints on the pinned slot, the new slot and its stamp"
        );
    }

    #[test]
    fn zero_registers_rejected() {
        assert!(matches!(ArcGroup::builder(0, 1, 16).build(), Err(BuildError::ZeroRegisters)));
    }

    #[test]
    fn builder_validates_like_single_register() {
        assert!(ArcGroup::builder(4, 0, 16).build().is_err());
        assert!(ArcGroup::builder(4, 1, 0).build().is_err());
        assert!(ArcGroup::builder(4, 1, 4).initial(&[0; 8]).build().is_err());
    }

    #[test]
    fn per_register_write_read_roundtrip() {
        let g = small(4);
        let mut writers: Vec<_> = (0..4).map(|k| g.writer(k).unwrap()).collect();
        let mut readers: Vec<_> = (0..4).map(|k| g.reader(k).unwrap()).collect();
        for (k, w) in writers.iter_mut().enumerate() {
            w.write(format!("value-{k}").as_bytes());
        }
        for (k, r) in readers.iter_mut().enumerate() {
            assert_eq!(&*r.read(), format!("value-{k}").as_bytes());
        }
    }

    #[test]
    fn neighboring_registers_do_not_interfere() {
        // A pinned snapshot on register 0 must survive arbitrarily many
        // writes to every other register (the slab non-interference the
        // model checker's two-register runs prove exhaustively).
        let g = small(3);
        let mut w1 = g.writer(1).unwrap();
        let mut w2 = g.writer(2).unwrap();
        let mut r0 = g.reader(0).unwrap();
        let snap = r0.read();
        let bytes = snap.bytes();
        for i in 0..200u8 {
            w1.write(&[i; 48]);
            w2.write(&[i ^ 0xFF; 64]);
        }
        assert_eq!(bytes, b"init", "cross-register write corrupted a pinned snapshot");
    }

    #[test]
    fn writer_role_is_unique_per_register() {
        let g = small(2);
        let w0 = g.writer(0).unwrap();
        assert!(matches!(g.writer(0), Err(HandleError::WriterAlreadyClaimed)));
        let _w1 = g.writer(1).expect("other registers unaffected");
        drop(w0);
        let _w0b = g.writer(0).expect("role reclaimable after drop");
    }

    #[test]
    fn reader_cap_is_per_register() {
        let g = small(2);
        let _a = g.reader(0).unwrap();
        let _b = g.reader(0).unwrap();
        assert!(matches!(g.reader(0), Err(HandleError::ReadersExhausted { max_readers: 2 })));
        let _c = g.reader(1).expect("other register has its own cap");
    }

    #[test]
    fn writer_set_claims_all_and_rolls_back() {
        let g = small(3);
        let w1 = g.writer(1).unwrap();
        assert!(matches!(g.writer_set(), Err(HandleError::WriterAlreadyClaimed)));
        // The failed claim must have rolled back register 0's claim.
        let w0 = g.writer(0).expect("rollback released register 0");
        drop(w0);
        drop(w1);
        let _set = g.writer_set().expect("all writers free now");
        assert!(matches!(g.writer(2), Err(HandleError::WriterAlreadyClaimed)));
    }

    #[test]
    fn write_batch_applies_all_ops() {
        let g = small(10);
        let mut set = g.writer_set().unwrap();
        let values: Vec<Vec<u8>> = (0..10u8).map(|k| vec![k; 8 + k as usize]).collect();
        let ops: Vec<(usize, &[u8])> =
            values.iter().enumerate().map(|(k, v)| (k, v.as_slice())).collect();
        set.write_batch(&ops);
        let mut readers = g.reader_set().unwrap();
        for (k, v) in values.iter().enumerate() {
            assert_eq!(&*readers.read(k), v.as_slice());
        }
    }

    #[test]
    fn repeated_batches_keep_candidate_caches_warm() {
        let g = small(4);
        let mut set = g.writer_set().unwrap();
        for round in 0..100u8 {
            let v = [round; 16];
            let ops: Vec<(usize, &[u8])> = (0..4).map(|k| (k, &v[..])).collect();
            set.write_batch(&ops);
        }
        let mut readers = g.reader_set().unwrap();
        for k in 0..4 {
            assert_eq!(&*readers.read(k), &[99u8; 16][..]);
        }
    }

    #[test]
    fn read_many_visits_sorted_and_complete() {
        let g = small(16);
        let mut set = g.writer_set().unwrap();
        for k in 0..16 {
            set.write(k, &[k as u8; 4]);
        }
        let mut readers = g.reader_set().unwrap();
        let keys = [9usize, 3, 14, 3, 0];
        let mut seen = Vec::new();
        readers.read_many(&keys, |k, v| {
            assert_eq!(v, &[k as u8; 4]);
            seen.push(k);
        });
        assert_eq!(seen, vec![0, 3, 3, 9, 14], "ascending order, duplicates preserved");
    }

    #[test]
    fn read_many_hits_fast_path_on_repeat() {
        let g = small(8);
        let mut readers = g.reader_set().unwrap();
        let keys: Vec<usize> = (0..8).collect();
        readers.read_many(&keys, |_, _| {});
        // Second pass with no writes: every read must be an R2 hit.
        for k in 0..8 {
            assert!(readers.read(k).fast(), "register {k} missed the fast path");
        }
    }

    #[test]
    fn snapshot_pin_survives_intervening_set_reads() {
        let g = small(4);
        let mut set = g.writer_set().unwrap();
        set.write(2, b"pin-me");
        let mut readers = g.reader_set().unwrap();
        let bytes = readers.read(2).bytes();
        // Writes to register 2 move it to fresh slots; the old pin holds
        // until THIS set re-reads register 2.
        for i in 0..50u8 {
            set.write(2, &[i; 32]);
        }
        assert_eq!(bytes, b"pin-me");
        assert_eq!(&*readers.read(2), &[49u8; 32][..]);
    }

    #[test]
    fn arena_payloads_roundtrip() {
        let g = ArcGroup::builder(6, 1, 256).build().unwrap();
        let mut set = g.writer_set().unwrap();
        let mut readers = g.reader_set().unwrap();
        for k in 0..6 {
            let v: Vec<u8> = (0..200).map(|i| (i ^ k) as u8).collect();
            set.write(k, &v);
            let snap = readers.read(k);
            assert_eq!(&*snap, &v[..], "register {k}");
            assert!(!snap.inline());
        }
    }

    #[test]
    fn inline_placement_flips_at_boundary() {
        let g = ArcGroup::builder(2, 1, 256).build().unwrap();
        let mut set = g.writer_set().unwrap();
        let mut readers = g.reader_set().unwrap();
        for len in [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 255, 256] {
            let v: Vec<u8> = (0..len).map(|i| (i * 3 + len) as u8).collect();
            set.write(0, &v);
            let snap = readers.read(0);
            assert_eq!(&*snap, &v[..], "len {len}");
            assert_eq!(snap.inline(), len <= INLINE_CAP, "placement at len {len}");
        }
    }

    #[test]
    fn inline_disabled_routes_through_arena() {
        let g = ArcGroup::builder(2, 1, 64).inline(false).build().unwrap();
        assert!(!g.inline_enabled());
        let mut set = g.writer_set().unwrap();
        set.write(1, b"tiny");
        let mut r = g.reader(1).unwrap();
        let snap = r.read();
        assert_eq!(&*snap, b"tiny");
        assert!(!snap.inline());
    }

    #[test]
    fn small_capacity_group_has_no_arena() {
        let g = ArcGroup::builder(100, 1, INLINE_CAP).build().unwrap();
        // header + slots + version stamps + lease extension: 64 +
        // 3*(64 + 8) + 32 per register (no pin registry on a heap slab),
        // plus the superblock and the struct amortized (≤ 8 B/register at
        // K = 100).
        let per_reg = g.heap_bytes() / 100;
        assert!(per_reg <= 64 + 3 * (64 + 8) + 32 + 8, "per-register {per_reg} bytes too high");
    }

    #[test]
    fn k1_degenerates_to_single_register_semantics() {
        let g = ArcGroup::builder(1, 2, 64).initial(b"seed").build().unwrap();
        let mut w = g.writer(0).unwrap();
        let mut r = g.reader(0).unwrap();
        assert_eq!(&*r.read(), b"seed");
        assert!(r.read().fast());
        w.write(b"next");
        let snap = r.read();
        assert!(!snap.fast());
        assert_eq!(&*snap, b"next");
        assert_eq!(g.outstanding_units(0), 1);
    }

    #[test]
    fn outstanding_units_tracked_per_register() {
        let g = small(3);
        let mut r0 = g.reader(0).unwrap();
        let mut r2 = g.reader(2).unwrap();
        let _ = r0.read();
        let _ = r2.read();
        assert_eq!(g.outstanding_units(0), 1);
        assert_eq!(g.outstanding_units(1), 0);
        assert_eq!(g.outstanding_units(2), 1);
        drop(r0);
        assert_eq!(g.outstanding_units(0), 0);
    }

    #[test]
    fn write_with_fills_in_place() {
        let g = small(2);
        let mut w = g.writer(1).unwrap();
        w.write_with(8, |buf| buf.copy_from_slice(b"in-place"));
        let mut r = g.reader(1).unwrap();
        assert_eq!(&*r.read(), b"in-place");
    }

    #[test]
    #[should_panic(expected = "exceeds register capacity")]
    fn oversized_write_panics() {
        let g = small(2);
        let mut w = g.writer(0).unwrap();
        w.write(&[0u8; 65]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_panics() {
        let g = small(2);
        let _ = g.reader(2);
    }

    #[test]
    fn every_register_reader_has_the_single_register_extras() {
        // Register 1 of a K = 2 group: the extras the K = 1 handles had.
        let g = ArcGroup::builder(2, 1, 4096).build().unwrap();
        let mut w = g.writer(1).unwrap();
        let mut r = g.reader(1).unwrap();
        assert_eq!(r.pinned_slot(), None, "no pin before the first read");
        assert_eq!(r.read_versioned().version, 0);
        assert_eq!(r.pinned_slot(), Some(0));
        let no_wait = std::time::Duration::from_millis(5);
        assert!(r.wait_for_update_timeout(0, no_wait).is_none());

        w.write(&[7u8; 4096]);
        let snap = r.wait_for_update_timeout(0, no_wait).expect("published");
        assert_eq!((snap.version(), snap.len()), (1, 4096));
        assert_eq!(r.pinned_slot(), Some(w.last_slot()));

        let mut out = Vec::new();
        assert_eq!(r.read_to_vec(&mut out), 4096);
        let (cap, ptr) = (out.capacity(), out.as_ptr());
        w.write(b"tiny");
        assert_eq!(r.read_to_vec(&mut out), 4);
        assert_eq!(out, b"tiny");
        assert_eq!(out.capacity(), cap, "read_to_vec must never shrink the buffer");
        assert_eq!(out.as_ptr(), ptr, "steady-state read_to_vec must not reallocate");
        let v = r.read_versioned();
        assert_eq!((v.version, &*v.value), (2, &b"tiny"[..]));
    }

    #[test]
    fn debug_impls() {
        let g = small(2);
        let w = g.writer(0).unwrap();
        let mut r = g.reader(1).unwrap();
        let set_dbg = format!("{g:?} {w:?} {r:?}");
        let _ = r.read();
        assert!(set_dbg.contains("ArcGroup") && set_dbg.contains("GroupWriter"));
    }

    #[test]
    fn versions_are_per_register_and_snapshots_carry_them() {
        let g = small(3);
        let mut set = g.writer_set().unwrap();
        set.write(1, b"a");
        set.write(1, b"b");
        set.write(2, b"c");
        assert_eq!(g.published_version(0), 0);
        assert_eq!(g.published_version(1), 2);
        assert_eq!(g.published_version(2), 1);
        let mut readers = g.reader_set().unwrap();
        assert_eq!(readers.read(0).version(), 0);
        assert_eq!(readers.read(1).version(), 2);
        assert_eq!(readers.read(2).version(), 1);
        // Fast-path re-read reports the cached version.
        let snap = readers.read(1);
        assert!(snap.fast());
        assert_eq!(snap.version(), 2);
    }

    #[test]
    fn poll_changed_reports_only_moved_registers() {
        let g = small(8);
        let mut set = g.writer_set().unwrap();
        let mut marks: Vec<(usize, u64)> = (0..8).map(|k| (k, 0)).collect();
        assert_eq!(g.poll_changed(&marks, |_, _| panic!("nothing changed yet")), 0);
        set.write(2, b"x");
        set.write(5, b"y");
        set.write(5, b"z");
        let mut seen = Vec::new();
        let changed = g.poll_changed(&marks, |k, v| seen.push((k, v)));
        assert_eq!(changed, 2);
        assert_eq!(seen, vec![(2, 1), (5, 2)]);
        // Advance the watermarks: the same state now reports clean.
        for (k, v) in seen {
            marks[k].1 = v;
        }
        assert_eq!(g.poll_changed(&marks, |_, _| panic!("watermarks advanced")), 0);
    }

    #[test]
    fn read_many_versioned_matches_poll_changed() {
        let g = small(6);
        let mut set = g.writer_set().unwrap();
        for round in 0..3 {
            for k in 0..6 {
                if (k + round) % 2 == 0 {
                    set.write(k, &[round as u8; 8]);
                }
            }
        }
        let marks: Vec<(usize, u64)> = (0..6).map(|k| (k, 0)).collect();
        let mut polled = std::collections::HashMap::new();
        g.poll_changed(&marks, |k, v| {
            polled.insert(k, v);
        });
        let mut readers = g.reader_set().unwrap();
        let keys: Vec<usize> = (0..6).collect();
        readers.read_many_versioned(&keys, |k, v, _| {
            // Quiescent: the version a read observes equals the version
            // poll_changed reported (or 0 where nothing was written).
            assert_eq!(v, polled.get(&k).copied().unwrap_or(0), "register {k}");
        });
    }

    #[test]
    fn group_wait_for_update_wakes_on_its_register_only_when_past() {
        let g = small(2);
        let waiter = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || g.wait_for_update(1, 0))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut set = g.writer_set().unwrap();
        // The waiter parks on register 1's own version word: a write to
        // register 0 wakes nobody, the write to register 1 releases it.
        set.write(0, b"other");
        std::thread::sleep(std::time::Duration::from_millis(5));
        set.write(1, b"mine");
        assert_eq!(waiter.join().unwrap(), 1);
        assert!(
            g.wait_for_update_timeout(0, 1, std::time::Duration::from_millis(5)).is_none(),
            "register 0 is still at version 1"
        );
    }

    #[test]
    fn stale_watcher_registrations_cost_at_most_one_idle_wake() {
        let g = small(2);
        let mut set = g.writer_set().unwrap();
        // A watcher killed after it registered, as it was about to park,
        // leaves its registration behind; so does a wait that timed out.
        crate::raw::register_watcher_on(&g.cells(0), g.published_version(0));
        assert!(g.wait_for_update_timeout(1, 0, std::time::Duration::from_millis(1)).is_none());
        assert!(g.waiters(0) != 0 && g.waiters(1) != 0, "both registrations are in place");
        for _ in 0..2 {
            set.write(0, b"x");
            set.write(1, b"y");
        }
        assert_eq!(
            (g.waiters(0), g.waiters(1)),
            (0, 0),
            "a registration nobody parks on outlived two publications"
        );
    }

    #[test]
    fn group_guards_are_zero_copy_and_release_stale_pins() {
        let g = small(3);
        let mut w = g.writer(1).unwrap();
        let mut r = g.reader(1).unwrap();
        w.write(b"old");
        {
            let guard = r.read_ref();
            w.write(b"new");
            assert_eq!(&*guard, b"old");
            assert_eq!(guard.version(), 1);
            assert_eq!(g.outstanding_units(1), 1);
        }
        assert_eq!(g.outstanding_units(1), 0, "stale pin must be released at guard drop");
        let guard = r.read_ref();
        assert_eq!(&*guard, b"new");
        assert_eq!(guard.version(), 2);
    }

    #[test]
    fn reader_set_read_ref_matches_read() {
        let g = small(4);
        let mut set = g.writer_set().unwrap();
        for k in 0..4 {
            set.write(k, &[k as u8 + 1; 16]);
        }
        let mut readers = g.reader_set().unwrap();
        for k in 0..4 {
            let via_guard = readers.read_ref(k).to_vec();
            let via_snap = readers.read(k).to_vec();
            assert_eq!(via_guard, via_snap, "register {k}");
            assert_eq!(via_guard, vec![k as u8 + 1; 16]);
        }
    }

    #[test]
    fn read_many_ref_visits_sorted_with_guards() {
        let g = small(16);
        let mut set = g.writer_set().unwrap();
        for k in 0..16 {
            set.write(k, &[k as u8; 4]);
        }
        let mut readers = g.reader_set().unwrap();
        let keys = [9usize, 3, 14, 3, 0];
        let mut seen = Vec::new();
        readers.read_many_ref(&keys, |k, guard| {
            assert_eq!(&**guard, &[k as u8; 4]);
            assert_eq!(guard.version(), 1);
            seen.push(k);
        });
        assert_eq!(seen, vec![0, 3, 3, 9, 14], "ascending order, duplicates preserved");
    }

    #[test]
    fn read_many_ref_releases_pins_superseded_mid_callback() {
        let g = small(2);
        let mut set = g.writer_set().unwrap();
        set.write(0, b"first");
        let mut readers = g.reader_set().unwrap();
        readers.read_many_ref(&[0], |_, guard| {
            // The writer publishes while the callback holds the guard.
            set.write(0, b"second");
            assert_eq!(&**guard, b"first");
        });
        // The guard dropped at callback end and saw the newer publication:
        // the pin is gone without another read of key 0.
        assert_eq!(g.outstanding_units(0), 0);
    }

    #[test]
    fn concurrent_smoke_across_registers() {
        // 4 registers, one writer thread per register via a shared
        // writer... writer roles are exclusive, so: one GroupWriterSet on
        // a thread hammering all registers, plus a reader thread per
        // register checking the no-torn invariant.
        let g = ArcGroup::builder(4, 4, 64).initial(&[0; 16]).build().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for k in 0..4 {
            let mut r = g.reader(k).unwrap();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                // One unconditional read before honoring `stop`: on a
                // single-core box the writer can finish and set `stop`
                // before this thread is first scheduled, and the
                // total-reads assertion below must not race the scheduler.
                let mut reads = 0u64;
                loop {
                    let snap = r.read();
                    let first = snap.first().copied().unwrap_or(0);
                    assert!(snap.iter().all(|&b| b == first), "torn read on register {k}");
                    reads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            }));
        }
        let mut set = g.writer_set().unwrap();
        for i in 0..20_000u32 {
            let k = (i % 4) as usize;
            set.write(k, &[(i % 251) as u8; 16]);
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
    }

    #[test]
    fn builder_reports_backend_and_epoch() {
        let g = small(2);
        assert_eq!(g.backend(), SlabBackend::Heap);
        assert_eq!(g.epoch(), 0);
        assert!(!g.needs_recovery());
        assert!(!g.poisoned());
        // A recovery pass over a healthy plane repairs nothing and does
        // not bump the epoch.
        let report = g.recover();
        assert!(!report.repaired_anything());
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(g.epoch(), 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn heap_backend_has_no_memfd() {
        assert!(small(2).memfd().is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn shm_backend_roundtrips_through_attach() {
        let g = ArcGroup::builder(4, 2, 256)
            .initial(b"seed")
            .backend(SlabBackend::Shm)
            .build()
            .unwrap();
        assert_eq!(g.backend(), SlabBackend::Shm);
        let fd = g.memfd().expect("shm slab has a memfd");
        let other = ArcGroup::attach_fd(fd).unwrap();
        assert_eq!(other.registers(), 4);
        assert_eq!(other.n_slots(), 4);
        assert_eq!(other.capacity(), 256);
        assert_eq!(other.max_readers(), 2);
        assert!(other.inline_enabled());
        assert_eq!(other.backend(), SlabBackend::Shm);

        // Same registers through both mappings, both directions, inline
        // and arena payloads.
        let mut w = g.writer(1).unwrap();
        let mut r = other.reader(1).unwrap();
        assert_eq!(&*r.read(), b"seed");
        w.write(b"through the plane");
        assert_eq!(&*r.read(), b"through the plane");
        let big: Vec<u8> = (0..200u8).collect();
        w.write(&big);
        let snap = r.read();
        assert_eq!(&*snap, &big[..]);
        assert!(!snap.inline());
        let mut w3 = other.writer(3).unwrap();
        w3.write(b"reverse");
        let mut r3 = g.reader(3).unwrap();
        assert_eq!(&*r3.read(), b"reverse");

        // Roles are plane-wide exclusive: the claim word lives in the
        // shared header, so the attached mapping sees register 1's writer
        // as taken.
        assert!(matches!(other.writer(1), Err(HandleError::WriterAlreadyClaimed)));
        drop(w);
        let _re = other.writer(1).expect("release is visible across mappings too");

        // Version words are shared state as well.
        assert_eq!(g.published_version(3), other.published_version(3));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn attached_group_outlives_the_originator() {
        let g = ArcGroup::builder(1, 1, 48)
            .initial(b"persist")
            .backend(SlabBackend::Shm)
            .build()
            .unwrap();
        let other = ArcGroup::attach_fd(g.memfd().unwrap()).unwrap();
        drop(g); // the memfd lives while any mapping holds a dup
        let mut r = other.reader(0).unwrap();
        assert_eq!(&*r.read(), b"persist");
    }

    #[test]
    fn forgotten_writer_is_recoverable_with_a_liveness_oracle() {
        let g = small(2);
        let mut w = g.writer(0).unwrap();
        w.write(b"last-published");
        std::mem::forget(w); // "crash": claim + lease stay behind
        assert!(!g.needs_recovery(), "this process is alive — no recovery yet");
        assert!(g.needs_recovery_with(|_| false), "a dead owner must be detected");
        assert!(matches!(g.writer(0), Err(HandleError::WriterAlreadyClaimed)));

        let report = g.recover_with(|_| false);
        assert_eq!(report.writers_recovered, 1);
        // Clean death (journal idle): no publication classification.
        assert_eq!((report.pre_w2, report.at_w2, report.post_w2), (0, 0, 0));
        assert_eq!(g.epoch(), 1);

        // The role is claimable again and the last publication survived.
        let mut w = g.writer(0).expect("recovery freed the role");
        let mut r = g.reader(0).unwrap();
        assert_eq!(&*r.read(), b"last-published");
        w.write(b"after recovery");
        assert_eq!(&*r.read(), b"after recovery");
    }

    #[test]
    fn forgotten_reader_pin_is_swept() {
        // Oracle-driven sweeps on a heap slab need the opt-in registry
        // (shm slabs carry it unconditionally).
        let g = ArcGroup::builder(2, 2, 64).initial(b"init").pin_registry(true).build().unwrap();
        let mut w = g.writer(0).unwrap();
        w.write(b"v1");
        let mut r = g.reader(0).unwrap();
        let _ = r.read(); // pin the current slot
        std::mem::forget(r);
        assert_eq!(g.live_readers(0), 1);
        assert_eq!(g.outstanding_units(0), 1);

        let report = g.recover_with(|_| false);
        assert_eq!(report.pins_swept, 1);
        assert_eq!(report.units_released, 1);
        assert_eq!(g.live_readers(0), 0);
        assert_eq!(g.outstanding_units(0), 0, "the orphaned unit must be released");
        // The swept reader's join no longer counts against the cap.
        let _a = g.reader(0).unwrap();
        let _b = g.reader(0).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn dead_lease_gates_writer_claim_until_recovered() {
        // A real dead pid: spawn a child and wait for it.
        let mut child = std::process::Command::new("true")
            .spawn()
            .or_else(|_| std::process::Command::new("sh").arg("-c").arg("exit 0").spawn())
            .expect("spawn a short-lived child");
        let dead_pid = child.id() as u64;
        child.wait().unwrap();

        let g = small(2);
        g.header(0).lease.store(dead_pid, Ordering::Relaxed);
        assert!(g.needs_recovery());
        assert!(g.poisoned());
        assert!(matches!(g.writer(0), Err(HandleError::NeedsRecovery)));
        assert!(matches!(g.writer_set(), Err(HandleError::NeedsRecovery)));
        let _unaffected = g.writer(1).expect("undamaged registers stay claimable");
        drop(_unaffected);

        let report = g.recover();
        assert_eq!(report.writers_recovered, 1);
        assert!(!g.needs_recovery());
        assert_eq!(g.epoch(), 1);
        let _w = g.writer(0).expect("recovered register is claimable");
    }

    #[test]
    fn forged_live_pid_with_stale_birth_token_counts_as_dead() {
        // The §3.10 pid-reuse regression: a lease naming a pid that is
        // *alive right now* but whose recorded birth token belongs to a
        // different incarnation must be treated as a corpse — before
        // lease v2 this deferred recovery forever.
        let g = small(2);
        let me = crate::shm::self_pid();
        g.fault_forge_lease(0, me, u64::MAX); // live pid, impossible birth
        assert!(g.needs_recovery(), "a recycled pid (birth mismatch) must read as a dead writer");
        let report = g.recover();
        assert_eq!(report.writers_recovered, 1);
        assert!(!report.lost_arbitration);
        assert!(!g.needs_recovery());

        // Control: a forged lease with *our* true birth token is a live
        // claimant — no recovery (pid-only semantics preserved).
        g.fault_forge_lease(1, me, crate::shm::Identity::resolve().birth);
        assert!(!g.needs_recovery(), "a matching birth token means the same incarnation");
    }

    #[test]
    fn scrub_detects_scribbled_journal_and_len() {
        let g = small(3);
        let clean = g.scrub();
        assert_eq!(clean.newly_quarantined, 0);
        assert_eq!(clean.quarantined_total, 0);
        assert!(clean.superblock_ok);
        assert_eq!(clean.registers_scrubbed, 3);

        // An impossible journal stage on register 0.
        g.fault_scribble_journal(0, (7u64 << 32) | 1);
        // A length above capacity on register 2.
        g.fault_scribble_len(2, 1, 1 << 40);
        let report = g.scrub();
        assert_eq!(report.newly_quarantined, 2);
        assert_eq!(report.quarantined_total, 2);
        assert!(report.superblock_ok);
        assert_eq!(
            g.register_health(0),
            RegisterHealth::Quarantined {
                reason: QuarantineReason::BadJournal,
                last_good_version: 0
            }
        );
        assert!(matches!(
            g.register_health(2),
            RegisterHealth::Quarantined { reason: QuarantineReason::BadLength, .. }
        ));
        assert_eq!(g.register_health(1), RegisterHealth::Healthy);

        // Quarantine is sticky and first-reason-wins; a second pass finds
        // nothing new.
        let again = g.scrub();
        assert_eq!(again.newly_quarantined, 0);
        assert_eq!(again.quarantined_total, 2);

        // Quarantined registers refuse writers; healthy ones don't.
        assert!(matches!(g.writer(0), Err(HandleError::Quarantined)));
        assert!(matches!(g.writer_set(), Err(HandleError::Quarantined)));
        let _w1 = g.writer(1).expect("healthy register stays claimable");
        let health = g.health_report();
        assert_eq!(health.registers, 3);
        assert_eq!(health.quarantined.len(), 2);
        assert!(!health.all_healthy());
    }

    #[test]
    fn quarantined_register_reads_degrade_to_last_known_good() {
        let g = small(2);
        let mut w = g.writer(0).unwrap();
        let mut r = g.reader(0).unwrap();
        w.write(b"good-1");
        w.write(b"good-2");
        let snap = r.read();
        assert_eq!(&*snap, b"good-2");
        assert_eq!(snap.version(), 2);
        drop(w);

        // Scribble the synchronization word with an out-of-range index:
        // the next slow-path read must detect it, quarantine the register,
        // and serve the last successfully acquired slot instead of
        // faulting.
        g.fault_scribble_current(0, 999);
        let snap = r.read();
        assert_eq!(&*snap, b"good-2", "degraded read serves last-known-good bytes");
        assert_eq!(snap.version(), 2, "staleness is bounded by the last good version");
        assert!(matches!(
            g.register_health(0),
            RegisterHealth::Quarantined { reason: QuarantineReason::BadCurrent, .. }
        ));
        // Repeated reads stay serviceable (and memory-safe).
        let snap = r.read();
        assert_eq!(&*snap, b"good-2");

        // The other register is untouched: no plane-wide poisoning.
        assert_eq!(g.register_health(1), RegisterHealth::Healthy);
        let mut w1 = g.writer(1).unwrap();
        w1.write(b"neighbor");
        let mut r1 = g.reader(1).unwrap();
        assert_eq!(&*r1.read(), b"neighbor");
    }

    #[test]
    fn writer_probe_reports_lease_and_heartbeat_motion() {
        let g = small(2);
        let p = g.writer_probe(0);
        assert_eq!(p.lease, 0);
        assert!(!p.mid_publication);
        assert!(!p.lease_dead);

        let mut w = g.writer(0).unwrap();
        let p1 = g.writer_probe(0);
        assert_eq!(p1.lease, crate::shm::self_pid());
        assert!(!p1.lease_dead, "our own live lease");
        w.write(b"tick");
        let p2 = g.writer_probe(0);
        assert!(p2.heartbeat > p1.heartbeat, "publication must move the heartbeat");
        assert!(!p2.mid_publication, "journal is idle between publications");
        drop(w);
        assert_eq!(g.writer_probe(0).lease, 0, "release clears the lease");
    }

    /// Set-up in bulk commits the protocol regions and nothing more: after
    /// a shm build every page below the arena is resident, and of the
    /// arena only the pages the initial value filled.
    #[cfg(target_os = "linux")]
    #[test]
    fn shm_build_commits_the_protocol_regions_and_no_more_of_the_arena() {
        let (registers, capacity) = (64, 4096);
        let initial = [9u8; 100];
        assert!(capacity > INLINE_CAP);
        let g = ArcGroup::builder(registers, 2, capacity)
            .backend(SlabBackend::Shm)
            .initial(&initial)
            .build()
            .unwrap();
        let page = crate::shm::page_len();
        let resident = g.slab.resident_pages();
        let arena_page = g.layout.arena_off.div_ceil(page);
        assert!(arena_page < resident.len(), "the slab must have arena pages");
        let unmapped: Vec<usize> = (0..arena_page).filter(|&p| !resident[p]).collect();
        assert!(unmapped.is_empty(), "protocol pages left to first touch: {unmapped:?}");
        let filled = |p: usize| {
            (0..registers).any(|k| {
                let at = g.layout.arena_off + layout::arena_offset(k, g.n_slots, capacity, 0);
                (at / page..=(at + initial.len() - 1) / page).contains(&p)
            })
        };
        let extra: Vec<usize> =
            (arena_page..resident.len()).filter(|&p| resident[p] && !filled(p)).collect();
        assert!(extra.is_empty(), "arena pages committed at set-up: {extra:?}");
        // The initial value reads back through a second mapping's sets.
        let other = ArcGroup::attach_fd(g.memfd().unwrap()).unwrap();
        let mut readers = other.reader_set().unwrap();
        assert_eq!(&*readers.read(registers - 1), &initial[..]);
    }

    /// A K = 64 shm plane, every register held by this process's writer
    /// set and pinned by its reader set.
    #[cfg(target_os = "linux")]
    fn held_plane() -> (Arc<ArcGroup>, GroupWriterSet, GroupReaderSet) {
        let g = ArcGroup::builder(64, 2, 48).backend(SlabBackend::Shm).build().unwrap();
        let writers = g.writer_set().unwrap();
        let mut readers = g.reader_set().unwrap();
        for k in 0..g.registers() {
            let _ = readers.read(k);
        }
        (g, writers, readers)
    }

    /// Once a process has resolved its identity, its claims and joins
    /// make no system call: no handle takes the cold resolve (a
    /// `getpid`), and a writer claim on a register this process's own
    /// reader pins asks no `kill(2)` about the pin.
    #[cfg(target_os = "linux")]
    #[test]
    fn claims_of_a_warm_process_make_no_system_call() {
        use crate::shm::{COLD_RESOLVES, KILLS};
        use std::cell::Cell;
        let me = Identity::resolve();
        assert_eq!(Identity::cached(), Some(me), "no identity page, or no birth in /proc");
        let register = crate::ArcRegister::builder(2, 64).build().unwrap();
        let cold = COLD_RESOLVES.with(Cell::get);
        for _ in 0..1000 {
            drop(register.writer().unwrap());
            drop(register.reader().unwrap());
        }
        assert_eq!(COLD_RESOLVES.with(Cell::get), cold, "a warm claim or join resolved cold");

        let plane = ArcGroup::builder(1, 2, 48).backend(SlabBackend::Shm).build().unwrap();
        let mut reader = plane.reader(0).unwrap();
        let _ = reader.read();
        assert!(plane.needs_recovery_with(|_| false), "the reader holds no pin");
        let kills = KILLS.with(Cell::get);
        let writer = plane.writer(0).unwrap();
        assert_eq!(KILLS.with(Cell::get), kills, "a claim asked kill(2) about its own pin");
        assert!(!plane.probe_pass(|_, probe| assert_eq!(probe.lease, me.pid)));
        assert_eq!(KILLS.with(Cell::get), kills, "a probe asked kill(2) about its own roles");
        drop((writer, reader));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn liveness_walks_ask_once_per_pid_and_once_per_repair() {
        let (g, _writers, _readers) = held_plane();
        let me = crate::shm::self_pid();
        let mut asked = Vec::new();
        assert!(!g.needs_recovery_with(|pid| {
            asked.push(pid);
            true
        }));
        assert_eq!(asked, [me], "needs_recovery_with asked about a pid more than once");
        asked.clear();
        let report = g.recover_with(|pid| {
            asked.push(pid);
            true
        });
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(asked, [me], "recover_with asked about a pid more than once");

        // Dead leases on 8 registers of a pinned plane: one question per
        // distinct pid, plus one confirming each repair.
        const DEAD: u64 = 0x7fff_fff0;
        let g = ArcGroup::builder(64, 2, 48).backend(SlabBackend::Shm).build().unwrap();
        let mut readers = g.reader_set().unwrap();
        for k in 0..g.registers() {
            let _ = readers.read(k);
        }
        for k in 0..8 {
            g.fault_forge_lease(k, DEAD, 0);
        }
        let mut calls = 0;
        let report = g.recover_with(|pid| {
            calls += 1;
            pid != DEAD
        });
        assert_eq!(report.writers_recovered, 8);
        assert!(calls <= 2 + 8, "{calls} oracle calls for 2 pids and 8 repairs");
        assert!(!g.needs_recovery());

        // Many distinct pids: each is asked about once.
        for k in 0..12 {
            g.fault_forge_lease(20 + k, 1000 + k as u64, 0);
        }
        let mut asked = Vec::new();
        assert!(!g.needs_recovery_with(|pid| {
            asked.push(pid);
            true
        }));
        let asked_len = asked.len();
        asked.sort_unstable();
        asked.dedup();
        assert_eq!((asked_len, asked.len()), (13, 13), "13 distinct pids, each asked once");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_dead_verdict_is_confirmed_before_a_repair_acts_on_it() {
        let (g, mut writers, mut readers) = held_plane();
        // Dead on the first question, alive on every later one: a pid
        // recycled, or a process slow to answer, during the pass.
        let mut asked = 0;
        let report = g.recover_with(|_| {
            asked += 1;
            asked > 1
        });
        assert_eq!(report.writers_recovered, 0, "a live claim was cleared: {report:?}");
        assert_eq!(report.pins_swept, 0, "a live pin was swept: {report:?}");
        assert_eq!(g.writer_probe(0).lease, crate::shm::self_pid());
        writers.write(0, b"still held");
        assert_eq!(&*readers.read(0), b"still held");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_dead_pin_verdict_is_confirmed_before_the_sweep_acts_on_it() {
        // Pins and no lease, so the first question about the reader's pid
        // comes from the pin sweep.
        let g = ArcGroup::builder(64, 2, 48)
            .backend(SlabBackend::Shm)
            .initial(b"pinned")
            .build()
            .unwrap();
        let mut readers = g.reader_set().unwrap();
        for k in 0..g.registers() {
            assert_eq!(&*readers.read(k), b"pinned");
        }
        let mut asked = 0;
        let report = g.recover_with(|_| {
            asked += 1;
            asked > 1
        });
        assert_eq!(report.pins_swept, 0, "a live pin was swept: {report:?}");
        assert_eq!(report, RecoveryReport::default());
        let mut writers = g.writer_set().unwrap();
        for k in 0..g.registers() {
            writers.write(k, b"still pinned");
            assert_eq!(&*readers.read(k), b"still pinned");
        }
    }

    #[test]
    fn layout_math_spot_checks() {
        assert_eq!(layout::slot_index(0, 3, 0), 0);
        assert_eq!(layout::slot_index(2, 3, 1), 7);
        assert_eq!(layout::slot_range(1, 4), 4..8);
        assert_eq!(layout::arena_offset(1, 3, 100, 2), 500);
        assert_eq!(layout::arena_range(2, 3, 10), 60..90);
    }
}
