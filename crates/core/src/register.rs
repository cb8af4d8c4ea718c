//! The byte-payload ARC register, [`ArcRegister`], and the one read guard
//! of every reader handle, [`ReadGuard`].
//!
//! This is the user-facing form of the paper's register: values are byte
//! strings of varying length (up to a fixed capacity), writes copy the new
//! value into a free slot exactly once, and reads return a **zero-copy**
//! view into the slot that stays valid until the same handle's next read —
//! the paper's "a read concludes when the reader reads again" semantics,
//! enforced at compile time by the borrow checker (`read` takes
//! `&mut self`, so the returned [`Snapshot`] must be dropped before the
//! next read).
//!
//! # One register, one slab
//!
//! An [`ArcRegister`] is a thin view over a one-register [`ArcGroup`], and
//! its handles are the group's: [`ArcWriter`] and [`ArcReader`] name
//! [`GroupWriter`] and [`GroupReader`] keeping an `Arc<ArcRegister>` alive
//! (one handle type per role; DESIGN.md §3.5). The group is embedded by
//! value, so a handle reaches the slab through one pointer, and its
//! register index is the constant 0. The safety architecture is the
//! slab's (see [`crate::group`]): the writer mutates a slot only between
//! W1 and W2, and a reader dereferences a slot only while holding an
//! unreleased presence unit on it.
//!
//! # Payload placement: inline vs arena
//!
//! Values of at most [`INLINE_CAP`] bytes are stored **inside the slot's
//! own cache line** (8 bytes of counters + 8 bytes of length + 48 inline
//! bytes = 64), so the R2 fast path touches exactly one payload line with
//! no pointer chase. Larger values go to the slab's byte arena (one
//! `capacity`-byte region per slot). Placement is a pure function of the
//! value length — `len <= INLINE_CAP` means inline — so readers never need
//! a separately-synchronized tag: the `len` word they already load *is*
//! the tag, written under the same protocol exclusivity as the bytes
//! themselves.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use register_common::traits::BuildError;
use register_common::OpMetrics;

use crate::errors::HandleError;
use crate::group::{
    ArcGroup, ByteOwner, GroupBuilder, GroupReader, GroupWriter, Local, Register0, RegisterOwner,
    Sealed,
};
use crate::raw::{guard_drop_on, RawReader, ReadOutcome};

/// Largest payload (bytes) stored inline in the slot cache line.
///
/// 48 = 64-byte line − 8 bytes of slot counters − 8-byte length word; the
/// whole slot record stays within one line.
pub const INLINE_CAP: usize = 48;

/// Builder for [`ArcRegister`].
///
/// The register is a one-register slab, so the slab's 31-bit slot index
/// bounds what can be built: `max_readers + 2` (or the [`slots`] override)
/// must stay below 2³¹, or [`build`] returns
/// [`ConfigError::SlotIndexWidth`] before allocating anything. The
/// `current` word's 2³² − 2 reader encoding is unchanged; it is the slot
/// array that cannot grow that far.
///
/// [`slots`]: ArcBuilder::slots
/// [`build`]: ArcBuilder::build
/// [`ConfigError::SlotIndexWidth`]: crate::ConfigError::SlotIndexWidth
#[derive(Debug, Clone)]
pub struct ArcBuilder {
    inner: GroupBuilder,
}

impl ArcBuilder {
    /// Start building a register for up to `max_readers` concurrent readers
    /// holding values of up to `capacity` bytes.
    pub fn new(max_readers: u32, capacity: usize) -> Self {
        Self { inner: GroupBuilder::new(1, max_readers, capacity) }
    }

    /// Initial register value (Algorithm 1); empty by default.
    pub fn initial(mut self, value: &[u8]) -> Self {
        self.inner = self.inner.initial(value);
        self
    }

    /// Override the slot count (default `max_readers + 2`, the classical
    /// lower bound). Fewer slots forfeit writer wait-freedom — ablation use
    /// only; fewer than 3 is a [`ConfigError::TooFewSlots`] build error.
    ///
    /// [`ConfigError::TooFewSlots`]: crate::ConfigError::TooFewSlots
    pub fn slots(mut self, n_slots: usize) -> Self {
        self.inner = self.inner.slots(n_slots);
        self
    }

    /// Enable/disable the §3.4 free-slot hint (default on).
    pub fn hint(mut self, on: bool) -> Self {
        self.inner = self.inner.hint(on);
        self
    }

    /// Enable/disable the R2 no-RMW read fast path (default on).
    pub fn fast_path(mut self, on: bool) -> Self {
        self.inner = self.inner.fast_path(on);
        self
    }

    /// Enable/disable inline storage of small payloads (default on).
    ///
    /// With inlining off every value — however small — lives in the byte
    /// arena; this exists so the benches can isolate the cost of the extra
    /// cache line (EXPERIMENTS.md, `inline_vs_arena`).
    pub fn inline(mut self, on: bool) -> Self {
        self.inner = self.inner.inline(on);
        self
    }

    /// Build the register: a one-register heap slab.
    ///
    /// Geometry the protocol cannot run on is a typed error, never a
    /// panic: [`BuildError::Config`] for too few slots or a slot count
    /// beyond the 31-bit index, the spec errors of [`BuildError`]
    /// otherwise.
    pub fn build(self) -> Result<Arc<ArcRegister>, BuildError> {
        Ok(Arc::new(ArcRegister { group: self.inner.build_group()? }))
    }
}

/// A wait-free multi-word atomic (1,N) register over byte payloads.
///
/// Create with [`ArcRegister::builder`], then split into one [`ArcWriter`]
/// (via [`ArcRegister::writer`]) and up to N [`ArcReader`]s (via
/// [`ArcRegister::reader`]).
pub struct ArcRegister {
    /// The one-register slab this register is a view of (register 0).
    group: ArcGroup,
}

impl ArcRegister {
    /// Start building a register.
    pub fn builder(max_readers: u32, capacity: usize) -> ArcBuilder {
        ArcBuilder::new(max_readers, capacity)
    }

    /// Convenience: build with defaults and an initial value.
    pub fn with_initial(
        max_readers: u32,
        capacity: usize,
        initial: &[u8],
    ) -> Result<Arc<ArcRegister>, BuildError> {
        Self::builder(max_readers, capacity).initial(initial).build()
    }

    /// Maximum payload size in bytes.
    pub fn capacity(&self) -> usize {
        self.group.capacity()
    }

    /// Whether payloads of at most [`INLINE_CAP`] bytes are stored inline
    /// in the slot line (default true; see [`ArcBuilder::inline`]).
    pub fn inline_enabled(&self) -> bool {
        self.group.inline_enabled()
    }

    /// Number of buffer slots (normally `N + 2`).
    pub fn n_slots(&self) -> usize {
        self.group.n_slots()
    }

    /// Configured reader cap `N`.
    pub fn max_readers(&self) -> u32 {
        self.group.max_readers()
    }

    /// Live reader handles.
    pub fn live_readers(&self) -> u32 {
        self.group.live_readers(0)
    }

    /// The published version: number of completed writes (0 = only the
    /// initial value). Monotone; safe to poll from any thread.
    #[inline]
    pub fn published_version(&self) -> u64 {
        self.group.published_version(0)
    }

    /// Outstanding presence units (diagnostic; racy under concurrency,
    /// exact when quiescent — then it equals the number of reader handles
    /// pinning a slot).
    pub fn outstanding_units(&self) -> u64 {
        self.group.outstanding_units(0)
    }

    /// Claim the unique writer handle.
    pub fn writer(self: &Arc<Self>) -> Result<ArcWriter, HandleError> {
        GroupWriter::claim(self, Register0)
    }

    /// Register a reader handle (up to `max_readers` concurrently).
    pub fn reader(self: &Arc<Self>) -> Result<ArcReader, HandleError> {
        GroupReader::join(self, Register0)
    }
}

impl Sealed for ArcRegister {
    type Index = Register0;

    #[inline]
    fn slab_group(&self, _: Local) -> &ArcGroup {
        &self.group
    }
}

impl RegisterOwner for ArcRegister {}

impl ByteOwner for ArcRegister {}

impl fmt::Debug for ArcRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArcRegister")
            .field("capacity", &self.capacity())
            .field("n_slots", &self.n_slots())
            .field("max_readers", &self.max_readers())
            .field("live_readers", &self.live_readers())
            .finish()
    }
}

/// The register's unique writer handle: the [`GroupWriter`] of its one
/// register.
pub type ArcWriter = GroupWriter<ArcRegister>;

/// A reader handle (one per reading thread): a [`GroupReader`] of the
/// register's one register.
pub type ArcReader = GroupReader<ArcRegister>;

/// A zero-copy view of the register value returned by [`ArcReader::read`].
///
/// Dereferences to `&[u8]`. Also reports the publication version, which
/// slot served the read and whether the no-RMW fast path was taken.
pub struct Snapshot<'a> {
    bytes: &'a [u8],
    slot: usize,
    fast: bool,
    inline: bool,
    version: u64,
}

impl<'a> Snapshot<'a> {
    /// Assemble a snapshot (the group read path's constructor).
    pub(crate) fn assemble(bytes: &'a [u8], out: ReadOutcome, inline: bool) -> Self {
        let ReadOutcome { slot, fast, version } = out;
        Self { bytes, slot, fast, inline, version }
    }

    /// Publication version of this value: the number of writes completed
    /// up to (and including) the one this read observes, 0 for the initial
    /// value. Per reader handle, versions never decrease and strictly
    /// increase whenever the observed value changes; feed it to
    /// [`ArcReader::wait_for_update`] or [`crate::ArcGroup::poll_changed`]
    /// to learn of the next write
    /// without re-reading.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The snapshot bytes with the full lifetime of the reader borrow.
    ///
    /// The slice outlives the `Snapshot` struct itself (the pin is held by
    /// the *handle* until its next read, not by this value).
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Slot index that served this read.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Whether the read took the no-RMW fast path (R2).
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// Whether the value was served from the slot-header inline storage
    /// (single cache line) rather than the byte arena.
    pub fn inline(&self) -> bool {
        self.inline
    }
}

impl Deref for Snapshot<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

impl fmt::Debug for Snapshot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("len", &self.bytes.len())
            .field("slot", &self.slot)
            .field("fast", &self.fast)
            .finish()
    }
}

/// An RAII **zero-copy pinned view** of a register value, returned by
/// every reader's `read_ref`: over `[u8]` (the default) for a byte
/// register or group, over `T` for a [`TypedArc<T>`](crate::TypedArc).
///
/// Dereferences to the value itself — the protocol-pinned bytes in the
/// slot line or the arena, or the `T` in its slot, never a copy. While the
/// guard lives, its slot holds a standing presence unit and cannot be
/// recycled or re-stamped by the writer (the writer stays wait-free
/// regardless — the `N + 2` slot budget covers one pinned slot per reader
/// handle, and a handle can hold at most one guard because the guard
/// borrows it mutably). On drop, the presence unit is released immediately
/// if the register has moved past the pinned publication; otherwise the
/// pin is kept cached in the handle so the next read hits the R2 fast path.
///
/// The borrow rules *are* the safety argument, enforced at compile time:
///
/// The guard cannot outlive its handle, byte or typed —
///
/// ```compile_fail
/// use arc_register::ArcRegister;
/// let reg = ArcRegister::builder(1, 64).initial(b"pinned").build().unwrap();
/// let mut r = reg.reader().unwrap();
/// let guard = r.read_ref();
/// drop(r); // ERROR: `r` is mutably borrowed by `guard`
/// assert_eq!(&*guard, b"pinned");
/// ```
///
/// ```compile_fail
/// use arc_register::TypedArc;
/// let reg = TypedArc::new(1, String::from("pinned"));
/// let mut r = reg.reader().unwrap();
/// let guard = r.read_ref();
/// drop(r); // ERROR: `r` is mutably borrowed by `guard`
/// assert_eq!(&*guard, "pinned");
/// ```
///
/// — the handle cannot read again while a guard is held —
///
/// ```compile_fail
/// use arc_register::ArcRegister;
/// let reg = ArcRegister::builder(1, 64).build().unwrap();
/// let mut r = reg.reader().unwrap();
/// let guard = r.read_ref();
/// let _ = r.read(); // ERROR: second mutable borrow of `r`
/// assert!(guard.is_empty());
/// ```
///
/// — and the bytes cannot escape the guard (unlike [`Snapshot::bytes`],
/// whose pin is *handle*-held, [`ReadGuard::bytes`] ties the slice to the
/// guard itself, because the drop may release the pin):
///
/// ```compile_fail
/// use arc_register::ArcRegister;
/// let reg = ArcRegister::builder(1, 64).initial(b"gone").build().unwrap();
/// let mut r = reg.reader().unwrap();
/// let bytes = {
///     let guard = r.read_ref();
///     guard.bytes() // ERROR: borrowed value does not live long enough
/// };
/// assert_eq!(bytes, b"gone");
/// ```
pub struct ReadGuard<'a, V: ?Sized = [u8]> {
    /// The pinned value (valid while the guard holds the unit).
    value: &'a V,
    slot: usize,
    fast: bool,
    version: u64,
    /// The owning handle's protocol state, mutably borrowed so the drop
    /// probe can release/keep the pin — and so no concurrent read of the
    /// same handle can exist while the guard is alive.
    rd: &'a mut RawReader,
    /// The owning handle's counts: an eager release at drop is a read RMW.
    metrics: &'a mut OpMetrics,
    /// The slab and register whose protocol words the drop probe uses.
    group: &'a ArcGroup,
    k: usize,
}

impl<'a, V: ?Sized> ReadGuard<'a, V> {
    /// Assemble a guard over `value`, read from register `k` of `group`
    /// (the read paths' constructor).
    #[inline]
    pub(crate) fn assemble(
        value: &'a V,
        out: ReadOutcome,
        rd: &'a mut RawReader,
        metrics: &'a mut OpMetrics,
        group: &'a ArcGroup,
        k: usize,
    ) -> Self {
        let ReadOutcome { slot, fast, version } = out;
        ReadGuard { value, slot, fast, version, rd, metrics, group, k }
    }

    /// Publication version of this value (same contract as
    /// [`Snapshot::version`]: 0 for the initial value, monotone per
    /// handle, strictly increasing whenever the observed value changes).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Slot index the guard pins.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Whether the read took the no-RMW fast path (R2).
    pub fn fast(&self) -> bool {
        self.fast
    }
}

impl ReadGuard<'_, [u8]> {
    /// The pinned bytes, tied to the guard's own borrow (they must not
    /// outlive the guard: dropping it may release the slot to the writer).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.value
    }

    /// Whether the value was served from the slot-header inline storage.
    pub fn inline(&self) -> bool {
        self.group.stored_inline(self.value.len())
    }
}

impl<V: ?Sized> Deref for ReadGuard<'_, V> {
    type Target = V;
    #[inline]
    fn deref(&self) -> &V {
        self.value
    }
}

impl<V: ?Sized> Drop for ReadGuard<'_, V> {
    #[inline]
    fn drop(&mut self) {
        guard_drop_on(&self.group.cells(self.k), self.rd, self.metrics);
    }
}

impl fmt::Debug for ReadGuard<'_, [u8]> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadGuard")
            .field("len", &self.value.len())
            .field("slot", &self.slot)
            .field("fast", &self.fast)
            .field("version", &self.version)
            .finish()
    }
}

impl<T: fmt::Debug> fmt::Debug for ReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadGuard")
            .field("value", &self.value)
            .field("version", &self.version)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use register_common::errors::ConfigError;

    use super::*;

    fn small() -> Arc<ArcRegister> {
        ArcRegister::builder(4, 64).initial(b"init").build().unwrap()
    }

    #[test]
    fn initial_value_is_readable() {
        let reg = small();
        let mut r = reg.reader().unwrap();
        assert_eq!(&*r.read(), b"init");
    }

    #[test]
    fn empty_initial_value() {
        let reg = ArcRegister::builder(1, 16).build().unwrap();
        let mut r = reg.reader().unwrap();
        assert_eq!(r.read().len(), 0);
    }

    #[test]
    fn write_then_read() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"hello");
        assert_eq!(&*r.read(), b"hello");
    }

    #[test]
    fn variable_sizes_roundtrip() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0usize, 1, 7, 8, 63, 64] {
            let v: Vec<u8> = (0..len).map(|i| i as u8).collect();
            w.write(&v);
            assert_eq!(&*r.read(), &v[..], "len {len}");
        }
    }

    #[test]
    fn snapshot_survives_concurrent_overwrites() {
        // The paper's pinning guarantee: a standing read keeps its slot
        // stable across arbitrarily many writes.
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"stable");
        let snap = r.read();
        let bytes = snap.bytes();
        for i in 0..100u8 {
            w.write(&[i; 32]);
        }
        assert_eq!(bytes, b"stable", "pinned snapshot must not be overwritten");
        // The next read observes the latest value.
        assert_eq!(&*r.read(), &[99u8; 32][..]);
    }

    #[test]
    fn fast_path_reported() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        assert!(!r.read().fast(), "first read acquires");
        assert!(r.read().fast(), "second read with no write is fast");
        w.write(b"x");
        assert!(!r.read().fast(), "read after write must switch");
        assert!(r.read().fast());
    }

    #[test]
    fn read_to_vec_copies() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"copy me");
        let mut out = Vec::new();
        assert_eq!(r.read_to_vec(&mut out), 7);
        assert_eq!(out, b"copy me");
    }

    #[test]
    fn write_with_fills_in_place() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write_with(8, |buf| buf.copy_from_slice(b"in-place"));
        assert_eq!(&*r.read(), b"in-place");
    }

    #[test]
    #[should_panic(expected = "exceeds register capacity")]
    fn oversized_write_panics() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        w.write(&[0u8; 65]);
    }

    #[test]
    fn writer_is_unique_and_reclaimable() {
        let reg = small();
        let w = reg.writer().unwrap();
        assert!(matches!(reg.writer(), Err(HandleError::WriterAlreadyClaimed)));
        drop(w);
        let mut w2 = reg.writer().unwrap();
        w2.write(b"after reclaim");
        let mut r = reg.reader().unwrap();
        assert_eq!(&*r.read(), b"after reclaim");
    }

    #[test]
    fn reader_cap_and_reuse() {
        let reg = ArcRegister::builder(2, 16).build().unwrap();
        let r1 = reg.reader().unwrap();
        let _r2 = reg.reader().unwrap();
        assert!(matches!(reg.reader(), Err(HandleError::ReadersExhausted { max_readers: 2 })));
        drop(r1);
        assert!(reg.reader().is_ok());
    }

    #[test]
    fn builder_validates() {
        assert!(ArcRegister::builder(0, 16).build().is_err());
        assert!(ArcRegister::builder(1, 0).build().is_err());
        assert!(ArcRegister::builder(1, 4).initial(&[0; 8]).build().is_err());
    }

    #[test]
    fn too_few_slots_is_a_typed_build_error() {
        assert_eq!(
            ArcRegister::builder(1, 16).slots(2).build().unwrap_err(),
            BuildError::Config(ConfigError::TooFewSlots { n_slots: 2 })
        );
    }

    #[test]
    fn slot_index_width_is_checked_before_allocating() {
        // 2^31 readers need 2^31 + 2 slots: beyond the slab's 31-bit slot
        // index. The geometry check must fail before any slab is sized.
        let err = ArcRegister::builder(1 << 31, 1).build().unwrap_err();
        assert!(
            matches!(err, BuildError::Config(ConfigError::SlotIndexWidth { bits: 31, .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn builder_options_apply() {
        let reg =
            ArcRegister::builder(2, 16).slots(8).hint(false).fast_path(false).build().unwrap();
        assert_eq!(reg.n_slots(), 8);
        let mut r = reg.reader().unwrap();
        let _ = r.read();
        assert!(!r.read().fast(), "fast path disabled");
    }

    #[test]
    fn debug_impls() {
        let reg = small();
        let w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        let snap = r.read();
        let s = format!("{reg:?} {w:?} {snap:?}");
        assert!(s.contains("ArcRegister") && s.contains("Snapshot"));
    }

    #[test]
    fn dropping_reader_mid_pin_frees_slot_eventually() {
        let reg = ArcRegister::builder(1, 16).build().unwrap(); // 3 slots
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        let _ = r.read(); // pin slot 0
                          // Dropping the reader releases its unit; the writer must then be
                          // able to cycle through all slots indefinitely.
        drop(r);
        for i in 0..10u8 {
            w.write(&[i; 4]);
        }
    }

    #[test]
    fn inline_boundary_roundtrips_exactly() {
        // Placement flips at INLINE_CAP; bytes must round-trip on both
        // sides of the boundary, and the Snapshot must report where the
        // value lived.
        let reg = ArcRegister::builder(2, 256).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 255, 256] {
            let v: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            w.write(&v);
            let snap = r.read();
            assert_eq!(&*snap, &v[..], "len {len}");
            assert_eq!(snap.inline(), len <= INLINE_CAP, "placement at len {len}");
        }
    }

    #[test]
    fn inline_disabled_forces_arena() {
        let reg = ArcRegister::builder(2, 64).inline(false).build().unwrap();
        assert!(!reg.inline_enabled());
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"tiny");
        let snap = r.read();
        assert_eq!(&*snap, b"tiny");
        assert!(!snap.inline(), "inline(false) must route through the arena");
    }

    #[test]
    fn small_capacity_register_never_allocates_arena() {
        // capacity <= INLINE_CAP: every value is inline; large writes are
        // rejected by the capacity check before placement matters.
        let reg = ArcRegister::builder(4, INLINE_CAP).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(&[9u8; INLINE_CAP]);
        let snap = r.read();
        assert_eq!(snap.len(), INLINE_CAP);
        assert!(snap.inline());
    }

    #[test]
    fn inline_values_survive_concurrent_overwrites() {
        // The pinning guarantee must hold for header-inlined values too:
        // the writer recycles *other* slots' header lines while this
        // snapshot stays pinned.
        let reg = ArcRegister::builder(2, 64).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"pinned-inline");
        let snap = r.read();
        assert!(snap.inline());
        let bytes = snap.bytes();
        for i in 0..100u8 {
            w.write(&[i; 48]);
        }
        assert_eq!(bytes, b"pinned-inline");
    }

    #[test]
    fn mixed_inline_and_arena_interleaving() {
        // Alternate sizes across the boundary so the same slots carry
        // inline and arena values in successive generations.
        let reg = ArcRegister::builder(1, 512).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for round in 0..50usize {
            let len = if round % 2 == 0 { 8 + round % 40 } else { 64 + round };
            let v: Vec<u8> = (0..len).map(|i| (i ^ round) as u8).collect();
            w.write(&v);
            let snap = r.read();
            assert_eq!(&*snap, &v[..], "round {round}");
            assert_eq!(snap.inline(), len <= INLINE_CAP);
        }
    }

    #[test]
    fn guard_reads_are_zero_copy_views() {
        let reg = ArcRegister::builder(2, 256).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 255, 256] {
            let v: Vec<u8> = (0..len).map(|i| (i * 11 + len) as u8).collect();
            w.write(&v);
            let g = r.read_ref();
            assert_eq!(&*g, &v[..], "len {len}");
            assert_eq!(g.inline(), len <= INLINE_CAP, "placement at len {len}");
            let version = g.version();
            drop(g);
            assert_eq!(version, r.read_ref().version(), "re-read of an unchanged publication");
        }
    }

    #[test]
    fn guard_drop_releases_stale_pin_immediately() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"old");
        {
            let g = r.read_ref(); // pins the "old" slot
            w.write(b"new"); // supersedes it while the guard is held
            assert_eq!(&*g, b"old", "guard must keep its publication");
            assert_eq!(reg.outstanding_units(), 1);
        }
        // Drop probe saw the register had moved on: unit released without
        // waiting for the handle's next read.
        assert_eq!(reg.outstanding_units(), 0);
        assert_eq!(r.pinned_slot(), None);
        assert_eq!(&*r.read_ref(), b"new");
    }

    #[test]
    fn guard_drop_keeps_fresh_pin_for_the_fast_path() {
        let reg = small();
        let mut r = reg.reader().unwrap();
        drop(r.read_ref()); // nothing written since: pin kept
        assert!(r.pinned_slot().is_some());
        let g = r.read_ref();
        assert!(g.fast(), "unchanged publication must hit R2 through guards too");
    }

    #[test]
    fn held_guard_pins_across_more_writes_than_slots() {
        // A guard held across >= n_slots writes: the writer must stay
        // wait-free (every write completes) and the pinned bytes must
        // never be re-stamped — the held-guard configuration the model
        // checker exhausts (model_check::guard_1r_4w_1x), here over 100
        // writes through the public API.
        let reg = ArcRegister::builder(1, 64).build().unwrap(); // 3 slots
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"hold-me");
        let g = r.read_ref();
        for i in 0..100u8 {
            w.write(&[i; 32]); // cycles the remaining 2 slots only
        }
        assert_eq!(&*g, b"hold-me", "held guard's slot was recycled");
        drop(g);
        assert_eq!(&*r.read_ref(), &[99u8; 32][..]);
    }

    #[test]
    fn read_to_vec_reuses_capacity() {
        let reg = ArcRegister::builder(1, 4096).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(&[7u8; 4096]);
        let mut out = Vec::new();
        assert_eq!(r.read_to_vec(&mut out), 4096);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        w.write(b"tiny");
        assert_eq!(r.read_to_vec(&mut out), 4);
        assert_eq!(out, b"tiny");
        assert_eq!(out.capacity(), cap, "read_to_vec must never shrink the buffer");
        assert_eq!(out.as_ptr(), ptr, "steady-state read_to_vec must not reallocate");
    }

    #[test]
    fn concurrent_smoke() {
        let reg = ArcRegister::builder(8, 256).initial(&[0; 64]).build().unwrap();
        let mut w = reg.writer().unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut r = reg.reader().unwrap();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                // One unconditional read before honoring `stop`: on a
                // single-core box the writer can finish and set `stop`
                // before this thread is first scheduled, and the
                // total-reads assertion below must not race the scheduler.
                let mut reads = 0u64;
                loop {
                    let snap = r.read();
                    // All bytes of a snapshot must agree (writer writes
                    // constant-fill payloads).
                    let first = snap.first().copied().unwrap_or(0);
                    assert!(snap.iter().all(|&b| b == first), "torn read");
                    reads += 1;
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            }));
        }
        for i in 0..20_000u32 {
            w.write(&[(i % 251) as u8; 64]);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
    }
}
