//! A typed ARC register: share any `T: Send + Sync` instead of bytes.
//!
//! The paper presents the register over raw buffers; in Rust the same
//! protocol carries typed values for free — the writer moves a `T` into a
//! free slot, readers get `&T` views pinned until their next read. This is
//! the form most applications want (configuration snapshots, routing
//! tables, market-data books), and it demonstrates that ARC's "no
//! intermediate copies" property extends to arbitrary data structures.
//!
//! The handles are the byte register's: [`TypedWriter<T>`] and
//! [`TypedReader<T>`] name [`GroupWriter`] and [`GroupReader`] keeping an
//! `Arc<TypedArc<T>>` alive, and [`TypedReadGuard`] names the one
//! [`ReadGuard`], over `T`. This module adds only their methods for `T`.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::Arc;

use crate::errors::HandleError;
use crate::group::{
    ArcGroup, GroupBuilder, GroupReader, GroupWriter, Local, Register0, RegisterOwner, Sealed,
};
use crate::register::ReadGuard;

/// A value paired with the publication version it was read at.
///
/// Returned by the `read_versioned` family of methods; the version is the
/// number of writes completed up to the one the value belongs to (0 for
/// the initial value). Per reader handle, versions never decrease, and
/// strictly increase whenever the observed value changes — hand the
/// version to a watch API (`wait_for_update`, `poll_changed`) to learn of
/// the *next* change without polling the value itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Versioned<V> {
    /// Publication version of `value`.
    pub version: u64,
    /// The value read.
    pub value: V,
}

/// Byte capacity of the group under a typed register. Its byte slots stay
/// empty (the values live in the side array); the smallest legal capacity
/// keeps every slot inline, so the slab has no arena.
const PROTOCOL_ONLY: usize = 1;

/// A wait-free atomic (1,N) register holding values of type `T`.
///
/// The protocol words are register 0 of a one-register [`ArcGroup`], so
/// the typed register shares the byte register's layout, proof and
/// ordering budget; the `T` values live in a side array indexed by the
/// group's slot numbers.
pub struct TypedArc<T> {
    group: ArcGroup,
    values: Box<[UnsafeCell<Option<T>>]>,
}

// SAFETY: value access is serialized by the ARC protocol (exclusive for
// the writer between W1 and publish, shared for pinned readers, with
// happens-before edges through `current`/`r_end`). `T: Send` because values
// move from the writer thread and drop on it later; `T: Sync` because
// readers share `&T` across threads.
unsafe impl<T: Send + Sync> Sync for TypedArc<T> {}
// SAFETY: moving the register between threads moves the stored `T`s with
// it, which `T: Send` permits; no other thread-affine state exists.
unsafe impl<T: Send + Sync> Send for TypedArc<T> {}

impl<T: Send + Sync> TypedArc<T> {
    /// Create a register for up to `max_readers` readers, initialized to
    /// `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `max_readers` is 0, or if `max_readers + 2` slots exceed
    /// the slab's 31-bit slot index.
    pub fn new(max_readers: u32, initial: T) -> Arc<Self> {
        let group = GroupBuilder::new(1, max_readers, PROTOCOL_ONLY)
            .build_group()
            .unwrap_or_else(|e| panic!("{e}"));
        let mut values: Vec<UnsafeCell<Option<T>>> =
            (0..group.n_slots()).map(|_| UnsafeCell::new(None)).collect();
        // Algorithm 1: publish the initial value in slot 0 (not shared yet).
        *values[0].get_mut() = Some(initial);
        Arc::new(Self { group, values: values.into_boxed_slice() })
    }

    /// Claim the unique writer handle.
    pub fn writer(self: &Arc<Self>) -> Result<TypedWriter<T>, HandleError> {
        GroupWriter::claim(self, Register0)
    }

    /// Register a reader handle.
    pub fn reader(self: &Arc<Self>) -> Result<TypedReader<T>, HandleError> {
        GroupReader::join(self, Register0)
    }

    /// Reader cap `N`.
    pub fn max_readers(&self) -> u32 {
        self.group.max_readers()
    }

    /// The published version: number of completed writes (0 = only the
    /// initial value). Monotone; safe to poll from any thread.
    #[inline]
    pub fn published_version(&self) -> u64 {
        self.group.published_version(0)
    }

    /// The value in `slot`.
    ///
    /// # Safety
    ///
    /// The caller holds read rights on `slot`: a presence unit that
    /// [`ArcGroup::acquire`] pinned and that stays unreleased for the
    /// returned borrow.
    #[inline]
    unsafe fn value(&self, slot: usize) -> &T {
        // SAFETY: per the contract the slot is pinned, so the writer leaves
        // it alone; it holds Some because every published slot was filled
        // by the writer (or at construction, for slot 0).
        unsafe { (*self.values[slot].get()).as_ref().expect("published slot always holds a value") }
    }
}

impl<T> fmt::Debug for TypedArc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedArc").field("n_slots", &self.values.len()).finish()
    }
}

impl<T> Sealed for TypedArc<T> {
    type Index = Register0;

    #[inline]
    fn slab_group(&self, _: Local) -> &ArcGroup {
        &self.group
    }
}

impl<T> RegisterOwner for TypedArc<T> {}

/// The unique writer for a [`TypedArc`]: the [`GroupWriter`] of its one
/// register.
pub type TypedWriter<T> = GroupWriter<TypedArc<T>>;

/// A reader handle for a [`TypedArc`]: a [`GroupReader`] of its one
/// register.
pub type TypedReader<T> = GroupReader<TypedArc<T>>;

/// The RAII zero-copy view a [`TypedReader::read_ref`] returns: a
/// [`ReadGuard`] over `T`.
pub type TypedReadGuard<'a, T> = ReadGuard<'a, T>;

impl<T: Send + Sync> GroupWriter<TypedArc<T>> {
    /// Publish a new value (wait-free; no copy beyond the move of `T`).
    ///
    /// Returns the value the new one displaced *from the reused slot* (an
    /// old, already-superseded snapshot) if one was stored there — callers
    /// can recycle expensive allocations this way.
    pub fn write(&mut self, value: T) -> Option<T> {
        let reg: &TypedArc<T> = &self.owner;
        // publish_with's guard repairs any unwind between W1 and the end
        // of publish (injected protocol-point panics; DESIGN.md §3.13).
        reg.group.publish_with(0, &mut self.mem, &mut self.metrics, |slot| {
            // SAFETY: exclusive slot access between W1 and publish.
            unsafe { (*reg.values[slot].get()).replace(value) }
        })
    }
}

impl<T: Send + Sync> GroupReader<TypedArc<T>> {
    /// Read the most recent value; the reference is pinned until this
    /// handle's next `read` (or drop).
    #[inline]
    pub fn read(&mut self) -> &T {
        self.read_versioned().value
    }

    /// Read the most recent value together with its publication version.
    /// Same pinning rules as [`TypedReader::read`].
    #[inline]
    pub fn read_versioned(&mut self) -> Versioned<&T> {
        let rd = self.rd.as_mut().expect("reader state present until drop");
        let reg: &TypedArc<T> = &self.owner;
        let out = reg.group.acquire(0, rd, &mut self.metrics);
        // SAFETY: the slot is pinned for this handle until the next acquire
        // or leave, both requiring &mut self, which the returned borrow
        // holds.
        let value = unsafe { reg.value(out.slot) };
        Versioned { version: out.version, value }
    }

    /// Read the most recent value as an RAII [`ReadGuard`] over the `T` in
    /// its slot, as the byte [`GroupReader::read_ref`] does: dropping it
    /// releases a pin the register has moved past (and so the old `T`).
    #[inline]
    pub fn read_ref(&mut self) -> ReadGuard<'_, T> {
        let rd = self.rd.as_mut().expect("reader state present until drop");
        let reg: &TypedArc<T> = &self.owner;
        let out = reg.group.acquire(0, rd, &mut self.metrics);
        // SAFETY: as in `read_versioned` — the slot is pinned at least for
        // the guard's lifetime (the drop probe only releases, never
        // re-acquires), and `rd` stays mutably borrowed throughout.
        let value = unsafe { reg.value(out.slot) };
        ReadGuard::assemble(value, out, rd, &mut self.metrics, &reg.group, 0)
    }

    /// Park until the register publishes past `last`, then read; the
    /// returned version is at least `last + 1` (see
    /// [`GroupReader::wait_for_update`]).
    pub fn wait_for_update(&mut self, last: u64) -> Versioned<&T> {
        self.owner.group.wait_for_update(0, last);
        self.read_versioned()
    }

    /// Like [`TypedReader::wait_for_update`] with a timeout; `None` if no
    /// newer publication arrived in time.
    pub fn wait_for_update_timeout(
        &mut self,
        last: u64,
        timeout: std::time::Duration,
    ) -> Option<Versioned<&T>> {
        self.owner.group.wait_for_update_timeout(0, last, timeout)?;
        Some(self.read_versioned())
    }

    /// Clone the current value out.
    pub fn read_cloned(&mut self) -> T
    where
        T: Clone,
    {
        self.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Config {
        version: u64,
        routes: Vec<String>,
    }

    #[test]
    fn initial_value_readable() {
        let reg = TypedArc::new(2, Config { version: 0, routes: vec![] });
        let mut r = reg.reader().unwrap();
        assert_eq!(r.read().version, 0);
    }

    #[test]
    fn write_and_read_structs() {
        let reg = TypedArc::new(2, Config { version: 0, routes: vec![] });
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(Config { version: 1, routes: vec!["a".into(), "b".into()] });
        let c = r.read();
        assert_eq!(c.version, 1);
        assert_eq!(c.routes.len(), 2);
    }

    #[test]
    fn pinned_reference_survives_writes() {
        let reg = TypedArc::new(2, 0u64);
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(7);
        let v: &u64 = r.read();
        for i in 8..200 {
            w.write(i);
        }
        assert_eq!(*v, 7, "pinned value must be stable");
        assert_eq!(*r.read(), 199);
    }

    #[test]
    fn displaced_values_are_returned_for_reuse() {
        let reg = TypedArc::new(1, vec![0u8; 1024]);
        let mut w = reg.writer().unwrap();
        let mut displaced = 0;
        for i in 0..10 {
            if w.write(vec![i as u8; 1024]).is_some() {
                displaced += 1;
            }
        }
        // With 3 slots and no readers, reuse must kick in after the first
        // two writes land in virgin slots.
        assert!(displaced >= 8, "only {displaced} writes displaced old values");
    }

    #[test]
    fn read_cloned() {
        let reg = TypedArc::new(1, String::from("x"));
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(String::from("owned"));
        let s: String = r.read_cloned();
        assert_eq!(s, "owned");
    }

    #[test]
    fn values_are_dropped_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        // SAFETY-net test: N writes + initial = N+1 values created; all must
        // drop exactly once when the register drops.
        {
            let reg = TypedArc::new(1, Counted);
            let mut w = reg.writer().unwrap();
            for _ in 0..10 {
                drop(w.write(Counted)); // displaced values drop here
            }
            drop(w);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn typed_guard_derefs_and_releases_stale_pin() {
        let reg = TypedArc::new(2, String::from("old"));
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        {
            let g = r.read_ref();
            assert_eq!(&*g, "old");
            assert_eq!(g.version(), 0);
            w.write(String::from("new"));
            assert_eq!(&*g, "old", "guard must keep its publication");
        }
        // The stale pin was released at drop; the displaced "old" slot is
        // reclaimable without another read from this handle.
        assert_eq!(reg.group.outstanding_units(0), 0);
        let g = r.read_ref();
        assert_eq!(&*g, "new");
        assert_eq!(g.version(), 1);
    }

    #[test]
    fn typed_guard_keeps_fresh_pin_fast() {
        let reg = TypedArc::new(1, 7u64);
        let mut r = reg.reader().unwrap();
        drop(r.read_ref());
        assert!(r.read_ref().fast(), "unchanged publication must hit R2");
    }

    #[test]
    fn concurrent_typed_smoke() {
        let reg = TypedArc::new(4, (0u64, 0u64));
        let mut w = reg.writer().unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut r = reg.reader().unwrap();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (a, b) = *r.read();
                    assert_eq!(a, b, "typed snapshot must be consistent");
                }
            }));
        }
        for i in 0..50_000u64 {
            w.write((i, i));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
