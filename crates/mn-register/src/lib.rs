//! A wait-free multi-word atomic **(M,N)** register built from ARC.
//!
//! The ARC paper motivates (1,N) registers as "building blocks to realize
//! more general (M,N) registers" (§1, citing Li–Tromp–Vitányi). This crate
//! realizes that program with the classical timestamp construction:
//!
//! * one ARC (1,N′) sub-register per writer (`N′ = N + M − 1`: the real
//!   readers plus the other writers, which read timestamps during their
//!   collect phase);
//! * **write(v)** by writer `i`: read every other writer's current
//!   timestamp (wait-free ARC reads — and fast-path cheap when nothing
//!   changed), pick `ts = max + 1`, and publish `(ts, i, v)` to own
//!   sub-register (one wait-free ARC write);
//! * **read()**: read all `M` sub-registers (each a pinned, zero-copy ARC
//!   snapshot), return the value with the lexicographically largest
//!   `(ts, writer)` pair.
//!
//! # Storage: one slab, not M boxes
//!
//! Every (M,N) operation is an O(M) scan over the sub-registers — the
//! read visits all `M`, the write collects from `M − 1`. All M
//! sub-registers live in one [`ArcGroup`] slab: sub-register `i` is group
//! register `i`, so the timestamp scan walks M *adjacent* 64 B header
//! lines in address order — sequential prefetch instead of pointer
//! chasing, at `64 + n_slots·64` bytes per sub-register
//! ([`MnRegister::heap_bytes`]). The group runs the same wait-free state
//! machine per register, so the construction's proof is the (1,N)
//! register's.
//!
//! # Why this is atomic
//!
//! Timestamps order all writes totally (ties broken by writer id). The
//! order respects real time: a write that completed published its `ts` in
//! its sub-register, and any later write's collect reads that sub-register
//! *after* the publish (ARC sub-reads are atomic), so it picks a larger
//! `ts`. Reads never invert: each sub-register's timestamp is monotone, so
//! the max over all M is monotone along real time; if read r₁ returned
//! `ts` and completed before r₂ began, every sub-register r₂ reads is at
//! least as new as what r₁ saw. The `linearizer::mw` checker validates
//! exactly these conditions on recorded executions of this implementation,
//! and `interleave::mn_slab_model` model-checks two
//! writers of one cell sharing a slab exhaustively.
//!
//! # Progress and costs
//!
//! Every operation is a bounded number of wait-free ARC operations:
//! writes cost `M − 1` reads + 1 write (O(M), no retry loops — unlike CAS
//! ladders), reads cost `M` reads. Space is `M · (N′ + 2)` buffers. The
//! timestamp counter is 64-bit: it would take centuries of writes at
//! full speed to exhaust; nearing `u64::MAX` the writer panics rather
//! than silently wrapping (a wrapped counter would re-order history).
//!
//! # Example
//!
//! ```
//! use mn_register::MnRegister;
//!
//! let reg = MnRegister::new(2, 4, 1024, b"genesis").unwrap(); // M=2, N=4
//! let mut w0 = reg.writer().unwrap();
//! let mut w1 = reg.writer().unwrap();
//! let mut r = reg.reader().unwrap();
//!
//! w0.write(b"from writer 0");
//! w1.write(b"from writer 1");
//! r.read_with(|v, ts| {
//!     assert_eq!(v, b"from writer 1");
//!     assert_eq!(ts.writer, 1);
//! });
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use arc_register::{ArcGroup, GroupReader, GroupWriter, HandleError};
use register_common::traits::{validate_spec, BuildError, RegisterSpec};

pub mod group;
pub mod table;

pub use group::{MnGroup, MnGroupReader, MnGroupWriter};
pub use table::MnTableFamily;

/// Bytes of header prepended to every stored value: `ts` and `writer id`.
pub const HEADER: usize = 16;

/// A value's unique timestamp: total order = `(counter, writer)`
/// lexicographic. `(0, _)` stamps sub-register initial values; the true
/// initial value carries `(1, 0)` so it beats the empty placeholders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// Lamport-style counter (collect max + 1).
    pub counter: u64,
    /// Writer id, the tie-breaker.
    pub writer: u64,
}

impl Timestamp {
    fn encode(self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.counter.to_le_bytes());
        buf[8..16].copy_from_slice(&self.writer.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let mut c = [0u8; 8];
        let mut w = [0u8; 8];
        c.copy_from_slice(&buf[..8]);
        w.copy_from_slice(&buf[8..16]);
        Self { counter: u64::from_le_bytes(c), writer: u64::from_le_bytes(w) }
    }
}

/// Writer-role bookkeeping behind one lock (cold path: claims/drops).
struct WriterRoles {
    /// Writer ids currently available to claim.
    free: Vec<usize>,
    /// Largest counter each id has ever published. A write's collect
    /// reads only the *other* M − 1 sub-registers, so a re-claimed id
    /// must resume above its **own** sub-register's timestamp — seeding
    /// a fresh handle from here is what keeps the per-sub-register
    /// timestamp stream monotone across handle recycling.
    last_counter: Vec<u64>,
}

/// The shared (M,N) register.
pub struct MnRegister {
    /// The M sub-registers: group register `i` belongs to writer `i`.
    subs: Arc<ArcGroup>,
    writers: usize,
    capacity: usize,
    n_readers: usize,
    roles: Mutex<WriterRoles>,
    live_readers: AtomicUsize,
}

impl MnRegister {
    /// Build an (M,N) register holding values up to `capacity` bytes,
    /// initialized to `initial` (held by writer 0's sub-register with
    /// timestamp `(1, 0)`).
    pub fn new(
        writers: usize,
        readers: usize,
        capacity: usize,
        initial: &[u8],
    ) -> Result<Arc<Self>, BuildError> {
        if writers == 0 {
            return Err(BuildError::ZeroRegisters);
        }
        validate_spec(RegisterSpec::new(readers, capacity), initial, None)?;
        // Each sub-register serves the N real readers plus the other M−1
        // writers' collect reads.
        let sub_readers = (readers + writers - 1).max(1) as u32;
        let subs = ArcGroup::builder(writers, sub_readers, HEADER + capacity).build()?;
        // Algorithm-1 initialization per sub-register: no handle exists
        // yet, so claim each writer role, publish the placeholder (or the
        // initial value for writer 0), and release it again.
        for id in 0..writers {
            let mut w = subs.writer(id).expect("fresh group has all writer roles");
            let body = if id == 0 { initial } else { &[][..] };
            let ts = Timestamp { counter: u64::from(id == 0), writer: id as u64 };
            w.write_with(HEADER + body.len(), |buf| {
                ts.encode(buf);
                buf[HEADER..].copy_from_slice(body);
            });
        }
        Ok(Arc::new(Self {
            subs,
            writers,
            capacity,
            n_readers: readers,
            roles: Mutex::new(WriterRoles {
                free: (0..writers).rev().collect(),
                last_counter: (0..writers).map(|id| u64::from(id == 0)).collect(),
            }),
            live_readers: AtomicUsize::new(0),
        }))
    }

    /// Number of writers `M`.
    pub fn writers(&self) -> usize {
        self.writers
    }

    /// Reader cap `N`.
    pub fn max_readers(&self) -> usize {
        self.n_readers
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of heap this register owns across all M sub-registers: the
    /// one slab plus this struct.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.subs.heap_bytes()
    }

    /// A reader handle on sub-register `k` (used for writer collects and
    /// reader scans; counts against the sub-register's `N + M − 1` cap).
    fn sub_reader(&self, k: usize) -> GroupReader {
        self.subs.reader(k).expect("sub-register sized for N + M - 1 readers")
    }

    /// Claim one of the `M` writer handles (each may be claimed once;
    /// dropping returns it). Fails with
    /// [`HandleError::WriterAlreadyClaimed`] when all M are out — the same
    /// error contract as [`ArcRegister::writer`](arc_register::ArcRegister::writer).
    pub fn writer(self: &Arc<Self>) -> Result<MnWriter, HandleError> {
        let last_counter;
        let id;
        {
            let mut roles = self.roles.lock().expect("role allocator poisoned");
            let Some(free_id) = roles.free.pop() else {
                return Err(HandleError::WriterAlreadyClaimed);
            };
            id = free_id;
            // Resume above everything this id ever published (its own
            // sub-register is the one place the collect never looks).
            last_counter = roles.last_counter[id];
        }
        // The writer reads every *other* sub-register during collects.
        let peers = (0..self.writers).filter(|&j| j != id).map(|j| self.sub_reader(j)).collect();
        let own = self.subs.writer(id).expect("sub-writer claimed once per id");
        Ok(MnWriter { reg: Arc::clone(self), id, own, peers, last_counter })
    }

    /// Register one of the `N` reader handles. Fails with
    /// [`HandleError::ReadersExhausted`] at the cap — the same error
    /// contract as [`ArcRegister::reader`](arc_register::ArcRegister::reader).
    pub fn reader(self: &Arc<Self>) -> Result<MnReader, HandleError> {
        let live = self.live_readers.fetch_add(1, Ordering::SeqCst);
        if live >= self.n_readers {
            self.live_readers.fetch_sub(1, Ordering::SeqCst);
            return Err(HandleError::ReadersExhausted { max_readers: self.n_readers as u32 });
        }
        let subs = (0..self.writers).map(|k| self.sub_reader(k)).collect();
        Ok(MnReader { reg: Arc::clone(self), subs })
    }
}

impl fmt::Debug for MnRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MnRegister")
            .field("writers", &self.writers())
            .field("max_readers", &self.n_readers)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// One of the `M` writer handles.
pub struct MnWriter {
    reg: Arc<MnRegister>,
    id: usize,
    own: GroupWriter,
    peers: Vec<GroupReader>,
    last_counter: u64,
}

impl MnWriter {
    /// Store a new value. Wait-free: `M − 1` ARC reads (the timestamp
    /// collect) + one ARC write. Returns the timestamp assigned.
    ///
    /// # Panics
    ///
    /// Panics if `value.len()` exceeds the capacity, or if the 64-bit
    /// timestamp counter is exhausted (~2⁶⁴ writes; wrapping it would
    /// silently re-order history, so exhaustion is loud instead).
    pub fn write(&mut self, value: &[u8]) -> Timestamp {
        assert!(
            value.len() <= self.reg.capacity,
            "value of {} bytes exceeds register capacity {}",
            value.len(),
            self.reg.capacity
        );
        // Collect: the largest counter visible anywhere (fast-path reads
        // when peers are quiet). The peers are adjacent group registers,
        // so this walk is sequential in the slab.
        let mut max_counter = self.last_counter;
        for peer in self.peers.iter_mut() {
            let snap = peer.read();
            let ts = Timestamp::decode(&snap);
            max_counter = max_counter.max(ts.counter);
        }
        let counter =
            max_counter.checked_add(1).expect("MN timestamp counter exhausted (2^64 writes)");
        let ts = Timestamp { counter, writer: self.id as u64 };
        self.last_counter = ts.counter;
        self.own.write_with(HEADER + value.len(), |buf| {
            ts.encode(buf);
            buf[HEADER..].copy_from_slice(value);
        });
        ts
    }

    /// This writer's id (the timestamp tie-breaker).
    pub fn id(&self) -> usize {
        self.id
    }
}

impl fmt::Debug for MnWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MnWriter").field("id", &self.id).finish()
    }
}

impl Drop for MnWriter {
    fn drop(&mut self) {
        let mut roles = self.reg.roles.lock().expect("role allocator poisoned");
        // Persist the published counter so a future claimant of this id
        // resumes above this handle's own sub-register timestamp.
        roles.last_counter[self.id] = self.last_counter;
        roles.free.push(self.id);
        // `own` and `peers` release their sub-register roles themselves.
    }
}

/// One of the `N` reader handles.
pub struct MnReader {
    reg: Arc<MnRegister>,
    subs: Vec<GroupReader>,
}

impl MnReader {
    /// Read the newest value: `M` zero-copy ARC reads, return the one with
    /// the largest timestamp. `f` receives the payload and its timestamp.
    ///
    /// All `M` snapshots are pinned simultaneously while `f` runs, so the
    /// winner is stable; the pins persist (per sub-register) until this
    /// handle's next read. The scan visits the M sub-registers in
    /// ascending slab order — adjacent cache lines.
    pub fn read_with<R>(&mut self, f: impl FnOnce(&[u8], Timestamp) -> R) -> R {
        debug_assert!(!self.subs.is_empty());
        let mut best_ts = Timestamp { counter: 0, writer: 0 };
        // Every sub-register's pin persists independently for the whole
        // scan, so the winning view stays valid while later sub-registers
        // are read — no per-read allocation on the hot path.
        let mut best: Option<&[u8]> = None;
        for sub in self.subs.iter_mut() {
            let snap = sub.read();
            let bytes = snap.bytes();
            let ts = Timestamp::decode(bytes);
            if best.is_none() || ts > best_ts {
                best_ts = ts;
                best = Some(bytes);
            }
        }
        f(&best.expect("at least one sub-register")[HEADER..], best_ts)
    }

    /// Copy the newest value out, returning it with its timestamp.
    ///
    /// Allocates per call; loops should prefer [`MnReader::read_to_vec`]
    /// (reused buffer) or [`MnReader::read_with`] (no copy at all).
    pub fn read_owned(&mut self) -> (Vec<u8>, Timestamp) {
        self.read_with(|v, ts| (v.to_vec(), ts))
    }

    /// Copy the newest value into `out` (capacity reused: `clear` +
    /// `reserve`, never shrink), returning its timestamp — the
    /// allocation-free steady-state form of [`MnReader::read_owned`].
    pub fn read_to_vec(&mut self, out: &mut Vec<u8>) -> Timestamp {
        self.read_with(|v, ts| {
            register_common::copy_to_vec(v, out);
            ts
        })
    }
}

impl fmt::Debug for MnReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MnReader").field("subs", &self.subs.len()).finish()
    }
}

impl Drop for MnReader {
    fn drop(&mut self) {
        self.reg.live_readers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(writers: usize, readers: usize, capacity: usize, initial: &[u8]) -> Arc<MnRegister> {
        MnRegister::new(writers, readers, capacity, initial).unwrap()
    }

    #[test]
    fn initial_value_wins_placeholders() {
        let reg = on(3, 2, 64, b"genesis");
        let mut r = reg.reader().unwrap();
        let (v, ts) = r.read_owned();
        assert_eq!(v, b"genesis");
        assert_eq!(ts, Timestamp { counter: 1, writer: 0 });
    }

    #[test]
    fn empty_initial_value() {
        let reg = on(2, 1, 16, b"");
        let mut r = reg.reader().unwrap();
        assert_eq!(r.read_owned().0, b"");
    }

    #[test]
    fn last_writer_wins_sequentially() {
        let reg = on(2, 2, 64, b"init");
        let mut w0 = reg.writer().unwrap();
        let mut w1 = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();

        let t0 = w0.write(b"zero");
        assert_eq!(r.read_owned().0, b"zero");
        let t1 = w1.write(b"one");
        assert!(t1 > t0, "later write must carry a larger timestamp");
        assert_eq!(r.read_owned().0, b"one");
        let t0b = w0.write(b"zero again");
        assert!(t0b > t1);
        assert_eq!(r.read_owned().0, b"zero again");
    }

    #[test]
    fn writer_handles_are_finite_and_recycled() {
        let reg = on(2, 1, 16, b"");
        let a = reg.writer().unwrap();
        let _b = reg.writer().unwrap();
        assert!(
            matches!(reg.writer(), Err(HandleError::WriterAlreadyClaimed)),
            "only M writer handles"
        );
        let id = a.id();
        drop(a);
        assert_eq!(reg.writer().unwrap().id(), id, "id recycled");
    }

    #[test]
    fn reader_cap_enforced() {
        let reg = on(1, 2, 16, b"");
        let _a = reg.reader().unwrap();
        let b = reg.reader().unwrap();
        assert!(matches!(reg.reader(), Err(HandleError::ReadersExhausted { max_readers: 2 })));
        drop(b);
        assert!(reg.reader().is_ok());
    }

    #[test]
    fn recycled_writer_resumes_its_own_timestamp_stream() {
        // A write's collect reads only the *other* sub-registers, so a
        // re-claimed writer id must remember what it already published:
        // restarting its counter would publish a timestamp *below* its
        // own sub-register's — readers would see time run backwards.
        let reg = on(2, 1, 16, b"");
        let mut w = reg.writer().unwrap();
        let id = w.id();
        let mut last = Timestamp { counter: 0, writer: 0 };
        for i in 0..50u64 {
            last = w.write(&i.to_le_bytes());
        }
        drop(w);
        let mut w2 = reg.writer().unwrap();
        assert_eq!(w2.id(), id, "same role re-claimed");
        let ts = w2.write(b"later");
        assert!(ts > last, "recycled writer went backwards: {last:?} -> {ts:?}");
        let mut r = reg.reader().unwrap();
        assert_eq!(r.read_owned().0, b"later", "newest write must win the scan");
    }

    #[test]
    fn timestamps_are_strictly_increasing_per_interleaving() {
        let reg = on(3, 1, 32, b"");
        let mut ws: Vec<_> = (0..3).map(|_| reg.writer().unwrap()).collect();
        let mut last = Timestamp { counter: 0, writer: 0 };
        for round in 0..50u64 {
            for w in ws.iter_mut() {
                let ts = w.write(&round.to_le_bytes());
                assert!(ts > last, "ts must grow: {last:?} -> {ts:?}");
                last = ts;
            }
        }
    }

    #[test]
    fn variable_sizes() {
        let reg = on(2, 1, 128, b"");
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0usize, 1, 17, 128] {
            let v = vec![5u8; len];
            w.write(&v);
            assert_eq!(r.read_owned().0, v);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds register capacity")]
    fn oversized_write_panics() {
        let reg = MnRegister::new(1, 1, 8, b"").unwrap();
        reg.writer().unwrap().write(&[0; 9]);
    }

    #[test]
    fn rejects_degenerate_specs() {
        assert_eq!(MnRegister::new(0, 1, 16, b"").unwrap_err(), BuildError::ZeroRegisters);
        assert!(MnRegister::new(1, 0, 16, b"").is_err());
        assert!(MnRegister::new(1, 1, 0, b"").is_err());
        assert!(MnRegister::new(1, 1, 4, b"too long").is_err());
    }

    #[test]
    fn heap_bytes_scales_with_writers() {
        let m2 = MnRegister::new(2, 1, 32, b"").unwrap();
        let m8 = MnRegister::new(8, 1, 32, b"").unwrap();
        assert!(m8.heap_bytes() > m2.heap_bytes());
    }

    #[test]
    fn timestamp_ordering_counter_dominates_writer_breaks_ties() {
        let a = Timestamp { counter: 3, writer: 9 };
        let b = Timestamp { counter: 4, writer: 0 };
        assert!(b > a, "counter dominates the writer id");
        let t0 = Timestamp { counter: 7, writer: 0 };
        let t1 = Timestamp { counter: 7, writer: 1 };
        assert!(t1 > t0, "equal counters tie-break on writer id");
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    fn timestamp_ordering_near_counter_wrap() {
        // The construction never wraps (the writer panics at exhaustion),
        // so ordering must stay sane right up to the edge.
        let near = Timestamp { counter: u64::MAX - 1, writer: 5 };
        let edge = Timestamp { counter: u64::MAX, writer: 0 };
        assert!(edge > near, "MAX beats MAX-1 regardless of writer id");
        let mut buf = [0u8; HEADER];
        edge.encode(&mut buf);
        assert_eq!(Timestamp::decode(&buf), edge, "encode/decode roundtrip at the edge");
        near.encode(&mut buf);
        assert_eq!(Timestamp::decode(&buf), near);
    }

    #[test]
    fn concurrent_writers_and_readers_smoke() {
        use std::sync::atomic::AtomicBool;
        let reg = on(3, 4, 64, &[0; 16]);
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let mut w = reg.writer().unwrap();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    w.write(&[(i % 251) as u8; 16]);
                }
            }));
        }
        for _ in 0..4 {
            let mut r = reg.reader().unwrap();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut last = Timestamp { counter: 0, writer: 0 };
                while !stop.load(Ordering::Relaxed) {
                    r.read_with(|v, ts| {
                        let first = v.first().copied().unwrap_or(0);
                        assert!(v.iter().all(|&b| b == first), "torn MN read");
                        assert!(ts >= last, "per-reader timestamp regression");
                        last = ts;
                    });
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// RegisterFamily adapter (M = 1): lets the cross-algorithm conformance
// and stress suites exercise the composition overhead of MnRegister as a
// plain (1,N) register.
// ---------------------------------------------------------------------

/// `MnRegister` with a single writer, adapted to the generic (1,N)
/// register interface (conformance/stress harness entry point).
pub struct MnFamily1;

impl register_common::RegisterFamily for MnFamily1 {
    type Writer = MnWriter;
    type Reader = MnReader;

    const NAME: &'static str = "mn1";

    fn build(
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        let reg = MnRegister::new(1, spec.readers, spec.capacity, initial)?;
        let writer = reg.writer().expect("fresh register has all writer ids");
        let readers =
            (0..spec.readers).map(|_| reg.reader().expect("within the reader cap")).collect();
        Ok((writer, readers))
    }
}

impl register_common::WriteHandle for MnWriter {
    #[inline]
    fn write(&mut self, value: &[u8]) {
        let _ = MnWriter::write(self, value);
    }
}

impl register_common::ReadHandle for MnReader {
    #[inline]
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, f: F) -> R {
        MnReader::read_with(self, |v, _ts| f(v))
    }
}

#[cfg(test)]
mod family_tests {
    use super::*;
    use register_common::{ReadHandle, RegisterFamily, WriteHandle};

    #[test]
    fn family_roundtrip() {
        let (mut w, mut rs) = MnFamily1::build(RegisterSpec::new(3, 64), b"seed").unwrap();
        WriteHandle::write(&mut w, b"value");
        for r in rs.iter_mut() {
            ReadHandle::read_with(r, |v| assert_eq!(v, b"value"));
        }
    }

    #[test]
    fn family_metadata() {
        assert_eq!(MnFamily1::NAME, "mn1");
        assert!(MnFamily1::wait_free_reads());
    }
}
