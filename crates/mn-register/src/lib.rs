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
//! sub-registers live in one [`ArcGroup`](arc_register::ArcGroup) slab:
//! sub-register `i` is group register `i`, so the timestamp scan walks M
//! *adjacent* 64 B header lines in address order — sequential prefetch
//! instead of pointer chasing, at `64 + n_slots·64` bytes per
//! sub-register ([`MnRegister::heap_bytes`]). The group runs the same
//! wait-free state machine per register, so the construction's proof is
//! the (1,N) register's.
//!
//! An [`MnRegister`] is a one-cell [`MnGroup`]: its handles are the
//! table's handles with the cell fixed at 0.
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
//! and the test-only `group::model_check` module through every interleaving
//! of the shipped collect and scan over atomic sub-registers. That the
//! sub-registers are atomic with two writers storing into one slab at once
//! is checked on the shipped ARC code by `arc-register`'s test-only
//! `model_check` module, with one writer thread per register of a
//! two-register slab.
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

use std::sync::Arc;

use arc_register::HandleError;
use register_common::traits::{BuildError, RegisterSpec};

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

/// The shared (M,N) register: a one-cell [`MnGroup`].
#[derive(Debug)]
pub struct MnRegister {
    /// Writer `i`'s sub-register is group register `i` of the cell's slab.
    cell: Arc<MnGroup>,
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
        Ok(Arc::new(Self { cell: MnGroup::new(1, writers, readers, capacity, initial)? }))
    }

    /// Number of writers `M`.
    pub fn writers(&self) -> usize {
        self.cell.writers()
    }

    /// Reader cap `N`.
    pub fn max_readers(&self) -> usize {
        self.cell.max_readers()
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cell.capacity()
    }

    /// Bytes of heap this register owns across all M sub-registers: the
    /// one slab plus the cell and this struct.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cell.heap_bytes()
    }

    /// Claim one of the `M` writer handles (each may be claimed once;
    /// dropping returns it). Fails with
    /// [`HandleError::WriterAlreadyClaimed`] when all M are out — the same
    /// error contract as [`ArcRegister::writer`](arc_register::ArcRegister::writer).
    pub fn writer(self: &Arc<Self>) -> Result<MnWriter, HandleError> {
        self.cell.writer().map(MnWriter)
    }

    /// Register one of the `N` reader handles. Fails with
    /// [`HandleError::ReadersExhausted`] at the cap — the same error
    /// contract as [`ArcRegister::reader`](arc_register::ArcRegister::reader).
    pub fn reader(self: &Arc<Self>) -> Result<MnReader, HandleError> {
        self.cell.reader().map(MnReader)
    }
}

/// One of the `M` writer handles.
#[derive(Debug)]
pub struct MnWriter(MnGroupWriter);

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
        self.0.write(0, value)
    }

    /// This writer's id (the timestamp tie-breaker).
    pub fn id(&self) -> usize {
        self.0.id()
    }
}

/// One of the `N` reader handles.
#[derive(Debug)]
pub struct MnReader(MnGroupReader);

impl MnReader {
    /// Read the newest value: `M` zero-copy ARC reads, return the one with
    /// the largest timestamp. `f` receives the payload and its timestamp.
    ///
    /// All `M` snapshots are pinned simultaneously while `f` runs, so the
    /// winner is stable; the pins persist (per sub-register) until this
    /// handle's next read. The scan visits the M sub-registers in
    /// ascending slab order — adjacent cache lines.
    pub fn read_with<R>(&mut self, f: impl FnOnce(&[u8], Timestamp) -> R) -> R {
        self.0.read_with(0, f)
    }

    /// Copy the newest value out, returning it with its timestamp.
    ///
    /// Allocates per call; loops should prefer [`MnReader::read_to_vec`]
    /// (reused buffer) or [`MnReader::read_with`] (no copy at all).
    pub fn read_owned(&mut self) -> (Vec<u8>, Timestamp) {
        self.0.read_owned(0)
    }

    /// Copy the newest value into `out` (capacity reused: `clear` +
    /// `reserve`, never shrink), returning its timestamp — the
    /// allocation-free steady-state form of [`MnReader::read_owned`].
    pub fn read_to_vec(&mut self, out: &mut Vec<u8>) -> Timestamp {
        self.0.read_to_vec(0, out)
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
    #[should_panic(expected = "exceeds capacity")]
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
        use std::sync::atomic::{AtomicBool, Ordering};
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
