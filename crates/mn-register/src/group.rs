//! Multi-writer register **tables**: K (M,N) cells in one slab.
//!
//! The ROADMAP's multi-writer table scenario — W producer threads all
//! publishing into any of K keys, R consumers reading them — needs K
//! multi-writer cells. Composing K separate [`crate::MnRegister`]s would pay K
//! times the per-register boxing the slab group was built to eliminate;
//! [`MnGroup`] instead lays **all K·M sub-registers in one
//! [`ArcGroup`]**: cell `c`'s M sub-registers are group registers
//! `c·M .. (c+1)·M`, so one cell's timestamp scan walks M adjacent
//! header lines, and the whole table is three allocations regardless of
//! K and M.
//!
//! Roles:
//!
//! * [`MnGroupWriter`] — writer id `w` over the **whole table**: it owns
//!   sub-register `w` of every cell (plus collect readers on the other
//!   `M − 1` sub-registers per cell). W threads each hold one, and any
//!   thread can write any key — the multi-writer table the
//!   `workload_harness::multi` MW driver measures.
//! * [`MnGroupReader`] — one reader over every cell (joins all K·M
//!   sub-registers once).
//!
//! A standalone [`crate::MnRegister`] is a one-cell table. Each cell runs
//! the timestamp construction on its own: its collect (`next_stamp`) and
//! scan (`newest`) are checked by the test-only `model_check` module, and
//! `linearizer::mw` validates per-cell histories recorded through these
//! handles. Cells never interfere: sub-register disjointness in the slab
//! is the `ArcGroup` layout argument, which `arc-register`'s test-only
//! `model_check` module checks on the shipped code with one writer thread
//! per register of a two-register slab, the shape of a two-writer cell.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use arc_register::{ArcGroup, GroupReader, GroupWriter, HandleError, SlabError, MAX_READERS};
use register_common::traits::{validate_spec, BuildError, RegisterSpec};

use crate::{Timestamp, HEADER};

/// K multi-writer (M,N) cells sharing one slab (module docs).
pub struct MnGroup {
    group: Arc<ArcGroup>,
    cells: usize,
    writers_per_cell: usize,
    n_readers: usize,
    capacity: usize,
    roles: Mutex<GroupRoles>,
    live_readers: AtomicUsize,
}

/// Writer-role bookkeeping behind one lock (cold path: claims/drops).
struct GroupRoles {
    /// Writer ids currently available to claim.
    free: Vec<usize>,
    /// Per id, the largest counter it has published **per cell**. A
    /// write's collect reads only the other M − 1 sub-registers of the
    /// cell, so a re-claimed id must resume above its own sub-registers'
    /// timestamps; the vectors are moved (not cloned) in and out of
    /// handles at claim/drop time.
    last_counter: Vec<Vec<u64>>,
}

impl MnGroup {
    /// Build a table of `cells` (M,N) cells, `writers` writer roles and
    /// up to `readers` concurrent whole-table readers, each cell holding
    /// values of up to `capacity` bytes initialized to `initial`.
    pub fn new(
        cells: usize,
        writers: usize,
        readers: usize,
        capacity: usize,
        initial: &[u8],
    ) -> Result<Arc<Self>, BuildError> {
        if cells == 0 || writers == 0 {
            return Err(BuildError::ZeroRegisters);
        }
        // Every sub-register serves the N table readers plus the other
        // M − 1 writers' collect readers of its cell, at most MAX_READERS.
        let limit = (MAX_READERS as usize).saturating_sub(writers - 1);
        validate_spec(RegisterSpec::new(readers, capacity), initial, Some(limit))?;
        let sub_readers = (readers + writers - 1) as u32;
        // The slab's own size checks report overflow the same way.
        let subs = cells.checked_mul(writers).ok_or(BuildError::Slab(SlabError::BadGeometry {
            reason: "cell count overflows usize",
        }))?;
        let group = ArcGroup::builder(subs, sub_readers, HEADER + capacity).build()?;
        // Per-cell Algorithm-1 initialization: no handle exists yet, so
        // claim each sub-register's writer role, publish, and release it.
        // Sub-register 0 of each cell holds the initial value at (1, 0),
        // the others their (0, id) placeholders.
        for cell in 0..cells {
            for id in 0..writers {
                let mut w =
                    group.writer(cell * writers + id).expect("fresh group has all writer roles");
                let body = if id == 0 { initial } else { &[][..] };
                let ts = Timestamp { counter: u64::from(id == 0), writer: id as u64 };
                w.write_with(HEADER + body.len(), |buf| {
                    ts.encode(buf);
                    buf[HEADER..].copy_from_slice(body);
                });
            }
        }
        Ok(Arc::new(Self {
            group,
            cells,
            writers_per_cell: writers,
            n_readers: readers,
            capacity,
            roles: Mutex::new(GroupRoles {
                free: (0..writers).rev().collect(),
                last_counter: (0..writers).map(|id| vec![u64::from(id == 0); cells]).collect(),
            }),
            live_readers: AtomicUsize::new(0),
        }))
    }

    /// Number of cells K in the table.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Writer roles per cell (the table's M).
    pub fn writers(&self) -> usize {
        self.writers_per_cell
    }

    /// Whole-table reader cap `N`.
    pub fn max_readers(&self) -> usize {
        self.n_readers
    }

    /// Payload capacity in bytes per cell.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of heap the whole table owns (one slab accounting — the
    /// three group allocations plus this header).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.group.heap_bytes()
    }

    /// Slab index of sub-register `id` of cell `cell`.
    #[inline]
    fn sub(&self, cell: usize, id: usize) -> usize {
        cell * self.writers_per_cell + id
    }

    /// Claim one of the `M` whole-table writer roles. The handle owns
    /// sub-register `id` of **every** cell; dropping returns the role.
    pub fn writer(self: &Arc<Self>) -> Result<MnGroupWriter, HandleError> {
        let last_counter;
        let id;
        {
            let mut roles = self.roles.lock().expect("role allocator poisoned");
            let Some(free_id) = roles.free.pop() else {
                return Err(HandleError::WriterAlreadyClaimed);
            };
            id = free_id;
            // Resume every cell above what this id already published
            // there (the collect never reads the id's own sub-register).
            last_counter = std::mem::take(&mut roles.last_counter[id]);
        }
        let own = (0..self.cells)
            .map(|c| self.group.writer(self.sub(c, id)).expect("sub-writer claimed once per role"))
            .collect();
        // Collect readers on the other M − 1 sub-registers of every cell,
        // flattened cell-major so cell c's peers sit at
        // `c·(M−1) .. (c+1)·(M−1)`.
        let peers = (0..self.cells)
            .flat_map(|c| (0..self.writers_per_cell).filter(move |&j| j != id).map(move |j| (c, j)))
            .map(|(c, j)| {
                self.group.reader(self.sub(c, j)).expect("sub-register sized for N + M - 1 readers")
            })
            .collect();
        Ok(MnGroupWriter { table: Arc::clone(self), id, own, peers, last_counter })
    }

    /// Register one of the `N` whole-table reader handles.
    pub fn reader(self: &Arc<Self>) -> Result<MnGroupReader, HandleError> {
        let live = self.live_readers.fetch_add(1, Ordering::Acquire);
        if live >= self.n_readers {
            self.live_readers.fetch_sub(1, Ordering::Relaxed);
            return Err(HandleError::ReadersExhausted { max_readers: self.n_readers as u32 });
        }
        let subs = (0..self.cells * self.writers_per_cell)
            .map(|s| self.group.reader(s).expect("sub-register sized for N + M - 1 readers"))
            .collect();
        Ok(MnGroupReader { table: Arc::clone(self), subs, scratch: Vec::new() })
    }
}

impl fmt::Debug for MnGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MnGroup")
            .field("cells", &self.cells)
            .field("writers", &self.writers_per_cell)
            .field("max_readers", &self.n_readers)
            .field("capacity", &self.capacity)
            .field("heap_bytes", &self.heap_bytes())
            .finish()
    }
}

/// The collect of writer `id`'s write to a cell: one past the largest
/// counter among the `peers`' stamps and `last`, the largest the writer
/// has used in the cell, which it becomes. Panics rather than wrap.
fn next_stamp(peers: impl Iterator<Item = Timestamp>, last: &mut u64, id: usize) -> Timestamp {
    let max = peers.fold(*last, |max, ts| max.max(ts.counter));
    *last = max.checked_add(1).expect("MN timestamp counter exhausted (2^64 writes)");
    Timestamp { counter: *last, writer: id as u64 }
}

/// The scan of a read of a cell: the sub-register value with the largest
/// stamp (the first of equals).
fn newest<V>(subs: impl Iterator<Item = (Timestamp, V)>) -> (Timestamp, V) {
    subs.reduce(|best, sub| if sub.0 > best.0 { sub } else { best })
        .expect("at least one sub-register per cell")
}

/// Writer role `id` over every cell of an [`MnGroup`].
pub struct MnGroupWriter {
    table: Arc<MnGroup>,
    id: usize,
    /// This role's own sub-register per cell (index = cell).
    own: Vec<GroupWriter>,
    /// Collect readers, cell-major: cell c's M−1 peers at
    /// `c·(M−1) .. (c+1)·(M−1)`.
    peers: Vec<GroupReader>,
    /// Largest counter this role has used per cell.
    last_counter: Vec<u64>,
}

impl MnGroupWriter {
    /// Store a new value into cell `k`: the per-cell timestamp collect
    /// (`M − 1` wait-free sub-reads over adjacent slab lines) plus one
    /// wait-free sub-write. Returns the timestamp assigned.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `value.len()` exceeds the
    /// capacity.
    pub fn write(&mut self, k: usize, value: &[u8]) -> Timestamp {
        assert!(k < self.table.cells, "cell index {k} out of range ({})", self.table.cells);
        assert!(
            value.len() <= self.table.capacity,
            "value of {} bytes exceeds capacity {}",
            value.len(),
            self.table.capacity
        );
        let m1 = self.table.writers_per_cell - 1;
        let peers =
            self.peers[k * m1..(k + 1) * m1].iter_mut().map(|p| Timestamp::decode(&p.read()));
        let ts = next_stamp(peers, &mut self.last_counter[k], self.id);
        self.own[k].write_with(HEADER + value.len(), |buf| {
            ts.encode(buf);
            buf[HEADER..].copy_from_slice(value);
        });
        ts
    }

    /// This role's writer id (the timestamp tie-breaker in every cell).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The table this writer belongs to.
    pub fn table(&self) -> &Arc<MnGroup> {
        &self.table
    }
}

impl fmt::Debug for MnGroupWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MnGroupWriter")
            .field("id", &self.id)
            .field("cells", &self.own.len())
            .finish()
    }
}

impl Drop for MnGroupWriter {
    fn drop(&mut self) {
        // Leave the sub-registers before giving the role back: the next
        // claimant of this id claims the same sub-writers, and the role
        // mutex orders these releases before its claims.
        self.own.clear();
        self.peers.clear();
        let mut roles = self.table.roles.lock().expect("role allocator poisoned");
        // Persist the per-cell counters so a future claimant of this id
        // resumes above this handle's own sub-register timestamps.
        roles.last_counter[self.id] = std::mem::take(&mut self.last_counter);
        roles.free.push(self.id);
    }
}

/// One reader over every cell of an [`MnGroup`].
pub struct MnGroupReader {
    table: Arc<MnGroup>,
    /// One sub-reader per slab register, in slab order.
    subs: Vec<GroupReader>,
    /// Reusable key buffer for sorted multi-cell reads.
    pub(crate) scratch: Vec<u32>,
}

impl MnGroupReader {
    /// Read the newest value of cell `k`: M zero-copy sub-reads over the
    /// cell's adjacent slab lines, returning `f` over the payload with
    /// the largest timestamp. The M pins persist (per sub-register)
    /// until this handle's next read of cell `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn read_with<R>(&mut self, k: usize, f: impl FnOnce(&[u8], Timestamp) -> R) -> R {
        assert!(k < self.table.cells, "cell index {k} out of range ({})", self.table.cells);
        let m = self.table.writers_per_cell;
        // Every sub-register's pin persists independently for the whole
        // scan, so the winning view stays valid while later sub-registers
        // are read — no per-read allocation on the hot path.
        let (ts, best) = newest(self.subs[k * m..(k + 1) * m].iter_mut().map(|sub| {
            let bytes = sub.read().bytes();
            (Timestamp::decode(bytes), bytes)
        }));
        f(&best[HEADER..], ts)
    }

    /// Copy cell `k`'s newest value out, with its timestamp.
    ///
    /// Allocates per call; loops should prefer
    /// [`MnGroupReader::read_to_vec`] (reused buffer) or
    /// [`MnGroupReader::read_with`] (no copy at all).
    pub fn read_owned(&mut self, k: usize) -> (Vec<u8>, Timestamp) {
        self.read_with(k, |v, ts| (v.to_vec(), ts))
    }

    /// Copy cell `k`'s newest value into `out` (capacity reused —
    /// `clear` then `reserve`, never shrink), returning its timestamp:
    /// the allocation-free steady-state form of
    /// [`MnGroupReader::read_owned`].
    pub fn read_to_vec(&mut self, k: usize, out: &mut Vec<u8>) -> Timestamp {
        self.read_with(k, |v, ts| {
            register_common::copy_to_vec(v, out);
            ts
        })
    }

    /// The table this reader belongs to.
    pub fn table(&self) -> &Arc<MnGroup> {
        &self.table
    }
}

impl fmt::Debug for MnGroupReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MnGroupReader").field("subs", &self.subs.len()).finish()
    }
}

impl Drop for MnGroupReader {
    fn drop(&mut self) {
        // Leave the sub-registers before the gate: a claimant admitted by
        // the gate joins them next, and the gate's release/acquire pair
        // orders these leaves before its joins.
        self.subs.clear();
        self.table.live_readers.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod model_check;

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;

    fn small(cells: usize, writers: usize) -> Arc<MnGroup> {
        MnGroup::new(cells, writers, 2, 64, b"init").unwrap()
    }

    #[test]
    fn build_and_read_initial_everywhere() {
        let t = small(8, 3);
        assert_eq!(t.cells(), 8);
        assert_eq!(t.writers(), 3);
        let mut r = t.reader().unwrap();
        for k in 0..8 {
            let (v, ts) = r.read_owned(k);
            assert_eq!(v, b"init", "cell {k}");
            assert_eq!(ts, Timestamp { counter: 1, writer: 0 });
        }
    }

    #[test]
    fn rejects_degenerate_specs() {
        assert_eq!(MnGroup::new(0, 2, 1, 16, b"").unwrap_err(), BuildError::ZeroRegisters);
        assert_eq!(MnGroup::new(2, 0, 1, 16, b"").unwrap_err(), BuildError::ZeroRegisters);
        assert!(MnGroup::new(2, 2, 0, 16, b"").is_err());
        assert!(MnGroup::new(2, 2, 1, 0, b"").is_err());
        assert!(MnGroup::new(2, 2, 1, 4, b"too long").is_err());
    }

    #[test]
    fn reader_counts_beyond_the_sub_register_cap_are_refused() {
        // The sub-registers' reader count is N + M − 1, a `u32`.
        let limit = MAX_READERS as usize;
        assert_eq!(
            MnGroup::new(1, 1, (1 << 32) + 2, 16, b"").unwrap_err(),
            BuildError::TooManyReaders { requested: (1 << 32) + 2, limit }
        );
        assert_eq!(
            crate::MnRegister::new(1, 1 << 32, 16, b"").unwrap_err(),
            BuildError::TooManyReaders { requested: 1 << 32, limit }
        );
        assert_eq!(
            MnGroup::new(1, 3, limit, 16, b"").unwrap_err(),
            BuildError::TooManyReaders { requested: limit, limit: limit - 2 }
        );
    }

    #[test]
    fn sub_register_counts_beyond_usize_are_refused() {
        // `cells × writers` sub-registers overflow before any allocation.
        assert_eq!(
            MnGroup::new(usize::MAX, 2, 1, 16, b"").unwrap_err(),
            BuildError::Slab(SlabError::BadGeometry { reason: "cell count overflows usize" })
        );
    }

    /// Two threads claim a handle and drop it for 1 s. A dropped handle
    /// that gives its role back before it leaves its sub-registers lets
    /// the other thread's claim find one still taken, which panics.
    fn claim_and_drop_race<H>(claim: impl Fn() -> Result<H, HandleError> + Sync) {
        let deadline = Instant::now() + Duration::from_secs(1);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while Instant::now() < deadline {
                        drop(claim());
                    }
                });
            }
        });
    }

    #[test]
    fn dropped_reader_leaves_its_sub_registers_before_its_role() {
        let t = MnGroup::new(1, 1, 1, 16, b"").unwrap();
        claim_and_drop_race(|| t.reader());
    }

    #[test]
    fn dropped_writer_leaves_its_sub_registers_before_its_role() {
        let t = MnGroup::new(1, 1, 1, 16, b"").unwrap();
        claim_and_drop_race(|| t.writer());
    }

    #[test]
    fn writer_roles_finite_and_recycled() {
        let t = small(4, 2);
        let a = t.writer().unwrap();
        let _b = t.writer().unwrap();
        assert!(matches!(t.writer(), Err(HandleError::WriterAlreadyClaimed)));
        let id = a.id();
        drop(a);
        assert_eq!(t.writer().unwrap().id(), id, "role recycled");
    }

    #[test]
    fn reader_cap_enforced() {
        let t = small(2, 2);
        let _a = t.reader().unwrap();
        let b = t.reader().unwrap();
        assert!(matches!(t.reader(), Err(HandleError::ReadersExhausted { max_readers: 2 })));
        drop(b);
        assert!(t.reader().is_ok());
    }

    #[test]
    fn cells_are_independent_last_writer_wins() {
        let t = small(4, 2);
        let mut w0 = t.writer().unwrap();
        let mut w1 = t.writer().unwrap();
        let mut r = t.reader().unwrap();

        let t0 = w0.write(2, b"zero");
        let t1 = w1.write(2, b"one");
        assert!(t1 > t0, "later write in the same cell carries a larger ts");
        assert_eq!(r.read_owned(2).0, b"one");
        // Other cells untouched.
        assert_eq!(r.read_owned(0).0, b"init");
        assert_eq!(r.read_owned(3).0, b"init");
        // Per-cell timestamp streams are independent: cell 3's first
        // write restarts from its own collect, not cell 2's counter.
        let t3 = w0.write(3, b"three");
        assert_eq!(t3, Timestamp { counter: 2, writer: w0.id() as u64 });
        assert_eq!(r.read_owned(3).0, b"three");
    }

    #[test]
    fn recycled_role_resumes_its_per_cell_timestamp_streams() {
        // As in the single-cell register: collects never read the role's
        // own sub-registers, so the per-cell counters must survive the
        // handle being dropped and re-claimed.
        let t = small(3, 2);
        let mut w = t.writer().unwrap();
        let id = w.id();
        let mut last = [Timestamp { counter: 0, writer: 0 }; 3];
        for round in 0..20u64 {
            for (k, floor) in last.iter_mut().enumerate() {
                *floor = w.write(k, &round.to_le_bytes());
            }
        }
        drop(w);
        let mut w2 = t.writer().unwrap();
        assert_eq!(w2.id(), id, "same role re-claimed");
        let mut r = t.reader().unwrap();
        for (k, floor) in last.iter().enumerate() {
            let ts = w2.write(k, b"later");
            assert!(ts > *floor, "cell {k}: recycled role went backwards: {floor:?} -> {ts:?}");
            assert_eq!(r.read_owned(k).0, b"later", "cell {k}: newest write must win");
        }
    }

    #[test]
    fn timestamps_advance_per_cell_across_roles() {
        let t = small(3, 3);
        let mut ws: Vec<_> = (0..3).map(|_| t.writer().unwrap()).collect();
        for k in 0..3 {
            let mut last = Timestamp { counter: 0, writer: 0 };
            for round in 0..20u64 {
                for w in ws.iter_mut() {
                    let ts = w.write(k, &round.to_le_bytes());
                    assert!(ts > last, "cell {k}: {last:?} -> {ts:?}");
                    last = ts;
                }
            }
        }
    }

    #[test]
    fn one_slab_for_the_whole_table() {
        // K cells of M sub-registers must cost ONE group, not K·M boxes:
        // the per-sub-register footprint matches a plain ArcGroup of the
        // same shape plus only the constant table header.
        let t = MnGroup::new(64, 4, 1, 32, b"").unwrap();
        let plain = ArcGroup::builder(64 * 4, 4, HEADER + 32).build().unwrap();
        let overhead = t.heap_bytes() - plain.heap_bytes();
        assert!(
            overhead <= std::mem::size_of::<MnGroup>() + 64,
            "table overhead {overhead} B beyond the raw slab"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_panics() {
        let t = small(2, 2);
        let mut r = t.reader().unwrap();
        let _ = r.read_owned(2);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_write_panics() {
        let t = small(2, 2);
        let mut w = t.writer().unwrap();
        w.write(0, &[0u8; 65]);
    }

    #[test]
    fn concurrent_roles_smoke() {
        use std::sync::atomic::AtomicBool;
        let t = MnGroup::new(16, 3, 2, 32, &[7; 8]).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let mut w = t.writer().unwrap();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    w.write((i % 16) as usize, &[(i % 251) as u8; 8]);
                }
            }));
        }
        for _ in 0..2 {
            let mut r = t.reader().unwrap();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut last = vec![Timestamp { counter: 0, writer: 0 }; 16];
                while !stop.load(Ordering::Relaxed) {
                    for (k, floor) in last.iter_mut().enumerate() {
                        r.read_with(k, |v, ts| {
                            let first = v.first().copied().unwrap_or(0);
                            assert!(v.iter().all(|&b| b == first), "torn cell read");
                            assert!(ts >= *floor, "cell {k} timestamp regression");
                            *floor = ts;
                        });
                    }
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
