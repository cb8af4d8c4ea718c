//! Exact operation counts behind the E5 claim: ARC issues a read RMW only
//! when a newer write was serialized before the read, while RF pays a
//! `fetch_or` on every read.
//!
//! Every handle counts its own operations, so these tests read the counts
//! straight from the handles they drive. All of them are single-threaded:
//! no assertion depends on how threads are scheduled.

use arc_register::{ArcGroup, ArcRegister, TypedArc};
use baseline_registers::RfRegister;

const N: u64 = 1000;

#[test]
fn arc_reads_of_an_unchanged_value_pay_one_rmw() {
    let reg = ArcRegister::builder(2, 64).initial(b"unchanged").build().unwrap();
    let mut r = reg.reader().unwrap();
    for _ in 0..N {
        assert_eq!(&*r.read(), b"unchanged");
    }
    let m = r.metrics();
    assert_eq!(m.reads(), N);
    assert_eq!(m.slow_reads, 1, "only the first read acquires a slot");
    assert_eq!(m.fast_reads, N - 1);
    assert_eq!(m.read_rmws, 1, "the first read's R4; every R2 hit is free");
}

#[test]
fn arc_read_after_a_write_pays_r3_and_r4() {
    let reg = ArcRegister::builder(2, 64).initial(b"old").build().unwrap();
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    let _ = r.read();
    let before = r.metrics();
    w.write(b"new");
    assert_eq!(&*r.read(), b"new");
    let m = r.metrics();
    assert_eq!(m.slow_reads - before.slow_reads, 1);
    assert_eq!(m.fast_reads, before.fast_reads);
    assert_eq!(m.read_rmws - before.read_rmws, 2, "R3 on the old slot, then R4");
}

#[test]
fn arc_superseded_guard_releases_at_drop_and_the_next_read_pays_only_r4() {
    let reg = ArcRegister::builder(2, 64).initial(b"old").build().unwrap();
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    let g = r.read_ref();
    w.write(b"new");
    assert_eq!(&*g, b"old");
    drop(g);
    let after_drop = r.metrics();
    assert_eq!(after_drop.read_rmws, 2, "the first read's R4, then the eager R3 at drop");
    assert_eq!(&*r.read(), b"new");
    let m = r.metrics();
    assert_eq!(m.slow_reads, 2);
    assert_eq!(m.read_rmws - after_drop.read_rmws, 1, "only R4: the pin is already released");
}

#[test]
fn arc_write_pays_the_hint_swap_and_w2() {
    for (hint, rmws_per_write) in [(true, 2), (false, 1)] {
        let reg = ArcRegister::builder(2, 64).hint(hint).build().unwrap();
        let mut w = reg.writer().unwrap();
        for i in 0..N {
            w.write(&i.to_le_bytes());
        }
        let m = w.metrics();
        assert_eq!(m.writes, N);
        assert_eq!(m.write_rmws, rmws_per_write * N, "hint {hint}");
        // No reader pins anything, so the first free slot probed is taken.
        assert_eq!(m.slot_probes, N, "hint {hint}");
        // With the hint on, each superseded slot is reclaimed into the
        // writer's cache and serves the next write; the first write scans.
        assert_eq!(m.ring_hits, if hint { N - 1 } else { 0 }, "hint {hint}");
        assert_eq!(m.hint_hits, 0, "no reader posted a hint");
    }
}

#[test]
fn arc_reader_posted_hint_serves_the_next_write() {
    let reg = ArcRegister::builder(2, 64).build().unwrap();
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    let _ = r.read(); // pins slot 0
    w.write(b"one"); // freezes slot 0 with one standing unit: not reclaimed
    let _ = r.read(); // R3 frees slot 0 and posts it as the hint
    w.write(b"two"); // drains the hint and takes slot 0
    let m = w.metrics();
    assert_eq!(m.writes, 2);
    assert_eq!(m.hint_hits, 1);
    assert_eq!(m.ring_hits, 1, "a hint is served through the writer's cache");
}

#[test]
fn rf_pays_one_rmw_on_every_read() {
    let reg = RfRegister::new(2, 64, b"unchanged").unwrap();
    let mut r = reg.reader().unwrap();
    for _ in 0..N {
        assert_eq!(r.read(), b"unchanged");
    }
    let m = r.metrics();
    assert_eq!(m.read_rmws, N);
    assert_eq!(m.fast_reads, 0);
    assert_eq!(m.slow_reads, N);
    let mut w = reg.writer().unwrap();
    w.write(b"new");
    assert_eq!((w.metrics().writes, w.metrics().write_rmws), (1, 1));
}

#[test]
fn typed_handles_count_like_byte_handles() {
    let reg = TypedArc::new(2, 0u64);
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    let _ = r.read(); // slow: R4
    let _ = r.read(); // fast
    let g = r.read_ref(); // fast
    w.write(1);
    drop(g); // superseded: the eager R3
    assert_eq!(*r.read(), 1); // slow: only R4
    let m = r.metrics();
    assert_eq!((m.fast_reads, m.slow_reads, m.read_rmws), (2, 2, 3));
    assert_eq!((w.metrics().writes, w.metrics().write_rmws), (1, 2));
}

#[test]
fn group_handles_and_sets_keep_one_count_each() {
    let group = ArcGroup::builder(8, 2, 16).build().unwrap();
    let mut w = group.writer(0).unwrap();
    let mut r = group.reader(0).unwrap();
    let _ = r.read();
    let _ = r.read();
    w.write(b"x");
    let m = r.metrics();
    assert_eq!((m.fast_reads, m.slow_reads, m.read_rmws), (1, 1, 1));
    assert_eq!(w.metrics().writes, 1);
    drop(w);

    // A set counts once for all its registers.
    let mut ws = group.writer_set().unwrap();
    let mut rs = group.reader_set().unwrap();
    let keys: Vec<usize> = (0..8).collect();
    rs.read_many(&keys, |_, _| {}); // eight first reads: R4 each
    rs.read_many(&keys, |_, _| {}); // eight R2 hits
    ws.write(3, b"y");
    assert_eq!(&*rs.read(3), b"y"); // R3 + R4
    let m = rs.metrics();
    assert_eq!((m.fast_reads, m.slow_reads, m.read_rmws), (8, 9, 10));
    assert_eq!(ws.metrics().writes, 1);
}
