//! Panic-safe publication (ISSUE tentpole layer 1): a writer that
//! unwinds anywhere inside W1–W3 — from its own fill closure or from an
//! injected protocol-point panic — must leave the plane *clean*:
//!
//! * pre-W2 unwinds discard the in-progress slot (readers keep the old
//!   value, the version does not advance);
//! * at/post-W2 unwinds complete the publication exactly (readers see
//!   the new value, the version advances once);
//! * the writer handle stays usable after the unwind, and after the
//!   handle drops the role is immediately re-claimable in-process — no
//!   cross-process `recover()` round-trip required;
//! * concurrent readers never observe a torn or half-published value
//!   while a writer panics repeatedly.
//!
//! This is the same classification `recover()` applies after a writer
//! *death*, run synchronously by the publication guard's `Drop`.
//!
//! Also here: the try_write capacity-boundary matrix (ISSUE satellite c)
//! — both placements, every boundary length, and the guarantee that a
//! rejected write is a true no-op (guard path ≡ copy path under
//! rejection).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use arc_register::crash::{self, CrashPoint};
use arc_register::{ArcGroup, ArcRegister, TypedArc, WriteError, INLINE_CAP};

/// The crash registry is process-global, and an armed point fires in any
/// write of the process: every test that arms it or writes holds this
/// lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

const POINTS: [CrashPoint; 3] = [CrashPoint::PreW2, CrashPoint::AtW2, CrashPoint::PostW2];

/// A panic out of the caller's *fill closure* (before W2) discards the
/// in-progress slot: old value intact, version unchanged, writer handle
/// immediately reusable.
#[test]
fn fill_closure_panic_discards_and_writer_stays_usable() {
    let _g = lock();
    let reg = ArcRegister::builder(2, 128).build().unwrap();
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    w.write(b"before");
    let v0 = reg.published_version();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        w.write_with(5, |_| panic!("fill exploded"));
    }));
    assert!(unwound.is_err());

    // The half-filled slot was discarded, not published.
    assert_eq!(&*r.read(), b"before");
    assert_eq!(reg.published_version(), v0, "a discarded write must not advance the version");

    // The handle survived the unwind: the very next write publishes.
    w.write(b"after");
    assert_eq!(&*r.read(), b"after");
    assert_eq!(reg.published_version(), v0 + 1);
}

/// An injected panic at every protocol point: pre-W2 discards, at/post-W2
/// roll the publication forward — and in every case the handle keeps
/// working and the version advances exactly once per *published* write.
#[test]
fn protocol_point_panic_leaves_plane_consistent() {
    let _g = lock();
    for point in POINTS {
        let reg = ArcRegister::builder(2, 128).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"first");
        let v0 = reg.published_version();

        crash::arm_panic(point);
        let unwound = catch_unwind(AssertUnwindSafe(|| w.write(b"second")));
        crash::disarm();
        assert!(unwound.is_err(), "{point:?}: the armed write must unwind");

        let (expect, expect_v): (&[u8], u64) = match point {
            // Not yet swapped: the guard discards the filled slot.
            CrashPoint::PreW2 => (b"first", v0),
            // Swapped: the guard completes the publication exactly.
            CrashPoint::AtW2 | CrashPoint::PostW2 => (b"second", v0 + 1),
        };
        assert_eq!(&*r.read(), expect, "{point:?}: wrong value after unwind");
        assert_eq!(reg.published_version(), expect_v, "{point:?}: wrong version after unwind");

        // Either way the plane is clean: the same handle publishes again
        // and the version moves exactly one step from wherever it landed.
        w.write(b"third");
        assert_eq!(&*r.read(), b"third", "{point:?}: handle unusable after unwind");
        assert_eq!(reg.published_version(), expect_v + 1);
    }
}

/// Group writers: after an unwind the register's health stays OK, the
/// sibling registers are untouched, and *dropping* the poisoned handle
/// makes the role re-claimable in-process — no `recover()` round-trip.
#[test]
fn group_writer_panic_role_is_immediately_reclaimable() {
    let _g = lock();
    for point in POINTS {
        let group = ArcGroup::builder(2, 2, 64).initial(b"init").build().unwrap();
        let mut w0 = group.writer(0).unwrap();
        let mut r0 = group.reader(0).unwrap();
        let mut r1 = group.reader(1).unwrap();

        crash::arm_panic(point);
        let unwound = catch_unwind(AssertUnwindSafe(|| w0.write(b"boom")));
        crash::disarm();
        assert!(unwound.is_err());

        // The sibling register never noticed.
        assert_eq!(&*r1.read(), b"init", "{point:?}: sibling register disturbed");
        // This register is consistent (discard or completed publication).
        {
            let seen = r0.read();
            assert!(&*seen == b"init" || &*seen == b"boom", "{point:?}: torn value {seen:?}");
        }
        let health = group.health_report();
        assert!(health.all_healthy(), "{point:?}: unwind left the plane unhealthy: {health:?}");

        // Drop the unwound handle → the role is free right now.
        drop(w0);
        let mut w0 = group.writer(0).expect("role must be re-claimable after a panicked writer");
        w0.write(b"reclaimed");
        assert_eq!(&*r0.read(), b"reclaimed");
    }
}

/// The typed facade rides the same guard: a protocol-point panic under a
/// `TypedWriter::write` resolves to discard-or-complete, never a torn
/// value, and the handle keeps working.
#[test]
fn typed_writer_panic_resolves_clean() {
    let _g = lock();
    for point in POINTS {
        let reg: Arc<TypedArc<u64>> = TypedArc::new(2, 11u64);
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();

        crash::arm_panic(point);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = w.write(22);
        }));
        crash::disarm();
        assert!(unwound.is_err());

        let seen = *r.read();
        match point {
            CrashPoint::PreW2 => assert_eq!(seen, 11, "{point:?}"),
            CrashPoint::AtW2 | CrashPoint::PostW2 => assert_eq!(seen, 22, "{point:?}"),
        }
        let _ = w.write(33);
        assert_eq!(*r.read(), 33, "{point:?}: typed handle unusable after unwind");
    }
}

/// Capacity-boundary matrix for the fallible write paths (satellite c):
/// every boundary length on both placements, oversize strictly rejected.
#[test]
fn try_write_accepts_every_boundary_and_rejects_oversize() {
    let _g = lock();
    // Arena-capable register (capacity > INLINE_CAP): both placements.
    let cap = 128usize;
    let reg = ArcRegister::builder(2, cap).build().unwrap();
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    for len in [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, cap - 1, cap] {
        let v: Vec<u8> = (0..len).map(|i| (i * 13 + len) as u8).collect();
        assert_eq!(w.try_write(&v), Ok(()), "len {len} within capacity must succeed");
        let snap = r.read();
        assert_eq!(&*snap, &v[..], "len {len} round-trip");
        assert_eq!(snap.inline(), len <= INLINE_CAP, "placement boundary at len {len}");
    }
    match w.try_write(&vec![0u8; cap + 1]) {
        Err(WriteError::PayloadTooLarge { len, capacity }) => {
            assert_eq!((len, capacity), (cap + 1, cap));
        }
        other => panic!("oversize must be rejected, got {other:?}"),
    }

    // Inline-only register (capacity == INLINE_CAP): the capacity check
    // fires before placement ever matters.
    let reg = ArcRegister::builder(2, INLINE_CAP).build().unwrap();
    let mut w = reg.writer().unwrap();
    assert_eq!(w.try_write(&[7u8; INLINE_CAP]), Ok(()));
    assert!(matches!(
        w.try_write(&[7u8; INLINE_CAP + 1]),
        Err(WriteError::PayloadTooLarge { len, capacity })
            if len == INLINE_CAP + 1 && capacity == INLINE_CAP
    ));
}

/// A rejected write is a true no-op: the guard path (`try_write_with`)
/// and the copy path (`try_write`) are equivalent under rejection — no
/// slot consumed, no version motion, reads undisturbed, and the fill
/// closure never runs.
#[test]
fn rejected_writes_are_no_ops_on_both_paths() {
    let _g = lock();
    let cap = 64usize;
    let reg = ArcRegister::builder(2, cap).build().unwrap();
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    w.write(b"stable");
    let v0 = reg.published_version();

    let oversize = vec![0u8; cap + 1];
    let by_copy = w.try_write(&oversize);
    let fill_ran = AtomicBool::new(false);
    let by_guard = w.try_write_with(cap + 1, |_| fill_ran.store(true, Ordering::Relaxed));
    assert_eq!(by_copy, by_guard, "copy and guard paths must agree under rejection");
    assert!(!fill_ran.load(Ordering::Relaxed), "rejection must precede the fill closure");
    assert_eq!(&*r.read(), b"stable");
    assert_eq!(reg.published_version(), v0, "a rejected write must not move the version");
    // The handle is of course still live.
    w.write(b"next");
    assert_eq!(reg.published_version(), v0 + 1);
}

/// Batch writes publish the accepted prefix and stop at the first
/// oversized payload; the suffix is untouched and resubmittable.
#[test]
fn batch_rejection_publishes_exact_prefix() {
    let _g = lock();
    let group = ArcGroup::builder(4, 2, 16).initial(b"z").build().unwrap();
    let mut set = group.writer_set().unwrap();
    let big = [1u8; 17];
    let err = set.try_write_batch(&[(0, b"a"), (1, b"b"), (2, &big), (3, b"d")]);
    assert!(matches!(err, Err(WriteError::PayloadTooLarge { len: 17, capacity: 16 })));
    let expect: [&[u8]; 4] = [b"a", b"b", b"z", b"z"];
    for (k, want) in expect.iter().enumerate() {
        let mut r = group.reader(k).unwrap();
        assert_eq!(&*r.read(), *want, "register {k} after rejected batch");
    }
    // The suffix resubmits cleanly (the op that failed, shrunk to fit).
    set.try_write_batch(&[(2, b"c"), (3, b"d")]).unwrap();
    let mut r = group.reader(2).unwrap();
    assert_eq!(&*r.read(), b"c");
}

/// Readers running concurrently with a repeatedly-panicking writer only
/// ever observe fully-published values — never torn bytes, never a
/// version that regresses.
#[test]
fn concurrent_readers_survive_a_panicking_writer() {
    let _g = lock();
    let reg = ArcRegister::builder(4, 64).build().unwrap();
    let mut w = reg.writer().unwrap();
    w.write(&0u64.to_le_bytes().repeat(8));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut r = reg.reader().unwrap();
                let mut last_version = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = r.read();
                    assert_eq!(snap.len(), 64, "torn length");
                    let word = u64::from_le_bytes(snap[..8].try_into().unwrap());
                    for chunk in snap.chunks_exact(8) {
                        assert_eq!(
                            u64::from_le_bytes(chunk.try_into().unwrap()),
                            word,
                            "torn payload: mixed words in one snapshot"
                        );
                    }
                    let version = snap.version();
                    assert!(version >= last_version, "version regressed");
                    last_version = version;
                }
            })
        })
        .collect();

    for i in 1..200u64 {
        let payload = i.to_le_bytes().repeat(8);
        if i % 3 == 0 {
            crash::arm_panic(POINTS[(i % 9 / 3) as usize]);
            let _ = catch_unwind(AssertUnwindSafe(|| w.write(&payload)));
            crash::disarm();
        } else {
            w.write(&payload);
        }
    }
    stop.store(true, Ordering::Relaxed);
    for t in readers {
        t.join().unwrap();
    }
}
