//! Guard-safety battery for the zero-copy read path (DESIGN.md §3.8).
//!
//! Three angles:
//!
//! * **property** — guard bytes must equal the copying reads' bytes at
//!   every length, with the inline/arena boundary lengths (0 / 47 / 48 /
//!   49 / max) always included in every case;
//! * **stress** — guards held across writer-handle reclaim (the recycled-
//!   writer hazard class) and across concurrent overwrites must stay
//!   byte-stable and torn-free;
//! * the guard-outlives-handle shapes are `compile_fail` doctests on
//!   [`arc_register::ReadGuard`] — the borrow checker is the test rig.

use arc_register::{ArcRegister, INLINE_CAP};
use proptest::prelude::*;
use register_common::ReadHandle;

const CAP: usize = 4096;

/// The placement-boundary lengths every run must cover.
const BOUNDARY_LENS: [usize; 5] = [0, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, CAP];

fn value_of(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(131).wrapping_add(seed * 29 + len)) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Guard bytes == copied-read bytes, for arbitrary lengths *plus* the
    // inline/arena boundary lengths on every case, through both placement
    // modes.
    #[test]
    fn guard_equals_copied_read_at_every_length(
        lens in proptest::collection::vec(0usize..=CAP, 1..8),
        inline in any::<bool>(),
    ) {
        let reg = ArcRegister::builder(2, CAP).inline(inline).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r_guard = reg.reader().unwrap();
        let mut r_copy = reg.reader().unwrap();
        let mut copied = Vec::new();
        let mut into_buf = vec![0u8; CAP];
        for (i, &len) in lens.iter().chain(BOUNDARY_LENS.iter()).enumerate() {
            let v = value_of(len, i);
            w.write(&v);
            // The zero-copy guard on one handle ...
            let guard = r_guard.read_ref();
            prop_assert_eq!(&*guard, &v[..], "guard bytes at len {}", len);
            prop_assert_eq!(guard.inline(), inline && len <= INLINE_CAP);
            // ... must agree with both copying forms on another handle
            // (taken while the guard is held: same publication).
            let n = r_copy.read_to_vec(&mut copied);
            prop_assert_eq!(n, len);
            prop_assert_eq!(&copied[..], &*guard, "read_to_vec at len {}", len);
            let n = r_copy.read_into(&mut into_buf);
            prop_assert_eq!(n, len);
            prop_assert_eq!(&into_buf[..n], &*guard, "read_into at len {}", len);
        }
    }

    // `read_to_vec` never shrinks and, once warm, never reallocates.
    #[test]
    fn read_to_vec_capacity_is_monotone(lens in proptest::collection::vec(0usize..=CAP, 2..12)) {
        let reg = ArcRegister::builder(1, CAP).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        let mut out = Vec::new();
        let mut max_cap = 0usize;
        for (i, &len) in lens.iter().enumerate() {
            w.write(&value_of(len, i));
            r.read_to_vec(&mut out);
            prop_assert_eq!(out.len(), len);
            prop_assert!(out.capacity() >= max_cap, "capacity shrank");
            max_cap = max_cap.max(out.capacity());
        }
    }
}

/// Guards held across writer-handle reclaim: the pinned bytes must stay
/// stable while successive writer handles (dropped and re-claimed between
/// writes) cycle every other slot arbitrarily often.
#[test]
fn held_guard_survives_writer_reclaim() {
    let reg = ArcRegister::builder(1, 256).build().unwrap(); // 3 slots
    let mut r = reg.reader().unwrap();
    {
        let mut w = reg.writer().unwrap();
        w.write(b"pin-through-reclaim");
    } // writer handle dropped: role released
    let guard = r.read_ref();
    assert_eq!(&*guard, b"pin-through-reclaim");
    for round in 0..50u8 {
        // Re-claim the writer role (fresh handle, fresh ring) and write;
        // the held guard's slot must never re-enter rotation.
        let mut w = reg.writer().unwrap();
        w.write(&[round; 64]);
        w.write(&[round ^ 0xFF; 192]);
        assert_eq!(&*guard, b"pin-through-reclaim", "round {round}");
    }
    drop(guard);
    let mut w = reg.writer().unwrap();
    w.write(b"after");
    assert_eq!(&*r.read_ref(), b"after");
}

/// Concurrent stress: reader threads alternate guard reads (held across a
/// few writer publications) with copy reads, while the writer thread
/// repeatedly drops and re-claims its handle mid-stream. Constant-fill
/// payloads expose any torn or recycled-under-pin read.
#[test]
fn guards_survive_concurrent_writer_reclaim_stress() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let reg = ArcRegister::builder(4, 1024).initial(&[0u8; 1024]).build().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..3 {
        let reg = Arc::clone(&reg);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut r = reg.reader().unwrap();
            let mut copied = Vec::new();
            // One unconditional read before honoring `stop`: the writer's
            // bursts can all finish before this thread is first
            // scheduled, and the total-reads assertion below must not
            // race the scheduler.
            let mut reads = 0u64;
            loop {
                {
                    let guard = r.read_ref();
                    let first = guard.first().copied().unwrap_or(0);
                    // Hold the guard while the writer races on.
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                    assert!(guard.iter().all(|&b| b == first), "torn or recycled under pin");
                }
                let n = r.read_to_vec(&mut copied);
                assert!(n > 0);
                let first = copied[0];
                assert!(copied.iter().all(|&b| b == first), "torn copy");
                reads += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            reads
        }));
    }
    // Writer: bursts of writes, handle dropped and re-claimed between
    // bursts (the reclaim path under standing reader pins).
    for burst in 0..200u32 {
        let mut w = reg.writer().unwrap();
        for i in 0..50u32 {
            let fill = ((burst * 50 + i) % 251 + 1) as u8;
            w.write(&vec![fill; 512]);
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
}
