//! Torn-read hunting: heavy write/read contention with stamped payloads at
//! several sizes. A single byte from the wrong write generation fails the
//! run — this is the most direct falsification attempt against the
//! "multi-word atomicity" claim of every register in the workspace.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use arc_register::ArcFamily;
use baseline_registers::{LockFamily, PetersonFamily, RfFamily, SeqlockFamily};
use register_common::payload::{stamp, verify};
use register_common::{ReadHandle, RegisterFamily, RegisterSpec, WriteHandle};

fn hunt<F: RegisterFamily>(readers: usize, size: usize, window: Duration) {
    let mut initial = vec![0u8; size];
    stamp(&mut initial, 0);
    let (mut writer, reader_handles) =
        F::build(RegisterSpec::new(readers, size), &initial).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(readers + 2));
    let reads_done = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for mut reader in reader_handles {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let reads_done = Arc::clone(&reads_done);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut last_seq = 0u64;
            // One read before honoring `stop`, so the `reads_done`
            // assertion holds however late this thread is first scheduled.
            loop {
                let seq = reader.read_with(|v| {
                    verify(v).unwrap_or_else(|e| panic!("{}: torn read: {e}", F::NAME))
                });
                // Per-reader monotonicity (no new-old inversion in program
                // order) comes free with the stamp.
                assert!(seq >= last_seq, "{}: reader saw seq regress {last_seq} -> {seq}", F::NAME);
                last_seq = seq;
                reads_done.fetch_add(1, Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        }));
    }

    {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut buf = vec![0u8; size];
            barrier.wait();
            let mut seq = 0u64;
            while !stop.load(Ordering::Relaxed) {
                seq += 1;
                stamp(&mut buf, seq);
                writer.write(&buf);
            }
        }));
    }

    barrier.wait();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert!(reads_done.load(Ordering::Relaxed) > 0, "{}: no reads completed", F::NAME);
}

const WINDOW: Duration = Duration::from_millis(200);

macro_rules! hunt_suite {
    ($mod_name:ident, $family:ty) => {
        mod $mod_name {
            use super::*;

            #[test]
            fn small_values() {
                hunt::<$family>(4, 64, WINDOW);
            }
            #[test]
            fn page_sized_values() {
                hunt::<$family>(4, 4 << 10, WINDOW);
            }
            #[test]
            fn large_values() {
                hunt::<$family>(2, 128 << 10, WINDOW);
            }
            #[test]
            fn many_readers() {
                hunt::<$family>(10, 256, WINDOW);
            }
        }
    };
}

hunt_suite!(arc, ArcFamily);
hunt_suite!(rf, RfFamily);
hunt_suite!(peterson, PetersonFamily);
hunt_suite!(lock, LockFamily);
hunt_suite!(seqlock, SeqlockFamily);

/// The inline/arena placement boundary (`arc_register::INLINE_CAP`):
/// contended hunts exactly at, below and above the boundary, plus a writer
/// that flips placement on every write so the same slots alternate between
/// header-inline and arena storage under concurrent readers.
mod arc_inline_boundary {
    use super::*;
    use arc_register::{ArcRegister, INLINE_CAP};

    #[test]
    fn at_boundary() {
        hunt::<ArcFamily>(4, INLINE_CAP, WINDOW);
    }

    #[test]
    fn just_below_boundary() {
        hunt::<ArcFamily>(4, INLINE_CAP - 1, WINDOW);
    }

    #[test]
    fn just_above_boundary() {
        hunt::<ArcFamily>(4, INLINE_CAP + 1, WINDOW);
    }

    #[test]
    fn alternating_placement_under_contention() {
        // Stamped initial value, as in `hunt`: a reader whose first read
        // beats the writer's first publish must still see a verifiable
        // payload (the empty default is a seq-less 0-byte value, which
        // under scheduler jitter read as a "torn" false positive).
        let mut initial = vec![0u8; 2 * INLINE_CAP];
        stamp(&mut initial, 0);
        let reg = ArcRegister::builder(4, 2 * INLINE_CAP).initial(&initial).build().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(5));
        let reads_done = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let mut r = reg.reader().unwrap();
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let reads_done = Arc::clone(&reads_done);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let mut last_seq = 0u64;
                // One read before honoring `stop` (see `hunt`).
                loop {
                    let snap = r.read();
                    let seq =
                        verify(&snap).unwrap_or_else(|e| panic!("alternating: torn read: {e}"));
                    assert_eq!(
                        snap.inline(),
                        snap.len() <= INLINE_CAP,
                        "placement must follow the length"
                    );
                    assert!(seq >= last_seq, "seq regressed {last_seq} -> {seq}");
                    last_seq = seq;
                    reads_done.fetch_add(1, Ordering::Relaxed);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            }));
        }
        {
            let mut w = reg.writer().unwrap();
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    // Odd writes inline (48 B), even writes arena (49+ B).
                    let len = if seq % 2 == 1 {
                        INLINE_CAP
                    } else {
                        INLINE_CAP + 1 + (seq % 47) as usize
                    };
                    let mut buf = vec![0u8; len];
                    stamp(&mut buf, seq);
                    w.write(&buf);
                }
            }));
        }
        barrier.wait();
        std::thread::sleep(WINDOW);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert!(reads_done.load(Ordering::Relaxed) > 0, "no reads completed");
    }
}

/// ARC with the fast path disabled must be just as torn-free (the ablation
/// variant ships in benches; its safety is validated here).
mod arc_ablations {
    use super::*;
    use arc_register::{ArcReader, ArcRegister, ArcWriter};
    use register_common::traits::BuildError;

    struct NoFastPath;
    impl RegisterFamily for NoFastPath {
        type Writer = ArcWriter;
        type Reader = ArcReader;
        const NAME: &'static str = "arc-nofp";
        fn build(
            spec: RegisterSpec,
            initial: &[u8],
        ) -> Result<(ArcWriter, Vec<ArcReader>), BuildError> {
            let reg = ArcRegister::builder(spec.readers as u32, spec.capacity)
                .initial(initial)
                .fast_path(false)
                .build()?;
            let w = reg.writer().expect("fresh");
            let rs = (0..spec.readers).map(|_| reg.reader().expect("cap")).collect();
            Ok((w, rs))
        }
    }

    struct TightSlots;
    impl RegisterFamily for TightSlots {
        type Writer = ArcWriter;
        type Reader = ArcReader;
        const NAME: &'static str = "arc-3slots";
        fn build(
            spec: RegisterSpec,
            initial: &[u8],
        ) -> Result<(ArcWriter, Vec<ArcReader>), BuildError> {
            let reg = ArcRegister::builder(spec.readers as u32, spec.capacity)
                .initial(initial)
                .slots(3)
                .build()?;
            let w = reg.writer().expect("fresh");
            let rs = (0..spec.readers).map(|_| reg.reader().expect("cap")).collect();
            Ok((w, rs))
        }
    }

    #[test]
    fn no_fast_path_is_torn_free() {
        hunt::<NoFastPath>(4, 4 << 10, WINDOW);
    }

    #[test]
    fn tight_slots_is_torn_free() {
        // 3 slots under 2 readers: writer may wait (wait-freedom lost) but
        // safety must hold.
        hunt::<TightSlots>(2, 1 << 10, WINDOW);
    }
}
