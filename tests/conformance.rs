//! Cross-algorithm conformance battery: every register family must satisfy
//! the same sequential specification and basic concurrent sanity, so the
//! figure benches compare like with like.

use arc_register::{ArcFamily, GroupTableFamily, LocalPlan, ShardedTableFamily, SplitPlan};
use baseline_registers::{LockFamily, PetersonFamily, RfFamily, SeqlockFamily};
use mn_register::{MnFamily1, MnTableFamily};
use register_common::payload::{stamp, verify, MIN_PAYLOAD_LEN};
use register_common::{
    ReadHandle, RegisterFamily, RegisterSpec, TableFamily, TableReadHandle, TableWriteHandle,
    WriteHandle,
};

fn sequential_roundtrip<F: RegisterFamily>() {
    let (mut w, mut readers) = F::build(RegisterSpec::new(3, 256), b"initial").unwrap();
    for r in readers.iter_mut() {
        r.read_with(|v| assert_eq!(v, b"initial", "{}: initial value", F::NAME));
    }
    for i in 0..100u64 {
        let val = i.to_le_bytes();
        w.write(&val);
        for r in readers.iter_mut() {
            r.read_with(|v| assert_eq!(v, &val, "{}: write {i}", F::NAME));
        }
    }
}

fn variable_sizes<F: RegisterFamily>() {
    let (mut w, mut readers) = F::build(RegisterSpec::new(2, 512), &[]).unwrap();
    for len in [0usize, 1, 7, 8, 9, 100, 511, 512] {
        let val = vec![(len % 251) as u8; len];
        w.write(&val);
        for r in readers.iter_mut() {
            r.read_with(|v| {
                assert_eq!(v.len(), len, "{}: length {len}", F::NAME);
                assert_eq!(v, &val[..], "{}: content at {len}", F::NAME);
            });
        }
    }
}

fn stamped_payload_cycle<F: RegisterFamily>() {
    let (mut w, mut readers) = F::build(RegisterSpec::new(2, 1024), &{
        let mut init = vec![0u8; MIN_PAYLOAD_LEN];
        stamp(&mut init, 0);
        init
    })
    .unwrap();
    let mut buf = vec![0u8; 1024];
    for seq in 1..=50u64 {
        let size = MIN_PAYLOAD_LEN + (seq as usize * 37) % (1024 - MIN_PAYLOAD_LEN);
        stamp(&mut buf[..size], seq);
        w.write(&buf[..size]);
        for r in readers.iter_mut() {
            let got = r.read_with(verify).unwrap();
            assert_eq!(got, seq, "{}: stamped seq", F::NAME);
        }
    }
}

fn read_into_matches_read_with<F: RegisterFamily>() {
    let (mut w, mut readers) = F::build(RegisterSpec::new(1, 64), b"x").unwrap();
    w.write(b"read_into test");
    let r = &mut readers[0];
    let via_with = r.read_with(|v| v.to_vec());
    let mut out = [0u8; 64];
    let n = r.read_into(&mut out);
    assert_eq!(&out[..n], &via_with[..], "{}", F::NAME);
}

fn rejects_bad_specs<F: RegisterFamily>() {
    assert!(F::build(RegisterSpec::new(0, 64), &[]).is_err(), "{}: 0 readers", F::NAME);
    assert!(F::build(RegisterSpec::new(1, 0), &[]).is_err(), "{}: 0 capacity", F::NAME);
    assert!(
        F::build(RegisterSpec::new(1, 4), &[0u8; 8]).is_err(),
        "{}: oversized initial",
        F::NAME
    );
}

fn concurrent_constant_fill<F: RegisterFamily>() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    let (mut w, readers) = F::build(RegisterSpec::new(4, 256), &[0u8; 128]).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    // Writer waits for every reader to start: on single-core hosts the
    // write loop can otherwise finish before a reader is ever scheduled,
    // making the progress assertion below vacuously fail.
    let barrier = Arc::new(Barrier::new(readers.len() + 1));
    let mut handles = Vec::new();
    for mut r in readers {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            barrier.wait();
            loop {
                r.read_with(|v| {
                    let first = v.first().copied().unwrap_or(0);
                    assert!(v.iter().all(|&b| b == first), "{}: torn constant-fill read", F::NAME);
                });
                reads += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            reads
        }));
    }
    barrier.wait();
    for i in 0..20_000u32 {
        w.write(&[(i % 251) as u8; 128]);
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "{}: readers made no progress", F::NAME);
}

/// Panic-safety battery (the seqlock writer-reclaim parity bug,
/// generalized): a writer handle that dies by unwinding must never leave
/// readers able to validate torn state, and the last complete value must
/// stay readable. The only panic every family's public API admits is the
/// oversized-value assert, which fires before any shared mutation — the
/// fill-closure mid-write variants live in `panic_safety` below.
fn writer_death_preserves_last_value<F: RegisterFamily>() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (mut w, mut readers) = F::build(RegisterSpec::new(2, 64), b"init").unwrap();
    w.write(b"stable");
    // Move the handle into the panicking closure so the unwind drops it —
    // the same mid-operation reclaim a crashing writer thread performs.
    let died = catch_unwind(AssertUnwindSafe(move || {
        let mut w = w;
        w.write(&[0u8; 65]); // exceeds capacity: panics
    }));
    assert!(died.is_err(), "{}: oversized write must panic", F::NAME);
    for r in readers.iter_mut() {
        r.read_with(|v| {
            assert_eq!(v, b"stable", "{}: writer death corrupted the register", F::NAME)
        });
    }
}

macro_rules! conformance {
    ($mod_name:ident, $family:ty) => {
        mod $mod_name {
            use super::*;

            #[test]
            fn writer_death_preserves_last_value_() {
                writer_death_preserves_last_value::<$family>();
            }
            #[test]
            fn sequential_roundtrip_() {
                sequential_roundtrip::<$family>();
            }
            #[test]
            fn variable_sizes_() {
                variable_sizes::<$family>();
            }
            #[test]
            fn stamped_payload_cycle_() {
                stamped_payload_cycle::<$family>();
            }
            #[test]
            fn read_into_matches_read_with_() {
                read_into_matches_read_with::<$family>();
            }
            #[test]
            fn rejects_bad_specs_() {
                rejects_bad_specs::<$family>();
            }
            #[test]
            fn concurrent_constant_fill_() {
                concurrent_constant_fill::<$family>();
            }
        }
    };
}

conformance!(arc, ArcFamily);
conformance!(rf, RfFamily);
conformance!(peterson, PetersonFamily);
conformance!(lock, LockFamily);
conformance!(seqlock, SeqlockFamily);
// The MN composition as a degenerate (1,N) register: exercises the
// timestamp header stamping and the slab sub-register placement through
// the identical battery as the plain algorithms.
conformance!(mn1, MnFamily1);

// ---------------------------------------------------------------------
// Table-family conformance: every multi-register layout must satisfy the
// same per-key sequential specification, so the table workloads and the
// group/MN scaling benches compare like with like.
// ---------------------------------------------------------------------

fn table_sequential_roundtrip<F: TableFamily>() {
    let (mut w, mut readers) = F::build(16, RegisterSpec::new(2, 64), b"initial").unwrap();
    for r in readers.iter_mut() {
        for k in 0..16 {
            r.read_with(k, |v| assert_eq!(v, b"initial", "{}: initial key {k}", F::NAME));
        }
    }
    for round in 0..20u64 {
        for k in 0..16usize {
            let val = (round * 31 + k as u64).to_le_bytes();
            w.write(k, &val);
            for r in readers.iter_mut() {
                r.read_with(k, |v| assert_eq!(v, &val, "{}: round {round} key {k}", F::NAME));
            }
        }
    }
}

fn table_keys_are_independent<F: TableFamily>() {
    let (mut w, mut readers) = F::build(8, RegisterSpec::new(1, 64), b"seed").unwrap();
    w.write(3, b"three");
    let r = &mut readers[0];
    for k in 0..8 {
        let expect: &[u8] = if k == 3 { b"three" } else { b"seed" };
        r.read_with(k, |v| assert_eq!(v, expect, "{}: key {k}", F::NAME));
    }
}

fn table_read_many_visits_every_key_once<F: TableFamily>() {
    let (mut w, mut readers) = F::build(8, RegisterSpec::new(1, 16), &[]).unwrap();
    for k in 0..8 {
        w.write(k, &[k as u8; 4]);
    }
    let keys = [5usize, 1, 7, 1, 0];
    let mut seen = Vec::new();
    readers[0].read_many(&keys, |k, v| {
        assert_eq!(v, &[k as u8; 4], "{}: key {k} content", F::NAME);
        seen.push(k);
    });
    seen.sort_unstable();
    let mut expect = keys.to_vec();
    expect.sort_unstable();
    assert_eq!(seen, expect, "{}: every key exactly once per occurrence", F::NAME);
}

fn table_write_batch_applies_all<F: TableFamily>() {
    let (mut w, mut readers) = F::build(8, RegisterSpec::new(1, 16), &[]).unwrap();
    let values: Vec<Vec<u8>> = (0..8u8).map(|k| vec![k ^ 0x5A; 8]).collect();
    let ops: Vec<(usize, &[u8])> =
        values.iter().enumerate().map(|(k, v)| (k, v.as_slice())).collect();
    w.write_batch(&ops);
    for (k, v) in values.iter().enumerate() {
        readers[0].read_with(k, |got| assert_eq!(got, &v[..], "{}: batched key {k}", F::NAME));
    }
}

fn table_rejects_bad_specs<F: TableFamily>() {
    assert!(F::build(0, RegisterSpec::new(1, 16), &[]).is_err(), "{}: 0 registers", F::NAME);
    assert!(F::build(4, RegisterSpec::new(0, 16), &[]).is_err(), "{}: 0 readers", F::NAME);
    assert!(F::build(4, RegisterSpec::new(1, 0), &[]).is_err(), "{}: 0 capacity", F::NAME);
    assert!(
        F::build(4, RegisterSpec::new(1, 4), &[0u8; 8]).is_err(),
        "{}: oversized initial",
        F::NAME
    );
}

macro_rules! table_conformance {
    ($mod_name:ident, $family:ty) => {
        mod $mod_name {
            use super::*;

            #[test]
            fn sequential_roundtrip_() {
                table_sequential_roundtrip::<$family>();
            }
            #[test]
            fn keys_are_independent_() {
                table_keys_are_independent::<$family>();
            }
            #[test]
            fn read_many_visits_every_key_once_() {
                table_read_many_visits_every_key_once::<$family>();
            }
            #[test]
            fn write_batch_applies_all_() {
                table_write_batch_applies_all::<$family>();
            }
            #[test]
            fn rejects_bad_specs_() {
                table_rejects_bad_specs::<$family>();
            }
        }
    };
}

table_conformance!(table_group, GroupTableFamily);
table_conformance!(table_mn, MnTableFamily);
// The NUMA-sharded table through the identical battery: LocalPlan is the
// production topology-driven sharding (one shard on single-node CI),
// SplitPlan forces two shards so the cross-shard routing/translation
// paths are conformance-tested even where the topology has one node.
table_conformance!(table_sharded, ShardedTableFamily<LocalPlan>);
table_conformance!(table_sharded_split, ShardedTableFamily<SplitPlan>);

// ---------------------------------------------------------------------
// Mid-write panic safety: the families whose write path runs user code
// inside the critical section (fill closures) — a panic there drops the
// handle with the write half done, which is where the seqlock's parity
// bug lived. Each register must (a) never validate torn state, (b) let a
// new writer reclaim the role, and (c) recover full consistency with the
// next complete write.
// ---------------------------------------------------------------------

mod panic_safety {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use arc_suite::{ArcRegister, LockRegister, PetersonRegister, SeqlockRegister};

    #[test]
    fn arc_fill_panic_leaves_protocol_intact() {
        // ARC's fill runs between W1 (select) and W2 (publish): a panic
        // abandons a *free* slot, so nothing was ever shared. The dropped
        // handle must release the role and the reclaimer must continue
        // from the last published state.
        let reg = ArcRegister::builder(2, 64).initial(b"v0").build().unwrap();
        let mut r = reg.reader().unwrap();
        let w = reg.writer().unwrap();
        let died = catch_unwind(AssertUnwindSafe(move || {
            let mut w = w;
            w.write_with(8, |_| panic!("die between W1 and W2"));
        }));
        assert!(died.is_err());
        assert_eq!(&*r.read(), b"v0", "abandoned slot must not be visible");
        let mut w2 = reg.writer().expect("role reclaimable after mid-write death");
        w2.write(b"v1");
        let snap = r.read();
        assert_eq!(&*snap, b"v1");
        assert_eq!(snap.version(), 1, "version sequence must survive the dead writer");
    }

    #[test]
    fn seqlock_fill_panic_poisons_until_next_write() {
        let reg = SeqlockRegister::new(64, b"good").unwrap();
        let w = reg.writer().unwrap();
        let died = catch_unwind(AssertUnwindSafe(move || {
            let mut w = w;
            w.write_with(16, |_| panic!("die inside the critical section"));
        }));
        assert!(died.is_err());
        assert!(reg.poisoned(), "mid-write death must leave the counter odd");
        let mut r = reg.reader();
        assert!(r.try_read().is_none(), "poisoned state must not validate");
        let mut w2 = reg.writer().expect("role reclaimable after mid-write death");
        w2.write(b"healed");
        assert!(!reg.poisoned());
        assert_eq!(r.read(), b"healed");
    }

    #[test]
    fn peterson_death_is_benign_and_reclaimable() {
        // Peterson has no fill-closure API: the only public panic fires
        // before any shared store (audit note on PetersonWriter::drop).
        let reg = PetersonRegister::new(2, 32, b"base").unwrap();
        let mut r = reg.reader().unwrap();
        let w = reg.writer().unwrap();
        let died = catch_unwind(AssertUnwindSafe(move || {
            let mut w = w;
            w.write(&[0u8; 33]);
        }));
        assert!(died.is_err());
        assert_eq!(r.read(), b"base");
        let mut w2 = reg.writer().expect("role reclaimable");
        w2.write(b"next");
        assert_eq!(r.read(), b"next");
    }

    #[test]
    fn lock_death_is_benign_and_reclaimable() {
        // The lock register's guard releases on unwind and no user code
        // runs under it (audit note on LockWriter::drop).
        let reg = LockRegister::new(32, b"base").unwrap();
        let mut r = reg.reader();
        let w = reg.writer().unwrap();
        let died = catch_unwind(AssertUnwindSafe(move || {
            let mut w = w;
            w.write(&[0u8; 33]);
        }));
        assert!(died.is_err());
        r.read_with_lock(|v| assert_eq!(v, b"base"));
        let mut w2 = reg.writer().expect("role reclaimable");
        w2.write(b"next");
        r.read_with_lock(|v| assert_eq!(v, b"next"));
    }
}
