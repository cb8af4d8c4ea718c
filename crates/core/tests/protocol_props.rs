//! Property tests: arbitrary single-threaded op sequences against a
//! reference model.
//!
//! Concurrency is exercised elsewhere (stress tests, the interleave model
//! checker). Here we pin down the *sequential* specification exhaustively:
//! in a single-threaded history every read must return exactly the last
//! written value, the fast path must fire precisely when no write
//! intervened since the same handle's previous read, and the presence-unit
//! accounting must match the number of pinned handles at every step.

use arc_register::ArcRegister;
use proptest::prelude::*;
use register_common::payload::{stamp, verify, MIN_PAYLOAD_LEN};

const CAP: usize = 96;
const MAX_READERS: u32 = 5;

#[derive(Debug, Clone)]
enum Op {
    /// Read with handle slot `i` (if open).
    Read(usize),
    /// Write a fresh stamped value of the given size.
    Write(usize),
    /// Open a handle in slot `i` (if closed and capacity remains).
    Join(usize),
    /// Close handle `i` (if open).
    Leave(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..MAX_READERS as usize).prop_map(Op::Read),
        3 => (MIN_PAYLOAD_LEN..=CAP).prop_map(Op::Write),
        1 => (0..MAX_READERS as usize).prop_map(Op::Join),
        1 => (0..MAX_READERS as usize).prop_map(Op::Leave),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sequential_spec_holds(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let reg = {
            let mut init = vec![0u8; MIN_PAYLOAD_LEN];
            stamp(&mut init, 0);
            ArcRegister::builder(MAX_READERS, CAP).initial(&init).build().unwrap()
        };
        let mut w = reg.writer().unwrap();
        let mut handles: Vec<Option<arc_register::ArcReader>> =
            (0..MAX_READERS as usize).map(|_| None).collect();
        // Reference model state.
        let mut seq: u64 = 0;           // seq of the latest write
        let mut writes: u64 = 0;        // total writes so far
        let mut last_seen: Vec<Option<u64>> = vec![None; MAX_READERS as usize];

        for op in ops {
            match op {
                Op::Join(i) => {
                    if handles[i].is_none() && reg.live_readers() < MAX_READERS {
                        handles[i] = Some(reg.reader().unwrap());
                        last_seen[i] = None;
                    }
                }
                Op::Leave(i) => {
                    handles[i] = None; // drop releases the unit
                    last_seen[i] = None;
                }
                Op::Write(size) => {
                    seq += 1;
                    writes += 1;
                    let mut buf = vec![0u8; size];
                    stamp(&mut buf, seq);
                    w.write(&buf);
                }
                Op::Read(i) => {
                    if let Some(r) = handles[i].as_mut() {
                        let snap = r.read();
                        // 1. Sequential consistency: exactly the last value.
                        let got = verify(&snap).expect("read returned a torn/corrupt value");
                        prop_assert_eq!(got, seq, "read must return the last written value");
                        // 2. Fast path fires iff this handle already saw the
                        //    current write generation.
                        let expect_fast = last_seen[i] == Some(writes);
                        prop_assert_eq!(
                            snap.fast(), expect_fast,
                            "fast-path misprediction (seen={:?}, writes={})",
                            last_seen[i], writes
                        );
                        last_seen[i] = Some(writes);
                    }
                }
            }
            // 3. Unit accounting: one outstanding unit per pinned handle.
            // (Quiescent single-threaded state, so the diagnostic is exact.)
            let pinned = handles
                .iter()
                .filter(|h| h.as_ref().is_some_and(|r| r.pinned_slot().is_some()))
                .count() as u64;
            prop_assert_eq!(reg.outstanding_units(), pinned, "presence-unit accounting drifted");
        }

        // 4. Liveness: after the sequence, the writer can still perform
        //    n_slots * 3 writes (no slot leak), and every open handle reads
        //    the latest value.
        for k in 1..=(reg.n_slots() * 3) as u64 {
            let mut buf = vec![0u8; MIN_PAYLOAD_LEN];
            stamp(&mut buf, seq + k);
            w.write(&buf);
        }
        let final_seq = seq + (reg.n_slots() * 3) as u64;
        for h in handles.iter_mut().flatten() {
            let snap = h.read();
            prop_assert_eq!(verify(&snap).unwrap(), final_seq);
        }
    }

    #[test]
    fn camping_reader_never_blocks_writer(
        n_writes in 1..500usize,
        size in MIN_PAYLOAD_LEN..=CAP,
    ) {
        // One reader pins an old snapshot forever; the writer must stay
        // wait-free and the pinned snapshot must stay intact bit-for-bit.
        let mut init = vec![0u8; CAP];
        stamp(&mut init, 0);
        let reg = ArcRegister::builder(2, CAP).initial(&init).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut camper = reg.reader().unwrap();
        let snap = camper.read();
        let pinned_bytes: &[u8] = snap.bytes();

        let mut live = reg.reader().unwrap();
        for k in 1..=n_writes as u64 {
            let mut buf = vec![0u8; size];
            stamp(&mut buf, k);
            w.write(&buf);
            let s = live.read();
            prop_assert_eq!(verify(&s).unwrap(), k);
        }
        prop_assert_eq!(verify(pinned_bytes).unwrap(), 0, "camped snapshot was overwritten");
    }
}
