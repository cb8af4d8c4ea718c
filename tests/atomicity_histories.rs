//! End-to-end atomicity verification: record real multi-threaded histories
//! against each register and run them through the linearizability checker
//! — the empirical counterpart to the paper's §4 proof (Criterion 1:
//! regular + no new-old inversion ⟺ atomic).
//!
//! Writers stamp every value with its sequence number; readers verify the
//! stamp (catching torn reads) and log (seq, invocation, response) on a
//! shared logical clock. The checker then validates regularity, the
//! absence of new-old inversions, and constructs an explicit linearization
//! witness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use arc_register::ArcFamily;
use baseline_registers::{LockFamily, PetersonFamily, RfFamily, SeqlockFamily};
use linearizer::{check_atomic, linearize, HistoryRecorder};
use register_common::payload::{stamp, verify, MIN_PAYLOAD_LEN};
use register_common::{ReadHandle, RegisterFamily, RegisterSpec, WriteHandle};

/// Record a concurrent run of `F` and return Ok(()) if atomic.
fn record_and_check<F: RegisterFamily>(readers: usize, value_size: usize, window: Duration) {
    let mut initial = vec![0u8; value_size];
    stamp(&mut initial, 0);
    let (mut writer, reader_handles) =
        F::build(RegisterSpec::new(readers, value_size), &initial).unwrap();

    let rec = HistoryRecorder::new();
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(readers + 2));

    let mut handles = Vec::new();
    for (i, mut reader) in reader_handles.into_iter().enumerate() {
        let mut log = rec.read_log(i);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            // One read before honoring `stop`, so the progress assertion holds
            // however late this thread is first scheduled.
            loop {
                let pend = log.begin();
                let seq = reader.read_with(|v| {
                    verify(v).unwrap_or_else(|e| panic!("{}: bad payload: {e}", F::NAME))
                });
                log.finish(pend, seq);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            log
        }));
    }

    let mut wlog = rec.write_log();
    let writer_handle = {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; value_size];
            barrier.wait();
            // Likewise one write before honoring `stop`.
            loop {
                let seq = wlog.next_seq();
                stamp(&mut buf, seq);
                let pend = wlog.begin();
                writer.write(&buf);
                wlog.finish(pend, seq);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            wlog
        })
    };

    barrier.wait();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);

    let wlog = writer_handle.join().expect("writer panicked");
    let rlogs: Vec<_> = handles.into_iter().map(|h| h.join().expect("reader panicked")).collect();
    let total_reads: usize = rlogs.iter().map(|l| l.len()).sum();
    let total_writes = wlog.len();
    let history = HistoryRecorder::assemble(wlog, rlogs).expect("well-formed history");

    if let Err(v) = check_atomic(&history) {
        panic!("{}: atomicity violation: {v}", F::NAME);
    }
    let witness = linearize(&history).expect("witness for atomic history");
    assert_eq!(witness.len(), history.len() + 1);
    println!(
        "{}: atomic over {total_writes} writes / {total_reads} reads (witness built)",
        F::NAME
    );
    assert!(total_writes > 0 && total_reads > 0, "{}: no concurrency exercised", F::NAME);
}

const WINDOW: Duration = Duration::from_millis(250);

#[test]
fn arc_histories_are_atomic() {
    record_and_check::<ArcFamily>(4, 256, WINDOW);
}

#[test]
fn arc_histories_large_values() {
    record_and_check::<ArcFamily>(3, 16 << 10, WINDOW);
}

#[test]
fn arc_histories_many_readers() {
    record_and_check::<ArcFamily>(12, MIN_PAYLOAD_LEN, WINDOW);
}

#[test]
fn rf_histories_are_atomic() {
    record_and_check::<RfFamily>(4, 256, WINDOW);
}

#[test]
fn rf_histories_large_values() {
    record_and_check::<RfFamily>(3, 16 << 10, WINDOW);
}

#[test]
fn peterson_histories_are_atomic() {
    record_and_check::<PetersonFamily>(4, 256, WINDOW);
}

#[test]
fn peterson_histories_large_values() {
    record_and_check::<PetersonFamily>(3, 16 << 10, WINDOW);
}

#[test]
fn lock_histories_are_atomic() {
    record_and_check::<LockFamily>(4, 256, WINDOW);
}

#[test]
fn seqlock_histories_are_atomic() {
    record_and_check::<SeqlockFamily>(4, 256, WINDOW);
}
