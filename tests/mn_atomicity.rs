//! End-to-end atomicity verification of the (M,N) register: record real
//! concurrent multi-writer executions and validate them with the
//! timestamp-order checker (`linearizer::mw`).
//!
//! Values are identified by their embedded `(counter, writer)` timestamps;
//! payloads are additionally stamped so tears are caught independently.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use linearizer::{check_atomic_mw, MwRead, MwWrite};
use mn_register::{MnGroup, MnRegister, Timestamp};
use register_common::payload::{stamp, verify, MIN_PAYLOAD_LEN};
use register_common::HistoryClock;

fn run_mn(writers: usize, readers: usize, size: usize, window: Duration) {
    let mut initial = vec![0u8; size];
    stamp(&mut initial, 0);
    let reg = MnRegister::new(writers, readers, size, &initial).unwrap();
    let clock = Arc::new(HistoryClock::new());
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(writers + readers + 1));
    let writes = Arc::new(Mutex::new(Vec::<MwWrite>::new()));
    let reads = Arc::new(Mutex::new(Vec::<MwRead>::new()));

    let mut handles = Vec::new();
    for _ in 0..writers {
        let mut w = reg.writer().unwrap();
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let writes = Arc::clone(&writes);
        handles.push(std::thread::spawn(move || {
            let mut buf = vec![0u8; size];
            let mut log = Vec::new();
            let mut k = 0u64;
            barrier.wait();
            // One write before honoring `stop`, so the progress assertion holds
            // however late this thread is first scheduled.
            loop {
                k += 1;
                // Payload stamp: seq unique per writer via (k, writer id)
                // folded into one u64 (id in the high bits).
                stamp(&mut buf, (w.id() as u64) << 48 | k);
                let invoked = clock.tick();
                let ts = w.write(&buf);
                let responded = clock.tick();
                log.push(MwWrite {
                    writer: w.id(),
                    ts: (ts.counter, ts.writer),
                    invoked,
                    responded,
                });
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            writes.lock().unwrap().extend(log);
        }));
    }
    for reader_id in 0..readers {
        let mut r = reg.reader().unwrap();
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let reads = Arc::clone(&reads);
        handles.push(std::thread::spawn(move || {
            let mut log = Vec::new();
            barrier.wait();
            // Likewise one read before honoring `stop`.
            loop {
                let invoked = clock.tick();
                let ts: Timestamp = r.read_with(|v, ts| {
                    verify(v).expect("torn MN payload");
                    ts
                });
                let responded = clock.tick();
                log.push(MwRead {
                    reader: reader_id,
                    ts: (ts.counter, ts.writer),
                    invoked,
                    responded,
                });
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            reads.lock().unwrap().extend(log);
        }));
    }

    barrier.wait();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    let mut writes = Arc::try_unwrap(writes).unwrap().into_inner().unwrap();
    let reads = Arc::try_unwrap(reads).unwrap().into_inner().unwrap();
    // Ticks move up by 2 so that the initial value, stamped (1, 0), can be
    // a write over ticks 0–1 that completed before every recorded operation.
    for w in writes.iter_mut() {
        w.invoked += 2;
        w.responded += 2;
    }
    let mut reads = reads;
    for r in reads.iter_mut() {
        r.invoked += 2;
        r.responded += 2;
    }
    writes.push(MwWrite { writer: 0, ts: (1, 0), invoked: 0, responded: 1 });

    let n_writes = writes.len();
    let n_reads = reads.len();
    if let Err(v) = check_atomic_mw(&writes, &reads) {
        panic!("MN register atomicity violation: {v}");
    }
    println!("MN {writers}x{readers}: atomic over {n_writes} writes / {n_reads} reads");
    assert!(n_writes > 1 && n_reads > 0);
}

/// Record concurrent executions of an [`MnGroup`] multi-writer table and
/// check **every cell's** history independently: each cell is its own
/// (M,N) register, so per-cell timestamp-witness atomicity is exactly the
/// table's correctness claim (cells share only the slab, never state).
fn run_mn_table(cells: usize, writers: usize, readers: usize, size: usize, window: Duration) {
    let mut initial = vec![0u8; size];
    stamp(&mut initial, 0);
    let table = MnGroup::new(cells, writers, readers, size, &initial).unwrap();
    let clock = Arc::new(HistoryClock::new());
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(writers + readers + 1));
    let writes = Arc::new(Mutex::new(vec![Vec::<MwWrite>::new(); cells]));
    let reads = Arc::new(Mutex::new(vec![Vec::<MwRead>::new(); cells]));

    let mut handles = Vec::new();
    for _ in 0..writers {
        let mut w = table.writer().unwrap();
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let writes = Arc::clone(&writes);
        handles.push(std::thread::spawn(move || {
            let mut buf = vec![0u8; size];
            let mut log = vec![Vec::new(); cells];
            let mut seq = 0u64;
            barrier.wait();
            // One write before honoring `stop` (see `run_mn`).
            loop {
                seq += 1;
                let k = (seq as usize * 7) % cells;
                stamp(&mut buf, (w.id() as u64) << 48 | seq);
                let invoked = clock.tick();
                let ts = w.write(k, &buf);
                let responded = clock.tick();
                log[k].push(MwWrite {
                    writer: w.id(),
                    ts: (ts.counter, ts.writer),
                    invoked,
                    responded,
                });
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            let mut all = writes.lock().unwrap();
            for (k, cell_log) in log.into_iter().enumerate() {
                all[k].extend(cell_log);
            }
        }));
    }
    for reader_id in 0..readers {
        let mut r = table.reader().unwrap();
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let reads = Arc::clone(&reads);
        handles.push(std::thread::spawn(move || {
            let mut log = vec![Vec::new(); cells];
            let mut seq = 0u64;
            barrier.wait();
            // One read before honoring `stop` (see `run_mn`).
            loop {
                seq += 1;
                let k = (reader_id + seq as usize * 3) % cells;
                let invoked = clock.tick();
                let ts: Timestamp = r.read_with(k, |v, ts| {
                    verify(v).expect("torn MN table payload");
                    ts
                });
                let responded = clock.tick();
                log[k].push(MwRead {
                    reader: reader_id,
                    ts: (ts.counter, ts.writer),
                    invoked,
                    responded,
                });
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            let mut all = reads.lock().unwrap();
            for (k, cell_log) in log.into_iter().enumerate() {
                all[k].extend(cell_log);
            }
        }));
    }

    barrier.wait();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    let per_cell_writes = Arc::try_unwrap(writes).unwrap().into_inner().unwrap();
    let per_cell_reads = Arc::try_unwrap(reads).unwrap().into_inner().unwrap();
    let mut total_writes = 0;
    let mut total_reads = 0;
    for k in 0..cells {
        // Per cell, the same tick-shift + synthetic-initial-write scheme
        // as `run_mn`: the cell's initial value carries ts (1, 0).
        let mut w = per_cell_writes[k].clone();
        let mut r = per_cell_reads[k].clone();
        for op in w.iter_mut() {
            op.invoked += 2;
            op.responded += 2;
        }
        for op in r.iter_mut() {
            op.invoked += 2;
            op.responded += 2;
        }
        w.push(MwWrite { writer: 0, ts: (1, 0), invoked: 0, responded: 1 });
        total_writes += w.len();
        total_reads += r.len();
        if let Err(v) = check_atomic_mw(&w, &r) {
            panic!("MN table cell {k} atomicity violation: {v}");
        }
    }
    println!(
        "MN table {cells}x{writers}x{readers}: every cell atomic over {total_writes} writes / \
         {total_reads} reads"
    );
    assert!(total_writes > cells && total_reads > 0);
}

const WINDOW: Duration = Duration::from_millis(250);

#[test]
fn two_writers_four_readers() {
    run_mn(2, 4, 256, WINDOW);
}

#[test]
fn four_writers_four_readers() {
    run_mn(4, 4, 256, WINDOW);
}

#[test]
fn many_writers_large_values() {
    run_mn(6, 2, 8 << 10, WINDOW);
}

#[test]
fn single_writer_degenerates_to_1n() {
    run_mn(1, 4, MIN_PAYLOAD_LEN, WINDOW);
}

#[test]
fn table_three_writers_two_readers_four_cells() {
    run_mn_table(4, 3, 2, 256, WINDOW);
}

#[test]
fn table_two_writers_many_cells() {
    run_mn_table(16, 2, 2, MIN_PAYLOAD_LEN, WINDOW);
}
