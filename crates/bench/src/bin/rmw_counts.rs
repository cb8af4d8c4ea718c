//! **E5 — the RMW-avoidance claim** (§1, §5): "ARC executes a RMW
//! instruction only if the write operation of a newer register value is
//! serialized before ... the read", whereas "RF executes an RMW instruction
//! (i.e. a FetchAndOr) upon any read".
//!
//! This harness runs ARC and RF side by side while *throttling the writer*
//! to different rates and reports RMW instructions per read, the fast-path
//! hit rate, and the free-slot probe counts. As the read/write ratio grows,
//! ARC's RMWs per read must approach 0 while RF's stays pinned at 1.
//!
//! Every handle counts its own operations; each thread hands its handle's
//! counts back when it joins, and the harness sums them:
//!
//! ```text
//! cargo run -p arc-bench --release --bin rmw_counts
//! ```

use arc_bench::{out_dir, BenchProfile};
use arc_register::{ArcReader, ArcRegister, ArcWriter};
use baseline_registers::{RfReader, RfRegister, RfWriter};
use register_common::{OpMetrics, ReadHandle, WriteHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use workload_harness::{write_csv, Table};

/// Free-run the readers while the writer paces itself to roughly
/// `writes_per_sec`, for `window`. Each thread hands back its handle's
/// counts when it stops; the result is their sum.
fn run<R: ReadHandle, W: WriteHandle>(
    (readers, reader_counts): (Vec<R>, fn(&R) -> OpMetrics),
    (mut w, writer_counts): (W, fn(&W) -> OpMetrics),
    writes_per_sec: u64,
    window: Duration,
) -> OpMetrics {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(readers.len() + 2));
    let mut handles = Vec::new();
    for mut r in readers {
        let (stop, barrier) = (Arc::clone(&stop), Arc::clone(&barrier));
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(r.read_with(|v| v.len()));
            }
            reader_counts(&r)
        }));
    }
    {
        let (stop, barrier) = (Arc::clone(&stop), Arc::clone(&barrier));
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let interval = Duration::from_nanos(1_000_000_000 / writes_per_sec.max(1));
            let mut next = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                w.write(&[1; 64]);
                next += interval;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                } else {
                    next = now;
                }
            }
            writer_counts(&w)
        }));
    }
    barrier.wait();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

fn run_arc(readers: usize, writes_per_sec: u64, window: Duration) -> OpMetrics {
    let reg = ArcRegister::builder(readers as u32, 4096).initial(&[0; 64]).build().unwrap();
    let rs = (0..readers).map(|_| reg.reader().unwrap()).collect();
    let w = reg.writer().unwrap();
    run((rs, ArcReader::metrics), (w, ArcWriter::metrics), writes_per_sec, window)
}

fn run_rf(readers: usize, writes_per_sec: u64, window: Duration) -> OpMetrics {
    let reg = RfRegister::new(readers, 4096, &[0; 64]).unwrap();
    let rs = (0..readers).map(|_| reg.reader().unwrap()).collect();
    let w = reg.writer().unwrap();
    run((rs, RfReader::metrics), (w, RfWriter::metrics), writes_per_sec, window)
}

fn main() {
    let profile = BenchProfile::from_env();
    let window = profile.duration().max(Duration::from_millis(200));
    // One CPU is left to the writer, but at least one reader always runs:
    // under a one-CPU affinity the readers share the CPU with it.
    let readers = std::thread::available_parallelism().map_or(4, |n| n.get() - 1).clamp(1, 16);
    println!("# E5 — RMW instructions per read (ARC vs RF), {readers} readers");
    println!("# RF must stay at 1.0; ARC must fall toward 0 as writes get rarer.\n");

    let mut table = Table::new(vec![
        "writes_per_sec",
        "arc_rmws_per_read",
        "arc_fast_fraction",
        "arc_probes_per_write",
        "rf_rmws_per_read",
    ]);
    for wps in [1_000_000u64, 100_000, 10_000, 1_000, 100, 10] {
        let arc = run_arc(readers, wps, window);
        let rf = run_rf(readers, wps, window);
        let (arc_rmw, arc_fast, arc_probes) =
            (arc.rmws_per_read(), arc.fast_read_fraction(), arc.probes_per_write());
        let rf_rmw = rf.rmws_per_read();
        println!(
            "w/s={wps:<9} ARC rmws/read={arc_rmw:.4} fast={:.1}% probes/write={arc_probes:.2} | RF rmws/read={rf_rmw:.4}",
            arc_fast * 100.0
        );
        table.row(vec![
            wps.to_string(),
            format!("{arc_rmw:.5}"),
            format!("{arc_fast:.5}"),
            format!("{arc_probes:.3}"),
            format!("{rf_rmw:.5}"),
        ]);
    }
    let path = out_dir().join("rmw_counts.csv");
    write_csv(&table, &path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
