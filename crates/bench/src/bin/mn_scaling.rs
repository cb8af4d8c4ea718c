//! **E8 (extension)** — (M,N) register scaling: throughput as the writer
//! count M grows, at fixed reader count — plus the multi-writer table
//! workload on the shared slab.
//!
//! ```text
//! ARC_BENCH_PROFILE=quick|standard|full cargo run -p arc-bench --release --bin mn_scaling
//! ```
//!
//! Expected shape: reads cost O(M) sub-reads (mostly fast-path, so the
//! slope is gentle); writes cost O(M) collects + 1 publish. Total
//! throughput degrades roughly linearly in M — the price of multi-writer
//! atomicity without locks, and still wait-free end to end.
//!
//! Two sections feed `BENCH_ops.json`:
//!
//! 1. **`mn_scaling`** — throughput per writer count, `profile.runs()`
//!    (≥ 3) trials per point with mean **and** std;
//! 2. **`mn_table`** — the multi-writer table workload (W writer roles ×
//!    K cells, uniform/Zipf) through `MnTableFamily` on the shared slab.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use arc_bench::json::table_to_json;
use arc_bench::{json_dir, merge_section, out_dir, BenchProfile, Json};
use mn_register::{MnRegister, MnTableFamily};
use workload_harness::{run_mw_table, write_csv, KeyDist, MwMultiConfig, Summary, Table};

/// One timed trial; returns (read Mops/s, write Mops/s).
fn run_trial(writers: usize, readers: usize, size: usize, profile: BenchProfile) -> (f64, f64) {
    let initial = vec![0u8; size];
    let reg = MnRegister::new(writers, readers, size, &initial).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(writers + readers + 1));
    let mut handles = Vec::new();

    for _ in 0..writers {
        let mut w = reg.writer().unwrap();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let buf = vec![7u8; size];
            barrier.wait();
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                w.write(&buf);
                ops += 1;
            }
            (ops, 0u64)
        }));
    }
    for _ in 0..readers {
        let mut r = reg.reader().unwrap();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                r.read_with(|v, _ts| std::hint::black_box(v.len()));
                ops += 1;
            }
            (0u64, ops)
        }));
    }

    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(profile.duration());
    stop.store(true, Ordering::Relaxed);
    let mut writes = 0u64;
    let mut reads = 0u64;
    for h in handles {
        let (w, r) = h.join().unwrap();
        writes += w;
        reads += r;
    }
    let secs = started.elapsed().as_secs_f64();
    (reads as f64 / secs / 1e6, writes as f64 / secs / 1e6)
}

/// All trials of one point: per-class summaries over `profile.runs()` runs.
fn run_point(
    writers: usize,
    readers: usize,
    size: usize,
    profile: BenchProfile,
) -> (Summary, Summary) {
    let trials = profile.runs().max(3);
    let mut rd = Vec::with_capacity(trials);
    let mut wr = Vec::with_capacity(trials);
    for _ in 0..trials {
        let (r, w) = run_trial(writers, readers, size, profile);
        rd.push(r);
        wr.push(w);
    }
    (Summary::new(rd), Summary::new(wr))
}

/// The multi-writer table workload: W writer roles × K cells on one
/// slab, each write a per-cell collect + publish, readers bursting
/// sorted keys over the slab.
fn mn_table_points(profile: BenchProfile, table: &mut Table) -> Vec<Json> {
    const K: usize = 1024;
    const VALUE: usize = 32;
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let reader_threads = (cores.saturating_sub(4)).clamp(1, 4);
    let writer_counts = profile.thin(&[2usize, 4]);
    let mut rows = Vec::new();
    for &w in &writer_counts {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
            let cfg = MwMultiConfig {
                registers: K,
                writer_threads: w,
                reader_threads,
                value_size: VALUE,
                duration: profile.duration().max(Duration::from_millis(60)),
                write_batch: 32,
                read_burst: 128,
                dist,
                seed: 0xE8 ^ (w as u64) << 8,
            };
            let res = run_mw_table::<MnTableFamily>(&cfg);
            let (rp50, _, rp99, _, _) = res.read_latency.summary();
            let (wp50, _, wp99, _, _) = res.write_latency.summary();
            let bytes_per_cell = res.heap_bytes.map(|b| b / K);
            println!(
                "  table W={w} K={K} {:<8} {:>8.2} Mops/s  read p50/p99 {rp50}/{rp99} ns  \
                 write p50/p99 {wp50}/{wp99} ns  {} B/cell",
                dist.name(),
                res.mops(),
                bytes_per_cell.unwrap_or(0),
            );
            table.row(vec![
                w.to_string(),
                K.to_string(),
                dist.name().to_string(),
                reader_threads.to_string(),
                format!("{:.3}", res.mops()),
                rp50.to_string(),
                rp99.to_string(),
                wp50.to_string(),
                wp99.to_string(),
                bytes_per_cell.unwrap_or(0).to_string(),
            ]);
            let mut j = Json::obj();
            j.set("writers", Json::int(w as u64));
            j.set("registers", Json::int(K as u64));
            j.set("dist", Json::str(dist.name()));
            j.set("reader_threads", Json::int(reader_threads as u64));
            j.set("value_size", Json::int(VALUE as u64));
            j.set("ops_per_sec", Json::num(res.mops() * 1e6));
            j.set("read_mops", Json::num(res.read_mops()));
            j.set("read_p50_ns", Json::int(rp50));
            j.set("read_p99_ns", Json::int(rp99));
            j.set("write_p50_ns", Json::int(wp50));
            j.set("write_p99_ns", Json::int(wp99));
            j.set("bytes_per_register", bytes_per_cell.map_or(Json::Null, |b| Json::int(b as u64)));
            rows.push(j);
        }
    }
    rows
}

fn main() {
    let profile = BenchProfile::from_env();
    let cores = std::thread::available_parallelism().map_or(8, |n| n.get());
    let readers = (cores / 2).clamp(2, 8);
    let size = 4 << 10;
    let writer_counts = profile.thin(&[1usize, 2, 4, 8]);
    println!("# E8 — (M,N) register scaling with writer count (N={readers}, {size} B)\n");

    let mut table = Table::new(vec![
        "writers",
        "readers",
        "trials",
        "read_mops",
        "read_std",
        "write_mops",
        "write_std",
    ]);
    for &m in &writer_counts {
        let (rd, wr) = run_point(m, readers, size, profile);
        println!(
            "  M={m:<3} reads {:>9.2} ±{:.2} Mops/s   writes {:>9.3} ±{:.3} Mops/s",
            rd.mean(),
            rd.std_dev(),
            wr.mean(),
            wr.std_dev()
        );
        table.row(vec![
            m.to_string(),
            readers.to_string(),
            rd.samples.len().to_string(),
            format!("{:.3}", rd.mean()),
            format!("{:.3}", rd.std_dev()),
            format!("{:.3}", wr.mean()),
            format!("{:.3}", wr.std_dev()),
        ]);
    }
    let path = out_dir().join("mn_scaling.csv");
    write_csv(&table, &path).expect("write CSV");
    println!("\nwrote {}", path.display());

    println!("\n# MN-on-slab: multi-writer table\n");
    let mut mw_table = Table::new(vec![
        "writers",
        "registers",
        "dist",
        "readers",
        "mops",
        "read_p50_ns",
        "read_p99_ns",
        "write_p50_ns",
        "write_p99_ns",
        "bytes_per_register",
    ]);
    let table_rows = mn_table_points(profile, &mut mw_table);
    let mw_path = out_dir().join("mn_table.csv");
    write_csv(&mw_table, &mw_path).expect("write CSV");
    println!("\nwrote {}", mw_path.display());

    let Json::Arr(rows) = table_to_json(&table) else { unreachable!() };
    let rows: Vec<Json> = rows
        .into_iter()
        .map(|mut row| {
            let rd = row.get("read_mops").and_then(Json::as_f64).unwrap_or(0.0);
            let wr = row.get("write_mops").and_then(Json::as_f64).unwrap_or(0.0);
            let rd_std = row.get("read_std").and_then(Json::as_f64).unwrap_or(0.0);
            let wr_std = row.get("write_std").and_then(Json::as_f64).unwrap_or(0.0);
            row.set("ops_per_sec", Json::num((rd + wr) * 1e6));
            // Independent-class deviations add in quadrature for the
            // combined ops/sec figure.
            row.set("std", Json::num((rd_std * rd_std + wr_std * wr_std).sqrt() * 1e6));
            row
        })
        .collect();
    let json_path = json_dir().join("BENCH_ops.json");
    merge_section(&json_path, "arc-bench/ops/v1", "mn_scaling", Json::Arr(rows))
        .expect("write BENCH_ops.json");
    merge_section(&json_path, "arc-bench/ops/v1", "mn_table", Json::Arr(table_rows))
        .expect("write BENCH_ops.json");
    println!("merged mn_scaling/mn_table into {}", json_path.display());
}
