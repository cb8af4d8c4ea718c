//! **E10 (extension)** — slab-backed register groups at scale: ops/sec,
//! tail latency and bytes-per-register for 10k/100k/1M registers.
//!
//! ```text
//! ARC_BENCH_PROFILE=quick|standard|full cargo run -p arc-bench --release --bin group_scaling
//! ```
//!
//! The `group_scaling` section of `BENCH_ops.json` holds the scaling
//! points: the mixed multi-register workload (one batch writer + R reader
//! threads, uniform and Zipf(0.99) key skew) against the slab group at
//! each K, reporting ops/sec, sampled p50/p99 and exact heap bytes per
//! register.

use std::time::Duration;

use arc_bench::{json_dir, merge_section, out_dir, BenchProfile, Json};
use arc_register::GroupTableFamily;
use workload_harness::{run_table, write_csv, KeyDist, MultiConfig, MultiResult, Table};

fn point_row(
    table: &mut Table,
    registers: usize,
    dist: KeyDist,
    cfg: &MultiConfig,
    res: &MultiResult,
) -> Json {
    let (rp50, _, rp99, _, _) = res.read_latency.summary();
    let (wp50, _, wp99, _, _) = res.write_latency.summary();
    let bytes_per_reg = res.heap_bytes.map(|b| b / registers);
    println!(
        "  K={registers:<9} {:<8} {:>9.2} Mops/s  read p50/p99 {rp50}/{rp99} ns  \
         write p50/p99 {wp50}/{wp99} ns  {} B/reg",
        dist.name(),
        res.mops(),
        bytes_per_reg.unwrap_or(0),
    );
    table.row(vec![
        registers.to_string(),
        dist.name().to_string(),
        cfg.reader_threads.to_string(),
        format!("{:.3}", res.mops()),
        format!("{:.3}", res.read_mops()),
        rp50.to_string(),
        rp99.to_string(),
        wp50.to_string(),
        wp99.to_string(),
        bytes_per_reg.unwrap_or(0).to_string(),
    ]);
    let mut j = Json::obj();
    j.set("registers", Json::int(registers as u64));
    j.set("dist", Json::str(dist.name()));
    j.set("reader_threads", Json::int(cfg.reader_threads as u64));
    j.set("value_size", Json::int(cfg.value_size as u64));
    j.set("ops_per_sec", Json::num(res.mops() * 1e6));
    j.set("read_mops", Json::num(res.read_mops()));
    j.set("read_p50_ns", Json::int(rp50));
    j.set("read_p99_ns", Json::int(rp99));
    j.set("write_p50_ns", Json::int(wp50));
    j.set("write_p99_ns", Json::int(wp99));
    j.set("bytes_per_register", bytes_per_reg.map_or(Json::Null, |b| Json::int(b as u64)));
    j.set("pinned", Json::Bool(cfg.pin));
    j
}

fn main() {
    let profile = BenchProfile::from_env();
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let reader_threads = (cores.saturating_sub(2)).clamp(1, 4);
    let value_size = 48; // INLINE_CAP: the small-payload register the slab targets
    let ks: Vec<usize> = match profile {
        BenchProfile::Quick => vec![10_000, 100_000],
        _ => vec![10_000, 100_000, 1_000_000],
    };
    println!("# E10 — group scaling ({value_size} B values)");
    println!("# profile={profile:?}, reader_threads={reader_threads}, K={ks:?}\n");

    let mut table = Table::new(vec![
        "registers",
        "dist",
        "readers",
        "mops",
        "read_mops",
        "read_p50_ns",
        "read_p99_ns",
        "write_p50_ns",
        "write_p99_ns",
        "bytes_per_register",
    ]);
    let mut points = Vec::new();
    for &k in &ks {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
            let cfg = MultiConfig {
                registers: k,
                reader_threads,
                value_size,
                duration: profile.duration().max(Duration::from_millis(60)),
                write_batch: 64,
                read_burst: 256,
                dist,
                seed: 0xE10 ^ k as u64,
                pin: true,
            };
            let res = run_table::<GroupTableFamily>(&cfg);
            points.push(point_row(&mut table, k, dist, &cfg, &res));
        }
    }

    let path = out_dir().join("group_scaling.csv");
    write_csv(&table, &path).expect("write CSV");
    println!("\nwrote {}", path.display());

    let mut section = Json::obj();
    section.set("points", Json::Arr(points));
    let json_path = json_dir().join("BENCH_ops.json");
    merge_section(&json_path, "arc-bench/ops/v1", "group_scaling", section)
        .expect("write BENCH_ops.json");
    println!("merged group_scaling into {}", json_path.display());
}
