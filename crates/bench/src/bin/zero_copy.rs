//! **Zero-copy guards**: guard (`read_ref`) vs copying (`read_into`)
//! read throughput at the fig1 payload sizes (E12 / DESIGN.md §3.8).
//!
//! ```text
//! ARC_BENCH_PROFILE=quick|standard|full cargo run -p arc-bench --release --bin zero_copy
//! ```
//!
//! Shape to reproduce: arc guard throughput is protocol-bound (flat in
//! the payload size) while copy throughput is memcpy-bound (falls with
//! size), so the speedup grows with the payload — ≥ 2× already at 4 KB
//! (the schema-enforced acceptance floor). The seqlock rows are the
//! honest fallback: its "guards" copy-validate, so guard ≈ copy there.

use arc_bench::{figure_sizes, json_dir, merge_section, zero_copy_run, BenchProfile, Json};

fn main() {
    let profile = BenchProfile::from_env();
    let sizes = figure_sizes(profile);
    // Single-threaded probe: pin the measuring thread so the guard and
    // copy loops compare on one core's caches, not wherever the
    // scheduler migrates us between runs.
    let pinned = workload_harness::available_cpus()
        .first()
        .is_some_and(|&c| workload_harness::pin_to_cpu(c).is_ok());
    println!("# Zero-copy guard reads — guard vs copy at fig1 sizes");
    println!("# profile={profile:?}, sizes={sizes:?}, pinned={pinned}\n");

    let points = zero_copy_run(profile, &sizes);
    println!(
        "{:>8}  {:>8}  {:>9}  {:>12}  {:>11}  {:>11}  {:>10}  {:>8}",
        "algo",
        "size",
        "zero_copy",
        "guard Mops/s",
        "copy Mops/s",
        "guard GB/s",
        "copy GB/s",
        "speedup"
    );
    for p in &points {
        println!(
            "{:>8}  {:>8}  {:>9}  {:>12.2}  {:>11.2}  {:>11.2}  {:>10.2}  {:>7.2}x",
            p.algo,
            p.size,
            p.zero_copy,
            p.guard_mops,
            p.copy_mops,
            p.guard_gbps(),
            p.copy_gbps(),
            p.speedup()
        );
    }

    let json_path = json_dir().join("BENCH_ops.json");
    merge_section(
        &json_path,
        "arc-bench/ops/v1",
        "zero_copy",
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    let mut row = p.to_json();
                    row.set("pinned", Json::Bool(pinned));
                    row
                })
                .collect(),
        ),
    )
    .expect("write BENCH_ops.json");
    println!("\nmerged zero_copy into {}", json_path.display());
}
