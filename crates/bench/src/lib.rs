//! Shared machinery for the figure-regeneration binaries.
//!
//! Every binary reads the `ARC_BENCH_PROFILE` environment variable
//! (`quick` | `standard` | `full`, default `standard`) so the same targets
//! serve CI smoke runs and real measurement sessions, and writes CSVs under
//! `ARC_BENCH_OUT` (default `./results`).
//!
//! In addition to the human-readable CSVs, the `fig1`, `mn_scaling` and
//! `latency` binaries merge machine-readable sections into
//! **`BENCH_ops.json`** and **`BENCH_latency.json`** (in
//! `ARC_BENCH_JSON_DIR`, default the current directory — the repo root
//! when run via `cargo run`), so every PR leaves a throughput/latency
//! trajectory behind. EXPERIMENTS.md documents the schema; [`json`] holds
//! the dependency-free value model.
//!
//! | binary | regenerates | paper artifact |
//! |--------|-------------|----------------|
//! | `fig1` | throughput vs threads, physical machine | Figure 1 (a–c) |
//! | `fig2` | + CPU-steal injection ("virtualized")   | Figure 2 (a–c) |
//! | `fig3` | 1000–4000 threads, log scale            | Figure 3 (a–c) |
//! | `payload` | processing workload                  | §5 second experiment set |
//! | `rmw_counts` | RMW instructions per op, from per-handle counts | §5 RMW-avoidance claim |
//! | `ablation` | fast-path / hint / slot-count ablations | §3.4, E6 |
//! | `microbench` | per-op latencies + contended point (ex-Criterion) | E7 |
//! | `group_scaling` | slab group vs independent registers at 10k–1M | E10 (extension) |
//! | `notify_latency` | watch-layer wake latency + coalescing | E11 (extension, §3.7) |
//! | `zero_copy` | guard vs copying reads at fig1 sizes | E12 (extension, §3.8) |
//!
//! The committed `BENCH_*.json` files are schema-checked by
//! `tests/json_schema.rs`, so a bench refactor cannot silently drop a
//! trajectory section.

#![deny(missing_docs)]

pub mod ablations;
pub mod inline_cmp;
pub mod json;
pub mod profile;
pub mod sweep;
pub mod zero_copy;

pub use inline_cmp::{compare as inline_vs_arena, InlineCmp};
pub use json::{merge_section, Json};
pub use profile::{json_dir, out_dir, BenchProfile};
pub use sweep::{figure_sizes, sweep_algos, thread_counts, SweepSpec};
pub use zero_copy::{run as zero_copy_run, ZeroCopyPoint};
