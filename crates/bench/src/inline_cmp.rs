//! Inline-vs-arena fast-path comparison: the measurement behind the
//! small-payload inlining optimization.
//!
//! A register value of ≤ 48 bytes is stored inside the slot header's cache
//! line ([`arc_register::INLINE_CAP`]), so the R2 fast path touches the
//! `current` line plus **one** payload line; with inlining disabled the
//! same read chases into the byte arena for a **second** payload line.
//! A single L1-hot register can hide that difference, so the probe walks a
//! round-robin set of registers large enough that the working set spills
//! the inner cache levels — then every avoided line is a real miss
//! avoided, and the inline variant's throughput advantage is the
//! cache-line budget made visible.
//!
//! The probe also reports the fast-path hit rate, read from the timed
//! handles' own counts (it is ~1 by construction: nothing writes during
//! the read loop, so only each handle's first read pays an RMW).

use std::time::Instant;

use arc_register::{ArcReader, ArcRegister, INLINE_CAP};
use register_common::OpMetrics;

use crate::json::Json;
use crate::profile::BenchProfile;

/// Result of one inline-vs-arena probe.
#[derive(Debug, Clone)]
pub struct InlineCmp {
    /// Payload size measured (bytes).
    pub size: usize,
    /// Number of registers in the round-robin working set.
    pub registers: usize,
    /// Reads per second, inline placement, in Mops/s (best of runs).
    pub inline_mops: f64,
    /// Reads per second, arena placement, in Mops/s (best of runs).
    pub arena_mops: f64,
    /// Fraction of the timed reads (both placements, warm-up included)
    /// served by the R2 no-RMW fast path.
    pub fast_path_hit_rate: f64,
}

impl InlineCmp {
    /// `inline_mops / arena_mops`.
    pub fn speedup(&self) -> f64 {
        self.inline_mops / self.arena_mops
    }

    /// JSON object for the `inline_vs_arena` report section.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("size_bytes", Json::int(self.size as u64));
        j.set("registers", Json::int(self.registers as u64));
        j.set("inline_ops_per_sec", Json::num(self.inline_mops * 1e6));
        j.set("arena_ops_per_sec", Json::num(self.arena_mops * 1e6));
        j.set("inline_mops", Json::num(self.inline_mops));
        j.set("arena_mops", Json::num(self.arena_mops));
        j.set("speedup", Json::num(self.speedup()));
        j.set("fast_path_hit_rate", Json::num(self.fast_path_hit_rate));
        j
    }
}

/// Build a round-robin working set of single-reader registers all holding
/// a `size`-byte value, returning the reader handles.
fn build_set(size: usize, registers: usize, inline: bool) -> Vec<ArcReader> {
    let value: Vec<u8> = (0..size).map(|i| i as u8).collect();
    (0..registers)
        .map(|_| {
            let reg = ArcRegister::builder(1, size)
                .initial(&value)
                .inline(inline)
                .build()
                .expect("probe register");
            reg.reader().expect("fresh register has a free reader slot")
        })
        .collect()
}

/// One timed pass over the working set; returns (reads, seconds).
fn timed_pass(readers: &mut [ArcReader], target_reads: u64) -> (u64, f64) {
    let started = Instant::now();
    let mut sum = 0u64;
    let mut done = 0u64;
    'outer: loop {
        for r in readers.iter_mut() {
            let snap = r.read();
            // Touch the payload so the line is actually pulled.
            sum =
                sum.wrapping_add(u64::from(snap[0])).wrapping_add(u64::from(snap[snap.len() - 1]));
            done += 1;
            if done >= target_reads {
                break 'outer;
            }
        }
    }
    std::hint::black_box(sum);
    (done, started.elapsed().as_secs_f64())
}

/// Measured Mops/s for one placement mode (best of `runs`, after warm-up),
/// with the summed counts of the measured handles.
fn measure(
    size: usize,
    registers: usize,
    inline: bool,
    reads: u64,
    runs: usize,
) -> (f64, OpMetrics) {
    let mut readers = build_set(size, registers, inline);
    // Warm-up: pay every handle's first-read RMW and fault the memory in.
    let _ = timed_pass(&mut readers, registers as u64);
    let mut best = 0.0f64;
    for _ in 0..runs {
        let (done, secs) = timed_pass(&mut readers, reads);
        best = best.max(done as f64 / secs / 1e6);
    }
    (best, readers.iter().map(ArcReader::metrics).sum())
}

/// Run the inline-vs-arena probe at the boundary size ([`INLINE_CAP`]).
pub fn compare(profile: BenchProfile) -> InlineCmp {
    let size = INLINE_CAP;
    // Working set sized to spill L1/L2 so the extra arena line costs real
    // bandwidth: 4096 registers × (current + slot) lines ≈ 1 MiB minimum.
    let registers = 4096;
    let (reads, runs) = match profile {
        BenchProfile::Quick => (400_000, 3),
        BenchProfile::Standard => (2_000_000, 5),
        BenchProfile::Full => (8_000_000, 10),
    };
    let (inline_mops, mut counts) = measure(size, registers, true, reads, runs);
    let (arena_mops, arena_counts) = measure(size, registers, false, reads, runs);
    counts += arena_counts;
    InlineCmp {
        size,
        registers,
        inline_mops,
        arena_mops,
        fast_path_hit_rate: counts.fast_read_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_produces_sane_numbers() {
        let (inline_mops, counts) = measure(48, 16, true, 50_000, 1);
        // One first-read RMW per handle; every other read is an R2 hit.
        assert_eq!(counts.reads(), 16 + 50_000);
        assert_eq!(counts.slow_reads, 16);
        let cmp = InlineCmp {
            size: 48,
            registers: 16,
            inline_mops,
            arena_mops: measure(48, 16, false, 50_000, 1).0,
            fast_path_hit_rate: counts.fast_read_fraction(),
        };
        assert!(cmp.inline_mops > 0.0);
        assert!(cmp.arena_mops > 0.0);
        let j = cmp.to_json();
        assert!(j.get("speedup").is_some());
        assert!(j.get("inline_ops_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        let rate = j.get("fast_path_hit_rate").and_then(Json::as_f64).unwrap();
        assert!(rate > 0.99 && rate < 1.0, "hit rate {rate}");
    }

    #[test]
    fn snapshot_placement_matches_mode() {
        let mut inline_readers = build_set(48, 1, true);
        let mut arena_readers = build_set(48, 1, false);
        assert!(inline_readers[0].read().inline());
        assert!(!arena_readers[0].read().inline());
    }
}
