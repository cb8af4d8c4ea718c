//! Zero-copy guard reads vs copying reads at the fig1 payload sizes —
//! the measurement behind the `read_ref` guard API (DESIGN.md §3.8).
//!
//! The protocol part of an ARC read is a handful of nanoseconds (one
//! `current` load on the R2 fast path); a *copying* read additionally
//! streams the whole payload, so at the paper's figure-1 sizes
//! (4 KB – 128 KB) the memcpy, not the protocol, dominates. The guard
//! returns the protocol's pinned pointer instead — the paper's own
//! "a read only retrieves the pointer to the valid register buffer"
//! semantics, now first-class and RAII-safe.
//!
//! Both paths go through the [`register_common`] traits
//! ([`RefReadHandle`] / [`ReadHandle::read_into`]), so the same probe
//! also measures the **honest fallback**: a seqlock reader cannot expose
//! its buffer (a read is only known consistent after the trailing
//! counter validation), so its `read_ref` borrows a copy-validated
//! scratch — its guard row reports `zero_copy: false` and a ~1× speedup,
//! which is the point: borrow-vs-copy is an *algorithm property*, not a
//! bench trick.
//!
//! The arc rows run the shipped register as it is, per-handle operation
//! counts included: the counts are always on, so there is no cheaper
//! configuration to price against.

use std::time::Instant;

use arc_register::ArcRegister;
use baseline_registers::SeqlockRegister;
use register_common::{ReadHandle, RefReadHandle};

use crate::json::Json;
use crate::profile::BenchProfile;

/// One guard-vs-copy measurement point.
#[derive(Debug, Clone)]
pub struct ZeroCopyPoint {
    /// Algorithm name ("arc", "seqlock").
    pub algo: &'static str,
    /// Payload size in bytes (a fig1 size).
    pub size: usize,
    /// Whether this algorithm's guards borrow shared memory (false =
    /// honest copy-validate fallback).
    pub zero_copy: bool,
    /// Guard (`read_ref`) reads per second, millions (best of runs).
    pub guard_mops: f64,
    /// Copying (`read_into`, reused buffer) reads per second, millions.
    pub copy_mops: f64,
    /// Best-of runs used for both numbers.
    pub runs: usize,
}

impl ZeroCopyPoint {
    /// Guard-over-copy throughput ratio (the acceptance number: ≥ 2.0
    /// for arc at 4096 B).
    pub fn speedup(&self) -> f64 {
        self.guard_mops / self.copy_mops
    }

    /// Payload bytes *served* per second by guard reads, GB/s (served =
    /// pinned and dereferenceable; nothing is streamed).
    pub fn guard_gbps(&self) -> f64 {
        self.guard_mops * 1e6 * self.size as f64 / 1e9
    }

    /// Payload bytes actually copied per second by copying reads, GB/s.
    pub fn copy_gbps(&self) -> f64 {
        self.copy_mops * 1e6 * self.size as f64 / 1e9
    }

    /// JSON row for the `zero_copy` report section.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("algo", Json::str(self.algo));
        j.set("size", Json::int(self.size as u64));
        j.set("zero_copy", Json::Bool(self.zero_copy));
        j.set("guard_mops", Json::num(self.guard_mops));
        j.set("copy_mops", Json::num(self.copy_mops));
        j.set("guard_gbps", Json::num(self.guard_gbps()));
        j.set("copy_gbps", Json::num(self.copy_gbps()));
        j.set("speedup", Json::num(self.speedup()));
        j.set("runs", Json::int(self.runs as u64));
        j
    }
}

/// Timed guard-read loop: `read_ref` + touch first/last byte (pull the
/// head and tail lines without streaming the payload — the Hold-model
/// consumption the paper measures).
fn timed_guard<R: RefReadHandle>(r: &mut R, target: u64) -> f64 {
    let started = Instant::now();
    let mut sum = 0u64;
    for _ in 0..target {
        let g = r.read_ref();
        sum = sum
            .wrapping_add(u64::from(g.first().copied().unwrap_or(0)))
            .wrapping_add(u64::from(g.last().copied().unwrap_or(0)));
    }
    let secs = started.elapsed().as_secs_f64();
    std::hint::black_box(sum);
    target as f64 / secs / 1e6
}

/// Timed copying-read loop: `read_into` a reused buffer (no per-op
/// allocation — the buffer is sized once to the capacity), then touch
/// first/last of the copy.
fn timed_copy<R: ReadHandle>(r: &mut R, buf: &mut [u8], target: u64) -> f64 {
    let started = Instant::now();
    let mut sum = 0u64;
    for _ in 0..target {
        let n = r.read_into(buf);
        let copy = &buf[..n];
        sum = sum
            .wrapping_add(u64::from(copy.first().copied().unwrap_or(0)))
            .wrapping_add(u64::from(copy.last().copied().unwrap_or(0)));
    }
    let secs = started.elapsed().as_secs_f64();
    std::hint::black_box(sum);
    target as f64 / secs / 1e6
}

/// Reads per run, scaled so big payloads don't blow the time budget.
fn reads_for(profile: BenchProfile, size: usize) -> u64 {
    let base = ((64 << 20) / size.max(1)) as u64;
    match profile {
        BenchProfile::Quick => (base / 8).clamp(20_000, 250_000),
        BenchProfile::Standard => base.clamp(50_000, 2_000_000),
        BenchProfile::Full => (base * 4).clamp(200_000, 8_000_000),
    }
}

fn runs_for(profile: BenchProfile) -> usize {
    match profile {
        BenchProfile::Quick => 3,
        BenchProfile::Standard => 5,
        BenchProfile::Full => 10,
    }
}

/// Measure one algorithm at one size through the shared traits.
fn measure_point<R: RefReadHandle>(
    algo: &'static str,
    size: usize,
    zero_copy: bool,
    reader: &mut R,
    profile: BenchProfile,
) -> ZeroCopyPoint {
    let reads = reads_for(profile, size);
    let runs = runs_for(profile);
    let mut buf = vec![0u8; size];
    // Warm-up: first-read RMW + fault the payload in.
    let _ = timed_guard(reader, 16);
    let _ = timed_copy(reader, &mut buf, 16);
    let mut guard_mops = 0.0f64;
    let mut copy_mops = 0.0f64;
    for _ in 0..runs {
        guard_mops = guard_mops.max(timed_guard(reader, reads));
        copy_mops = copy_mops.max(timed_copy(reader, &mut buf, reads));
    }
    ZeroCopyPoint { algo, size, zero_copy, guard_mops, copy_mops, runs }
}

/// Run the guard-vs-copy probe over the fig1 sizes. The 4096 B arc point
/// (the acceptance row: speedup ≥ 2×) is always measured, whatever the
/// profile.
pub fn run(profile: BenchProfile, sizes: &[usize]) -> Vec<ZeroCopyPoint> {
    let mut points = Vec::new();
    for &size in sizes {
        let value: Vec<u8> = (0..size).map(|i| (i * 13 + 1) as u8).collect();

        let reg = ArcRegister::builder(1, size).initial(&value).build().expect("arc register");
        let mut reader = reg.reader().expect("fresh register has a reader slot");
        points.push(measure_point("arc", size, true, &mut reader, profile));

        // The honest fallback: seqlock guards are copy-validated scratch.
        let seq = SeqlockRegister::new(size, &value).expect("seqlock register");
        let mut reader = seq.reader();
        points.push(measure_point("seqlock", size, false, &mut reader, profile));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_produces_sane_numbers() {
        let reg = ArcRegister::builder(1, 4096).initial(&[5u8; 4096]).build().unwrap();
        let mut reader = reg.reader().unwrap();
        let p = ZeroCopyPoint {
            algo: "arc",
            size: 4096,
            zero_copy: true,
            guard_mops: timed_guard(&mut reader, 20_000),
            copy_mops: timed_copy(&mut reader, &mut [0u8; 4096], 20_000),
            runs: 1,
        };
        assert!(p.guard_mops > 0.0 && p.copy_mops > 0.0);
        assert!(p.guard_gbps() > 0.0 && p.copy_gbps() > 0.0);
        let j = p.to_json();
        assert_eq!(j.get("algo"), Some(&Json::str("arc")));
        assert!(j.get("speedup").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn seqlock_fallback_measures_through_the_same_traits() {
        let seq = SeqlockRegister::new(256, &[3u8; 256]).unwrap();
        let mut reader = seq.reader();
        let mops = timed_guard(&mut reader, 10_000);
        assert!(mops > 0.0);
        assert!(!<baseline_registers::SeqlockReader as RefReadHandle>::zero_copy());
    }
}
