//! Multi-register (table) workloads: one batch writer + R reader threads
//! hammering K registers through a [`TableFamily`] layout.
//!
//! This is the measurement substrate behind the `group_scaling` bench: the
//! same mixed workload runs against any table layout (the slab-backed
//! group, the sharded table, the MN table) through one driver.
//!
//! * The **writer thread** applies batches of `(key, value)` writes drawn
//!   from the key distribution ([`TableWriteHandle::write_batch`]).
//! * Each **reader thread** issues bursts of keys through
//!   [`TableReadHandle::read_many`] (the layout may sort them for
//!   sequential slab traversal).
//! * Every 32nd burst is taken with per-operation [`Instant`] timing into
//!   a [`LatencyHistogram`], so p50/p99 come from real single-op samples
//!   rather than batch averages, while the throughput loop stays
//!   undisturbed 97% of the time.
//!
//! Key distributions are uniform or Zipf(θ) — the classic skew model for
//! key-value access; ranks are permuted across the key space so that "hot"
//! keys are scattered through the slab rather than adjacent (adjacency
//! would flatter the slab layout's cache locality).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::{rngs::SmallRng, Rng, SeedableRng};
use register_common::traits::{
    MwTableFamily, RegisterSpec, TableFamily, TableReadHandle, TableWriteHandle,
};

use crate::histogram::LatencyHistogram;

/// How keys are drawn from `0..registers`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over all registers.
    Uniform,
    /// Zipf with exponent `theta` (0 = uniform, 1 ≈ classic web skew).
    Zipf(f64),
}

impl KeyDist {
    /// Name used in bench output rows.
    pub fn name(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipf(_) => "zipf",
        }
    }
}

/// A seeded sampler over `0..registers` following a [`KeyDist`].
///
/// Zipf sampling precomputes the rank CDF once (O(K) memory) and draws by
/// binary search (O(log K) per sample); ranks are scattered over the key
/// space with a multiplicative permutation so hot keys are not adjacent.
pub struct KeySampler {
    registers: usize,
    rng: SmallRng,
    /// Cumulative rank weights; empty for the uniform distribution.
    cdf: Vec<f64>,
}

impl KeySampler {
    /// Build a sampler for `registers` keys.
    ///
    /// # Panics
    ///
    /// Panics if `registers` is zero.
    pub fn new(registers: usize, dist: KeyDist, seed: u64) -> Self {
        assert!(registers >= 1, "sampler needs a non-empty key space");
        let cdf = match dist {
            KeyDist::Uniform => Vec::new(),
            KeyDist::Zipf(theta) => {
                let mut acc = 0.0f64;
                let mut cdf = Vec::with_capacity(registers);
                for rank in 0..registers {
                    acc += 1.0 / ((rank + 1) as f64).powf(theta);
                    cdf.push(acc);
                }
                let total = acc;
                for w in cdf.iter_mut() {
                    *w /= total;
                }
                cdf
            }
        };
        Self { registers, rng: SmallRng::seed_from_u64(seed), cdf }
    }

    /// Draw one key.
    #[inline]
    pub fn sample(&mut self) -> usize {
        if self.cdf.is_empty() {
            return self.rng.random_range(0..self.registers);
        }
        let u: f64 = self.rng.random_range(0.0..1.0);
        let rank = self.cdf.partition_point(|&c| c < u).min(self.registers - 1);
        // Scatter ranks over the key space (odd multiplier → mixes ranks
        // across the modulus) so hot ranks are not slab-adjacent.
        rank.wrapping_mul(0x9E37_79B1) % self.registers
    }

    /// Fill `out` with `n` fresh keys.
    pub fn fill(&mut self, out: &mut Vec<usize>, n: usize) {
        out.clear();
        out.extend((0..n).map(|_| self.sample()));
    }
}

/// One multi-register measurement configuration.
#[derive(Debug, Clone)]
pub struct MultiConfig {
    /// Number of registers K in the table.
    pub registers: usize,
    /// Reader threads (each holds one whole-table reader view).
    pub reader_threads: usize,
    /// Value size written/read (bytes).
    pub value_size: usize,
    /// Measured window.
    pub duration: Duration,
    /// Keys per writer batch ([`TableWriteHandle::write_batch`]).
    pub write_batch: usize,
    /// Keys per reader burst ([`TableReadHandle::read_many`]).
    pub read_burst: usize,
    /// Key distribution.
    pub dist: KeyDist,
    /// Base RNG seed (each thread derives its own stream).
    pub seed: u64,
    /// Pin worker threads round-robin over [`crate::available_cpus`]
    /// (writer first, then readers) — see
    /// [`RunConfig::pin`](crate::RunConfig::pin). Best-effort.
    pub pin: bool,
}

/// Result of one multi-register run.
#[derive(Debug)]
pub struct MultiResult {
    /// Total completed single-register reads.
    pub reads: u64,
    /// Total completed single-register writes.
    pub writes: u64,
    /// Measured wall seconds.
    pub secs: f64,
    /// Sampled per-read latencies (ns).
    pub read_latency: LatencyHistogram,
    /// Sampled per-write latencies (ns).
    pub write_latency: LatencyHistogram,
    /// Table heap footprint, if the layout accounts for itself.
    pub heap_bytes: Option<usize>,
}

impl MultiResult {
    /// Combined read+write throughput in Mops/s.
    pub fn mops(&self) -> f64 {
        (self.reads + self.writes) as f64 / self.secs / 1e6
    }

    /// Read throughput in Mops/s.
    pub fn read_mops(&self) -> f64 {
        self.reads as f64 / self.secs / 1e6
    }
}

/// Every Nth burst/batch is timed per-operation for the histograms,
/// starting with the first. Every worker completes one round before it
/// honours `stop`, so each run has a sample of every worker, however the
/// threads are scheduled.
const SAMPLE_EVERY: u64 = 32;

/// Run the mixed multi-register workload against table layout `F`.
///
/// # Panics
///
/// Panics if the configuration is degenerate (`registers == 0`,
/// `reader_threads == 0`, zero batch sizes) or the family rejects it.
pub fn run_table<F: TableFamily>(cfg: &MultiConfig) -> MultiResult {
    assert!(cfg.registers >= 1, "need at least one register");
    assert!(cfg.reader_threads >= 1, "need at least one reader thread");
    assert!(cfg.write_batch >= 1 && cfg.read_burst >= 1, "batch sizes must be non-zero");

    let initial = vec![0u8; cfg.value_size];
    let spec = RegisterSpec::new(cfg.reader_threads, cfg.value_size);
    let (writer, readers) = F::build(cfg.registers, spec, &initial)
        .unwrap_or_else(|e| panic!("{} rejected the table spec: {e}", F::NAME));
    let heap_bytes = F::heap_bytes(&writer);

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.reader_threads + 2)); // workers + coordinator
    let mut handles = Vec::new();

    // Worker slot → CPU when pinning: writer slot 0, reader t slot t+1,
    // round-robin over the allowed set.
    let cpus = if cfg.pin { crate::procs::available_cpus() } else { Vec::new() };
    let cpu_of = |slot: usize| -> Option<usize> {
        if cpus.is_empty() {
            None
        } else {
            Some(cpus[slot % cpus.len()])
        }
    };

    // Writer thread: batched writes over sampled keys.
    {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let cfg = cfg.clone();
        let mut writer = writer;
        let pin_cpu = cpu_of(0);
        handles.push(std::thread::spawn(move || {
            if let Some(c) = pin_cpu {
                let _ = crate::procs::pin_to_cpu(c);
            }
            let mut sampler = KeySampler::new(cfg.registers, cfg.dist, cfg.seed ^ 0xA5A5);
            let value = vec![1u8; cfg.value_size];
            let mut keys: Vec<usize> = Vec::with_capacity(cfg.write_batch);
            let mut batch: Vec<(usize, &[u8])> = Vec::with_capacity(cfg.write_batch);
            let mut hist = LatencyHistogram::new();
            barrier.wait();
            let mut ops = 0u64;
            let mut rounds = 0u64;
            loop {
                sampler.fill(&mut keys, cfg.write_batch);
                if rounds.is_multiple_of(SAMPLE_EVERY) {
                    // Sampled round: individual timed writes.
                    for &k in &keys {
                        let t0 = Instant::now();
                        writer.write(k, &value);
                        hist.record(t0.elapsed().as_nanos() as u64);
                    }
                } else {
                    batch.clear();
                    batch.extend(keys.iter().map(|&k| (k, value.as_slice())));
                    writer.write_batch(&batch);
                }
                ops += cfg.write_batch as u64;
                rounds += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (0u64, ops, hist)
        }));
    }

    // Reader threads: read_many bursts over sampled keys.
    for (t, mut reader) in readers.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let cfg = cfg.clone();
        let pin_cpu = cpu_of(t + 1);
        handles.push(std::thread::spawn(move || {
            if let Some(c) = pin_cpu {
                let _ = crate::procs::pin_to_cpu(c);
            }
            let mut sampler =
                KeySampler::new(cfg.registers, cfg.dist, cfg.seed ^ (t as u64 * 7919 + 13));
            let mut keys: Vec<usize> = Vec::with_capacity(cfg.read_burst);
            let mut hist = LatencyHistogram::new();
            barrier.wait();
            let mut ops = 0u64;
            let mut sink = 0u64;
            let mut rounds = 0u64;
            loop {
                sampler.fill(&mut keys, cfg.read_burst);
                if rounds.is_multiple_of(SAMPLE_EVERY) {
                    // Sampled round: individual timed reads.
                    for &k in &keys {
                        let t0 = Instant::now();
                        reader.read_with(k, |v| {
                            sink = sink.wrapping_add(v.first().copied().unwrap_or(0) as u64);
                        });
                        hist.record(t0.elapsed().as_nanos() as u64);
                    }
                } else {
                    reader.read_many(&keys, |_, v| {
                        sink = sink.wrapping_add(v.first().copied().unwrap_or(0) as u64);
                    });
                }
                ops += cfg.read_burst as u64;
                rounds += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            std::hint::black_box(sink);
            (ops, 0u64, hist)
        }));
    }

    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);

    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut read_latency = LatencyHistogram::new();
    let mut write_latency = LatencyHistogram::new();
    for (i, h) in handles.into_iter().enumerate() {
        let (r, w, hist) = h.join().expect("table worker panicked");
        reads += r;
        writes += w;
        if i == 0 {
            write_latency.merge(&hist);
        } else {
            read_latency.merge(&hist);
        }
    }
    let secs = started.elapsed().as_secs_f64();
    MultiResult { reads, writes, secs, read_latency, write_latency, heap_bytes }
}

/// One **multi-writer** table measurement configuration: W writer threads
/// (each owning a distinct whole-table writer role) × K registers.
#[derive(Debug, Clone)]
pub struct MwMultiConfig {
    /// Number of registers K in the table.
    pub registers: usize,
    /// Writer threads W (one writer role each).
    pub writer_threads: usize,
    /// Reader threads (each holds one whole-table reader view).
    pub reader_threads: usize,
    /// Value size written/read (bytes).
    pub value_size: usize,
    /// Measured window.
    pub duration: Duration,
    /// Keys per writer batch.
    pub write_batch: usize,
    /// Keys per reader burst.
    pub read_burst: usize,
    /// Key distribution.
    pub dist: KeyDist,
    /// Base RNG seed (each thread derives its own stream).
    pub seed: u64,
}

/// Run the mixed **multi-writer** table workload against layout `F`:
/// `writer_threads` threads each own one writer role and write sampled
/// keys; reader threads burst sampled keys through
/// [`TableReadHandle::read_many`]. Sampling/timing discipline matches
/// [`run_table`] (every `SAMPLE_EVERY`th = 32nd round is per-op timed).
///
/// # Panics
///
/// Panics if the configuration is degenerate (no registers, writers or
/// readers; zero batch sizes) or the family rejects it.
pub fn run_mw_table<F: MwTableFamily>(cfg: &MwMultiConfig) -> MultiResult {
    assert!(cfg.registers >= 1, "need at least one register");
    assert!(cfg.writer_threads >= 1, "need at least one writer thread");
    assert!(cfg.reader_threads >= 1, "need at least one reader thread");
    assert!(cfg.write_batch >= 1 && cfg.read_burst >= 1, "batch sizes must be non-zero");

    let initial = vec![0u8; cfg.value_size];
    let spec = RegisterSpec::new(cfg.reader_threads, cfg.value_size);
    let (writers, readers) = F::build(cfg.registers, cfg.writer_threads, spec, &initial)
        .unwrap_or_else(|e| panic!("{} rejected the MW table spec: {e}", F::NAME));
    assert_eq!(writers.len(), cfg.writer_threads, "one writer handle per writer thread");
    let heap_bytes = F::heap_bytes(&writers);

    let stop = Arc::new(AtomicBool::new(false));
    let n_workers = cfg.writer_threads + cfg.reader_threads;
    let barrier = Arc::new(Barrier::new(n_workers + 1)); // workers + coordinator
    let mut handles = Vec::new();

    // Writer threads: each role writes batches of sampled keys.
    for (t, mut writer) in writers.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            let mut sampler =
                KeySampler::new(cfg.registers, cfg.dist, cfg.seed ^ (t as u64 * 31 + 0xA5A5));
            let value = vec![1 + t as u8; cfg.value_size];
            let mut keys: Vec<usize> = Vec::with_capacity(cfg.write_batch);
            let mut batch: Vec<(usize, &[u8])> = Vec::with_capacity(cfg.write_batch);
            let mut hist = LatencyHistogram::new();
            barrier.wait();
            let mut ops = 0u64;
            let mut rounds = 0u64;
            loop {
                sampler.fill(&mut keys, cfg.write_batch);
                if rounds.is_multiple_of(SAMPLE_EVERY) {
                    for &k in &keys {
                        let t0 = Instant::now();
                        writer.write(k, &value);
                        hist.record(t0.elapsed().as_nanos() as u64);
                    }
                } else {
                    batch.clear();
                    batch.extend(keys.iter().map(|&k| (k, value.as_slice())));
                    writer.write_batch(&batch);
                }
                ops += cfg.write_batch as u64;
                rounds += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (0u64, ops, hist)
        }));
    }

    // Reader threads: identical to the single-writer driver.
    for (t, mut reader) in readers.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            let mut sampler =
                KeySampler::new(cfg.registers, cfg.dist, cfg.seed ^ (t as u64 * 7919 + 13));
            let mut keys: Vec<usize> = Vec::with_capacity(cfg.read_burst);
            let mut hist = LatencyHistogram::new();
            barrier.wait();
            let mut ops = 0u64;
            let mut sink = 0u64;
            let mut rounds = 0u64;
            loop {
                sampler.fill(&mut keys, cfg.read_burst);
                if rounds.is_multiple_of(SAMPLE_EVERY) {
                    for &k in &keys {
                        let t0 = Instant::now();
                        reader.read_with(k, |v| {
                            sink = sink.wrapping_add(v.first().copied().unwrap_or(0) as u64);
                        });
                        hist.record(t0.elapsed().as_nanos() as u64);
                    }
                } else {
                    reader.read_many(&keys, |_, v| {
                        sink = sink.wrapping_add(v.first().copied().unwrap_or(0) as u64);
                    });
                }
                ops += cfg.read_burst as u64;
                rounds += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            std::hint::black_box(sink);
            (ops, 0u64, hist)
        }));
    }

    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);

    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut read_latency = LatencyHistogram::new();
    let mut write_latency = LatencyHistogram::new();
    for (i, h) in handles.into_iter().enumerate() {
        let (r, w, hist) = h.join().expect("MW table worker panicked");
        reads += r;
        writes += w;
        if i < cfg.writer_threads {
            write_latency.merge(&hist);
        } else {
            read_latency.merge(&hist);
        }
    }
    let secs = started.elapsed().as_secs_f64();
    MultiResult { reads, writes, secs, read_latency, write_latency, heap_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use register_common::traits::BuildError;
    use std::sync::Mutex;

    /// A trivial mutex-backed table for driver plumbing tests.
    struct MutexTableFamily;
    struct MtWriter(Arc<Vec<Mutex<Vec<u8>>>>);
    struct MtReader(Arc<Vec<Mutex<Vec<u8>>>>);

    impl TableWriteHandle for MtWriter {
        fn write(&mut self, k: usize, value: &[u8]) {
            *self.0[k].lock().unwrap() = value.to_vec();
        }
    }
    impl TableReadHandle for MtReader {
        fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, k: usize, f: F) -> R {
            f(&self.0[k].lock().unwrap())
        }
    }
    impl TableFamily for MutexTableFamily {
        type Writer = MtWriter;
        type Reader = MtReader;
        const NAME: &'static str = "mutex-table-test";
        fn build(
            registers: usize,
            spec: RegisterSpec,
            initial: &[u8],
        ) -> Result<(MtWriter, Vec<MtReader>), BuildError> {
            if registers == 0 {
                return Err(BuildError::ZeroRegisters);
            }
            let shared =
                Arc::new((0..registers).map(|_| Mutex::new(initial.to_vec())).collect::<Vec<_>>());
            let readers = (0..spec.readers).map(|_| MtReader(Arc::clone(&shared))).collect();
            Ok((MtWriter(shared), readers))
        }
    }

    impl MwTableFamily for MutexTableFamily {
        type Writer = MtWriter;
        type Reader = MtReader;
        const NAME: &'static str = "mutex-mw-table-test";
        fn build(
            registers: usize,
            writers: usize,
            spec: RegisterSpec,
            initial: &[u8],
        ) -> Result<(Vec<MtWriter>, Vec<MtReader>), BuildError> {
            if registers == 0 || writers == 0 {
                return Err(BuildError::ZeroRegisters);
            }
            let shared =
                Arc::new((0..registers).map(|_| Mutex::new(initial.to_vec())).collect::<Vec<_>>());
            let ws = (0..writers).map(|_| MtWriter(Arc::clone(&shared))).collect();
            let rs = (0..spec.readers).map(|_| MtReader(Arc::clone(&shared))).collect();
            Ok((ws, rs))
        }
    }

    fn tiny_cfg(dist: KeyDist) -> MultiConfig {
        MultiConfig {
            registers: 64,
            reader_threads: 2,
            value_size: 16,
            duration: Duration::from_millis(40),
            write_batch: 8,
            read_burst: 16,
            dist,
            seed: 42,
            pin: false,
        }
    }

    #[test]
    fn driver_measures_uniform_table() {
        let res = run_table::<MutexTableFamily>(&tiny_cfg(KeyDist::Uniform));
        assert!(res.reads > 0 && res.writes > 0);
        assert!(res.mops() > 0.0);
        assert!(res.read_latency.count() > 0, "sampled read latencies missing");
        assert!(res.write_latency.count() > 0, "sampled write latencies missing");
    }

    #[test]
    fn driver_measures_zipf_table() {
        let res = run_table::<MutexTableFamily>(&tiny_cfg(KeyDist::Zipf(0.99)));
        assert!(res.reads > 0 && res.writes > 0);
    }

    #[test]
    fn mw_driver_measures_multi_writer_table() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
            let cfg = MwMultiConfig {
                registers: 64,
                writer_threads: 3,
                reader_threads: 2,
                value_size: 16,
                duration: Duration::from_millis(40),
                write_batch: 8,
                read_burst: 16,
                dist,
                seed: 42,
            };
            let res = run_mw_table::<MutexTableFamily>(&cfg);
            assert!(res.reads > 0 && res.writes > 0, "{dist:?}");
            assert!(res.read_latency.count() > 0, "sampled read latencies missing");
            assert!(res.write_latency.count() > 0, "sampled write latencies missing");
        }
    }

    #[test]
    fn sampler_stays_in_range_and_is_deterministic() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.8)] {
            let mut a = KeySampler::new(1000, dist, 7);
            let mut b = KeySampler::new(1000, dist, 7);
            for _ in 0..10_000 {
                let ka = a.sample();
                assert!(ka < 1000);
                assert_eq!(ka, b.sample(), "same seed must give the same stream");
            }
        }
    }

    #[test]
    fn zipf_is_skewed_uniform_is_not() {
        let n = 1000usize;
        let draws = 200_000;
        let top_mass = |dist: KeyDist| -> f64 {
            let mut s = KeySampler::new(n, dist, 99);
            let mut counts = vec![0u64; n];
            for _ in 0..draws {
                counts[s.sample()] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[..10].iter().sum::<u64>() as f64 / draws as f64
        };
        let uni = top_mass(KeyDist::Uniform);
        let zipf = top_mass(KeyDist::Zipf(0.99));
        assert!(uni < 0.05, "uniform top-10 mass {uni}");
        assert!(zipf > 0.3, "zipf top-10 mass {zipf} not skewed");
    }

    #[test]
    fn sampler_handles_single_key_space() {
        let mut s = KeySampler::new(1, KeyDist::Zipf(1.0), 1);
        assert_eq!(s.sample(), 0);
    }

    #[test]
    fn dist_names() {
        assert_eq!(KeyDist::Uniform.name(), "uniform");
        assert_eq!(KeyDist::Zipf(1.0).name(), "zipf");
    }
}
