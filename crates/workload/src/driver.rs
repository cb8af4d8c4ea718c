//! The measurement driver: one writer + (t−1) readers hammer a register
//! for a timed window; throughput is total completed operations per second
//! (the paper's Mops/s axis).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use register_common::{ReadHandle, RegisterFamily, RegisterSpec, WriteHandle};

use crate::modes::{generate, scan, WorkloadMode};
use crate::stats::Summary;
use crate::steal::{StealConfig, StealInjector};

/// One measurement configuration (a single point of a figure).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Total threads: 1 writer + `threads − 1` readers (the paper's setup:
    /// "one thread continuously executes write operations ... while all the
    /// others continuously execute read operations"). Must be ≥ 2.
    pub threads: usize,
    /// Register value size in bytes (the paper uses 4 KB / 32 KB / 128 KB).
    pub value_size: usize,
    /// Measured window per run.
    pub duration: Duration,
    /// Number of repeated runs (the paper averages 10).
    pub runs: usize,
    /// Hold-model or processing workload.
    pub mode: WorkloadMode,
    /// Optional CPU-steal simulation (Figure 2).
    pub steal: Option<StealConfig>,
    /// Worker stack size — shrink for the 4000-thread Figure-3 runs.
    pub stack_size: usize,
    /// Pin worker threads round-robin over [`crate::available_cpus`]
    /// (writer first), so thread placement is an experimental constant
    /// instead of scheduler noise. Best-effort: a failed pin leaves the
    /// thread floating. Off by default (unit tests, oversubscribed
    /// figure-3 runs); the figure benches turn it on.
    pub pin: bool,
}

impl RunConfig {
    /// A conventional configuration for quick measurements.
    pub fn new(threads: usize, value_size: usize) -> Self {
        Self {
            threads,
            value_size,
            duration: Duration::from_millis(300),
            runs: 3,
            mode: WorkloadMode::Hold,
            steal: None,
            stack_size: 1 << 20,
            pin: false,
        }
    }

    /// Enable round-robin worker pinning (see [`RunConfig::pin`]).
    pub fn pinned(mut self) -> Self {
        self.pin = true;
        self
    }
}

/// Result of all runs of one configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total ops/s across reads+writes, one sample per run, in Mops/s.
    pub throughput: Summary,
    /// Reads completed per run.
    pub reads: Vec<u64>,
    /// Writes completed per run.
    pub writes: Vec<u64>,
}

impl RunResult {
    /// Mean throughput in Mops/s.
    pub fn mops(&self) -> f64 {
        self.throughput.mean()
    }
}

/// Run the workload against register family `F`.
///
/// # Panics
///
/// Panics if `cfg.threads < 2` or the family rejects the spec (e.g. RF
/// with more than 58 readers) — callers filter algorithms per figure like
/// the paper does ("RF could not be tested" at 1000+ threads).
pub fn run_register<F: RegisterFamily>(cfg: &RunConfig) -> RunResult {
    assert!(cfg.threads >= 2, "need at least one writer and one reader");
    let n_readers = cfg.threads - 1;
    // Worker slot → CPU when pinning: writer takes slot 0, reader i takes
    // slot i+1, round-robin over the allowed set.
    let cpus = if cfg.pin { crate::procs::available_cpus() } else { Vec::new() };
    let cpu_of = |slot: usize| -> Option<usize> {
        if cpus.is_empty() {
            None
        } else {
            Some(cpus[slot % cpus.len()])
        }
    };

    let mut throughput = Vec::with_capacity(cfg.runs);
    let mut reads_per_run = Vec::with_capacity(cfg.runs);
    let mut writes_per_run = Vec::with_capacity(cfg.runs);

    for _ in 0..cfg.runs {
        let initial = vec![0u8; cfg.value_size];
        let (writer, readers) = F::build(RegisterSpec::new(n_readers, cfg.value_size), &initial)
            .unwrap_or_else(|e| panic!("{} rejected the spec: {e}", F::NAME));

        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(cfg.threads + 1)); // workers + coordinator
        let steal = cfg.steal.map(StealInjector::start);

        let mut handles = Vec::with_capacity(cfg.threads);

        // Writer thread.
        {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let mode = cfg.mode;
            let size = cfg.value_size;
            let mut writer = writer;
            let pin_cpu = cpu_of(0);
            handles.push(
                std::thread::Builder::new()
                    .name("reg-writer".into())
                    .stack_size(cfg.stack_size)
                    .spawn(move || {
                        if let Some(c) = pin_cpu {
                            let _ = crate::procs::pin_to_cpu(c);
                        }
                        let mut buf = vec![0u8; size];
                        let mut round = 0u64;
                        barrier.wait();
                        let mut ops = 0u64;
                        // One write before honouring `stop`, so every run
                        // has one, however the threads are scheduled.
                        loop {
                            if mode == WorkloadMode::Processing {
                                round += 1;
                                generate(&mut buf, round);
                            }
                            writer.write(&buf);
                            ops += 1;
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        (ops, 0u64)
                    })
                    .expect("spawn writer"),
            );
        }

        // Reader threads.
        for (i, mut reader) in readers.into_iter().enumerate() {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let mode = cfg.mode;
            let pin_cpu = cpu_of(i + 1);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("reg-reader-{i}"))
                    .stack_size(cfg.stack_size)
                    .spawn(move || {
                        if let Some(c) = pin_cpu {
                            let _ = crate::procs::pin_to_cpu(c);
                        }
                        barrier.wait();
                        let mut ops = 0u64;
                        let mut sink = 0u64;
                        // Likewise one read.
                        loop {
                            match mode {
                                WorkloadMode::Hold => {
                                    // The paper: "a read only retrieves the
                                    // pointer to the valid register buffer".
                                    reader.read_with(|v| std::hint::black_box(v.len()));
                                }
                                WorkloadMode::Processing => {
                                    sink = sink.wrapping_add(reader.read_with(scan));
                                }
                            }
                            ops += 1;
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        std::hint::black_box(sink);
                        (0u64, ops)
                    })
                    .expect("spawn reader"),
            );
        }

        barrier.wait();
        let started = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        let mut writes = 0u64;
        let mut reads = 0u64;
        for h in handles {
            let (w, r) = h.join().expect("worker panicked");
            writes += w;
            reads += r;
        }
        let elapsed = started.elapsed();
        if let Some(s) = steal {
            s.stop();
        }
        let total_ops = reads + writes;
        throughput.push(total_ops as f64 / elapsed.as_secs_f64() / 1e6);
        reads_per_run.push(reads);
        writes_per_run.push(writes);
    }

    RunResult { throughput: Summary::new(throughput), reads: reads_per_run, writes: writes_per_run }
}

#[cfg(test)]
mod tests {
    use super::*;
    use register_common::traits::BuildError;

    /// A trivial in-process register for driver plumbing tests (a mutex'd
    /// Vec — correctness is not at stake here).
    struct MutexFamily;
    struct MWriter(Arc<std::sync::Mutex<Vec<u8>>>);
    struct MReader(Arc<std::sync::Mutex<Vec<u8>>>);

    impl WriteHandle for MWriter {
        fn write(&mut self, value: &[u8]) {
            *self.0.lock().unwrap() = value.to_vec();
        }
    }
    impl ReadHandle for MReader {
        fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, f: F) -> R {
            f(&self.0.lock().unwrap())
        }
    }
    impl RegisterFamily for MutexFamily {
        type Writer = MWriter;
        type Reader = MReader;
        const NAME: &'static str = "mutex-test";
        fn wait_free_reads() -> bool {
            false
        }
        fn build(
            spec: RegisterSpec,
            initial: &[u8],
        ) -> Result<(MWriter, Vec<MReader>), BuildError> {
            let shared = Arc::new(std::sync::Mutex::new(initial.to_vec()));
            let readers = (0..spec.readers).map(|_| MReader(Arc::clone(&shared))).collect();
            Ok((MWriter(shared), readers))
        }
    }

    #[test]
    fn driver_measures_hold_mode() {
        let cfg = RunConfig {
            threads: 3,
            value_size: 64,
            duration: Duration::from_millis(50),
            runs: 2,
            mode: WorkloadMode::Hold,
            steal: None,
            stack_size: 1 << 20,
            pin: false,
        };
        let res = run_register::<MutexFamily>(&cfg);
        assert_eq!(res.throughput.samples.len(), 2);
        assert!(res.mops() > 0.0);
        assert!(res.reads.iter().all(|&r| r > 0));
        assert!(res.writes.iter().all(|&w| w > 0));
    }

    #[test]
    fn driver_measures_processing_mode() {
        let cfg = RunConfig {
            threads: 2,
            value_size: 256,
            duration: Duration::from_millis(50),
            runs: 1,
            mode: WorkloadMode::Processing,
            steal: None,
            stack_size: 1 << 20,
            pin: false,
        };
        let res = run_register::<MutexFamily>(&cfg);
        assert!(res.mops() > 0.0);
    }

    #[test]
    fn driver_with_steal_injection() {
        let cfg = RunConfig {
            threads: 2,
            value_size: 64,
            duration: Duration::from_millis(50),
            runs: 1,
            mode: WorkloadMode::Hold,
            steal: Some(StealConfig {
                stealers: 1,
                burst: Duration::from_micros(200),
                idle: Duration::from_micros(200),
                seed: 3,
            }),
            stack_size: 1 << 20,
            pin: false,
        };
        let res = run_register::<MutexFamily>(&cfg);
        assert!(res.mops() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one writer and one reader")]
    fn driver_rejects_single_thread() {
        let cfg = RunConfig::new(1, 64);
        run_register::<MutexFamily>(&cfg);
    }
}
