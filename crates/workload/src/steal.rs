//! CPU-steal simulation for the Figure-2 (virtualized platform) regime.
//!
//! On the paper's Amazon instance, the hypervisor occasionally withholds
//! physical CPU from a vCPU ("steal time"); the stalled thread may be
//! holding a lock, stalling everyone — unless the algorithm is wait-free.
//!
//! Without a hypervisor we reproduce the *mechanism* rather than the
//! vendor: [`StealInjector`] spawns `stealers` CPU-burning threads that
//! alternate spin bursts and sleeps with randomized duty cycles. While a
//! burst overlaps a worker's time slice on the same core, the OS preempts
//! the worker at an arbitrary instruction — including inside a lock-held
//! critical section — which is exactly the behaviour CPU steal induces.
//! (Oversubscribing workers beyond the core count has the same effect and
//! is also used by the Figure-3 experiment; the injector makes the
//! interference controllable and reproducible.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of the steal simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealConfig {
    /// Number of stealer threads (≈ how many cores are under pressure).
    pub stealers: usize,
    /// Mean spin-burst length.
    pub burst: Duration,
    /// Mean idle (sleep) length between bursts.
    pub idle: Duration,
    /// RNG seed (bursts are jittered ±50% deterministically per stealer).
    pub seed: u64,
}

impl Default for StealConfig {
    fn default() -> Self {
        Self {
            // At least one stealer even on single-core hosts, where the
            // halving would otherwise configure a no-op injector.
            stealers: std::thread::available_parallelism().map_or(4, |n| (n.get() / 2).max(1)),
            burst: Duration::from_millis(2),
            idle: Duration::from_millis(2),
            seed: 0xCAFE,
        }
    }
}

/// Handle to a running steal simulation; stops and joins on [`StealInjector::stop`] or drop.
#[derive(Debug)]
pub struct StealInjector {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<u64>>,
}

impl StealInjector {
    /// Start the stealer threads.
    pub fn start(cfg: StealConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..cfg.stealers)
            .map(|i| {
                let stop = Arc::clone(&stop);
                let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
                std::thread::Builder::new()
                    .name(format!("stealer-{i}"))
                    .spawn(move || {
                        // Each stealer finishes one burst before it honours
                        // `stop`, so a stop never finds it without one.
                        let mut bursts = 0u64;
                        loop {
                            // Jittered burst: spin hard, stealing the core.
                            let factor = rng.random_range(0.5..1.5);
                            let burst = cfg.burst.mul_f64(factor);
                            let end = Instant::now() + burst;
                            while Instant::now() < end && !stop.load(Ordering::Relaxed) {
                                std::hint::spin_loop();
                            }
                            bursts += 1;
                            if stop.load(Ordering::Relaxed) {
                                return bursts;
                            }
                            // Jittered idle: give the core back.
                            let factor = rng.random_range(0.5..1.5);
                            std::thread::sleep(cfg.idle.mul_f64(factor));
                        }
                    })
                    .expect("spawn stealer thread")
            })
            .collect();
        Self { stop, handles }
    }

    /// Stop all stealers; returns the total number of bursts executed, at
    /// least one per stealer.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handles.drain(..).map(|h| h.join().expect("stealer panicked")).sum()
    }
}

impl Drop for StealInjector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_and_stops() {
        let inj = StealInjector::start(StealConfig {
            stealers: 2,
            burst: Duration::from_micros(100),
            idle: Duration::from_micros(100),
            seed: 1,
        });
        std::thread::sleep(Duration::from_millis(20));
        let bursts = inj.stop();
        assert!(bursts >= 2, "each stealer burns at least one burst");
    }

    #[test]
    fn drop_stops_cleanly() {
        let inj = StealInjector::start(StealConfig {
            stealers: 1,
            burst: Duration::from_micros(50),
            idle: Duration::from_micros(50),
            seed: 2,
        });
        std::thread::sleep(Duration::from_millis(5));
        drop(inj); // must not hang
    }

    #[test]
    fn default_config_is_sane() {
        let c = StealConfig::default();
        assert!(c.stealers >= 1);
        assert!(c.burst > Duration::ZERO);
    }
}
