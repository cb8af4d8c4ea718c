//! The `notify` workload: wake-latency of the watch layer.
//!
//! The paper's workloads measure how fast readers can *ask* for the value;
//! the watch layer's figure of merit is how fast a parked consumer *learns*
//! that the value changed. One writer publishes timestamped payloads at a
//! configured pacing; each watcher parks in
//! [`WatchHandle::wait_for_update`] and, on wake, reads the register and
//! records `now − publish_stamp` — the end-to-end freshness latency
//! through W2 → version bump → notify → unpark → wait-free read.
//!
//! Pacing matters: a full-speed writer never lets watchers park (every
//! wait returns immediately — that regime is the ordinary read workload).
//! The interesting regime is sparse updates, where the whole
//! park/notify/wake machinery is on the measured path, so the driver
//! spaces publications by `update_interval`.
//!
//! Updates a watcher sleeps through are **coalesced**, not queued (a woken
//! watcher reads the freshest value, versions may skip) — the driver
//! reports the coalesced count alongside the wake quantiles.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use register_common::{
    RegisterFamily, RegisterSpec, VersionedReadHandle, WatchHandle, WriteHandle,
};

use crate::histogram::LatencyHistogram;

/// One notify-latency measurement configuration.
#[derive(Debug, Clone)]
pub struct NotifyConfig {
    /// Parked watcher threads.
    pub watchers: usize,
    /// Payload size in bytes (≥ 8: the first word carries the stamp).
    pub value_size: usize,
    /// Publications to perform.
    pub updates: u64,
    /// Pacing between publications (the park window).
    pub update_interval: Duration,
}

impl NotifyConfig {
    /// A conventional configuration for quick measurements.
    pub fn new(watchers: usize, updates: u64) -> Self {
        Self { watchers, value_size: 64, updates, update_interval: Duration::from_micros(200) }
    }
}

/// Result of one notify-latency run.
#[derive(Debug, Clone)]
pub struct NotifyResult {
    /// Publications performed.
    pub updates: u64,
    /// Wakeups recorded across all watchers.
    pub wakeups: u64,
    /// Updates watchers slept through (coalesced by a later wake; a
    /// watcher that saw version `v` then `v + 3` coalesced 2).
    pub coalesced: u64,
    /// Wake-latency distribution in nanoseconds (publish stamp → value
    /// read by the woken watcher).
    pub latency: LatencyHistogram,
}

impl NotifyResult {
    /// `(p50, p90, p99, p99.9, max)` wake latency in nanoseconds.
    pub fn summary(&self) -> (u64, u64, u64, u64, u64) {
        self.latency.summary()
    }
}

/// Run the notify workload against family `F`, whose readers can wait.
///
/// # Panics
///
/// Panics if `cfg.watchers == 0`, `cfg.value_size < 8`, or the family
/// rejects the spec.
pub fn run_notify<F: RegisterFamily>(cfg: &NotifyConfig) -> NotifyResult
where
    F::Reader: WatchHandle,
{
    assert!(cfg.watchers >= 1, "need at least one watcher");
    assert!(cfg.value_size >= 8, "payload must fit the 8-byte stamp");

    let initial = vec![0u8; cfg.value_size];
    let (mut writer, watchers) =
        F::build(RegisterSpec::new(cfg.watchers, cfg.value_size), &initial)
            .unwrap_or_else(|e| panic!("{} rejected the notify spec: {e}", F::NAME));

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.watchers + 1));
    let epoch = Instant::now();

    let mut handles = Vec::with_capacity(cfg.watchers);
    for (i, mut watcher) in watchers.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(
            std::thread::Builder::new()
                .name(format!("notify-watcher-{i}"))
                .spawn(move || {
                    let mut hist = LatencyHistogram::new();
                    let mut last = 0u64;
                    let mut wakeups = 0u64;
                    barrier.wait();
                    // `stop` is honoured only after a wake: the writer
                    // publishes once more after setting it, so every
                    // watcher wakes at least once however late it runs.
                    while wakeups == 0 || !stop.load(Ordering::Acquire) {
                        // A bounded wait keeps shutdown prompt even if
                        // this watcher raced past the final wake.
                        let Some(_) =
                            watcher.wait_for_update_timeout(last, Duration::from_millis(50))
                        else {
                            continue;
                        };
                        last = watcher.read_versioned_with(|version, value| {
                            let mut stamp = [0u8; 8];
                            stamp.copy_from_slice(&value[..8]);
                            let published_at = u64::from_le_bytes(stamp);
                            // Clock the sample *after* extracting the
                            // stamp: the read may observe a publication
                            // newer than the wake being timed, and a
                            // pre-read timestamp would then under-report
                            // (clamp to 0). Instant is monotone across
                            // threads, so now ≥ published_at always;
                            // saturating_sub stays as a belt.
                            let now = epoch.elapsed().as_nanos() as u64;
                            hist.record(now.saturating_sub(published_at));
                            version
                        });
                        wakeups += 1;
                    }
                    (hist, wakeups, last)
                })
                .expect("spawn watcher"),
        );
    }

    barrier.wait();
    let mut buf = vec![0u8; cfg.value_size];
    for _ in 0..cfg.updates {
        let stamp = epoch.elapsed().as_nanos() as u64;
        buf[..8].copy_from_slice(&stamp.to_le_bytes());
        writer.write(&buf);
        // The park window: watchers should be asleep when the next
        // publication fires.
        std::thread::sleep(cfg.update_interval);
    }
    stop.store(true, Ordering::Release);
    // Final wake so no watcher rides out its timeout.
    let stamp = epoch.elapsed().as_nanos() as u64;
    buf[..8].copy_from_slice(&stamp.to_le_bytes());
    writer.write(&buf);

    let mut latency = LatencyHistogram::new();
    let mut wakeups = 0u64;
    for h in handles {
        let (hist, w, _last) = h.join().expect("watcher panicked");
        latency.merge(&hist);
        wakeups += w;
    }
    // Every wake consumes a strictly newer version, so a watcher's wake
    // count is its distinct-observations count; the shortfall against
    // `updates` per watcher is what it coalesced (the shutdown wake makes
    // this a ≤-by-watchers approximation, clamped at zero).
    let coalesced = (cfg.updates * cfg.watchers as u64).saturating_sub(wakeups);
    NotifyResult { updates: cfg.updates, wakeups, coalesced, latency }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_register::ArcFamily;

    #[test]
    fn notify_driver_measures_arc() {
        let cfg = NotifyConfig {
            watchers: 2,
            value_size: 64,
            updates: 50,
            update_interval: Duration::from_micros(100),
        };
        let res = run_notify::<ArcFamily>(&cfg);
        assert_eq!(res.updates, 50);
        assert!(res.wakeups > 0, "watchers must have woken at least once");
        let (p50, _, _, _, max) = res.summary();
        assert!(p50 > 0 && max >= p50, "latency distribution must be populated");
    }

    #[test]
    #[should_panic(expected = "at least one watcher")]
    fn rejects_zero_watchers() {
        run_notify::<ArcFamily>(&NotifyConfig::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "8-byte stamp")]
    fn rejects_tiny_payloads() {
        let mut cfg = NotifyConfig::new(1, 1);
        cfg.value_size = 4;
        run_notify::<ArcFamily>(&cfg);
    }
}
