//! Operation metrics for the RMW-count experiment (E5).
//!
//! The ARC paper's central performance argument is that ARC executes *fewer
//! RMW instructions per read* than RF: a read whose snapshot is still
//! current costs zero RMWs, while RF pays a `fetch_or` on every read. The
//! `rmw_counts` bench regenerates that claim by counting, per operation
//! class, how many RMW instructions each algorithm actually issued.
//!
//! Counters are `Relaxed` and only incremented when the owning crate is
//! compiled with its `metrics` feature, so the figure benches (which do not
//! enable the feature) measure the undisturbed algorithms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Relaxed counters describing the work performed by a register instance.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Total read operations.
    pub reads: AtomicU64,
    /// Reads satisfied by the no-RMW fast path (ARC only).
    pub fast_reads: AtomicU64,
    /// RMW instructions executed inside read operations.
    pub read_rmws: AtomicU64,
    /// Total write operations.
    pub writes: AtomicU64,
    /// RMW instructions executed inside write operations.
    pub write_rmws: AtomicU64,
    /// Free-slot probes performed by the writer (slot-search cost, E6).
    pub slot_probes: AtomicU64,
    /// Writes whose free slot came from the reader-posted hint (§3.4).
    pub hint_hits: AtomicU64,
    /// Writes whose free slot was served by the writer-local candidate
    /// ring (lazy reclamation + drained hints) without a fallback scan.
    pub ring_hits: AtomicU64,
    /// Zero-copy guard reads started (`read_ref` acquisitions).
    pub guard_reads: AtomicU64,
    /// Zero-copy guards dropped. `guard_reads - guard_drops` is the number
    /// of guards currently held — each a standing presence unit pinning
    /// one slot against reclamation (DESIGN.md §3.8 slot-budget math).
    pub guard_drops: AtomicU64,
}

impl OpMetrics {
    /// Fresh zeroed metrics.
    pub const fn new() -> Self {
        Self {
            reads: AtomicU64::new(0),
            fast_reads: AtomicU64::new(0),
            read_rmws: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_rmws: AtomicU64::new(0),
            slot_probes: AtomicU64::new(0),
            hint_hits: AtomicU64::new(0),
            ring_hits: AtomicU64::new(0),
            guard_reads: AtomicU64::new(0),
            guard_drops: AtomicU64::new(0),
        }
    }

    /// Add `n` to a counter. `Relaxed`: metrics never synchronize data.
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot all counters (relaxed loads; exact once threads are joined).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            fast_reads: self.fast_reads.load(Ordering::Relaxed),
            read_rmws: self.read_rmws.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_rmws: self.write_rmws.load(Ordering::Relaxed),
            slot_probes: self.slot_probes.load(Ordering::Relaxed),
            hint_hits: self.hint_hits.load(Ordering::Relaxed),
            ring_hits: self.ring_hits.load(Ordering::Relaxed),
            guard_reads: self.guard_reads.load(Ordering::Relaxed),
            guard_drops: self.guard_drops.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`OpMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total read operations.
    pub reads: u64,
    /// Reads satisfied by the no-RMW fast path.
    pub fast_reads: u64,
    /// RMWs executed inside reads.
    pub read_rmws: u64,
    /// Total write operations.
    pub writes: u64,
    /// RMWs executed inside writes.
    pub write_rmws: u64,
    /// Writer free-slot probes.
    pub slot_probes: u64,
    /// Writes served by the §3.4 hint.
    pub hint_hits: u64,
    /// Writes served by the writer-local candidate cache.
    pub ring_hits: u64,
    /// Zero-copy guard reads started.
    pub guard_reads: u64,
    /// Zero-copy guards dropped.
    pub guard_drops: u64,
}

impl MetricsSnapshot {
    /// Average RMW instructions per read operation.
    pub fn rmws_per_read(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_rmws as f64 / self.reads as f64
        }
    }

    /// Average RMW instructions per write operation.
    pub fn rmws_per_write(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.write_rmws as f64 / self.writes as f64
        }
    }

    /// Average free-slot probes per write (E6: amortized O(1) claim).
    pub fn probes_per_write(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.slot_probes as f64 / self.writes as f64
        }
    }

    /// Fraction of writes whose free slot came from the writer-local ring
    /// (no fallback scan needed).
    pub fn ring_hit_fraction(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.ring_hits as f64 / self.writes as f64
        }
    }

    /// Guards currently held (each pinning one slot against reclamation).
    /// Exact once threads are quiescent; a racy lower/upper mix otherwise.
    pub fn guards_held(&self) -> u64 {
        self.guard_reads.saturating_sub(self.guard_drops)
    }

    /// Fraction of reads that took the no-RMW fast path.
    pub fn fast_read_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.fast_reads as f64 / self.reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let m = OpMetrics::new();
        OpMetrics::bump(&m.reads, 10);
        OpMetrics::bump(&m.fast_reads, 7);
        OpMetrics::bump(&m.read_rmws, 6);
        let s = m.snapshot();
        assert_eq!(s.reads, 10);
        assert_eq!(s.fast_reads, 7);
        assert!((s.rmws_per_read() - 0.6).abs() < 1e-12);
        assert!((s.fast_read_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero_ops() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.rmws_per_read(), 0.0);
        assert_eq!(s.rmws_per_write(), 0.0);
        assert_eq!(s.probes_per_write(), 0.0);
        assert_eq!(s.fast_read_fraction(), 0.0);
    }

    #[test]
    fn guards_held_is_reads_minus_drops() {
        let m = OpMetrics::new();
        OpMetrics::bump(&m.guard_reads, 5);
        OpMetrics::bump(&m.guard_drops, 3);
        assert_eq!(m.snapshot().guards_held(), 2);
        OpMetrics::bump(&m.guard_drops, 2);
        assert_eq!(m.snapshot().guards_held(), 0);
    }

    #[test]
    fn write_ratios() {
        let m = OpMetrics::new();
        OpMetrics::bump(&m.writes, 4);
        OpMetrics::bump(&m.write_rmws, 8);
        OpMetrics::bump(&m.slot_probes, 6);
        OpMetrics::bump(&m.hint_hits, 3);
        OpMetrics::bump(&m.ring_hits, 2);
        let s = m.snapshot();
        assert_eq!(s.rmws_per_write(), 2.0);
        assert_eq!(s.probes_per_write(), 1.5);
        assert_eq!(s.hint_hits, 3);
        assert_eq!(s.ring_hit_fraction(), 0.5);
    }
}
