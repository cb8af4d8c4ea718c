//! Per-handle operation counts for the RMW-count experiment (E5).
//!
//! The ARC paper's central performance argument is that ARC executes *fewer
//! RMW instructions per read* than RF: a read whose snapshot is still
//! current costs zero RMWs, while RF pays a `fetch_or` on every read. The
//! `rmw_counts` bench regenerates that claim by counting, per operation
//! class, how many RMW instructions each algorithm actually issued.
//!
//! Every register handle owns one [`OpMetrics`] and increments it with
//! plain adds, no RMW instruction and no fence: no other thread ever
//! touches a handle's counts, so they never contend and stay compiled in.
//! The R2 fast path pays exactly one increment (`fast_reads`). A caller
//! reads a handle's counts through its `metrics()` method and sums handles
//! itself, typically after joining the threads that owned them.

use std::iter::Sum;
use std::ops::AddAssign;

/// Operation counts of one register handle (or one handle set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Reads satisfied by the no-RMW fast path (ARC's R2).
    pub fast_reads: u64,
    /// Reads that took the slow path: every RF read, and every ARC read
    /// that had to re-acquire (first read, or a newer publication).
    pub slow_reads: u64,
    /// RMW instructions executed inside read operations (including the
    /// eager R3 release when a guard over a superseded value drops).
    pub read_rmws: u64,
    /// Write operations.
    pub writes: u64,
    /// RMW instructions executed inside write operations.
    pub write_rmws: u64,
    /// Free-slot probes performed by the writer (slot-search cost, E6).
    pub slot_probes: u64,
    /// Writes whose free slot came from the reader-posted hint (§3.4).
    pub hint_hits: u64,
    /// Writes whose free slot was served by the writer-local candidate
    /// cache (lazy reclamation + drained hints) without a fallback scan.
    pub ring_hits: u64,
}

impl OpMetrics {
    /// Read operations: `fast_reads + slow_reads`.
    pub fn reads(&self) -> u64 {
        self.fast_reads + self.slow_reads
    }

    /// Average RMW instructions per read operation.
    pub fn rmws_per_read(&self) -> f64 {
        ratio(self.read_rmws, self.reads())
    }

    /// Average RMW instructions per write operation.
    pub fn rmws_per_write(&self) -> f64 {
        ratio(self.write_rmws, self.writes)
    }

    /// Average free-slot probes per write (E6: amortized O(1) claim).
    pub fn probes_per_write(&self) -> f64 {
        ratio(self.slot_probes, self.writes)
    }

    /// Fraction of writes whose free slot came from the writer-local cache
    /// (no fallback scan needed).
    pub fn ring_hit_fraction(&self) -> f64 {
        ratio(self.ring_hits, self.writes)
    }

    /// Fraction of reads that took the no-RMW fast path.
    pub fn fast_read_fraction(&self) -> f64 {
        ratio(self.fast_reads, self.reads())
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl AddAssign for OpMetrics {
    fn add_assign(&mut self, o: Self) {
        self.fast_reads += o.fast_reads;
        self.slow_reads += o.slow_reads;
        self.read_rmws += o.read_rmws;
        self.writes += o.writes;
        self.write_rmws += o.write_rmws;
        self.slot_probes += o.slot_probes;
        self.hint_hits += o.hint_hits;
        self.ring_hits += o.ring_hits;
    }
}

impl Sum for OpMetrics {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut acc, m| {
            acc += m;
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_ratios() {
        let m = OpMetrics { fast_reads: 7, slow_reads: 3, read_rmws: 6, ..OpMetrics::default() };
        assert_eq!(m.reads(), 10);
        assert!((m.rmws_per_read() - 0.6).abs() < 1e-12);
        assert!((m.fast_read_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero_ops() {
        let m = OpMetrics::default();
        assert_eq!(m.rmws_per_read(), 0.0);
        assert_eq!(m.rmws_per_write(), 0.0);
        assert_eq!(m.probes_per_write(), 0.0);
        assert_eq!(m.ring_hit_fraction(), 0.0);
        assert_eq!(m.fast_read_fraction(), 0.0);
    }

    #[test]
    fn write_ratios() {
        let m = OpMetrics {
            writes: 4,
            write_rmws: 8,
            slot_probes: 6,
            hint_hits: 3,
            ring_hits: 2,
            ..OpMetrics::default()
        };
        assert_eq!(m.rmws_per_write(), 2.0);
        assert_eq!(m.probes_per_write(), 1.5);
        assert_eq!(m.ring_hit_fraction(), 0.5);
    }

    #[test]
    fn handles_sum_field_by_field() {
        let a = OpMetrics { fast_reads: 1, writes: 2, ..OpMetrics::default() };
        let b = OpMetrics { slow_reads: 3, read_rmws: 4, ring_hits: 5, ..OpMetrics::default() };
        let total: OpMetrics = [a, b].into_iter().sum();
        assert_eq!(total.reads(), 4);
        assert_eq!(total.read_rmws, 4);
        assert_eq!(total.writes, 2);
        assert_eq!(total.ring_hits, 5);
    }
}
