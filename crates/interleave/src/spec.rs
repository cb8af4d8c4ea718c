//! Online atomicity specification shared by every model check.
//!
//! The offline checker in `linearizer` uses clock ticks; a model checker
//! cannot (timestamps would make every state unique and destroy
//! memoization). The same three properties are instead checked *online*
//! with monotone counters that collapse into small state:
//!
//! * at a read's **invocation**, snapshot `floor` = the largest sequence
//!   number any *completed* read has returned, and `min_seq` = the
//!   sequence number of the last *completed* write;
//! * at the read's **response** with value `s`: require `s >= min_seq`
//!   (regularity — no value older than the last write that completed
//!   before we started), `s >= floor` (no new-old inversion — the reads
//!   that set `floor` completed before we started), `s <= started`
//!   (sanity: the value must come from a write that has begun), and the
//!   two data words must agree (no tear).
//!
//! These are exactly the paper's Criterion-1 obligations, specialized to a
//! single writer. [`MwChecker`] checks the same three for a multi-writer
//! register whose writes are ordered by `(counter, writer)` stamps, and
//! that the stamp order respects real time.

/// Snapshot taken at a read's invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ReadObs {
    /// Largest seq returned by any read completed before this one started.
    pub floor: u8,
    /// Seq of the last write completed before this one started.
    pub min_seq: u8,
}

/// The online observation checker carried in every model's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ObsChecker {
    /// Seq of the last completed write.
    pub completed_write: u8,
    /// Seq of the newest write that has started.
    pub started_write: u8,
    /// Largest seq any completed read returned.
    pub max_read_seq: u8,
}

impl ObsChecker {
    /// Record that the write stamping `seq` has started.
    pub fn on_write_start(&mut self, seq: u8) {
        debug_assert_eq!(seq, self.started_write + 1);
        self.started_write = seq;
    }

    /// Record that the write stamping `seq` has completed (responded).
    pub fn on_write_complete(&mut self, seq: u8) {
        debug_assert!(seq >= self.completed_write);
        self.completed_write = seq;
    }

    /// Snapshot the constraints for a read that is being invoked now.
    pub fn on_read_start(&self) -> ReadObs {
        ReadObs { floor: self.max_read_seq, min_seq: self.completed_write }
    }

    /// Validate a read completing now with data words `(w0, w1)`.
    pub fn on_read_complete(&mut self, obs: ReadObs, w0: u8, w1: u8) -> Result<(), String> {
        if w0 != w1 {
            return Err(format!("torn read: words from writes {w0} and {w1}"));
        }
        let s = w0;
        if s < obs.min_seq {
            return Err(format!(
                "regularity violation: read returned seq {s} but write {} completed before it began",
                obs.min_seq
            ));
        }
        if s < obs.floor {
            return Err(format!(
                "new-old inversion: read returned seq {s} after a completed read returned {}",
                obs.floor
            ));
        }
        if s > self.started_write {
            return Err(format!(
                "future read: seq {s} but only {} writes started",
                self.started_write
            ));
        }
        self.max_read_seq = self.max_read_seq.max(s);
        Ok(())
    }
}

/// A multi-writer timestamp, `(counter, writer)`, ordered lexicographically.
pub type Stamp = (u8, u8);

/// Snapshot taken at a multi-writer operation's invocation: the newest
/// stamps a completed write wrote and a completed read returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MwObs {
    completed: Stamp,
    read: Stamp,
}

/// The online checker of a register whose writes are ordered by their
/// stamps, as in `mn-register`: the order must respect real time, and
/// reads must be atomic in it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MwChecker {
    /// The newest stamp of a completed write.
    completed: Stamp,
    /// Each writer's largest published counter.
    published: Vec<u8>,
    /// The newest stamp a completed read returned.
    read: Stamp,
}

impl MwChecker {
    /// A checker for a register whose writers' sub-registers start at
    /// `initial`; the newest of them completed before every operation.
    pub fn new(initial: &[Stamp]) -> Self {
        let completed = initial.iter().copied().max().unwrap_or_default();
        Self { completed, published: initial.iter().map(|s| s.0).collect(), read: (0, 0) }
    }

    /// Snapshot the floor of a write invoked now.
    pub fn on_write_start(&self) -> MwObs {
        MwObs { completed: self.completed, read: (0, 0) }
    }

    /// Snapshot the constraints for a read invoked now.
    pub fn on_read_start(&self) -> MwObs {
        MwObs { completed: self.completed, read: self.read }
    }

    /// Validate a write invoked at `obs` that completes now with stamp `ts`.
    pub fn on_write_complete(&mut self, obs: MwObs, ts: Stamp) -> Result<(), String> {
        let completed = obs.completed;
        if ts <= completed {
            return Err(format!(
                "timestamp order violates real time: wrote {ts:?} after {completed:?} completed"
            ));
        }
        self.completed = self.completed.max(ts);
        let published = &mut self.published[usize::from(ts.1)];
        *published = (*published).max(ts.0);
        Ok(())
    }

    /// Validate a read invoked at `obs` that returns the value stamped `ts`
    /// now.
    pub fn on_read_complete(&mut self, obs: MwObs, ts: Stamp) -> Result<(), String> {
        let MwObs { completed, read } = obs;
        if ts < completed {
            return Err(format!("stale read: returned {ts:?} after {completed:?} completed"));
        }
        if ts < read {
            return Err(format!("new-old inversion: {ts:?} after a completed read of {read:?}"));
        }
        if ts.0 > self.published[usize::from(ts.1)] {
            return Err(format!("future read: {ts:?} was never written"));
        }
        self.read = self.read.max(ts);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_sequential_pattern() {
        let mut c = ObsChecker::default();
        let o = c.on_read_start();
        assert!(c.on_read_complete(o, 0, 0).is_ok()); // initial value
        c.on_write_start(1);
        c.on_write_complete(1);
        let o = c.on_read_start();
        assert!(c.on_read_complete(o, 1, 1).is_ok());
    }

    #[test]
    fn torn_words_rejected() {
        let mut c = ObsChecker::default();
        c.on_write_start(1);
        let o = c.on_read_start();
        let e = c.on_read_complete(o, 0, 1).unwrap_err();
        assert!(e.contains("torn"));
    }

    #[test]
    fn stale_value_rejected() {
        let mut c = ObsChecker::default();
        c.on_write_start(1);
        c.on_write_complete(1);
        let o = c.on_read_start();
        let e = c.on_read_complete(o, 0, 0).unwrap_err();
        assert!(e.contains("regularity"));
    }

    #[test]
    fn concurrent_write_value_accepted() {
        let mut c = ObsChecker::default();
        c.on_write_start(1);
        let o = c.on_read_start(); // write in flight: both 0 and 1 legal
        assert!(c.on_read_complete(o, 1, 1).is_ok());
    }

    #[test]
    fn inversion_rejected() {
        let mut c = ObsChecker::default();
        c.on_write_start(1);
        // Read A completes with the in-flight value 1.
        let oa = c.on_read_start();
        c.on_read_complete(oa, 1, 1).unwrap();
        // Read B starts after A completed, returns the old value 0.
        let ob = c.on_read_start();
        let e = c.on_read_complete(ob, 0, 0).unwrap_err();
        assert!(e.contains("inversion"));
    }

    #[test]
    fn future_value_rejected() {
        let mut c = ObsChecker::default();
        let o = c.on_read_start();
        let e = c.on_read_complete(o, 2, 2).unwrap_err();
        assert!(e.contains("future"));
    }

    #[test]
    fn overlapping_reads_may_disagree() {
        let mut c = ObsChecker::default();
        c.on_write_start(1);
        let oa = c.on_read_start();
        let ob = c.on_read_start(); // B starts before A completes
        c.on_read_complete(oa, 1, 1).unwrap();
        // B's floor was snapshotted before A completed: 0 is still legal.
        assert!(c.on_read_complete(ob, 0, 0).is_ok());
    }
}
