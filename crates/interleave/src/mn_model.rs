//! State-machine model of the (M,N) timestamp construction
//! (`mn-register`), verifying the *composition* layer.
//!
//! The sub-registers are ARC instances whose atomicity is verified
//! separately (on the shipped code, by `arc-register`'s `model_check`
//! tests, also with two writers storing into one slab at once, and by the
//! paper's §4 argument), so
//! here each sub-register operation is **one atomic step** — exactly the
//! abstraction the construction's correctness argument relies on. What
//! remains to check is the composition logic under all interleavings:
//!
//! * writer: `M − 1` collect steps (one per peer sub-register, each a
//!   single atomic sub-read) → pick `max + 1` → one publish step;
//! * reader: `M` sub-read steps → return the lexicographic max.
//!
//! The online checker asserts, at every read completion: no stale value
//! (older than the newest write completed before the read began), no
//! new-old inversion between real-time-ordered reads, values only from
//! started writes — i.e. multi-writer atomicity under the timestamp
//! witness order. A deliberately broken variant ([`MnDefect::SkipCollect`]
//! — writers use a local counter without collecting) must fail.

use crate::explorer::Model;
use crate::spec::ModelConfig;

/// Construction variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MnDefect {
    /// Faithful timestamp construction.
    None,
    /// Writers skip the collect phase and use only their local counter —
    /// timestamps no longer respect cross-writer real-time order, so a
    /// read after a slow writer's publish can return a stale value.
    SkipCollect,
}

/// A timestamp: `(counter, writer id)` lexicographic.
type Ts = (u8, u8);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WPc {
    Idle,
    /// Collect step: read peer `peer`'s sub-register timestamp.
    Collect {
        peer: u8,
        max: u8,
    },
    /// Publish `(max + 1, id)` to own sub-register.
    Publish {
        max: u8,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RPc {
    Idle,
    /// Read sub-register `sub`, tracking the best timestamp so far.
    Scan {
        sub: u8,
        best: Ts,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WriterM {
    pc: WPc,
    writes_left: u8,
    local_counter: u8,
    /// Newest completed timestamp at this write's invocation: the witness
    /// order must place this write above it (real-time consistency).
    ts_floor: Ts,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReaderM {
    pc: RPc,
    reads_left: u8,
    /// Inversion floor snapshotted at read invocation.
    floor: Ts,
    /// Regularity bound snapshotted at read invocation.
    min_ts: Ts,
}

/// The (M,N) construction model. Threads `0..M` are writers, `M..M+N`
/// readers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MnModel {
    writers: Vec<WriterM>,
    readers: Vec<ReaderM>,
    /// Sub-register contents: the newest `(ts, id)` each writer published.
    subs: Vec<Ts>,
    defect: MnDefect,
    // online spec state
    /// Newest timestamp among *completed* writes.
    completed: Ts,
    /// All started writes (their timestamps), for the future-read check.
    started_max_per_writer: Vec<u8>,
    /// Newest timestamp among completed reads.
    max_read: Ts,
}

impl MnModel {
    /// A model with `writers` writers each performing `cfg.writes` writes
    /// and `cfg.readers` readers each performing `cfg.reads_each` reads.
    pub fn new(writers: usize, cfg: ModelConfig, defect: MnDefect) -> Self {
        Self {
            writers: vec![
                WriterM {
                    pc: WPc::Idle,
                    writes_left: cfg.writes,
                    local_counter: 0,
                    ts_floor: (0, 0),
                };
                writers
            ],
            readers: vec![
                ReaderM {
                    pc: RPc::Idle,
                    reads_left: cfg.reads_each,
                    floor: (0, 0),
                    min_ts: (0, 0),
                };
                cfg.readers
            ],
            // Initial value: writer 0's sub-register holds (1, 0) — matches
            // the implementation; placeholders are (0, id).
            subs: (0..writers).map(|id| (u8::from(id == 0), id as u8)).collect(),
            defect,
            completed: (1, 0),
            started_max_per_writer: vec![0; writers],
            max_read: (0, 0),
        }
    }

    fn writer_step(&mut self, w: usize) -> Result<(), String> {
        let m = self.writers.len() as u8;
        let me = self.writers[w];
        match me.pc {
            WPc::Idle => {
                debug_assert!(me.writes_left > 0);
                // Invocation: snapshot the real-time floor the timestamp
                // must exceed.
                self.writers[w].ts_floor = self.completed;
                if self.defect == MnDefect::SkipCollect || m == 1 {
                    self.writers[w].pc = WPc::Publish { max: me.local_counter };
                } else {
                    let first_peer = if w == 0 { 1 } else { 0 };
                    self.writers[w].pc = WPc::Collect { peer: first_peer, max: me.local_counter };
                }
                Ok(())
            }
            WPc::Collect { peer, max } => {
                // One atomic sub-read of peer's register.
                let seen = self.subs[peer as usize].0;
                let max = max.max(seen);
                // next peer, skipping self
                let mut next = peer + 1;
                if next == w as u8 {
                    next += 1;
                }
                if next >= m {
                    self.writers[w].pc = WPc::Publish { max };
                } else {
                    self.writers[w].pc = WPc::Collect { peer: next, max };
                }
                Ok(())
            }
            WPc::Publish { max } => {
                let ts = (max + 1, w as u8);
                // The witness (timestamp) order is only a valid
                // linearization if it respects real time: every write
                // completed before this one began must rank below it.
                if ts < self.writers[w].ts_floor {
                    return Err(format!(
                        "MN timestamp order violates real time: publishing {ts:?} after {:?} completed",
                        self.writers[w].ts_floor
                    ));
                }
                self.subs[w] = ts;
                self.writers[w].local_counter = max + 1;
                self.started_max_per_writer[w] = self.started_max_per_writer[w].max(max + 1);
                // The write completes at its publish step (the collect adds
                // no trailing work), so the spec bookkeeping updates here.
                if ts > self.completed {
                    self.completed = ts;
                }
                self.writers[w].writes_left -= 1;
                self.writers[w].pc = WPc::Idle;
                Ok(())
            }
        }
    }

    fn reader_step(&mut self, r: usize) -> Result<(), String> {
        let me = self.readers[r];
        match me.pc {
            RPc::Idle => {
                debug_assert!(me.reads_left > 0);
                self.readers[r].floor = self.max_read;
                self.readers[r].min_ts = self.completed;
                self.readers[r].pc = RPc::Scan { sub: 0, best: (0, 0) };
                Ok(())
            }
            RPc::Scan { sub, best } => {
                let seen = self.subs[sub as usize];
                let best = best.max(seen);
                if (sub as usize) + 1 < self.subs.len() {
                    self.readers[r].pc = RPc::Scan { sub: sub + 1, best };
                    return Ok(());
                }
                // Read completes: multi-writer atomicity checks.
                if best < me.min_ts {
                    return Err(format!(
                        "MN regularity violation: read returned {best:?} but {:?} completed before it began",
                        me.min_ts
                    ));
                }
                if best < me.floor {
                    return Err(format!(
                        "MN new-old inversion: read returned {best:?} after a completed read saw {:?}",
                        me.floor
                    ));
                }
                let wid = best.1 as usize;
                let legit = best == (u8::from(wid == 0), best.1) // initial/placeholder
                    || best.0 <= self.started_max_per_writer[wid];
                if !legit {
                    return Err(format!("MN future read: {best:?} was never written"));
                }
                if best > self.max_read {
                    self.max_read = best;
                }
                self.readers[r].reads_left -= 1;
                self.readers[r].pc = RPc::Idle;
                Ok(())
            }
        }
    }
}

impl Model for MnModel {
    fn enabled(&self) -> Vec<usize> {
        let m = self.writers.len();
        let mut v = Vec::with_capacity(m + self.readers.len());
        for (i, w) in self.writers.iter().enumerate() {
            if w.writes_left > 0 || w.pc != WPc::Idle {
                v.push(i);
            }
        }
        for (i, r) in self.readers.iter().enumerate() {
            if r.reads_left > 0 || r.pc != RPc::Idle {
                v.push(m + i);
            }
        }
        v
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        let m = self.writers.len();
        if tid < m {
            self.writer_step(tid)
        } else {
            self.reader_step(tid - m)
        }
    }

    fn is_done(&self) -> bool {
        self.writers.iter().all(|w| w.writes_left == 0 && w.pc == WPc::Idle)
            && self.readers.iter().all(|r| r.reads_left == 0 && r.pc == RPc::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, ExploreLimits};

    #[test]
    fn two_writers_small_exhaustive() {
        // Quick sanity config; the large configurations live in
        // tests/exhaustive.rs (release-gated).
        let m =
            MnModel::new(2, ModelConfig { readers: 1, writes: 2, reads_each: 2 }, MnDefect::None);
        let out = explore(m, ExploreLimits::default());
        assert!(out.is_ok(), "violation: {:?}", out.violation());
    }

    #[test]
    fn skip_collect_defect_is_caught() {
        // Without the collect, writer 1 can publish (1,1), complete; then
        // writer 0 publishes (1,0) < (1,1): the witness order breaks.
        let m = MnModel::new(
            2,
            ModelConfig { readers: 1, writes: 2, reads_each: 1 },
            MnDefect::SkipCollect,
        );
        let out = explore(m, ExploreLimits::default());
        assert!(!out.is_ok(), "skipping the collect must break atomicity");
        let msg = out.violation().unwrap().to_string();
        assert!(
            msg.contains("regularity") || msg.contains("inversion") || msg.contains("real time"),
            "got: {msg}"
        );
    }
}
