//! State-machine model of the RF protocol (Larsson et al. 2009), one
//! shared-memory access per step.
//!
//! Thread 0 is the writer; threads `1..=readers` are readers.
//!
//! | step | accesses |
//! |------|----------|
//! | writer select | none shared (trace and last_written are writer-local) |
//! | writer data word 0 / 1 | one buffer-word store each |
//! | writer swap | one RMW on the packed word (also folds the mask into the local trace) |
//! | reader fetch_or | one RMW on the packed word |
//! | reader data word 0 / 1 | one buffer-word load each |
//!
//! A reader's *pin* lasts from its `fetch_or` until its next `fetch_or`
//! (the trace hand-over), mirroring the implementation's guard semantics.

use crate::explorer::Model;
use crate::spec::{ModelConfig, ObsChecker, ReadObs};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WPc {
    Idle,
    Data0 { chosen: u8 },
    Data1 { chosen: u8 },
    Swap { chosen: u8 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RPc {
    Idle,
    /// The fetch_or step (sets the bit, learns the index).
    FetchOr,
    Data0 {
        target: u8,
    },
    Data1 {
        target: u8,
        w0: u8,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReaderM {
    pc: RPc,
    reads_left: u8,
    /// Buffer pinned since the last fetch_or (guard semantics).
    pinned: Option<u8>,
    obs: ReadObs,
}

/// The RF protocol model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RfModel {
    cfg: ModelConfig,
    checker: ObsChecker,
    // shared packed word
    index: u8,
    mask: u8, // bit r = reader r's presence bit (≤ 8 readers in the model)
    buffers: Vec<(u8, u8)>,
    // writer-local
    wpc: WPc,
    writes_left: u8,
    next_seq: u8,
    last_written: u8,
    trace: Vec<u8>,
    // readers
    readers: Vec<ReaderM>,
}

impl RfModel {
    /// A model with `cfg.readers + 2` buffers, buffer 0 holding seq 0.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.readers > 8` (the model packs the mask into a `u8`).
    pub fn new(cfg: ModelConfig) -> Self {
        assert!(cfg.readers <= 8, "model mask is 8 bits");
        Self {
            cfg,
            checker: ObsChecker::default(),
            index: 0,
            mask: 0,
            buffers: vec![(0, 0); cfg.readers + 2],
            wpc: WPc::Idle,
            writes_left: cfg.writes,
            next_seq: 1,
            last_written: 0,
            trace: vec![0; cfg.readers],
            readers: vec![
                ReaderM {
                    pc: RPc::Idle,
                    reads_left: cfg.reads_each,
                    pinned: None,
                    obs: ReadObs::default(),
                };
                cfg.readers
            ],
        }
    }

    fn writer_step(&mut self) -> Result<(), String> {
        match self.wpc {
            WPc::Idle => {
                debug_assert!(self.writes_left > 0);
                self.checker.on_write_start(self.next_seq);
                // Selection reads only writer-local state: one step.
                let n = self.buffers.len() as u8;
                let chosen = (0..n)
                    .find(|b| *b != self.last_written && !self.trace.contains(b))
                    .expect("N+2 buffers leave at least one untraced, non-current buffer");
                self.wpc = WPc::Data0 { chosen };
                Ok(())
            }
            WPc::Data0 { chosen } => {
                self.check_exclusion(chosen)?;
                self.buffers[chosen as usize].0 = self.next_seq;
                self.wpc = WPc::Data1 { chosen };
                Ok(())
            }
            WPc::Data1 { chosen } => {
                self.check_exclusion(chosen)?;
                self.buffers[chosen as usize].1 = self.next_seq;
                self.wpc = WPc::Swap { chosen };
                Ok(())
            }
            WPc::Swap { chosen } => {
                let old_index = self.index;
                let old_mask = self.mask;
                self.index = chosen;
                self.mask = 0;
                // Trace folding is writer-local: same step.
                for r in 0..self.trace.len() {
                    if old_mask & (1 << r) != 0 {
                        self.trace[r] = old_index;
                    }
                }
                self.last_written = chosen;
                self.checker.on_write_complete(self.next_seq);
                self.next_seq += 1;
                self.writes_left -= 1;
                self.wpc = WPc::Idle;
                Ok(())
            }
        }
    }

    fn check_exclusion(&self, chosen: u8) -> Result<(), String> {
        for (i, r) in self.readers.iter().enumerate() {
            if r.pinned == Some(chosen) {
                return Err(format!(
                    "RF exclusion violated: writer writes buffer {chosen} pinned by reader {i}"
                ));
            }
        }
        Ok(())
    }

    fn reader_step(&mut self, r: usize) -> Result<(), String> {
        let me = self.readers[r];
        match me.pc {
            RPc::Idle => {
                debug_assert!(me.reads_left > 0);
                self.readers[r].obs = self.checker.on_read_start();
                self.readers[r].pc = RPc::FetchOr;
                Ok(())
            }
            RPc::FetchOr => {
                self.mask |= 1 << r;
                let target = self.index;
                // Pin hand-over: the new target replaces the old pin.
                self.readers[r].pinned = Some(target);
                self.readers[r].pc = RPc::Data0 { target };
                Ok(())
            }
            RPc::Data0 { target } => {
                let w0 = self.buffers[target as usize].0;
                self.readers[r].pc = RPc::Data1 { target, w0 };
                Ok(())
            }
            RPc::Data1 { target, w0 } => {
                let w1 = self.buffers[target as usize].1;
                let obs = me.obs;
                self.checker.on_read_complete(obs, w0, w1)?;
                self.readers[r].reads_left -= 1;
                self.readers[r].pc = RPc::Idle;
                Ok(())
            }
        }
    }
}

impl Model for RfModel {
    fn enabled(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(1 + self.readers.len());
        if self.writes_left > 0 || self.wpc != WPc::Idle {
            v.push(0);
        }
        for (i, r) in self.readers.iter().enumerate() {
            if r.reads_left > 0 || r.pc != RPc::Idle {
                v.push(i + 1);
            }
        }
        v
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        if tid == 0 {
            self.writer_step()
        } else {
            self.reader_step(tid - 1)
        }
    }

    fn is_done(&self) -> bool {
        self.writes_left == 0
            && self.wpc == WPc::Idle
            && self.readers.iter().all(|r| r.reads_left == 0 && r.pc == RPc::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, ExploreLimits};

    #[test]
    fn single_reader_exhaustive() {
        let m = RfModel::new(ModelConfig { readers: 1, writes: 2, reads_each: 2 });
        explore(m, ExploreLimits::default()).assert_ok("RF 1r/2w/2x");
    }
}
