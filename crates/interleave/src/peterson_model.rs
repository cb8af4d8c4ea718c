//! State-machine model of the Peterson-style register
//! (`baseline_registers::peterson`), one shared-memory access per step.
//!
//! This is the model that *earns its keep*: the Peterson reconstruction's
//! correctness argument (announce → racy main copy → post-copy handshake
//! check → double-buffered fallback) is subtle, and this model lets the
//! explorer quantify over **every** interleaving of the writer's 4-step
//! data phase + 5-step-per-reader helping phase against each reader's
//! 9-step read. Unlike ARC/RF there is no exclusion invariant — the main
//! copy is *allowed* to race — so the whole burden falls on the
//! `ObsChecker`: any interleaving where a torn or stale or inverted value
//! is **returned** fails the exploration.
//!
//! | step | accesses |
//! |------|----------|
//! | writer: read `sw` | 1 load |
//! | writer: data word 0 / 1 | 1 store each |
//! | writer: flip `sw` | 1 store |
//! | writer help r: load `reading[r]` | 1 load (`writing[r]`, `sel[r]` are writer-owned) |
//! | writer help r: copy word 0 / 1 | 1 store each |
//! | writer help r: flip `sel[r]` | 1 store |
//! | writer help r: equalize `writing[r]` | 1 store |
//! | reader: load `writing[me]` | 1 load |
//! | reader: announce `reading[me]` | 1 store |
//! | reader: sample `sw` | 1 load |
//! | reader: main word 0 / 1 | 1 load each (racy by design) |
//! | reader: handshake check | 1 load of `writing[me]` |
//! | reader: load `sel[me]` | 1 load |
//! | reader: fallback word 0 / 1 | 1 load each |

use crate::explorer::Model;
use crate::spec::{ModelConfig, ObsChecker, ReadObs};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WPc {
    Idle,
    /// Read `sw` to find the inactive buffer.
    ReadSw,
    Data0 {
        target: u8,
    },
    Data1 {
        target: u8,
    },
    Flip {
        target: u8,
    },
    /// Helping scan, reader `r`: load `reading[r]` and compare.
    HelpCheck {
        r: u8,
    },
    HelpCopy0 {
        r: u8,
        sampled: bool,
    },
    HelpCopy1 {
        r: u8,
        sampled: bool,
    },
    HelpSel {
        r: u8,
        sampled: bool,
    },
    HelpEq {
        r: u8,
        sampled: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RPc {
    Idle,
    /// Load `writing[me]`.
    LoadW,
    /// Store `reading[me] = !w`.
    Announce {
        w: bool,
    },
    /// Sample `sw`.
    SampleSw {
        ann: bool,
    },
    Main0 {
        ann: bool,
        s1: u8,
    },
    Main1 {
        ann: bool,
        s1: u8,
        w0: u8,
    },
    /// Post-copy handshake check.
    Check {
        ann: bool,
        w0: u8,
        w1: u8,
    },
    LoadSel {
        ann: bool,
    },
    Fall0 {
        sel: u8,
    },
    Fall1 {
        sel: u8,
        w0: u8,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReaderShared {
    reading: bool,
    writing: bool,
    sel: u8,
    copy: [(u8, u8); 2],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReaderM {
    pc: RPc,
    reads_left: u8,
    obs: ReadObs,
}

/// The Peterson-style protocol model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PetersonModel {
    cfg: ModelConfig,
    checker: ObsChecker,
    // shared
    sw: u8,
    buff: [(u8, u8); 2],
    rshared: Vec<ReaderShared>,
    // writer
    wpc: WPc,
    writes_left: u8,
    next_seq: u8,
    // readers
    readers: Vec<ReaderM>,
}

impl PetersonModel {
    /// A model with buffer 0 active and holding seq 0, all handshakes
    /// equal, fallback copy 0 holding seq 0.
    pub fn new(cfg: ModelConfig) -> Self {
        Self {
            cfg,
            checker: ObsChecker::default(),
            sw: 0,
            buff: [(0, 0), (0, 0)],
            rshared: vec![
                ReaderShared {
                    reading: false,
                    writing: false,
                    sel: 0,
                    copy: [(0, 0), (0, 0)],
                };
                cfg.readers
            ],
            wpc: WPc::Idle,
            writes_left: cfg.writes,
            next_seq: 1,
            readers: vec![
                ReaderM {
                    pc: RPc::Idle,
                    reads_left: cfg.reads_each,
                    obs: ReadObs::default()
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
                self.wpc = WPc::ReadSw;
                Ok(())
            }
            WPc::ReadSw => {
                let target = 1 - self.sw;
                self.wpc = WPc::Data0 { target };
                Ok(())
            }
            WPc::Data0 { target } => {
                self.buff[target as usize].0 = self.next_seq;
                self.wpc = WPc::Data1 { target };
                Ok(())
            }
            WPc::Data1 { target } => {
                self.buff[target as usize].1 = self.next_seq;
                self.wpc = WPc::Flip { target };
                Ok(())
            }
            WPc::Flip { target } => {
                self.sw = target;
                self.wpc = WPc::HelpCheck { r: 0 };
                Ok(())
            }
            WPc::HelpCheck { r } => {
                let st = &self.rshared[r as usize];
                let sampled = st.reading;
                if sampled != st.writing {
                    self.wpc = WPc::HelpCopy0 { r, sampled };
                } else {
                    self.advance_help(r);
                }
                Ok(())
            }
            WPc::HelpCopy0 { r, sampled } => {
                let st = &mut self.rshared[r as usize];
                let c = (1 - st.sel) as usize;
                st.copy[c].0 = self.next_seq;
                self.wpc = WPc::HelpCopy1 { r, sampled };
                Ok(())
            }
            WPc::HelpCopy1 { r, sampled } => {
                let st = &mut self.rshared[r as usize];
                let c = (1 - st.sel) as usize;
                st.copy[c].1 = self.next_seq;
                self.wpc = WPc::HelpSel { r, sampled };
                Ok(())
            }
            WPc::HelpSel { r, sampled } => {
                let st = &mut self.rshared[r as usize];
                st.sel = 1 - st.sel;
                self.wpc = WPc::HelpEq { r, sampled };
                Ok(())
            }
            WPc::HelpEq { r, sampled } => {
                self.rshared[r as usize].writing = sampled;
                self.advance_help(r);
                Ok(())
            }
        }
    }

    fn advance_help(&mut self, r: u8) {
        if (r as usize) + 1 < self.cfg.readers {
            self.wpc = WPc::HelpCheck { r: r + 1 };
        } else {
            self.checker.on_write_complete(self.next_seq);
            self.next_seq += 1;
            self.writes_left -= 1;
            self.wpc = WPc::Idle;
        }
    }

    fn reader_step(&mut self, r: usize) -> Result<(), String> {
        let me = self.readers[r];
        match me.pc {
            RPc::Idle => {
                debug_assert!(me.reads_left > 0);
                self.readers[r].obs = self.checker.on_read_start();
                self.readers[r].pc = RPc::LoadW;
                Ok(())
            }
            RPc::LoadW => {
                let w = self.rshared[r].writing;
                self.readers[r].pc = RPc::Announce { w };
                Ok(())
            }
            RPc::Announce { w } => {
                self.rshared[r].reading = !w;
                self.readers[r].pc = RPc::SampleSw { ann: !w };
                Ok(())
            }
            RPc::SampleSw { ann } => {
                let s1 = self.sw;
                self.readers[r].pc = RPc::Main0 { ann, s1 };
                Ok(())
            }
            RPc::Main0 { ann, s1 } => {
                let w0 = self.buff[s1 as usize].0;
                self.readers[r].pc = RPc::Main1 { ann, s1, w0 };
                Ok(())
            }
            RPc::Main1 { ann, s1, w0 } => {
                let w1 = self.buff[s1 as usize].1;
                self.readers[r].pc = RPc::Check { ann, w0, w1 };
                Ok(())
            }
            RPc::Check { ann, w0, w1 } => {
                if self.rshared[r].writing == ann {
                    // A help landed since the announce: take the fallback.
                    self.readers[r].pc = RPc::LoadSel { ann };
                } else {
                    // Main copy is provably untorn; complete with it.
                    let obs = me.obs;
                    self.checker.on_read_complete(obs, w0, w1)?;
                    self.readers[r].reads_left -= 1;
                    self.readers[r].pc = RPc::Idle;
                }
                Ok(())
            }
            RPc::LoadSel { ann: _ } => {
                let sel = self.rshared[r].sel;
                self.readers[r].pc = RPc::Fall0 { sel };
                Ok(())
            }
            RPc::Fall0 { sel } => {
                let w0 = self.rshared[r].copy[sel as usize].0;
                self.readers[r].pc = RPc::Fall1 { sel, w0 };
                Ok(())
            }
            RPc::Fall1 { sel, w0 } => {
                let w1 = self.rshared[r].copy[sel as usize].1;
                let obs = me.obs;
                self.checker.on_read_complete(obs, w0, w1)?;
                self.readers[r].reads_left -= 1;
                self.readers[r].pc = RPc::Idle;
                Ok(())
            }
        }
    }
}

impl Model for PetersonModel {
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
        let m = PetersonModel::new(ModelConfig { readers: 1, writes: 2, reads_each: 2 });
        explore(m, ExploreLimits::default()).assert_ok("Peterson 1r/2w/2x");
    }
}
