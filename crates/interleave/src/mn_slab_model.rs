//! State-machine model of **two MN writers sharing one slab** — the
//! composition the slab-backed `MnRegister` actually runs: one (2,N)
//! cell whose two ARC sub-registers live in a single shared slot array.
//!
//! The layers proven elsewhere:
//!
//! * the single-register ARC protocol and the slab layout under **one**
//!   batch writer (on the shipped code, by `arc-register`'s test-only
//!   `model_check` module);
//! * the timestamp construction over atomic sub-registers
//!   ([`crate::mn_model`]).
//!
//! What none of them covers — and what this model checks — is **two
//! *concurrent* writers driving the full ARC write protocol against
//! adjacent slab ranges** while a reader scans both sub-registers with
//! persistent per-register pins (exactly the slab `MnReader`'s shape:
//! one standing `GroupReader` per sub-register). The writers interleave
//! freely *with each other*, something the checker's program-ordered
//! batch writer could never do; a layout bug that lets their slot ranges
//! overlap therefore fails in a new way — two writers *simultaneously
//! mid-store into the same slot* — on top of the pin-stomping the
//! checker's two-register runs already catch.
//!
//! Step granularity: every shared-memory access of the write path and
//! the read path is one step, as in the shipped-code checker. The collect
//! (the MN write's timestamp read of the peer sub-register) is modeled
//! as **one atomic step**, the abstraction [`crate::mn_model`] justifies
//! — it reads only the peer's *published* slot, which the peer writer
//! never stores into, so refining it adds interleavings without adding
//! behaviors. All MN-level checks of `mn_model` run here too: timestamp
//! order respecting real time, no stale reads, no new-old inversion, no
//! values that were never written — plus the slab-level checks: no torn
//! sub-read, no store into a pinned slot, no two writers in the same
//! slot, writer progress within the Lemma 4.1 bound.
//!
//! [`MnSlabDefect::SlabOverlap`] seeds the off-by-one the layout
//! property tests guard against (sub-register 1's base on sub-register
//! 0's last slot); the explorer must catch it through one of the above.

use crate::explorer::Model;

/// Which slab layout variant to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MnSlabDefect {
    /// Faithful layout: disjoint per-sub-register slot ranges.
    None,
    /// Sub-register 1's base overlaps sub-register 0's last slot (broken
    /// offset math); must be caught by the explorer.
    SlabOverlap,
}

/// Model configuration: operations per role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MnSlabConfig {
    /// MN writes each of the two writers performs.
    pub writes_each: u8,
    /// MN reads the reader performs (each = a scan of both sub-registers).
    pub reads_each: u8,
}

/// A timestamp: `(counter, writer id)` lexicographic. Sub-register `i`
/// only ever holds writer `i`'s values, so the id is implied by position.
type Ts = (u8, u8);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SlotM {
    r_start: u8,
    r_end: u8,
    /// The two data words; both hold the value's timestamp counter, so a
    /// mismatch is a torn read.
    w0: u8,
    w1: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RegM {
    cur_index: u8,
    cur_counter: u8,
    last_slot: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WPc {
    Idle,
    /// The MN collect: one atomic sub-read of the peer's published value.
    Collect,
    /// W1 scan over own sub-register's slots (`probe` local, `probed`
    /// counts probes — the starvation guard).
    Probe {
        probe: u8,
        probed: u8,
    },
    Data0 {
        chosen: u8,
    },
    Data1 {
        chosen: u8,
    },
    Reset {
        chosen: u8,
    },
    Swap {
        chosen: u8,
    },
    Freeze {
        old_index: u8,
        old_counter: u8,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WriterM {
    pc: WPc,
    writes_left: u8,
    /// Largest counter this writer has used (its sub-register's newest).
    counter: u8,
    /// Counter chosen by the in-flight write's collect.
    pending: u8,
    /// Newest completed timestamp at this write's invocation: the
    /// timestamp order must place this write above it (real time).
    ts_floor: Ts,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RPc {
    Idle,
    /// R1/R2 of the scan's current sub-register.
    Current {
        reg: u8,
    },
    /// R3: release the stale pin on `reg`.
    Release {
        reg: u8,
    },
    /// R4: re-pin `reg`'s current slot.
    FetchAdd {
        reg: u8,
    },
    Data0 {
        reg: u8,
        target: u8,
    },
    Data1 {
        reg: u8,
        target: u8,
        w0: u8,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReaderM {
    pc: RPc,
    reads_left: u8,
    /// Persistent pinned **local** slot per sub-register — the slab
    /// `MnReader` holds one standing reader handle per sub-register, so
    /// a pin on register 0 survives the whole scan of register 1.
    pins: [Option<u8>; 2],
    /// Best timestamp of the in-flight scan.
    best: Ts,
    /// Inversion floor snapshotted at read invocation.
    floor: Ts,
    /// Regularity bound snapshotted at read invocation.
    min_ts: Ts,
}

/// The two-writer MN-cell-on-a-slab model (see module docs). Thread ids:
/// 0 and 1 are the writers, 2 the reader.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MnSlabModel {
    defect: MnSlabDefect,
    /// Slots per sub-register (1 reader + 2 = 3).
    n_slots: u8,
    /// Slab base offset of each sub-register in `slots`.
    bases: [u8; 2],
    /// The shared slot array both sub-registers live in.
    slots: Vec<SlotM>,
    regs: [RegM; 2],
    writers: [WriterM; 2],
    reader: ReaderM,
    // online spec state
    /// Newest timestamp among *completed* MN writes.
    completed: Ts,
    /// Largest counter each writer has stored anywhere (even unpublished),
    /// for the future-read check.
    started_max: [u8; 2],
    /// Newest timestamp among completed MN reads.
    max_read: Ts,
}

impl MnSlabModel {
    /// A (2,1) MN cell on one slab: two writers with 3-slot sub-registers
    /// at adjacent bases, one reader scanning both. Sub-register 0 holds
    /// the initial value `(1, 0)`, sub-register 1 its placeholder `(0, 1)`
    /// — exactly the slab `MnRegister`'s initialization.
    pub fn new(cfg: MnSlabConfig, defect: MnSlabDefect) -> Self {
        let n_slots = 3u8; // 1 reader per sub-register + 2
        let bases = match defect {
            MnSlabDefect::None => [0, n_slots],
            // Off-by-one: sub-register 1 starts on sub-register 0's last
            // slot.
            MnSlabDefect::SlabOverlap => [0, n_slots - 1],
        };
        let total = (bases[1] + n_slots) as usize;
        let mut slots = vec![SlotM { r_start: 0, r_end: 0, w0: 0, w1: 0 }; total];
        // Initial values: counter 1 in sub-register 0's slot 0, the
        // counter-0 placeholder in sub-register 1's slot 0.
        slots[bases[0] as usize].w0 = 1;
        slots[bases[0] as usize].w1 = 1;
        let writer = |counter: u8| WriterM {
            pc: WPc::Idle,
            writes_left: cfg.writes_each,
            counter,
            pending: 0,
            ts_floor: (0, 0),
        };
        Self {
            defect,
            n_slots,
            bases,
            slots,
            regs: [RegM { cur_index: 0, cur_counter: 0, last_slot: 0 }; 2],
            writers: [writer(1), writer(0)],
            reader: ReaderM {
                pc: RPc::Idle,
                reads_left: cfg.reads_each,
                pins: [None; 2],
                best: (0, 0),
                floor: (0, 0),
                min_ts: (0, 0),
            },
            completed: (1, 0),
            started_max: [1, 0],
            max_read: (0, 0),
        }
    }

    /// Global slab position of sub-register `r`'s local `slot`.
    #[inline]
    fn global(&self, r: usize, slot: u8) -> usize {
        (self.bases[r] + slot) as usize
    }

    /// The slab composition claim, checked globally: writer `target`
    /// (storing into its local `chosen`) must not touch a slab position
    /// pinned by the reader **via either sub-register**, nor one the
    /// *other writer* is mid-store into — in the faithful layout neither
    /// can even be named.
    fn check_exclusion(&self, target: usize, chosen: u8) -> Result<(), String> {
        let g = self.global(target, chosen);
        for reg in 0..2 {
            if let Some(local) = self.reader.pins[reg] {
                // Between R3 and R4 the stale index carries no rights.
                let stale = matches!(self.reader.pc, RPc::FetchAdd { reg: r } if r as usize == reg);
                if !stale && self.global(reg, local) == g {
                    return Err(format!(
                        "slab exclusion violated: writer {target} stores into global slot {g} \
                         pinned by the reader via sub-register {reg}"
                    ));
                }
            }
        }
        let other = 1 - target;
        if let WPc::Data0 { chosen: oc } | WPc::Data1 { chosen: oc } | WPc::Reset { chosen: oc } =
            self.writers[other].pc
        {
            if self.global(other, oc) == g {
                return Err(format!(
                    "slab exclusion violated: writers {target} and {other} concurrently own \
                     global slot {g}"
                ));
            }
        }
        Ok(())
    }

    fn writer_step(&mut self, w: usize) -> Result<(), String> {
        let me = self.writers[w];
        match me.pc {
            WPc::Idle => {
                debug_assert!(me.writes_left > 0);
                // Invocation: snapshot the real-time floor the timestamp
                // must exceed.
                self.writers[w].ts_floor = self.completed;
                self.writers[w].pc = WPc::Collect;
                Ok(())
            }
            WPc::Collect => {
                // One atomic sub-read of the peer's *published* slot (the
                // peer writer never stores into its own current slot, so
                // this can never observe a torn value in the faithful
                // layout; under the defect it may read a foreign
                // writer's bytes — which is the point).
                let peer = 1 - w;
                let seen = self.slots[self.global(peer, self.regs[peer].cur_index)].w0;
                self.writers[w].pending = me.counter.max(seen) + 1;
                self.writers[w].pc =
                    WPc::Probe { probe: (self.regs[w].last_slot + 1) % self.n_slots, probed: 0 };
                Ok(())
            }
            WPc::Probe { probe, probed } => {
                if probed >= 2 * self.n_slots {
                    return Err(format!(
                        "writer {w} starved: no free slot in two sweeps (Lemma 4.1 violated)"
                    ));
                }
                let g = self.global(w, probe);
                let free =
                    probe != self.regs[w].last_slot && self.slots[g].r_start == self.slots[g].r_end;
                if free {
                    self.writers[w].pc = WPc::Data0 { chosen: probe };
                } else {
                    self.writers[w].pc =
                        WPc::Probe { probe: (probe + 1) % self.n_slots, probed: probed + 1 };
                }
                Ok(())
            }
            WPc::Data0 { chosen } => {
                self.check_exclusion(w, chosen)?;
                let g = self.global(w, chosen);
                self.slots[g].w0 = me.pending;
                self.started_max[w] = self.started_max[w].max(me.pending);
                self.writers[w].pc = WPc::Data1 { chosen };
                Ok(())
            }
            WPc::Data1 { chosen } => {
                self.check_exclusion(w, chosen)?;
                let g = self.global(w, chosen);
                self.slots[g].w1 = me.pending;
                self.writers[w].pc = WPc::Reset { chosen };
                Ok(())
            }
            WPc::Reset { chosen } => {
                let g = self.global(w, chosen);
                self.slots[g].r_start = 0;
                self.slots[g].r_end = 0;
                self.writers[w].pc = WPc::Swap { chosen };
                Ok(())
            }
            WPc::Swap { chosen } => {
                let (old_index, old_counter) = (self.regs[w].cur_index, self.regs[w].cur_counter);
                self.regs[w].cur_index = chosen;
                self.regs[w].cur_counter = 0;
                self.regs[w].last_slot = chosen;
                self.writers[w].pc = WPc::Freeze { old_index, old_counter };
                Ok(())
            }
            WPc::Freeze { old_index, old_counter } => {
                let g = self.global(w, old_index);
                self.slots[g].r_start = old_counter;
                // The MN write responds here; spec bookkeeping updates.
                let ts = (me.pending, w as u8);
                if ts < me.ts_floor {
                    return Err(format!(
                        "MN timestamp order violates real time: publishing {ts:?} after {:?} \
                         completed",
                        me.ts_floor
                    ));
                }
                self.writers[w].counter = me.pending;
                if ts > self.completed {
                    self.completed = ts;
                }
                self.writers[w].writes_left -= 1;
                self.writers[w].pc = WPc::Idle;
                Ok(())
            }
        }
    }

    fn reader_step(&mut self) -> Result<(), String> {
        let me = self.reader;
        match me.pc {
            RPc::Idle => {
                debug_assert!(me.reads_left > 0);
                self.reader.floor = self.max_read;
                self.reader.min_ts = self.completed;
                self.reader.best = (0, 0);
                self.reader.pc = RPc::Current { reg: 0 };
                Ok(())
            }
            RPc::Current { reg } => {
                let idx = self.regs[reg as usize].cur_index;
                if me.pins[reg as usize] == Some(idx) {
                    // R2 fast path: the pin already covers the current
                    // slot.
                    self.reader.pc = RPc::Data0 { reg, target: idx };
                } else if me.pins[reg as usize].is_some() {
                    self.reader.pc = RPc::Release { reg };
                } else {
                    self.reader.pc = RPc::FetchAdd { reg };
                }
                Ok(())
            }
            RPc::Release { reg } => {
                let last = me.pins[reg as usize].expect("release only with a pinned slot");
                let g = self.global(reg as usize, last);
                self.slots[g].r_end += 1;
                self.reader.pc = RPc::FetchAdd { reg };
                Ok(())
            }
            RPc::FetchAdd { reg } => {
                let idx = self.regs[reg as usize].cur_index;
                self.regs[reg as usize].cur_counter += 1;
                self.reader.pins[reg as usize] = Some(idx);
                self.reader.pc = RPc::Data0 { reg, target: idx };
                Ok(())
            }
            RPc::Data0 { reg, target } => {
                let w0 = self.slots[self.global(reg as usize, target)].w0;
                self.reader.pc = RPc::Data1 { reg, target, w0 };
                Ok(())
            }
            RPc::Data1 { reg, target, w0 } => {
                let w1 = self.slots[self.global(reg as usize, target)].w1;
                if w0 != w1 {
                    return Err(format!(
                        "torn MN sub-read: sub-register {reg} returned counters {w0} and {w1}"
                    ));
                }
                let ts = (w0, reg);
                let best = me.best.max(ts);
                if reg == 0 {
                    self.reader.best = best;
                    self.reader.pc = RPc::Current { reg: 1 };
                    return Ok(());
                }
                // The MN read completes: multi-writer atomicity checks.
                if best < me.min_ts {
                    return Err(format!(
                        "MN regularity violation: read returned {best:?} but {:?} completed \
                         before it began",
                        me.min_ts
                    ));
                }
                if best < me.floor {
                    return Err(format!(
                        "MN new-old inversion: read returned {best:?} after a completed read \
                         saw {:?}",
                        me.floor
                    ));
                }
                if best.0 > self.started_max[best.1 as usize] {
                    return Err(format!("MN future read: {best:?} was never written"));
                }
                if best > self.max_read {
                    self.max_read = best;
                }
                self.reader.reads_left -= 1;
                self.reader.pc = RPc::Idle;
                Ok(())
            }
        }
    }
}

impl Model for MnSlabModel {
    fn enabled(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(3);
        for (i, w) in self.writers.iter().enumerate() {
            if w.writes_left > 0 || w.pc != WPc::Idle {
                v.push(i);
            }
        }
        if self.reader.reads_left > 0 || self.reader.pc != RPc::Idle {
            v.push(2);
        }
        v
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        if tid < 2 {
            self.writer_step(tid)
        } else {
            self.reader_step()
        }
    }

    fn is_done(&self) -> bool {
        self.writers.iter().all(|w| w.writes_left == 0 && w.pc == WPc::Idle)
            && self.reader.reads_left == 0
            && self.reader.pc == RPc::Idle
    }

    fn check_invariants(&self) -> Result<(), String> {
        if self.defect != MnSlabDefect::None {
            // The broken layout corrupts bookkeeping by design; let the
            // exploration reach the observable violation.
            return Ok(());
        }
        // Per-sub-register unit conservation over its own slab range (the
        // global exclusion witness lives in check_exclusion).
        for (r, reg) in self.regs.iter().enumerate() {
            for local in 0..self.n_slots {
                if local == reg.cur_index {
                    continue;
                }
                let s = &self.slots[self.global(r, local)];
                if s.r_start > 0 && s.r_start < s.r_end {
                    return Err(format!(
                        "sub-register {r} slot {local}: more releases ({}) than frozen units ({})",
                        s.r_end, s.r_start
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, ExploreLimits, Outcome};

    #[test]
    fn two_writer_cell_exhaustive() {
        // The acceptance configuration, in miniature: two MN writers
        // racing their full ARC write paths on adjacent slab ranges while
        // the reader scans both sub-registers twice.
        let m =
            MnSlabModel::new(MnSlabConfig { writes_each: 2, reads_each: 2 }, MnSlabDefect::None);
        let out = explore(m, ExploreLimits::default());
        match &out {
            Outcome::Ok(report) => assert!(report.terminals >= 1),
            other => panic!("MN slab model violation: {other:?}"),
        }
    }

    #[test]
    fn slab_overlap_defect_is_caught() {
        // The overlapped slot belongs to both writers' probe ranges: two
        // concurrent writers can both select it (writer-writer
        // collision), a writer can stomp the reader's foreign pin
        // (exclusion/torn), or the foreign pin starves the W1 sweep. Any
        // of those faces — or the MN-level fallout (stale value, future
        // read) — must surface.
        let m = MnSlabModel::new(
            MnSlabConfig { writes_each: 2, reads_each: 2 },
            MnSlabDefect::SlabOverlap,
        );
        let out = explore(m, ExploreLimits::default());
        assert!(!out.is_ok(), "overlapping slab bases must be caught");
        let msg = out.violation().expect("violation expected").to_string();
        assert!(
            msg.contains("starved")
                || msg.contains("exclusion")
                || msg.contains("torn")
                || msg.contains("regularity")
                || msg.contains("future")
                || msg.contains("inversion")
                || msg.contains("real time"),
            "unexpected violation class: {msg}"
        );
    }

    #[test]
    fn single_write_each_exhaustive() {
        let m =
            MnSlabModel::new(MnSlabConfig { writes_each: 1, reads_each: 2 }, MnSlabDefect::None);
        let out = explore(m, ExploreLimits::default());
        assert!(out.is_ok(), "violation: {:?}", out.violation());
    }
}
