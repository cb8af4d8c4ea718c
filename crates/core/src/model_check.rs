//! Model checking of the code that ships: [`interleave::explore`] runs the
//! real protocol functions of [`crate::raw`] over the real slab layout of
//! [`crate::group`], through every sequentially consistent interleaving of
//! a small workload — the mechanical counterpart of the paper's §4 proof.
//!
//! # How the real code is stepped
//!
//! Each operation is a shipped function. A read is `read_acquire_on`
//! followed by two payload loads, a guard drop is `guard_drop_on`, and a
//! write is `publish_with_on` (W1, fill, then W2 + W3 under
//! `PublishGuard`) whose fill stores two payload words. The functions run
//! over [`Stepped`], an [`ArcCells`] implementation that forwards every
//! accessor call (`current_word()`, `r_end(s)`, …) to the real
//! `GroupCells` of a live heap [`ArcGroup`]. Accessor calls are the step
//! boundaries, and model memory is keyed by the address the real accessor
//! returns, so the layout arithmetic of `ArcGroup::cells` is under test
//! too.
//!
//! The explorer clones, compares and hashes states, so a thread cannot be
//! parked inside a shipped function. Instead each step runs under
//! [`interleave::stepper`]: it *replays* the thread's current operation
//! from its start, setting the real word to the value logged for each
//! replayed access before the accessor returns, makes one new access to a
//! word another thread can touch, and ends at the next accessor call for
//! such a word. A `PublishGuard` dropped by the step's end is handed
//! scratch words.
//!
//! Words only a register's writer touches — its journal, lease, birth,
//! heartbeat, version, waiter and churn-budget words — never end a step:
//! no other thread can observe when they change, so the step goes on past
//! them.
//! Any other thread touching one makes the checker panic.
//!
//! # Writers
//!
//! A run has one batch writer, which writes the registers in turn, or one
//! writer thread per register of a K = 2 slab (`writer_per_register`):
//! writer `k` writes register `k`, as each writer role of a two-writer
//! (M,N) cell owns one sub-register of the cell's slab. Writers are the
//! first threads, then the readers; the two-writer runs have one reader
//! per register. A reader's pin persists across its operations, like the
//! standing sub-register readers of an `MnReader`, and each reader also
//! stands in for the other writer's collect reader on its register: two
//! independent readers reach every pin combination one scanning reader
//! could. These runs show the sub-registers are atomic while two writers
//! store into one slab at once; `mn-register`'s test-only `model_check`
//! module checks the (M,N) collect and scan over atomic sub-registers.
//!
//! # Watchers
//!
//! Watcher threads follow the readers, all on the last register. Each
//! runs the shipped `wait_for_version_on`, then a read through its own
//! reader handle, until it has read the last version its register will
//! publish (in fault runs, until no writer step is left and it has read
//! the register's version). [`Stepped::park`] and [`Stepped::wake`]
//! stand in for the futex: a park is one step that compares the
//! model-memory version with the value parked on and, if they match,
//! leaves the thread unscheduled until a wake of its register; a wake is
//! one step that unparks every watcher of the register and logs how many
//! for replays. The version and waiter words of a watched register are
//! shared words. A parked watcher counts as between operations for
//! recovery's quiescent window.
//!
//! # Faults
//!
//! A fault run adds a one-shot daemon thread that kills or unwinds the
//! writer at any step boundary of its first writes; the writer then makes
//! its remaining writes.
//!
//! * **Kill.** The writer's in-flight write is abandoned: its accesses
//!   stay in model memory and the writer is no longer scheduled. A
//!   recovery thread then runs the shipped `recover_register` as its own
//!   stepped operation, in the quiescent window `recovery.rs` documents:
//!   it starts only while every reader is between operations, and readers
//!   wait while it runs. The lease word names another process, so the
//!   liveness oracle reports only the writer dead; the group carries a pin
//!   registry, so the at-W2 census is exact. The crashed write counts as
//!   completed iff recovery classifies it at-W2 or post-W2. The writer
//!   then claims the role again through `writer_claim_on`.
//! * **Unwind.** The daemon records the access index at which the
//!   in-flight write unwinds. On every replay the accessor call at that
//!   index raises a payload of its own instead of accessing, and the real
//!   `PublishGuard::drop` runs against model memory, one new access per
//!   step with scratch words after it. The write is over once a replay
//!   reaches the end of the `Drop` with no new access pending; it counts
//!   as completed iff the guard moved the handle's `last_slot`, and the
//!   same handle makes the remaining writes.
//!
//! A fault may land between any two accesses, so in fault runs only the
//! heartbeat and churn-budget words stay writer-private: every journal,
//! lease, claim, version and ledger word ends a step. Each pin-registry
//! entry is private to the reader that owns it, because recovery reads
//! it only while readers are between operations.
//!
//! # What is checked
//!
//! * One [`ObsChecker`] per register, at each read's response: torn reads,
//!   regularity, new-old inversion and values from the future (the
//!   atomicity criteria of `interleave::spec`).
//! * Slot exclusion, at every payload store. A reader holds its handle's
//!   pinned slot until the R3 release of its current operation, and any
//!   slot it pins by R4 in that operation.
//! * Writer collision, at every payload store: no writer stores into a
//!   slot that another writer's in-flight write has stored into. Only a
//!   layout that lets two registers share a slot can trip it.
//! * No lost wakeup: once no writer, daemon or recovery step is left, a
//!   watcher parked on a version its register has moved past fails the
//!   run.
//! * Woken reads: a watcher's read after a wait returns at least the
//!   version the wait returned.
//! * Wait-freedom: no operation takes more than [`Setup::bound`] accesses.
//!   A starved writer fails the run, or with `prune_starved` stops being
//!   scheduled so the search goes on past it.
//!
//! Like any interleaving explorer this covers sequentially consistent
//! executions only; the C11 orderings stay with TSan and `ORDERINGS.toml`.

use std::cell::{Cell, RefCell};
use std::hash::{Hash, Hasher};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use interleave::spec::ReadObs;
use interleave::stepper::{self, Next, Replay};
use interleave::{explore, random_walks, ExploreLimits, Model, ObsChecker};
use register_common::OpMetrics;

use crate::current::index_of;
use crate::errors::HandleError;
use crate::group::{ArcGroup, GroupCells};
use crate::raw::{
    guard_drop_on, publish_with_on, read_acquire_on, reader_join_on, wait_for_version_on,
    writer_claim_on, ArcCells, RawOptions, RawReader, WriterMem,
};
use crate::recovery::{recover_register, Liveness, RecoveryReport};
use crate::shm::Identity;

/// The lease pid of a killed writer: another process, which the liveness
/// oracle reports dead.
const OTHER_PROCESS: u64 = u32::MAX as u64;

/// What the daemon does to the writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// No daemon.
    None,
    /// Kill it; recovery runs and the writer claims again.
    Kill,
    /// Unwind its in-flight write; the write's guard repairs.
    Panic,
}

/// A workload: the writer threads, then `readers` reader threads per
/// register.
#[derive(Debug, Clone, Copy)]
struct Config {
    /// Registers of the group (K).
    registers: usize,
    /// One writer thread per register, in place of the one batch writer
    /// that writes the registers in turn.
    writer_per_register: bool,
    /// Reader threads per register; the group is built for exactly that
    /// many, so each register has `readers + 2` slots.
    readers: usize,
    /// Writes per register; in fault runs, the writes the fault may land in.
    writes: u8,
    /// Reads per reader.
    reads: u8,
    /// The §3.4 hint and the writer candidate cache (one switch).
    hint: bool,
    /// Every read ends in a guard drop.
    guard_drop: bool,
    /// Stop scheduling a starved writer instead of failing the run.
    prune_starved: bool,
    /// The daemon's fault (one register only).
    fault: Fault,
    /// Writes after the fault.
    post: u8,
    /// Watcher threads, all on the last register.
    watchers: usize,
}

impl Config {
    /// One register, `readers`/`writes`/`reads`, hint off.
    const fn k1(readers: usize, writes: u8, reads: u8) -> Self {
        Self {
            registers: 1,
            writer_per_register: false,
            readers,
            writes,
            reads,
            hint: false,
            guard_drop: false,
            prune_starved: false,
            fault: Fault::None,
            post: 0,
            watchers: 0,
        }
    }

    /// Two registers with one reader each, hint off.
    const fn k2(writes: u8, reads: u8) -> Self {
        Self { registers: 2, ..Self::k1(1, writes, reads) }
    }

    /// Two registers with a writer and a reader each, hint off.
    const fn mn(writes: u8, reads: u8) -> Self {
        Self { writer_per_register: true, ..Self::k2(writes, reads) }
    }

    /// One register whose writer meets `fault` in one of its first `pre`
    /// writes, then makes `post` more; hint off.
    const fn fault(fault: Fault, readers: usize, pre: u8, post: u8, reads: u8) -> Self {
        Self { fault, post, ..Self::k1(readers, pre, reads) }
    }

    const fn hint(self) -> Self {
        Self { hint: true, ..self }
    }

    const fn guard_drop(self) -> Self {
        Self { guard_drop: true, ..self }
    }

    const fn prune_starved(self) -> Self {
        Self { prune_starved: true, ..self }
    }

    /// `registers` registers whose last one `watchers` watcher threads
    /// watch, `writes` writes each, no readers, hint off.
    const fn watch(registers: usize, watchers: usize, writes: u8) -> Self {
        Self { registers, watchers, ..Self::k1(0, writes, 0) }
    }

    /// `watchers` watcher threads on the last register written.
    const fn watched_by(self, watchers: usize) -> Self {
        Self { watchers, ..self }
    }

    /// The register the watchers watch.
    const fn watched(&self) -> usize {
        self.registers - 1
    }

    /// Writer threads (W); writer `w` writes registers `w, w + W, …` in
    /// turn.
    const fn writers(&self) -> usize {
        if self.writer_per_register {
            self.registers
        } else {
            1
        }
    }
}

/// One operation of a thread.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Publish `seq` to register `k`.
    Write { k: usize, seq: u8 },
    /// Read register `k` with reader handle `r`.
    Read { k: usize, r: usize },
    /// Drop the guard of reader `r`'s last read of register `k`.
    Drop { k: usize, r: usize },
    /// A watcher waits for register `k` to publish past its last read.
    Wait { k: usize },
    /// The writer claims the role again after recovery.
    Claim,
    /// Recovery of the killed writer's register.
    Recover,
}

impl Op {
    fn register(self) -> usize {
        match self {
            Op::Write { k, .. } | Op::Read { k, .. } | Op::Drop { k, .. } | Op::Wait { k } => k,
            Op::Claim | Op::Recover => 0,
        }
    }
}

/// What a thread needs to know about the slab, fixed for one exploration.
struct Setup {
    cfg: Config,
    group: Arc<ArcGroup>,
    /// Model-memory keys in ascending order: `(address, 0)` for a protocol
    /// word, `(slot address, 1 + i)` for payload word `i` of a slot.
    keys: Vec<(usize, u8)>,
    /// Per key: the one thread that touches it, besides recovery.
    owner: Vec<Option<usize>>,
    /// `slots[k][s]`: the address of slot `s` of register `k` (that of its
    /// `r_start` word), which identifies the slot across registers.
    slots: Vec<Vec<usize>>,
    /// `r_end[k][s]`: the address of that slot's `r_end` word.
    r_end: Vec<Vec<usize>>,
    /// The address of register `k`'s `current` word.
    current: Vec<usize>,
    /// Accesses one operation may take. A write whose first W1 sweep over
    /// `n` slots finds a slot (Lemma 4.1) takes fewer than `2 n + 30`; a
    /// starved writer keeps sweeping and passes the bound. Fault runs allow
    /// 16 more: an unwound write's log also holds the guard's repair.
    bound: usize,
    /// The identity every claim and join records.
    me: Identity,
}

impl Setup {
    fn key(&self, addr: usize, tag: u8) -> Option<usize> {
        self.keys.binary_search(&(addr, tag)).ok()
    }

    /// The first watcher's thread id (after the writers and readers).
    fn first_watcher(&self) -> usize {
        self.cfg.writers() + self.cfg.registers * self.cfg.readers
    }

    /// The daemon's thread id; recovery's is the next one.
    fn daemon(&self) -> usize {
        self.first_watcher() + self.cfg.watchers
    }

    /// Operations of each reader.
    fn reader_ops(&self) -> u8 {
        self.cfg.reads * if self.cfg.guard_drop { 2 } else { 1 }
    }
}

/// The static part of a state: equal and hash-neutral across states.
#[derive(Clone)]
struct Shared(Arc<Setup>);

impl PartialEq for Shared {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Shared {}

impl Hash for Shared {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// One logged access of an operation (packed: logs are most of a state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed)]
struct Access {
    key: u8,
    /// The access changed the word (a store or an RMW).
    wrote: bool,
    /// The value the access saw.
    seen: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Thread {
    /// Operations completed.
    done: u8,
    /// The current operation's accesses so far (empty between operations).
    log: Vec<Access>,
    /// The current read's invocation snapshot.
    obs: ReadObs,
    /// Starved and no longer scheduled (`prune_starved`).
    starved: bool,
    /// Parked in a wait until a wake of its register.
    parked: bool,
    /// A watcher's last read version.
    last: u64,
    /// The version a watcher's last wait returned.
    waited: u64,
}

/// Where a run stands with respect to its fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// The daemon has yet to act.
    Armed,
    /// The writer is dead and recovery has not completed.
    Dead,
    /// Recovery completed: the writer claims the role next.
    Recovered,
    /// The writer's in-flight write unwinds at this access index.
    Unwind(usize),
    /// No fault pending.
    Over,
}

/// A model state of the real code: model memory, each thread's handle
/// state as of the start of its current operation, and its access log.
#[derive(Clone, PartialEq, Eq, Hash)]
struct RealCode {
    setup: Shared,
    /// Model memory, parallel to `Setup::keys`.
    mem: Vec<u64>,
    /// One atomicity checker per register.
    obs: Vec<ObsChecker>,
    /// The writer's memory of each register.
    writer: Vec<WriterMem>,
    /// Each reader's handle, then each watcher's.
    readers: Vec<RawReader>,
    /// Threads `0..W` are the writers, thread `W + r` is reader `r`, then
    /// the watchers, then the daemon and recovery of fault runs.
    threads: Vec<Thread>,
    phase: Phase,
    /// Writes each writer makes in all (a fault moves it).
    writes: u8,
}

/// What keeps a writer from storing into a slot.
#[derive(Clone, Copy)]
enum Holder {
    /// Reader `r` holds it.
    Reader(usize),
    /// Writer `w`'s in-flight write has stored into it.
    Writer(usize),
}

/// How an operation stopped, besides the stepper's end of a step.
enum Stop {
    /// The daemon's unwind of the writer.
    Unwind,
    /// The operation passed the access bound.
    Starved(String),
    /// A safety check failed.
    Violation(String),
}

/// What a completed operation hands back: a read's handle state and
/// payload words, a claim's result, or recovery's report.
enum Done {
    Write,
    /// A read's handle state, payload words and version, or a guard drop's.
    Reader(RawReader, Option<(u8, u8)>, u64),
    Waited(u64),
    Claim(Result<usize, HandleError>),
    Recover(RecoveryReport),
}

impl RealCode {
    fn new(cfg: Config) -> Self {
        let kill = cfg.fault == Fault::Kill;
        let group = ArcGroup::builder(cfg.registers, (cfg.readers + cfg.watchers) as u32, 8)
            .hint(cfg.hint)
            .pin_registry(kill)
            .build()
            .expect("model group");
        let n = group.n_slots();
        let me = Identity::resolve();
        let writer = (0..cfg.registers)
            .map(|k| WriterMem::new(writer_claim_on(&group.cells(k), &me).expect("claim"), n))
            .collect();
        let watched = cfg.watched();
        let readers = (0..cfg.registers * cfg.readers)
            .map(|r| r % cfg.registers)
            .chain((0..cfg.watchers).map(|_| watched))
            .map(|k| reader_join_on(&group.cells(k), me.pid).expect("join"))
            .collect();

        // Every word of every register: (address, tag, value, owner).
        let mut words = Vec::new();
        let (mut slots, mut r_end, mut current) = (Vec::new(), Vec::new(), Vec::new());
        let fault_free = cfg.fault == Fault::None;
        let writers = cfg.writers();
        for k in 0..cfg.registers {
            let c = group.cells(k);
            if kill {
                c.lease_word().set(OTHER_PROCESS);
            }
            slots.push((0..n).map(|s| addr(c.r_start(s))).collect::<Vec<_>>());
            r_end.push((0..n).map(|s| addr(c.r_end(s))).collect());
            current.push(addr(c.current_word()));
            // Each header word, and whether only its writer touches it.
            // Watchers load the version word and register in the waiter
            // word of the register they watch.
            let unwatched = k != watched || cfg.watchers == 0;
            let header: [(&dyn Word, bool); 14] = [
                (c.current_word(), false),
                (c.hint_word(), false),
                (c.live_readers_word(), false),
                (c.writer_claimed_word(), false),
                (c.health_word(), false),
                (c.last_good_word(), false),
                (c.gen_joins_word(), true),
                (c.heartbeat_word(), true),
                (c.version_word(), fault_free && unwatched),
                (c.waiters_word(), unwatched),
                (c.wip_word(), fault_free),
                (c.wip_old_word(), fault_free),
                (c.lease_word(), fault_free),
                (c.birth_word(), fault_free),
            ];
            words.extend(header.iter().map(|&(w, only_writer)| {
                (addr(w), 0, w.get(), only_writer.then_some(k % writers))
            }));
            for s in 0..n {
                for w in [c.r_start(s) as &dyn Word, c.r_end(s), c.slot_version(s)] {
                    words.push((addr(w), 0, w.get(), None));
                }
                words.push((addr(c.r_start(s)), 1, 0, None));
                words.push((addr(c.r_start(s)), 2, 0, None));
            }
            // Readers, then watchers, joined in order, so entry `i` is
            // reader `i K + k`'s, then the watchers' of the watched register.
            for i in 0..c.pin_entries() {
                let w = c.pin_entry(i);
                let i = i as usize;
                let tid = if i < cfg.readers {
                    Some(writers + i * cfg.registers + k)
                } else {
                    (k == watched)
                        .then_some(writers + cfg.registers * cfg.readers + i - cfg.readers)
                };
                words.push((addr(w), 0, w.get(), tid));
            }
        }
        // Overlapping registers would share slot words: keep one copy.
        words.sort_by_key(|w| (w.0, w.1));
        words.dedup_by_key(|w| (w.0, w.1));
        assert!(words.len() <= 256, "access logs key words by a u8");
        let setup = Setup {
            cfg,
            keys: words.iter().map(|w| (w.0, w.1)).collect(),
            owner: words.iter().map(|w| w.3).collect(),
            slots,
            r_end,
            current,
            bound: 4 * n + 32 + if fault_free { 0 } else { 16 },
            group,
            me,
        };
        let threads = setup.daemon()
            + match cfg.fault {
                Fault::None => 0,
                Fault::Panic => 1,
                Fault::Kill => 2,
            };
        Self {
            setup: Shared(Arc::new(setup)),
            mem: words.iter().map(|w| w.2).collect(),
            obs: vec![ObsChecker::default(); cfg.registers],
            writer,
            readers,
            threads: vec![Thread::default(); threads],
            phase: if fault_free { Phase::Over } else { Phase::Armed },
            writes: cfg.writes * (cfg.registers / writers) as u8,
        }
    }

    fn runnable(&self, tid: usize) -> bool {
        let s = &self.setup.0;
        let t = &self.threads[tid];
        let daemon = s.daemon();
        let recovering = self.threads.get(daemon + 1).is_some_and(|r| !r.log.is_empty());
        if tid < s.cfg.writers() {
            match self.phase {
                Phase::Dead => false,
                Phase::Recovered => true,
                _ => !t.starved && t.done < self.writes,
            }
        } else if tid < s.first_watcher() {
            !t.starved && t.done < s.reader_ops() && !recovering
        } else if tid < daemon {
            !t.parked && !t.starved && !recovering && self.watching(tid)
        } else if tid == daemon {
            // A kill may land anywhere, an unwind only inside a write.
            self.phase == Phase::Armed
                && (s.cfg.fault == Fault::Kill || !self.threads[0].log.is_empty())
        } else {
            // A parked watcher is between operations.
            let others = &self.threads[s.cfg.writers()..daemon];
            self.phase == Phase::Dead && others.iter().all(|r| r.log.is_empty() || r.parked)
        }
    }

    /// Whether watcher `tid` goes on: it finishes an operation it began
    /// and reads after each wait, and it waits again until it has read
    /// the last version its register will publish.
    fn watching(&self, tid: usize) -> bool {
        let (s, t) = (&self.setup.0, &self.threads[tid]);
        if !t.log.is_empty() || t.done % 2 == 1 {
            return true;
        }
        match s.cfg.fault {
            Fault::None => t.last < u64::from(s.cfg.writes),
            // A fault decides how many writes take effect.
            _ => !self.writing_over() || t.last < self.version(s.cfg.watched()),
        }
    }

    /// No writer, daemon or recovery step is left.
    fn writing_over(&self) -> bool {
        let s = &self.setup.0;
        (0..s.cfg.writers()).chain(s.daemon()..self.threads.len()).all(|t| !self.runnable(t))
    }

    /// Register `k`'s version word in model memory.
    fn version(&self, k: usize) -> u64 {
        let s = &self.setup.0;
        let c = s.group.cells(k);
        self.mem[s.key(addr(c.version_word()), 0).expect("version word")]
    }

    /// The operation thread `tid` runs next.
    fn op(&self, tid: usize) -> Op {
        let s = &self.setup.0;
        let (i, k_all, w_all) = (self.threads[tid].done, s.cfg.registers, s.cfg.writers());
        if tid < w_all {
            if self.phase == Phase::Recovered {
                Op::Claim
            } else {
                // The writer's registers `tid, tid + W, …` in turn.
                let (per, i) = (k_all / w_all, i as usize);
                Op::Write { k: tid + i % per * w_all, seq: (i / per) as u8 + 1 }
            }
        } else if tid > s.daemon() {
            Op::Recover
        } else if tid >= s.first_watcher() {
            let k = s.cfg.watched();
            if i % 2 == 0 {
                Op::Wait { k }
            } else {
                Op::Read { k, r: tid - w_all }
            }
        } else {
            let (r, k) = (tid - w_all, (tid - w_all) % k_all);
            if s.cfg.guard_drop && i % 2 == 1 {
                Op::Drop { k, r }
            } else {
                Op::Read { k, r }
            }
        }
    }

    /// The slots writer `w` may not store into right now, as `(slot
    /// address, holder)`.
    fn held(&self, w: usize) -> Vec<(usize, Holder)> {
        let s = &self.setup.0;
        let w_all = s.cfg.writers();
        let mut held = Vec::new();
        let plain = s.cfg.registers * s.cfg.readers;
        for (r, rd) in self.readers.iter().enumerate() {
            let k = if r < plain { r % s.cfg.registers } else { s.cfg.watched() };
            let log = &self.threads[w_all + r].log;
            let touched = |a: &Access, addr: usize| s.keys[a.key as usize] == (addr, 0);
            if let Some(p) = rd.pinned_slot() {
                if !log.iter().any(|a| touched(a, s.r_end[k][p])) {
                    held.push((s.slots[k][p], Holder::Reader(r)));
                }
            }
            for a in log.iter().filter(|a| touched(a, s.current[k]) && a.wrote) {
                if let Some(&slot) = s.slots[k].get(index_of(a.seen) as usize) {
                    held.push((slot, Holder::Reader(r)));
                }
            }
        }
        // A writer loads no payload word, so each one in its log is a store.
        for (other, t) in self.threads[..w_all].iter().enumerate().filter(|&(o, _)| o != w) {
            for a in &t.log {
                let (line, tag) = s.keys[a.key as usize];
                if tag > 0 {
                    held.push((line, Holder::Writer(other)));
                }
            }
        }
        held
    }

    /// The daemon's one step: kill the writer, or arm the unwind of its
    /// in-flight write at the access that write makes next.
    fn fire(&mut self) {
        let cfg = self.setup.0.cfg;
        let w = &mut self.threads[0];
        if cfg.fault == Fault::Panic {
            self.phase = Phase::Unwind(w.log.len());
            return;
        }
        // An abandoned write keeps its accesses and spends its sequence
        // number.
        if !w.log.is_empty() {
            w.log.clear();
            w.done += 1;
        }
        self.writes = w.done + cfg.post;
        self.phase = Phase::Dead;
    }

    fn complete(&mut self, tid: usize, op: Op, done: Done, wr: WriterMem) -> Result<(), String> {
        let watcher = tid >= self.setup.0.first_watcher();
        let t = &mut self.threads[tid];
        t.log.clear();
        let obs = std::mem::take(&mut t.obs);
        match (op, done) {
            (Op::Write { k, seq }, Done::Write) => {
                t.done += 1;
                self.writer[k] = wr;
                self.obs[k].on_write_complete(seq);
            }
            (Op::Read { k, r } | Op::Drop { k, r }, Done::Reader(rd, words, version)) => {
                t.done += 1;
                self.readers[r] = rd;
                if watcher {
                    if version < t.waited {
                        return Err(format!(
                            "woken read: watcher {tid} read version {version} of register {k} \
                             after its wait returned version {}",
                            t.waited
                        ));
                    }
                    t.last = version;
                }
                if let Some((w0, w1)) = words {
                    self.obs[k].on_read_complete(obs, w0, w1)?;
                }
            }
            (Op::Wait { .. }, Done::Waited(version)) => {
                t.done += 1;
                t.waited = version;
            }
            (Op::Claim, Done::Claim(claim)) => {
                let last = claim.map_err(|e| format!("claim after recovery failed: {e}"))?;
                self.writer[0] = WriterMem::new(last, self.setup.0.group.n_slots());
                self.phase = Phase::Over;
            }
            (Op::Recover, Done::Recover(report)) => {
                // The crashed write took effect iff recovery adopted it.
                if report.at_w2 + report.post_w2 > 0 {
                    let seq = self.obs[0].started_write;
                    self.obs[0].on_write_complete(seq);
                }
                self.phase = Phase::Recovered;
            }
            _ => unreachable!("operation and result disagree"),
        }
        Ok(())
    }

    /// The unwound write is over: it took effect iff the guard moved
    /// `last_slot`, and `wr` makes the remaining writes.
    fn unwound(&mut self, op: Op, wr: WriterMem) {
        let Op::Write { k, seq } = op else { unreachable!("only writes unwind") };
        if wr.last_slot() != self.writer[k].last_slot() {
            self.obs[k].on_write_complete(seq);
        }
        self.writer[k] = wr;
        let w = &mut self.threads[0];
        w.log.clear();
        w.done += 1;
        self.writes = w.done + self.setup.0.cfg.post;
        self.phase = Phase::Over;
    }
}

impl Model for RealCode {
    fn enabled(&self) -> Vec<usize> {
        (0..self.threads.len()).filter(|&t| self.runnable(t)).collect()
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        let setup = Arc::clone(&self.setup.0);
        if tid == setup.daemon() {
            self.fire();
            return Ok(());
        }
        let op = self.op(tid);
        let k = op.register();
        if self.threads[tid].log.is_empty() {
            // The operation's first step is its invocation.
            match op {
                Op::Write { k, seq } => self.obs[k].on_write_start(seq),
                Op::Read { k, .. } => self.threads[tid].obs = self.obs[k].on_read_start(),
                _ => {}
            }
        }
        let cells = setup.group.cells(k);
        let run = RefCell::new(Run {
            tid,
            replay: Replay::new(std::mem::take(&mut self.threads[tid].log)),
            mem: std::mem::take(&mut self.mem),
            held: if tid < setup.cfg.writers() { self.held(tid) } else { Vec::new() },
            parked: self.threads.iter().map(|t| t.parked).collect(),
            unwind_at: match self.phase {
                Phase::Unwind(at) if tid == 0 => Some(at),
                _ => None,
            },
        });
        let cx = Stepped {
            setup: &setup,
            k,
            cells: &cells,
            run: &run,
            pending: Cell::new(None),
            scratch: Scratch::default(),
        };
        let mut m = OpMetrics::default();
        let mut wr = self.writer[k];
        let result = stepper::step(|| match op {
            Op::Write { seq, .. } => {
                publish_with_on(&cx, &mut wr, &mut m, |slot| {
                    cx.payload_store(slot, 0, seq);
                    cx.payload_store(slot, 1, seq);
                });
                Done::Write
            }
            Op::Read { r, .. } => {
                let mut rd = self.readers[r].clone();
                let out = read_acquire_on(&cx, &mut rd, &mut m);
                let words = (cx.payload_load(out.slot, 0), cx.payload_load(out.slot, 1));
                Done::Reader(rd, Some(words), out.version)
            }
            Op::Drop { r, .. } => {
                let mut rd = self.readers[r].clone();
                guard_drop_on(&cx, &mut rd, &mut m);
                Done::Reader(rd, None, 0)
            }
            Op::Wait { .. } => Done::Waited(wait_for_version_on(&cx, self.threads[tid].last)),
            Op::Claim => Done::Claim(writer_claim_on(&cx, &setup.me)),
            Op::Recover => {
                let mut report = RecoveryReport::default();
                recover_register(&cx, &mut Liveness::new(|pid| pid != OTHER_PROCESS), &mut report);
                Done::Recover(report)
            }
        });
        cx.settle();
        let run = run.into_inner();
        let over = run.replay.is_over();
        self.mem = run.mem;
        self.threads[tid].log = run.replay.into_log();
        for (t, parked) in self.threads.iter_mut().zip(run.parked) {
            t.parked = parked;
        }
        match result {
            Ok(Some(done)) => self.complete(tid, op, done, wr),
            Ok(None) => Ok(()),
            Err(payload) => match payload.downcast::<Stop>().map(|s| *s) {
                // Scratch words were handed out: the guard goes on next step.
                Ok(Stop::Unwind) if over => Ok(()),
                Ok(Stop::Unwind) => {
                    self.unwound(op, wr);
                    Ok(())
                }
                Ok(Stop::Starved(_)) if setup.cfg.prune_starved => {
                    self.threads[tid].starved = true;
                    Ok(())
                }
                Ok(Stop::Starved(msg) | Stop::Violation(msg)) => Err(msg),
                Err(panic) => resume_unwind(panic),
            },
        }
    }

    fn is_done(&self) -> bool {
        !(0..self.threads.len()).any(|t| self.runnable(t))
    }

    /// A watcher parked on a version its register has moved past, with no
    /// writer step left to wake it, has lost its wakeup.
    fn check_invariants(&self) -> Result<(), String> {
        let s = &self.setup.0;
        let k = s.cfg.watched();
        let parked = (s.first_watcher()..s.daemon()).filter(|&t| self.threads[t].parked);
        for tid in parked {
            let log = &self.threads[tid].log;
            let seen = log.last().map_or(0, |a| a.seen);
            if seen != self.version(k) && self.writing_over() {
                return Err(format!(
                    "lost wakeup: watcher {tid} is parked at version {seen} of register {k}, \
                     which is at version {}, and no writer is left to wake it",
                    self.version(k)
                ));
            }
        }
        Ok(())
    }
}

/// A real protocol word, read and set around each access.
trait Word {
    fn get(&self) -> u64;
    fn set(&self, v: u64);
}

impl Word for AtomicU64 {
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
    fn set(&self, v: u64) {
        self.store(v, Ordering::Relaxed)
    }
}

impl Word for AtomicU32 {
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed).into()
    }
    fn set(&self, v: u64) {
        self.store(v as u32, Ordering::Relaxed)
    }
}

impl Word for AtomicUsize {
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed) as u64
    }
    fn set(&self, v: u64) {
        self.store(v as usize, Ordering::Relaxed)
    }
}

impl Word for AtomicBool {
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed).into()
    }
    fn set(&self, v: u64) {
        self.store(v != 0, Ordering::Relaxed)
    }
}

fn addr<W: Word + ?Sized>(w: &W) -> usize {
    w as *const W as *const () as usize
}

/// One step's execution state.
struct Run {
    tid: usize,
    /// The operation's accesses, replayed up to the step's new one.
    replay: Replay<Access>,
    mem: Vec<u64>,
    /// The slots this thread may not store into (writer steps only).
    held: Vec<(usize, Holder)>,
    /// Which threads are parked in a wait.
    parked: Vec<bool>,
    /// The accessor call at this index raises the daemon's unwind.
    unwind_at: Option<usize>,
}

/// Words handed out once a step is over, so a `PublishGuard` dropped by
/// its unwind touches neither model memory nor the slab.
#[derive(Default)]
struct Scratch {
    w64: AtomicU64,
    w32: AtomicU32,
    wsize: AtomicUsize,
    wbool: AtomicBool,
}

/// The [`ArcCells`] the shipped functions run over during one step.
struct Stepped<'c> {
    setup: &'c Setup,
    /// The register the operation targets.
    k: usize,
    cells: &'c GroupCells<'c>,
    run: &'c RefCell<Run>,
    /// The new access, read back at the next accessor call: key, value seen
    /// and the real word.
    pending: Cell<Option<(usize, u64, &'c dyn Word)>>,
    scratch: Scratch,
}

impl<'c> Stepped<'c> {
    /// Enter an access to `key`: settle the previous new access, and
    /// return the value this access sees and whether it is new. A shared
    /// access after the step's new one ends the step; `None` once it is
    /// over.
    fn enter(&self, key: usize) -> Option<(u64, bool)> {
        self.settle();
        let owner = self.setup.owner[key];
        let mut run = self.run.borrow_mut();
        if run.unwind_at == Some(run.replay.cursor()) && !std::thread::panicking() {
            drop(run);
            resume_unwind(Box::new(Stop::Unwind));
        }
        match run.replay.next(owner.is_none()) {
            Next::Over => None,
            Next::Logged(a) if a.key as usize == key => Some((a.seen, false)),
            Next::Logged(_) => {
                let i = run.replay.cursor() - 1;
                drop(run);
                self.fail(format!("replay diverged at access {i}"));
            }
            Next::New => {
                // Recovery may read any private word: it runs only while
                // every other thread is between operations.
                let tid = run.tid;
                if let Some(o) = owner.filter(|&o| o != tid && tid <= self.setup.daemon()) {
                    drop(run);
                    self.fail(format!(
                        "thread {tid} touched word {:#x}, private to thread {o}",
                        self.setup.keys[key].0
                    ));
                }
                if run.replay.cursor() > self.setup.bound {
                    drop(run);
                    self.stop(Stop::Starved(format!(
                        "access bound exceeded: thread {tid} took {} accesses in one operation",
                        self.setup.bound
                    )));
                }
                Some((run.mem[key], true))
            }
        }
    }

    /// Log a new access that completed in place.
    fn record(&self, key: usize, seen: u64, now: u64) {
        let mut run = self.run.borrow_mut();
        run.mem[key] = now;
        run.replay.push(Access { key: key as u8, wrote: now != seen, seen });
    }

    /// Read back the pending access, if any, and log it.
    fn settle(&self) {
        if let Some((key, seen, word)) = self.pending.take() {
            self.record(key, seen, word.get());
        }
    }

    fn stop(&self, why: Stop) -> ! {
        self.run.borrow_mut().replay.end();
        resume_unwind(Box::new(why))
    }

    fn fail(&self, msg: String) -> ! {
        self.run.borrow_mut().replay.end();
        panic!("model checker: {msg}")
    }

    fn in_range(&self, s: usize) -> usize {
        if s >= self.cells.n_slots() {
            self.fail(format!("slot {s} out of range"));
        }
        s
    }

    /// The accessor protocol: the real word, set to the value this access
    /// sees; a scratch word while unwinding.
    fn word<'s, W: Word + 'c>(&'s self, scratch: &'s W, real: impl FnOnce() -> &'c W) -> &'s W {
        if self.run.borrow().replay.is_over() {
            return scratch;
        }
        let real = real();
        let Some(key) = self.setup.key(addr(real), 0) else {
            self.fail(format!("register {} reached a word outside the model", self.k));
        };
        match self.enter(key) {
            None => scratch,
            Some((seen, new)) => {
                real.set(seen);
                if new {
                    self.pending.set(Some((key, seen, real)));
                }
                real
            }
        }
    }

    fn payload_key(&self, slot: usize, word: u8) -> usize {
        let line = self.setup.slots[self.k][self.in_range(slot)];
        self.setup.key(line, 1 + word).expect("payload word")
    }

    fn payload_load(&self, slot: usize, word: u8) -> u8 {
        let key = self.payload_key(slot, word);
        let Some((seen, new)) = self.enter(key) else { return 0 };
        if new {
            self.record(key, seen, seen);
        }
        seen as u8
    }

    /// The version word's key: a park is a load of it that may block, and
    /// a wake an access to the threads parked on it.
    fn version_key(&self) -> usize {
        self.setup.key(addr(self.cells.version_word()), 0).expect("version word")
    }

    fn payload_store(&self, slot: usize, word: u8, seq: u8) {
        let key = self.payload_key(slot, word);
        if let Some((seen, true)) = self.enter(key) {
            let (k, line) = (self.k, self.setup.slots[self.k][slot]);
            let holder = self.run.borrow().held.iter().find(|h| h.0 == line).map(|h| h.1);
            match holder {
                Some(Holder::Reader(r)) => self.stop(Stop::Violation(format!(
                    "slot exclusion violated: the writer stores into slot {slot} of register {k} \
                     while reader {r} holds it"
                ))),
                Some(Holder::Writer(w)) => self.stop(Stop::Violation(format!(
                    "writer collision: the writer of register {k} stores into slot {slot} while \
                     writer {w} is storing into it"
                ))),
                None => self.record(key, seen, seq.into()),
            }
        }
    }
}

impl ArcCells for Stepped<'_> {
    fn n_slots(&self) -> usize {
        self.cells.n_slots()
    }
    fn current_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.current_word())
    }
    fn hint_word(&self) -> &AtomicUsize {
        self.word(&self.scratch.wsize, || self.cells.hint_word())
    }
    fn r_start(&self, slot: usize) -> &AtomicU32 {
        self.word(&self.scratch.w32, || self.cells.r_start(self.in_range(slot)))
    }
    fn r_end(&self, slot: usize) -> &AtomicU32 {
        self.word(&self.scratch.w32, || self.cells.r_end(self.in_range(slot)))
    }
    fn live_readers_word(&self) -> &AtomicU32 {
        self.word(&self.scratch.w32, || self.cells.live_readers_word())
    }
    fn gen_joins_word(&self) -> &AtomicU32 {
        self.word(&self.scratch.w32, || self.cells.gen_joins_word())
    }
    fn writer_claimed_word(&self) -> &AtomicBool {
        self.word(&self.scratch.wbool, || self.cells.writer_claimed_word())
    }
    fn version_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.version_word())
    }
    fn slot_version(&self, slot: usize) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.slot_version(self.in_range(slot)))
    }
    fn waiters_word(&self) -> &AtomicU32 {
        self.word(&self.scratch.w32, || self.cells.waiters_word())
    }
    /// One step: compare the version with `seen` and, if they match, park
    /// the thread until a wake of this register.
    fn park(&self, seen: u64, _timeout: Option<Duration>) {
        let key = self.version_key();
        if let Some((now, true)) = self.enter(key) {
            self.record(key, now, now);
            if now == seen {
                let mut run = self.run.borrow_mut();
                let tid = run.tid;
                run.parked[tid] = true;
                run.replay.end_step();
            }
        }
    }
    /// One step: unpark every watcher of this register; the log keeps
    /// how many, for replays.
    fn wake(&self) -> usize {
        let key = self.version_key();
        match self.enter(key) {
            None => 0,
            Some((woke, false)) => woke as usize,
            Some((_, true)) => {
                let mut run = self.run.borrow_mut();
                let mut woke = 0;
                if self.k == self.setup.cfg.watched() {
                    let watchers = self.setup.first_watcher()..self.setup.daemon();
                    for parked in &mut run.parked[watchers] {
                        woke += usize::from(std::mem::take(parked));
                    }
                }
                run.replay.push(Access { key: key as u8, wrote: false, seen: woke as u64 });
                woke
            }
        }
    }
    fn wip_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.wip_word())
    }
    fn wip_old_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.wip_old_word())
    }
    fn lease_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.lease_word())
    }
    fn birth_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.birth_word())
    }
    fn heartbeat_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.heartbeat_word())
    }
    fn health_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.health_word())
    }
    fn last_good_word(&self) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.last_good_word())
    }
    fn pin_entries(&self) -> u32 {
        self.cells.pin_entries()
    }
    fn pin_entry(&self, i: u32) -> &AtomicU64 {
        self.word(&self.scratch.w64, || self.cells.pin_entry(i))
    }
    fn max_readers(&self) -> u32 {
        self.cells.max_readers()
    }
    fn opts(&self) -> RawOptions {
        self.cells.opts()
    }
}

// ---------------------------------------------------------------------
// The configurations
// ---------------------------------------------------------------------

/// Exhaustive runs take turns, so two large state spaces never share the
/// machine's memory.
static EXHAUSTIVE: Mutex<()> = Mutex::new(());

/// Every interleaving of `cfg`.
fn exhaustive(cfg: Config) {
    let _turn = EXHAUSTIVE.lock().unwrap_or_else(|p| p.into_inner());
    explore(RealCode::new(cfg), ExploreLimits::default()).assert_ok(&format!("{cfg:?}"));
}

/// `walks` random schedules of `cfg`.
fn walks(cfg: Config, walks: usize, seed: u64) {
    let out = random_walks(RealCode::new(cfg), walks, seed, ExploreLimits::default());
    out.assert_ok(&format!("{cfg:?}"));
}

// One register, hint off.

#[test]
fn k1_1r_1w_1x() {
    exhaustive(Config::k1(1, 1, 1));
}

#[test]
fn k1_1r_1w_2x() {
    exhaustive(Config::k1(1, 1, 2));
}

#[test]
fn k1_1r_3w_2x() {
    exhaustive(Config::k1(1, 3, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn k1_1r_4w_3x() {
    exhaustive(Config::k1(1, 4, 3));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn k1_2r_2w_2x() {
    exhaustive(Config::k1(2, 2, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn k1_2r_3w_2x() {
    exhaustive(Config::k1(2, 3, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn k1_2r_4w_2x() {
    exhaustive(Config::k1(2, 4, 2));
}

// One register, hint on.

#[test]
fn hint_1r_3w_2x() {
    exhaustive(Config::k1(1, 3, 2).hint());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn hint_1r_5w_3x() {
    exhaustive(Config::k1(1, 5, 3).hint());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn hint_2r_3w_2x() {
    exhaustive(Config::k1(2, 3, 2).hint());
}

// Every read ends in a guard drop.

#[test]
fn guard_1r_3w_2x() {
    exhaustive(Config::k1(1, 3, 2).hint().guard_drop());
}

#[test]
fn guard_no_hint_1r_3w_2x() {
    exhaustive(Config::k1(1, 3, 2).guard_drop());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn guard_2r_3w_1x() {
    exhaustive(Config::k1(2, 3, 1).hint().guard_drop());
}

/// A guard held across more writes than the register has slots.
#[test]
fn guard_1r_4w_1x() {
    exhaustive(Config::k1(1, 4, 1).hint().guard_drop());
}

// Two registers of one slab, one batch writer, one reader each.

#[test]
fn k2_1w_2x() {
    exhaustive(Config::k2(1, 2));
}

#[test]
fn k2_2w_2x() {
    exhaustive(Config::k2(2, 2));
}

#[test]
fn k2_3w_1x() {
    exhaustive(Config::k2(3, 1));
}

/// A starved writer stops being scheduled, so the search reaches the
/// safety face of a broken layout, not just its starvation.
#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn k2_3w_2x_pruned() {
    exhaustive(Config::k2(3, 2).prune_starved());
}

// Two registers of one slab with a writer and a reader each: the shape of
// a two-writer (M,N) cell.

#[test]
fn mn_1w_2x() {
    exhaustive(Config::mn(1, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn mn_2w_1x() {
    exhaustive(Config::mn(2, 1));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn mn_2w_2x() {
    exhaustive(Config::mn(2, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn mn_3w_1x() {
    exhaustive(Config::mn(3, 1));
}

/// Writers only, a starved one pruned: a broken layout can fail only on
/// the writer collision here.
#[test]
fn mn_3w_0x_pruned() {
    exhaustive(Config::mn(3, 0).prune_starved());
}

/// Two writers whose payload stores alias one register's slots collide.
#[test]
fn aliased_writers_collide() {
    let mut m = RealCode::new(Config::mn(1, 0));
    let setup = Arc::get_mut(&mut m.setup.0).expect("sole owner");
    setup.slots[1] = setup.slots[0].clone();
    let out = explore(m, ExploreLimits::default());
    assert!(out.violation().is_some_and(|v| v.contains("writer collision")), "{out:?}");
}

// Random schedules of configurations too large to exhaust.

#[test]
#[cfg_attr(debug_assertions, ignore = "randomized exploration: run with --release")]
fn walks_hint_3r_6w_5x() {
    walks(Config::k1(3, 6, 5).hint(), 20_000, 0xA5C3);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "randomized exploration: run with --release")]
fn walks_1r_3w_2x() {
    walks(Config::k1(1, 3, 2), 20_000, 0xBAD5EED);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "randomized exploration: run with --release")]
fn walks_mn_hint_4w_3x() {
    walks(Config::mn(4, 3).hint(), 20_000, 0x2B17);
}

// Faults. `1_2w` is one write the fault may land in, then two after it.

/// The smallest kill run: it finds the at-W2 journal window.
#[test]
fn kill_1r_1_2w_2x() {
    exhaustive(Config::fault(Fault::Kill, 1, 1, 2, 2));
}

#[test]
fn kill_1r_2_2w_2x() {
    exhaustive(Config::fault(Fault::Kill, 1, 2, 2, 2));
}

/// With the hint, a slot leaked by a half-done ledger reset starves the
/// writer.
#[test]
fn kill_hint_1r_2_2w_2x() {
    exhaustive(Config::fault(Fault::Kill, 1, 2, 2, 2).hint());
}

#[test]
fn panic_1r_2_2w_2x() {
    exhaustive(Config::fault(Fault::Panic, 1, 2, 2, 2));
}

#[test]
fn panic_hint_1r_2_2w_2x() {
    exhaustive(Config::fault(Fault::Panic, 1, 2, 2, 2).hint());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn kill_2r_1_1w_2x() {
    exhaustive(Config::fault(Fault::Kill, 2, 1, 1, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn kill_hint_2r_1_1w_2x() {
    exhaustive(Config::fault(Fault::Kill, 2, 1, 1, 2).hint());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn panic_2r_1_1w_2x() {
    exhaustive(Config::fault(Fault::Panic, 2, 1, 1, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn panic_hint_2r_1_1w_2x() {
    exhaustive(Config::fault(Fault::Panic, 2, 1, 1, 2).hint());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "randomized exploration: run with --release")]
fn walks_kill_hint_3r_4_3w_4x() {
    walks(Config::fault(Fault::Kill, 3, 4, 3, 4).hint(), 20_000, 0xDEAD);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "randomized exploration: run with --release")]
fn walks_panic_hint_3r_4_3w_4x() {
    walks(Config::fault(Fault::Panic, 3, 4, 3, 4).hint(), 20_000, 0x0BAD);
}

// Watchers: each runs the shipped wait, then a read, until it has read
// the last version; the shipped wake unparks it.

#[test]
fn watch_1_2w() {
    exhaustive(Config::watch(1, 1, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn watch_2_2w() {
    exhaustive(Config::watch(1, 2, 2));
}

/// Writes to register 0 wake nobody; the watcher of register 1 wakes.
#[test]
fn watch_k2_1_2w() {
    exhaustive(Config::watch(2, 1, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn watch_1r_1_2w_2x() {
    exhaustive(Config::k1(1, 2, 2).watched_by(1));
}

/// A writer killed between its version bump and its wake: recovery's wake
/// must unpark the watcher, as no later write comes.
#[test]
fn kill_watch_1_1_0w() {
    exhaustive(Config::fault(Fault::Kill, 0, 1, 0, 0).watched_by(1));
}

#[test]
fn kill_watch_1_2_0w() {
    exhaustive(Config::fault(Fault::Kill, 0, 2, 0, 0).watched_by(1));
}

#[test]
#[should_panic(expected = "private to thread 0")]
fn reader_touching_a_writer_private_word_panics() {
    let mut m = RealCode::new(Config::k1(1, 1, 1));
    let setup = Arc::get_mut(&mut m.setup.0).expect("sole owner");
    let current = setup.key(setup.current[0], 0).expect("current word");
    setup.owner[current] = Some(0);
    let _ = m.step(1); // the reader's R1 loads `current`
}
