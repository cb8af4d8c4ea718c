//! Model checking of the RF and Peterson registers that ship: [`explore`]
//! runs the protocol code their handles' `write` and `read` call
//! (`rf::write_on`, `rf::acquire_on`, `peterson::write_on`, `read_on`)
//! through every sequentially consistent interleaving of a small
//! workload, as `arc-register`'s test-only `model_check` does for ARC.
//!
//! They run over [`Stepped`], whose `RfCells` and `PetersonCells` forward
//! each accessor call to a real register, built by its `new` with its
//! writer and readers claimed. Model memory is keyed by the real words'
//! addresses and starts from what `new` left in them. Under
//! [`interleave::stepper`] each step replays the thread's operation: an
//! accessor sets the real word to the value the access sees, and the next
//! one reads back what the access left. A step makes one new access to a
//! word another thread can touch (not RF's traces, which only the writer
//! touches); a `WordBuf` copy and an RF fill take one per word.
//!
//! The writer writes `[seq; 16]` for seq = 1, 2, …; an RF read is
//! `acquire_on`, then loads of its buffer's two words in place.
//! [`ObsChecker`] checks each response, the writer may not store into an
//! RF buffer a reader holds (from its `fetch_or` until its next), and no
//! operation may take more accesses than [`Setup::bound`].

use std::cell::{Cell, RefCell};
use std::hash::{Hash, Hasher};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use interleave::spec::ReadObs;
use interleave::stepper::{self, Next, Replay};
use interleave::{explore, random_walks, ExploreLimits, Model, ObsChecker};
use register_common::pad::CachePadded;
use register_common::OpMetrics;

use crate::peterson::{self, PetersonCells, PetersonRegister, ReaderState};
use crate::rf::{self, RfCells, RfRegister, INDEX_SHIFT};
use crate::wordbuf::WordBuf;

/// Bytes of each value: two words of its write's sequence number.
const VALUE: usize = 16;

/// A real word, read and set around each access.
trait Word: Sync {
    fn get(&self) -> u64;
    fn set(&self, v: u64);
}

macro_rules! word {
    ($($t:ty: $v:ident => $set:expr),*) => {$(
        impl Word for $t {
            fn get(&self) -> u64 {
                self.load(Ordering::Relaxed) as u64
            }
            fn set(&self, $v: u64) {
                self.store($set, Ordering::Relaxed)
            }
        }
    )*};
}

word!(AtomicU64: v => v, AtomicU8: v => v as u8, AtomicUsize: v => v as usize);
word!(AtomicBool: v => v != 0);

fn addr<W: ?Sized>(w: &W) -> usize {
    w as *const W as *const () as usize
}

/// What a thread needs to know about the register, fixed for one
/// exploration.
#[derive(Default)]
struct Setup {
    /// The register under check, leaked: its words outlive every state.
    rf: Option<&'static RfRegister>,
    peterson: Option<&'static PetersonRegister>,
    /// The real words' addresses, ascending: model-memory keys `0..`.
    keys: Vec<usize>,
    /// Per key: the real word.
    words: Vec<&'static dyn Word>,
    /// Per model word (the real words, then RF's buffer words): only the
    /// writer touches it.
    private: Vec<bool>,
    /// Each reader thread's handle id.
    ids: Vec<usize>,
    /// Accesses a write, then a read, may take.
    bound: [usize; 2],
    /// Operations of the writer, then of each reader.
    ops: [u8; 2],
}

/// The states of one exploration share one setup: equal, hash-neutral.
impl PartialEq for Setup {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Setup {}

impl Hash for Setup {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// One logged access (packed: logs are most of a state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed)]
struct Access {
    key: u8,
    /// The value the access saw.
    seen: u64,
}

#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Thread {
    /// Operations completed.
    done: u8,
    /// The current operation's accesses so far (empty between operations).
    log: Vec<Access>,
    /// The current read's invocation snapshot.
    obs: ReadObs,
    /// The RF buffer this reader's last read returned.
    pin: Option<usize>,
}

/// A state of the real code: model memory, the writer's memory and each
/// thread's progress. Thread 0 is the writer, thread `1 + r` reader `r`.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Baseline {
    setup: &'static Setup,
    mem: Vec<u64>,
    obs: ObsChecker,
    /// RF's writer memory: the buffer of its last publication.
    last_written: usize,
    threads: Vec<Thread>,
}

/// A failed check, unwound out of the shipped code.
struct Violation(String);

impl Baseline {
    /// RF with `readers` readers, `writes` writes and `reads` reads.
    fn rf(readers: usize, writes: u8, reads: u8) -> Self {
        let reg = RfRegister::new(readers, VALUE, &[0; VALUE]).expect("model register");
        let w = reg.writer().expect("writer");
        let rs: Vec<_> = (0..readers).map(|_| reg.reader().expect("reader")).collect();
        let reg: &'static RfRegister = Box::leak(Box::new(reg));
        let mut words: Vec<(&dyn Word, bool)> = vec![(reg.word(), false)];
        words.extend((0..readers).map(|r| (reg.trace(r) as &dyn Word, true)));
        let buffers = (0..reg.n_buffers()).flat_map(|b| {
            let mut v = [0; VALUE];
            // SAFETY: no thread runs on the register.
            let bytes = unsafe { reg.buffer_bytes(b) };
            v[..bytes.len()].copy_from_slice(bytes);
            [0, 8].map(|j| u64::from_le_bytes(v[j..j + 8].try_into().expect("8 bytes")))
        });
        let ids = rs.iter().map(|r| usize::from(r.id())).collect();
        // Trace loads, two fills, the swap and trace stores; the
        // `fetch_or` and two loads.
        let bound = [2 * readers + 3, 3];
        let setup = Setup { rf: Some(reg), ids, bound, ops: [writes, reads], ..Setup::default() };
        Self { last_written: w.last_written(), ..Self::new(setup, words, buffers.collect()) }
    }

    /// Peterson with `readers` readers, `writes` writes and `reads` reads.
    fn peterson(readers: usize, writes: u8, reads: u8) -> Self {
        let reg = PetersonRegister::new(readers, VALUE, &[0; VALUE]).expect("model register");
        let _w = reg.writer().expect("writer");
        let rs: Vec<_> = (0..readers).map(|_| reg.reader().expect("reader")).collect();
        let reg: &'static PetersonRegister = Box::leak(Box::new(reg));
        let mut words: Vec<(&dyn Word, bool)> = vec![(reg.sw(), false)];
        let copies = reg.buff().iter().chain(reg.slots().iter().flat_map(|st| &st.copybuff));
        words.extend(copies.flat_map(WordBuf::words).map(|w| (w as &dyn Word, false)));
        for st in reg.slots() {
            let flags: [&dyn Word; 3] = [reg.reading(st), reg.writing(st), reg.sel(st)];
            words.extend(flags.map(|w| (w, false)));
        }
        let ids = rs.iter().map(|r| r.id()).collect();
        // The `sw` load, a copy, the flip and a help per reader; the
        // handshake, the `sw` load and at most two copies.
        let bound = [5 + 8 * readers, 11];
        let setup =
            Setup { peterson: Some(reg), ids, bound, ops: [writes, reads], ..Setup::default() };
        Self::new(setup, words, Vec::new())
    }

    /// The state before any step: model memory holds the register's
    /// `words`, each marked if only the writer touches it, then RF's
    /// `buffers`.
    fn new(mut setup: Setup, words: Vec<(&'static dyn Word, bool)>, buffers: Vec<u64>) -> Self {
        let mut words: Vec<_> = words.into_iter().map(|(w, p)| (addr(w), w, p)).collect();
        words.sort_by_key(|w| w.0);
        setup.private = words.iter().map(|w| w.2).collect();
        setup.private.resize(words.len() + buffers.len(), false);
        assert!(setup.private.len() <= 256, "access logs key words by a u8");
        let mem = words.iter().map(|w| w.1.get()).chain(buffers).collect();
        let threads = vec![Thread::default(); 1 + setup.ids.len()];
        (setup.keys, setup.words) = words.into_iter().map(|(a, w, _)| (a, w)).unzip();
        let setup = Box::leak(Box::new(setup));
        Self { setup, mem, obs: ObsChecker::default(), last_written: 0, threads }
    }

    /// The RF buffers the writer may not store into now, as `(buffer,
    /// reader)`: a reader holds the buffer its current operation's
    /// `fetch_or` returned, or else its last read's.
    fn held(&self) -> Vec<(usize, usize)> {
        let index = |a: &Access| (a.seen >> INDEX_SHIFT) as usize;
        let held = self.threads[1..].iter().map(|t| t.log.first().map(index).or(t.pin));
        held.enumerate().filter_map(|(r, b)| Some((b?, r))).collect()
    }
}

impl Model for Baseline {
    fn enabled(&self) -> Vec<usize> {
        let ops = self.setup.ops;
        (0..self.threads.len())
            .filter(|&t| self.threads[t].done < ops[usize::from(t > 0)])
            .collect()
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        let s = self.setup;
        let seq = self.threads[tid].done + 1;
        // The operation's first step is its invocation.
        let first = self.threads[tid].log.is_empty();
        if first && tid == 0 {
            self.obs.on_write_start(seq);
        } else if first {
            self.threads[tid].obs = self.obs.on_read_start();
        }
        let rf = s.rf.is_some();
        let cx = Stepped {
            setup: s,
            tid,
            held: if tid == 0 && rf { self.held() } else { Vec::new() },
            replay: RefCell::new(Replay::new(std::mem::take(&mut self.threads[tid].log))),
            mem: RefCell::new(std::mem::take(&mut self.mem)),
            pending: Cell::new(None),
        };
        let mut last_written = self.last_written;
        let value = [seq; VALUE];
        let result = stepper::step(|| match (rf, s.ids.get(tid.wrapping_sub(1))) {
            (true, None) => {
                rf::write_on(&cx, &mut last_written, &mut OpMetrics::default(), &value);
                None
            }
            (true, Some(&id)) => {
                let b = rf::acquire_on(&cx, id as u8);
                let words = [0, 1].map(|j| cx.load_word(cx.buffer_key(b, j)).to_le_bytes());
                Some((words.concat(), Some(b)))
            }
            (false, None) => {
                peterson::write_on(&cx, &value);
                None
            }
            (false, Some(&id)) => {
                Some((peterson::read_on(&cx, id, &mut Vec::new()).to_vec(), None))
            }
        });
        cx.settle();
        self.mem = cx.mem.into_inner();
        let t = &mut self.threads[tid];
        t.log = cx.replay.into_inner().into_log();
        let read = match result {
            Ok(Some(read)) => read,
            Ok(None) => return Ok(()),
            Err(payload) => match payload.downcast::<Violation>() {
                Ok(v) => return Err(v.0),
                Err(panic) => resume_unwind(panic),
            },
        };
        t.log.clear();
        t.done += 1;
        let Some((value, pin)) = read else {
            self.last_written = last_written;
            self.obs.on_write_complete(seq);
            return Ok(());
        };
        t.pin = pin;
        if value.len() != VALUE {
            return Err(format!("torn read: a value of {} bytes", value.len()));
        }
        self.obs.on_read_complete(t.obs, value[0], value[8])
    }

    fn is_done(&self) -> bool {
        self.enabled().is_empty()
    }
}

/// The `RfCells` and `PetersonCells` the shipped functions run over during
/// one step of thread `tid`.
struct Stepped {
    setup: &'static Setup,
    tid: usize,
    /// The RF buffers the writer may not store into, as `(buffer, reader)`.
    held: Vec<(usize, usize)>,
    /// The operation's accesses, replayed up to the step's new one.
    replay: RefCell<Replay<Access>>,
    mem: RefCell<Vec<u64>>,
    /// The new access to a real word, read back at the next accessor call:
    /// its key and the value it saw.
    pending: Cell<Option<(usize, u64)>>,
}

impl Stepped {
    /// Enter the access to `key`: settle the previous new access, and
    /// return the value this access sees and whether it is new. A shared
    /// access after the step's new one ends the step.
    fn enter(&self, key: usize) -> (u64, bool) {
        self.settle();
        let mut replay = self.replay.borrow_mut();
        match replay.next(!self.setup.private[key]) {
            Next::Logged(a) => {
                assert_eq!(usize::from(a.key), key, "model checker: replay diverged");
                (a.seen, false)
            }
            Next::New => {
                let bound = self.setup.bound[usize::from(self.tid > 0)];
                if replay.cursor() > bound {
                    drop(replay);
                    self.violation(format!(
                        "access bound exceeded: thread {} took more than {bound} accesses in one \
                         operation",
                        self.tid
                    ));
                }
                (self.mem.borrow()[key], true)
            }
            Next::Over => unreachable!("no drop runs in a step's unwind"),
        }
    }

    /// Log a new access that left `now` in word `key`.
    fn record(&self, key: usize, seen: u64, now: u64) {
        self.mem.borrow_mut()[key] = now;
        self.replay.borrow_mut().push(Access { key: key as u8, seen });
    }

    /// Read back the pending access, if any, and log it.
    fn settle(&self) {
        if let Some((key, seen)) = self.pending.take() {
            self.record(key, seen, self.setup.words[key].get());
        }
    }

    fn violation(&self, msg: String) -> ! {
        self.replay.borrow_mut().end();
        resume_unwind(Box::new(Violation(msg)))
    }

    /// The accessor protocol: the real word, set to the value this access
    /// sees.
    fn access<'a, W: Word>(&self, w: &'a W) -> &'a W {
        let key = self.setup.keys.binary_search(&addr(w)).expect("a word of the register");
        let (seen, new) = self.enter(key);
        w.set(seen);
        if new {
            self.pending.set(Some((key, seen)));
        }
        w
    }

    /// The key of word `j` of RF buffer `b`.
    fn buffer_key(&self, b: usize, j: usize) -> usize {
        let key = self.setup.keys.len() + 2 * b + j;
        assert!(key < self.setup.private.len(), "buffer {b} out of range");
        key
    }

    /// A load of model word `key`.
    fn load_word(&self, key: usize) -> u64 {
        let (seen, new) = self.enter(key);
        if new {
            self.record(key, seen, seen);
        }
        seen
    }

    fn rf(&self) -> &'static RfRegister {
        self.setup.rf.expect("an RF step")
    }

    fn peterson(&self) -> &'static PetersonRegister {
        self.setup.peterson.expect("a Peterson step")
    }
}

impl RfCells for Stepped {
    fn word(&self) -> &AtomicU64 {
        self.access(self.rf().word())
    }
    fn readers(&self) -> usize {
        self.rf().readers()
    }
    fn trace(&self, r: usize) -> &AtomicU8 {
        self.access(self.rf().trace(r))
    }
    /// One store per word, each checked against the readers' holds.
    ///
    /// # Safety
    ///
    /// None needed: model memory holds the buffers' words.
    unsafe fn fill(&self, buffer: usize, value: &[u8]) {
        for (j, word) in value.chunks(8).enumerate() {
            let key = self.buffer_key(buffer, j);
            let (seen, true) = self.enter(key) else { continue };
            if let Some((_, r)) = self.held.iter().find(|h| h.0 == buffer) {
                self.violation(format!(
                    "buffer exclusion violated: the writer stores into buffer {buffer} while \
                     reader {r} holds it"
                ));
            }
            self.record(key, seen, u64::from_le_bytes(word.try_into().expect("a whole word")));
        }
    }
}

impl PetersonCells for Stepped {
    fn sw(&self) -> &AtomicUsize {
        self.access(self.peterson().sw())
    }
    fn buff(&self) -> &[WordBuf; 2] {
        self.peterson().buff()
    }
    fn slots(&self) -> &[CachePadded<ReaderState>] {
        self.peterson().slots()
    }
    fn reading<'a>(&'a self, st: &'a ReaderState) -> &'a AtomicBool {
        self.access(self.peterson().reading(st))
    }
    fn writing<'a>(&'a self, st: &'a ReaderState) -> &'a AtomicBool {
        self.access(self.peterson().writing(st))
    }
    fn sel<'a>(&'a self, st: &'a ReaderState) -> &'a AtomicUsize {
        self.access(self.peterson().sel(st))
    }
    fn store(&self, buf: &WordBuf, value: &[u8]) {
        buf.store_via(value, |w| self.access(w));
    }
    fn load(&self, buf: &WordBuf, dst: &mut Vec<u8>) -> usize {
        buf.load_via(dst, |w| self.access(w))
    }
}

/// Every interleaving of `m`'s workload.
fn exhaustive(what: &str, m: Baseline) {
    explore(m, ExploreLimits::default()).assert_ok(what);
}

#[test]
fn rf_1r_2w_2x() {
    exhaustive("RF 1r/2w/2x", Baseline::rf(1, 2, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn rf_2r_2w_2x() {
    exhaustive("RF 2r/2w/2x", Baseline::rf(2, 2, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn rf_1r_4w_3x() {
    exhaustive("RF 1r/4w/3x", Baseline::rf(1, 4, 3));
}

#[test]
fn peterson_1r_2w_2x() {
    exhaustive("Peterson 1r/2w/2x", Baseline::peterson(1, 2, 2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn peterson_1r_3w_3x() {
    exhaustive("Peterson 1r/3w/3x", Baseline::peterson(1, 3, 3));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn peterson_2r_2w_2x() {
    exhaustive("Peterson 2r/2w/2x", Baseline::peterson(2, 2, 2));
}

/// Too large to exhaust: 20,000 reproducible random schedules each.
#[test]
#[cfg_attr(debug_assertions, ignore = "randomized exploration: run with --release")]
fn walks_3r_6w_5x() {
    let limits = ExploreLimits::default();
    random_walks(Baseline::rf(3, 6, 5), 20_000, 0x0F0F, limits).assert_ok("RF 3r/6w/5x randomized");
    let pet = Baseline::peterson(3, 6, 5);
    random_walks(pet, 20_000, 0x7E7E, limits).assert_ok("Peterson 3r/6w/5x randomized");
}
