//! Writer-death recovery and reader-pin reclamation (DESIGN.md §3.9).
//!
//! A slab shared across processes can outlive the processes using it. Two
//! kinds of corpses are possible:
//!
//! * a **writer** that died mid-publication — it holds the register's
//!   writer claim and may have left a half-published slot;
//! * a **reader** that died while pinning a slot — its presence unit will
//!   never be released, so the slot can never be reused.
//!
//! The write path journals its progress in three spare header words (a
//! `wip` stage word, a `wip_old` payload word, and a `lease` word holding
//! the writer's pid), ordered so that at every access boundary the
//! journal either describes the interrupted step exactly or errs toward a
//! repair that is still safe — the test-only model checker kills the
//! writer at each of them and runs `recover_register` on what it left.
//! [`ArcGroup::recover`](crate::ArcGroup::recover) walks the registers,
//! classifies each dead writer's journal — **pre-W2** (swap not reached:
//! discard the filled slot), **at-W2** (swap reached, stage not advanced:
//! adopt the published slot and replay the displaced word if the writer
//! captured it, else rebuild the previous slot's ledger by census),
//! **post-W2** (displaced value captured: roll the publication forward
//! exactly) — then sweeps dead readers' pin-registry entries, releasing
//! their orphaned presence units.
//!
//! Surviving readers never notice: recovery only writes words the dead
//! writer itself would have written (or ledger words readers don't spin
//! on), so reads stay wait-free throughout. The caller contract is that
//! *recovery itself* runs while no live writer holds the register —
//! guaranteed structurally, because the writer claim of a dead writer is
//! still held and blocks new claims until recovery clears it.
//!
//! # Limitations (DESIGN.md §3.9)
//!
//! * **Quiescent recovery window.** Live handles may exist during a
//!   [`recover`](crate::ArcGroup::recover) pass, but must be between
//!   operations; recovery rewrites ledger words the protocol otherwise
//!   owns.
//! * **The R4→pin gap.** A reader dying between its R4 `fetch_add` and
//!   the registry store of its new pin leaks exactly one uncounted unit
//!   on one slot (that slot is never reused; everything else proceeds).
//!   Closing the gap would put an RMW on the read fast path — the wrong
//!   trade for a crash window of two instructions.
//! * **Pid reuse** (closed for writer leases in §3.10). Liveness is
//!   `kill(pid, 0)`; for *reader pins* a recycled pid still makes a
//!   corpse look alive (delaying the sweep), never the reverse race that
//!   would corrupt state — unknown counts as alive. Writer leases carry
//!   a birth token (the claimant's `/proc` start time): a live pid whose
//!   incarnation no longer matches the recorded token is a corpse wearing
//!   a recycled pid and counts as **dead**, so recovery is no longer
//!   deferred indefinitely by reuse.

use std::sync::atomic::Ordering;

use crate::raw::{
    classify_and_complete_on, pin_owner, pin_pinned_slot, release_unit_on, wake_watchers_on,
    ArcCells, JournalVerdict, STAGE_IDLE,
};
use crate::shm::{process_birth, Identity};

/// The liveness verdicts of one pass over a plane (DESIGN.md §3.10): the
/// oracle is asked about each distinct pid once, and each birth token is
/// read once, however many leases and pins name them. A pass is one
/// O(K) walk: a writer set's claims, one `needs_recovery(_with)`, one
/// `recover(_with)` or one supervisor probe pass.
///
/// A verdict is reused as it stands only where it lets the walk skip a
/// register or refuse a role. A repair acts on a dead verdict only once
/// [`Liveness::forget`] has made the next question go to the oracle again
/// (`recover_register`), so a pid recycled during the pass never has its
/// live claim cleared.
pub(crate) struct Liveness<F> {
    oracle: F,
    /// Every pid asked about this pass, scanned per lookup: the passes
    /// measured see one or two (a writer process and its readers).
    seen: Vec<(u64, Seen)>,
}

/// What one pass knows about a pid.
#[derive(Clone, Copy)]
struct Seen {
    alive: bool,
    /// Its birth token, once read ([`process_birth`]; 0 = no evidence).
    birth: Option<u64>,
}

impl<F: FnMut(u64) -> bool> Liveness<F> {
    /// A pass that asks `oracle` whether a pid is alive.
    pub(crate) fn new(oracle: F) -> Self {
        Self { oracle, seen: Vec::new() }
    }

    /// What this pass knows about `pid`, asking the oracle the first time.
    #[inline]
    fn seen(&mut self, pid: u64) -> Seen {
        if let Some(&(_, seen)) = self.seen.iter().find(|e| e.0 == pid) {
            return seen;
        }
        let seen = Seen { alive: (self.oracle)(pid), birth: None };
        self.seen.push((pid, seen));
        seen
    }

    /// Whether `pid` is alive, as the oracle answered it this pass.
    #[inline]
    pub(crate) fn alive(&mut self, pid: u64) -> bool {
        self.seen(pid).alive
    }

    /// `pid`'s birth token, as read this pass (`pid` has been seen):
    /// this process's own from its identity word, any other's from
    /// `/proc`.
    #[cold]
    #[inline(never)]
    fn birth(&mut self, pid: u64) -> u64 {
        let birth = match Identity::cached() {
            Some(me) if me.pid == pid => me.birth,
            _ => process_birth(pid),
        };
        if let Some(e) = self.seen.iter_mut().find(|e| e.0 == pid) {
            e.1.birth = Some(birth);
        }
        birth
    }

    /// Drop what this pass knows about `pid`, so the next question asks
    /// the oracle and `/proc` again: the check a repair makes first.
    fn forget(&mut self, pid: u64) {
        self.seen.retain(|e| e.0 != pid);
    }
}

/// What a [`recover`](crate::ArcGroup::recover) pass found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Registers whose writer claim was held by a dead process.
    pub writers_recovered: usize,
    /// Dead writers classified pre-W2 (filled slot discarded).
    pub pre_w2: usize,
    /// Dead writers classified at-W2 (published slot adopted, previous
    /// slot's ledger rebuilt from the captured word or by census).
    pub at_w2: usize,
    /// Dead writers classified post-W2 (publication rolled forward).
    pub post_w2: usize,
    /// Pin-registry entries owned by dead readers that were cleared.
    pub pins_swept: usize,
    /// Orphaned presence units released while sweeping those pins.
    pub units_released: usize,
    /// Whether this pass lost the cross-process recovery arbitration
    /// (§3.10): another attacher held the superblock recovery token, so
    /// this pass repaired nothing itself and instead waited for the
    /// winner to finish. All repair counters are zero when set.
    pub lost_arbitration: bool,
}

impl RecoveryReport {
    /// Whether the pass found anything to repair at all.
    pub fn repaired_anything(&self) -> bool {
        self.writers_recovered != 0 || self.pins_swept != 0
    }
}

/// Whether the writer lease of this register belongs to a corpse: the
/// pid is dead, or the pid is alive but the recorded birth token names a
/// *different incarnation* (pid reuse — lease v2, §3.10). Either side of
/// the birth comparison reading 0 means "no evidence" and falls back to
/// pid-only semantics, so the check can delay but never falsify.
#[inline]
pub(crate) fn lease_dead<C: ArcCells>(
    c: &C,
    lease: u64,
    live: &mut Liveness<impl FnMut(u64) -> bool>,
) -> bool {
    if lease == 0 {
        return false;
    }
    let seen = live.seen(lease);
    if !seen.alive {
        return true;
    }
    let recorded = c.birth_word().load(Ordering::Acquire);
    if recorded == 0 {
        return false;
    }
    let actual = match seen.birth {
        Some(birth) => birth,
        None => live.birth(lease),
    };
    actual != 0 && actual != recorded
}

/// Whether this register holds state only recovery may clear: a writer
/// lease or a pin-registry entry owned by a process `live` reports dead.
#[inline]
pub(crate) fn register_needs_recovery<C: ArcCells>(
    c: &C,
    live: &mut Liveness<impl FnMut(u64) -> bool>,
) -> bool {
    let lease = c.lease_word().load(Ordering::Acquire);
    lease_dead(c, lease, live) || pins_dead(c, live)
}

/// Whether a pin-registry entry of this register is owned by a process
/// `live` reports dead.
#[inline]
pub(crate) fn pins_dead<C: ArcCells>(c: &C, live: &mut Liveness<impl FnMut(u64) -> bool>) -> bool {
    (0..c.pin_entries()).any(|i| {
        let e = c.pin_entry(i).load(Ordering::Acquire);
        e != 0 && !live.alive(pin_owner(e))
    })
}

/// Repair one register: classify and finish (or discard) a dead writer's
/// interrupted publication, then sweep dead readers' pins.
///
/// # Caller contract
///
/// Quiescent-recovery window: no *live* process is running an operation on
/// this register while recovery rewrites its ledger (live handles may
/// exist; they must merely be between operations). Within one process the
/// `&mut` on handles gives this for free; across processes it is the
/// supervisor's job — exactly the regime the crash harness exercises.
pub(crate) fn recover_register<C: ArcCells>(
    c: &C,
    live: &mut Liveness<impl FnMut(u64) -> bool>,
    report: &mut RecoveryReport,
) {
    let lease = c.lease_word().load(Ordering::Acquire);
    if lease_dead(c, lease, live) {
        // A dead verdict is asked again before the repair acts on it.
        live.forget(lease);
        if lease_dead(c, lease, live) {
            recover_dead_writer(c, report);
        }
    }
    // Sweep AFTER any at-W2 census: the census counts every registry pin
    // on the previous slot — dead or alive — and the sweep then releases
    // the dead ones, advancing `r_end` toward the census total. (The two
    // commute arithmetically, but census-then-sweep keeps "frozen count =
    // releases + standing pins" literally true at every instant between
    // them.)
    sweep_dead_pins(c, live, report);
}

/// Classify a dead writer's journal and repair the register. The
/// classification itself ([`classify_and_complete_on`] — the full
/// crash-point table is DESIGN.md §3.9) is shared with the in-process
/// panic-safe publication guard; this wrapper adds what is specific to a
/// *dead* writer: the displaced word is gone (`None` — at-W2 repairs by
/// census), and the journal retirement also frees the lease and the
/// claim, because no handle survives to hold the role.
fn recover_dead_writer<C: ArcCells>(c: &C, report: &mut RecoveryReport) {
    report.writers_recovered += 1;
    match classify_and_complete_on(c, None) {
        JournalVerdict::PreW2 => report.pre_w2 += 1,
        JournalVerdict::AtW2 { .. } => report.at_w2 += 1,
        JournalVerdict::PostW2 { .. } => report.post_w2 += 1,
        JournalVerdict::Idle | JournalVerdict::BadJournal => {}
    }
    // Retire the journal, the lease (both words), and the claim, in that
    // order; the Release on the claim publishes the repairs to the next
    // claimant.
    c.wip_word().store(STAGE_IDLE, Ordering::Relaxed);
    c.wip_old_word().store(0, Ordering::Relaxed);
    c.lease_word().store(0, Ordering::Relaxed);
    c.birth_word().store(0, Ordering::Relaxed);
    c.writer_claimed_word().store(false, Ordering::Release);
    // The dead writer may have bumped the version (or recovery just rolled
    // it forward) without waking the watchers parked on it.
    wake_watchers_on(c, c.version_word().load(Ordering::Acquire));
}

/// Release the presence units of dead readers: each registry entry owned
/// by a dead pid is a standing pin that would forever block its slot's
/// reuse. Clears the entry, releases its unit and retires the dead
/// reader's join, in that order.
fn sweep_dead_pins<C: ArcCells>(
    c: &C,
    live: &mut Liveness<impl FnMut(u64) -> bool>,
    report: &mut RecoveryReport,
) {
    for i in 0..c.pin_entries() {
        let e = c.pin_entry(i).load(Ordering::Acquire);
        if e == 0 || live.alive(pin_owner(e)) {
            continue;
        }
        // A dead verdict is asked again before the repair acts on it.
        live.forget(pin_owner(e));
        if live.alive(pin_owner(e)) {
            continue;
        }
        // The entry is what tells the next recoverer (a token stealer) to
        // sweep this reader, so it is cleared before anything it accounts
        // for. A pass cut before the clear changed nothing and is redone;
        // one cut after it leaks the unit and the join, or only the join
        // once the unit is released. No unit is ever released twice.
        c.pin_entry(i).store(0, Ordering::Release);
        if let Some(slot) = pin_pinned_slot(e).filter(|&slot| slot < c.n_slots()) {
            release_unit_on(c, slot);
            report.units_released += 1;
        }
        c.live_readers_word().fetch_sub(1, Ordering::AcqRel);
        report.pins_swept += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
    use std::time::Duration;

    use super::*;
    use crate::group::{ArcGroup, GroupCells};
    use crate::raw::RawOptions;

    /// A pid the tests' liveness oracle reports dead.
    const DEAD: u64 = 0x7fff_fff0;

    /// Register 0's cells, cut short: the `cut_at`-th accessor call
    /// unwinds before it returns, as a recoverer killed at that access.
    struct CutCells<'a> {
        inner: GroupCells<'a>,
        cut_at: usize,
        calls: Cell<usize>,
    }

    impl CutCells<'_> {
        fn tick(&self) {
            self.calls.set(self.calls.get() + 1);
            if self.calls.get() == self.cut_at {
                resume_unwind(Box::new("recoverer cut"));
            }
        }
    }

    macro_rules! forward {
        ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
            fn $name(&self, $($arg: $ty),*) -> $ret {
                self.tick();
                self.inner.$name($($arg),*)
            }
        )*};
    }

    impl ArcCells for CutCells<'_> {
        forward! {
            n_slots() -> usize;
            current_word() -> &AtomicU64;
            hint_word() -> &AtomicUsize;
            r_start(slot: usize) -> &AtomicU32;
            r_end(slot: usize) -> &AtomicU32;
            live_readers_word() -> &AtomicU32;
            gen_joins_word() -> &AtomicU32;
            writer_claimed_word() -> &AtomicBool;
            version_word() -> &AtomicU64;
            slot_version(slot: usize) -> &AtomicU64;
            waiters_word() -> &AtomicU32;
            wake() -> usize;
            wip_word() -> &AtomicU64;
            wip_old_word() -> &AtomicU64;
            lease_word() -> &AtomicU64;
            birth_word() -> &AtomicU64;
            heartbeat_word() -> &AtomicU64;
            health_word() -> &AtomicU64;
            last_good_word() -> &AtomicU64;
            pin_entries() -> u32;
            pin_entry(i: u32) -> &AtomicU64;
            max_readers() -> u32;
            opts() -> RawOptions;
        }
        fn park(&self, seen: u64, timeout: Option<Duration>) {
            self.tick();
            self.inner.park(seen, timeout);
        }
    }

    #[test]
    fn interrupted_pin_sweep_never_releases_a_unit_twice() {
        let alive = |pid: u64| pid != DEAD;
        for cut_at in 1.. {
            let g = ArcGroup::builder(1, 2, 64).pin_registry(true).build().unwrap();
            let mut w = g.writer(0).unwrap();
            w.write(b"v1");
            let mut live = g.reader(0).unwrap();
            let held = live.read();
            let c = g.cells(0);
            let taken: Vec<u32> = (0..c.pin_entries())
                .filter(|&i| c.pin_entry(i).load(Ordering::Acquire) != 0)
                .collect();
            let mut dead = g.reader(0).unwrap();
            let _ = dead.read();
            std::mem::forget(dead);
            // The reader that joined last died: its entry now names DEAD.
            let i = (0..c.pin_entries()).find(|i| !taken.contains(i)).unwrap();
            let e = c.pin_entry(i).load(Ordering::Acquire);
            c.pin_entry(i).store(DEAD << 32 | (e & u64::from(u32::MAX)), Ordering::Relaxed);

            let cut = CutCells { inner: g.cells(0), cut_at, calls: Cell::new(0) };
            let pass = catch_unwind(AssertUnwindSafe(|| {
                recover_register(&cut, &mut Liveness::new(alive), &mut RecoveryReport::default())
            }));
            // A token stealer runs the whole pass again.
            g.recover_with(alive);
            for i in 0..8u8 {
                w.write(&[i; 2]);
            }
            assert_eq!(
                held.bytes(),
                b"v1",
                "cut before access {cut_at}: a live reader's pinned slot was recycled"
            );
            if pass.is_ok() {
                break;
            }
        }
    }
}
