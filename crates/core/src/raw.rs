//! The ARC protocol over slot metadata — Algorithms 1–3 of the paper.
//!
//! This layer implements the *coordination* part of ARC (who may read or
//! write which slot, and when), independent of what the slots store. The
//! slab ([`crate::group`]) stores byte payloads next to these words; the
//! typed register ([`crate::typed`]) keeps a side array of `T` values for
//! the same words.
//!
//! # Protocol summary
//!
//! * `current: AtomicU64` packs `(index, counter)` — see [`crate::current`].
//! * Each of the `n_slots` (normally `N + 2`) slots carries two counters:
//!   `r_start` (presence units *frozen* into the slot when the writer moved
//!   `current` away from it — W3) and `r_end` (units released by readers
//!   that switched away from it — R3). `r_start == r_end` ⟺ no standing
//!   reader, slot reusable.
//! * **Read** (Algorithm 2): if the reader's `last_index` still matches
//!   `current.index` (plain load — R1), the pinned slot is still the most
//!   recent: return it with **zero RMW** (R2). Otherwise release the old
//!   slot (`r_end += 1` — R3), then `fetch_add(current, 1)` (R4), which
//!   atomically learns the new index and registers an anonymous presence
//!   unit on it (R5).
//! * **Write** (Algorithm 3): pick a free slot `≠ last_slot` (W1), fill it
//!   (the caller's job, while it holds the `PublishGuard` that W1
//!   returned), `swap` it into `current` with a zeroed counter (W2), and
//!   freeze the swapped-out counter into the old slot's `r_start` (W3).
//!
//! # One protocol, one storage layout
//!
//! The state machine is written once, against the crate-private `ArcCells`
//! trait (which atomics hold the protocol words of one register). The slab
//! (`crate::group`) implements it: K registers share one mapping of packed
//! 64 B header and slot lines. Every register type runs on that layout —
//! [`crate::ArcGroup`] at any K, [`crate::ArcRegister`] and
//! [`crate::TypedArc`] as K = 1 groups — so the proof sketch below and the
//! ordering budget describe exactly one implementation. The trait is also
//! the seam the test-only `model_check` module drives: it runs these very
//! functions over a wrapper of the real cells, one shared access per step,
//! through every interleaving `interleave::explore` enumerates.
//!
//! # Why the fast path is safe (the linchpin)
//!
//! If `last_index == current.index`, the reader still holds an unreleased
//! presence unit on that slot (it releases only when switching). A slot
//! with an outstanding unit satisfies `r_start > r_end` once frozen, or is
//! the current slot itself — in both cases the writer will not select it
//! (W1). For `index` to return to `last_index` after moving away, the slot
//! would have to be *re-published*, which requires it to be selected, which
//! requires this very reader to have released it — a contradiction. Hence
//! a fast-path hit always refers to the same publication the reader is
//! already pinned to.
//!
//! # Memory ordering (the ordering budget)
//!
//! `SeqCst` is spent **only on `current`** — every other atomic in this
//! module carries the weakest ordering the proof sketch above needs, with
//! the justification at each site.
//!
//! > **Source of truth:** since the static-analysis plane landed
//! > (DESIGN.md §3.12), the machine-checked budget lives in
//! > `ORDERINGS.toml` at the workspace root — every atomic site in the
//! > workspace is diffed against it by `cargo run -p analysis -- check`
//! > (CI must-pass) and the `self_check` test. The table below is a
//! > human-readable rendering of this module's rows; when amending an
//! > ordering, change the site and `ORDERINGS.toml` in the same commit,
//! > then keep this table in step.
//!
//! The budget, in one table:
//!
//! | atomic | op | ordering | why it suffices |
//! |--------|----|----------|-----------------|
//! | `current` | R1 load, R4 `fetch_add`, W2 `swap` | `SeqCst` | W2↔R4 is the linearization-point pair; R1 additionally relies on per-location coherence (DESIGN.md §3.1) |
//! | `r_end` | R3 `fetch_add` | `Release` | pairs with the writer's `Acquire` in `slot_free`: the reader's payload *loads* happen-before the writer's next payload *stores* |
//! | `r_end` | writer load (`slot_free`, freeze check) | `Acquire` | other half of the pair above |
//! | `r_start` | W3 freeze store | `Release` | pairs with the reader's `Acquire` in the hint check |
//! | `r_start` | writer loads | `Relaxed` | single-writer-owned: no other thread stores it |
//! | `hint` | stores / consume `swap` | `Release` / `Acquire` | the hint is advisory; the consumer re-validates through `slot_free`, which carries the real edge |
//! | `live_readers` | all | `Relaxed` | capacity bookkeeping via RMWs only (never reset by a plain store); guards handle counts, never publishes data |
//! | `gen_joins` | all | `SeqCst` | the churn budget's carry-safety bound has one unit of slack (crate::current), and the generation reset is a plain store racing joiner RMWs — kept at `SeqCst`, the one non-`current` atomic that stays there |
//! | `writer_claimed` | claim `swap` / release store | `Acquire` / `Release` | lock-style handoff of the writer role between threads |
//! | `slot_version` | writer stamp store / reader load | `Relaxed` | protocol-protected like the payload: stamped before W2, read under a standing unit; the `current` SeqCst pair carries the edge |
//! | `version` (event word) | writer bump store | `Release` | bumped strictly **after** W2, so a watcher that observes version `v` always finds publication `v` (or newer) readable; single-writer-owned, so the writer's reload is `Relaxed` |
//! | `version` (event word) | watcher loads | `Acquire` | pairs with the bump; the lost-wakeup argument is the waiter word's (next rows) |
//! | `waiters` (waiter word) | watcher registration `CAS` | `SeqCst` | with the `SeqCst` fences after it and after the writer's bump: either the writer's load sees the registration, or the watcher's re-check sees the new version (the watch edge, below) |
//! | `waiters` (waiter word) | writer load | `Acquire` | the fence before the load carries the store-buffering pairing; the `Acquire` pairs with the registration so the wake sees a stream waker left before it |
//! | `waiters` (waiter word) | writer clear `CAS` | `Relaxed` | the clear succeeds only on the value the load saw, and registrations only raise it |
//! | `wip` (journal stage) | writer stores | `Relaxed`/`Release` | the publication journal (DESIGN.md §3.9) is consumed only by *recovery*, after the writer is dead and the slab quiescent; the one load-bearing edge is `PUB_RAW` released **after** the `wip_old` capture, so a recovery that reads the stage also sees the captured word |
//! | `wip_old` / `lease` | writer stores | `Relaxed` | same quiescent-consumer argument; the lease pid additionally gates new claims (checked before the claim CAS) |
//! | `birth` (lease ext) | claim/release stores | `Relaxed` | same quiescent-consumer argument as `lease`: consumed by recovery and the watchdog probe, both off the hot paths |
//! | `heartbeat` (lease ext) | writer bump (load + store) | `Relaxed` | single-writer-owned progress odometer; the stall watchdog only compares successive snapshots, no data is published through it |
//! | `health` (lease ext) | quarantine `CAS` / recovery clear | `AcqRel` / `Release` | sticky first-reason-wins quarantine word; consumed by probes and the writer gate, never on the R2 fast path |
//! | `last_good` (lease ext) | scrub store / probe load | `Release` / `Acquire` | staleness bookkeeping for quarantined registers; advisory only |
//! | pin registry entry | join `CAS` / pin stores | `AcqRel` / `Release` | claims hand the entry between readers; pin stores are ordered **before** the unit release they describe, so a sweep can over-count (leak until next sweep) but never double-release |
//!
//! The version bump is the **watch edge**: one release store per write,
//! plus a `SeqCst` fence and one relaxed load of the waiter word (no
//! syscall when nobody waits). Waiting is an opt-in *blocking* edge
//! strictly outside the protocol — the read and write paths above stay
//! wait-free.
//!
//! * The writer's payload stores happen-before the `SeqCst` swap (W2),
//!   which pairs with the readers' `SeqCst` `fetch_add` (R4).
//! * Diagnostic snapshots (`current_index`, `outstanding_units`, …) use
//!   `Acquire` loads: they are racy by nature and only exact in quiescent
//!   states, which the `Acquire` is enough to observe.
//!
//! # The watch edge
//!
//! A watcher parks on its register's own `version` word: a futex on its
//! low 32 bits, which every process mapping the slab shares. Before it
//! parks it registers in the header's `waiters` word, which holds 0 or a
//! *target*: the low 32 bits of a version some watcher waits for (a zero
//! target is stored as 1, which errs late). Registration raises the word
//! to the watcher's target, compared in serial order, with a `SeqCst`
//! `CAS` that may store the value it found; then a `SeqCst` fence, a
//! re-check of the version, and the park on the value re-checked. The
//! writer bumps the version after W2, fences, loads the word, and wakes
//! only if it is non-zero.
//!
//! * **No lost wakeup.** The two fences order the registration and the
//!   bump: either the writer's load sees the registration (or a later
//!   value), or the watcher's re-check sees the new version and does not
//!   park. A watcher that re-checked the old version and parks after the
//!   writer's wake finds a changed word: the kernel compares the word and
//!   queues the waiter in one step, so the park returns at once.
//! * **Stale registrations.** A wait that times out, or a watcher killed
//!   while parked, leaves its target behind. When a wake woke nobody and
//!   the version has reached the word's target, the writer clears the
//!   word with a `CAS` from the value it loaded. Registrations only raise
//!   the word, so the `CAS` fails if anyone registered since the load;
//!   a registration that left the word unchanged waits for a version
//!   this publication already made. So the writer wastes at most one
//!   wake on a stale target, never one per write (DESIGN.md §3.7 on
//!   why the word holds a target, not a count).
//! * **Recovery.** Recovery of a dead writer and the unwind repair of a
//!   panicked write end with the same wake, so a writer that died between
//!   its bump and its wake leaves no watcher parked.
//!
//! Targets are compared mod 2^32, so a watcher must wait for a version
//! less than 2^31 publications ahead of the published one; every wait
//! the crate makes waits for the next version.
//!
//! # The writer candidate cache (killing the O(N) scan)
//!
//! The paper's W1 is "pick any free slot"; the obvious implementation is a
//! linear probe over all `N + 2` slots per write. This module instead keeps
//! a **writer-local cache** of candidate-free slot indices (the crate-private
//! `WriterMem`), fed by two sources that are already in hand:
//!
//! 1. **lazy reclamation** — at W3 the writer just read the superseded
//!    slot's `r_end`; if the frozen count is already matched, the slot is
//!    free *now* and goes straight into the cache (no shared-memory traffic
//!    at all);
//! 2. **reader hints (§3.4)** — the shared hint word is drained into the
//!    cache at the top of W1 (the same single `swap` the seed paid).
//!
//! Cache entries are *candidates*, not facts: a popped slot is re-validated
//! through the writer's free check (`slot_free_on`) before use, so stale or
//! duplicate entries are harmless (exactly the property that makes the
//! §3.4 hint safe). When the cache runs dry the rotating scan remains as
//! the Lemma 4.1 fallback, so the wait-freedom bound (≤ one sweep when
//! `n_slots ≥ live_readers+2`) is untouched — the cache only changes *how
//! fast* the common case finds a slot, not the worst case. In steady state
//! (readers keep up, or nobody reads) every write is served from the cache
//! in O(1).
//!
//! The cache is two entries deep: one lazily reclaimed slot per write plus
//! one drained hint, in 16 bytes of writer memory per register, so a writer
//! set over a million registers holds no per-register heap state. Overflow
//! drops the candidate, which is sound — losing a *candidate* never loses a
//! *slot*.
//!
//! Both cache feeds are gated by the `hint` protocol option: the §3.4
//! ablation switch disables the whole candidate machinery at once,
//! restoring the pure rotating scan the E6 experiment compares against.
//!
//! # Prefetch hints
//!
//! On x86 each locked instruction drains the store buffer, so on a plane
//! larger than the private caches the misses of one operation queue
//! behind each drain. The read and write paths therefore ask for a line
//! one locked instruction ahead of its use, through
//! `ArcCells::prefetch`: a read asks for its pinned slot on entry, and
//! for the new slot and its version stamp once R1 finds a new index, all
//! with read intent, because every reader of the register shares those
//! lines. A write asks to own the head of its candidate FIFO before W1's
//! hint `swap`, and the new stamp and `last_slot`'s line before the
//! `gen_joins` reset, never the header that every reader loads. A hint
//! is no atomic access: it orders nothing, has no ordering-budget entry,
//! and is a no-op on any storage but the slab's, so the model checker
//! never sees one (DESIGN.md, "Prefetch hints").
//!
//! # Operation counts
//!
//! Every handle owns an [`OpMetrics`] and passes it by `&mut` into the
//! functions below, which count reads, writes, RMWs and slot probes with
//! plain adds. The counts are never shared, so they cost no atomic and
//! need no entry in the ordering budget; the R2 fast path pays exactly
//! one increment.
//!
//! # Accounting invariant (Lemma 4.1 survives lazy registration)
//!
//! Every live reader handle holds at most one outstanding presence unit
//! (none before its first read). A switch releases exactly one unit and
//! acquires exactly one. Therefore at most `live_readers` units are
//! outstanding, spread over at most `live_readers` non-current slots, so
//! among `N + 2` slots at least one non-current slot is free — the writer's
//! W1 scan terminates within one sweep.

use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use register_common::OpMetrics;

use crate::crash::{maybe_crash, CrashPoint};
use crate::current::{counter_of, index_of, Current, MAX_READERS};
use crate::errors::HandleError;
use crate::shm::Identity;

/// Sentinel for "no hint posted".
pub(crate) const NO_HINT: usize = usize::MAX;

// ---------------------------------------------------------------------
// The publication journal (DESIGN.md §3.9)
// ---------------------------------------------------------------------
//
// Three per-register words let a *recovery* writer classify exactly where
// a dead writer stopped: `wip` packs `(stage << 32) | slot`, `wip_old`
// holds stage-dependent context, `lease` holds the claiming process's pid.
// The words are written at the handful of points marked in the write path
// below and read only by `crate::recovery`, on a quiescent slab.

/// No publication in flight (also the zeroed-slab state).
pub(crate) const STAGE_IDLE: u64 = 0;
/// W1 done: `wip.slot` is selected and being filled; not yet published.
pub(crate) const STAGE_FILLING: u64 = 1;
/// Entering W2: `wip_old` holds the *previous* slot as a `current`-shaped
/// word — its index, with [`PREV_ONLY`] as the counter until the W2 capture
/// overwrites it with the displaced word itself. Until the stage advances,
/// the W2 swap may or may not have executed.
pub(crate) const STAGE_PUB_PREV: u64 = 2;
/// W2 done and captured: `wip_old` holds the raw `(index, counter)` word
/// the swap displaced — everything after is exactly replayable.
pub(crate) const STAGE_PUB_RAW: u64 = 3;

/// Counter half of a journalled previous slot that carries no presence
/// count. No real count reaches it (the churn budget keeps a generation
/// below [`MAX_READERS`] units), so any other counter in a `PUB_PREV`
/// journal's `wip_old` is the captured displaced word.
pub(crate) const PREV_ONLY: u32 = u32::MAX;

/// Pack a journal stage word.
#[inline]
pub(crate) fn wip_pack(stage: u64, slot: usize) -> u64 {
    (stage << 32) | slot as u64
}

/// Stage of a journal word.
#[inline]
pub(crate) fn wip_stage(w: u64) -> u64 {
    w >> 32
}

/// Slot of a journal word.
#[inline]
pub(crate) fn wip_slot(w: u64) -> usize {
    (w & u32::MAX as u64) as usize
}

// ---------------------------------------------------------------------
// The reader pin registry
// ---------------------------------------------------------------------
//
// An ARC presence unit is *anonymous* — perfect for wait-freedom, fatal
// for crash recovery (a dead reader's unit pins its slot forever). Shared
// slabs therefore carry one registry word per reader handle, packing
// `(owner pid) << 32 | (pinned slot + 1)` (low half 0 = no pin). The
// entry mirrors what the handle's own bookkeeping knows, with stores
// ordered so a sweep of a dead owner's entry errs toward *leaking until
// the next sweep*, never toward releasing a unit twice:
//
// * pin clears are stored **before** the unit release they precede;
// * at leave, the whole entry is zeroed **before** the final release.
//
// The one un-closable window is a reader dying between its R4 fetch_add
// and the pin store — that unit is uncounted and leaks (documented in
// DESIGN.md §3.9; bounded by one unit per crashed reader).

// ---------------------------------------------------------------------
// Register health (the lease-extension health word, §3.10)
// ---------------------------------------------------------------------
//
// 0 = healthy. A non-zero value is a sticky quarantine reason, stored
// with a 0→reason CAS so the *first* detected corruption wins. Nothing
// clears it — a scribbled ledger cannot be attested sound again, so the
// quarantine outlives even recovery (§3.10 accepted residue). Quarantine
// is per register — the rest of the plane keeps running wait-free.

/// Health word value: the register is healthy.
pub(crate) const HEALTH_OK: u64 = 0;
/// Quarantine reason: `current` (or the word W2 displaced from it) named
/// an out-of-range slot index — the synchronization word was scribbled.
pub(crate) const HEALTH_BAD_CURRENT: u64 = 1;
/// Quarantine reason: the publication journal held an impossible stage
/// or an out-of-range slot.
pub(crate) const HEALTH_BAD_JOURNAL: u64 = 2;
/// Quarantine reason: a packed slot recorded a payload length above the
/// register's capacity.
pub(crate) const HEALTH_BAD_LEN: u64 = 3;

/// Quarantine a register: store `reason` into its health word iff it is
/// still healthy (first reason wins; sticky — nothing clears it). The
/// winner also stamps the published version at quarantine time into the
/// last-good word, so health reports can bound the staleness of degraded
/// reads.
#[inline]
pub(crate) fn quarantine_on<C: ArcCells>(c: &C, reason: u64) {
    if c.health_word()
        .compare_exchange(HEALTH_OK, reason, Ordering::AcqRel, Ordering::Relaxed)
        .is_ok()
    {
        let version = c.version_word().load(Ordering::Acquire);
        c.last_good_word().store(version, Ordering::Release);
    }
}

/// Pin-registry index meaning "no registry entry" (the slab carries no
/// registry, or it was exhausted — the handle works, but is unsweepable).
pub(crate) const NO_PIN: u32 = u32::MAX;

/// Owner pid of a registry entry (0 = entry free).
#[inline]
pub(crate) fn pin_owner(entry: u64) -> u64 {
    entry >> 32
}

/// Slot a registry entry pins, if any.
#[inline]
pub(crate) fn pin_pinned_slot(entry: u64) -> Option<usize> {
    (entry & u32::MAX as u64).checked_sub(1).map(|s| s as usize)
}

/// Mirror the handle's pin state into its registry entry (no-op for a
/// handle without one).
#[inline]
fn pin_record<C: ArcCells>(c: &C, rd: &RawReader, slot: Option<usize>) {
    if rd.pin_idx != NO_PIN {
        let v = match slot {
            Some(s) => rd.owner | (s as u64 + 1),
            None => rd.owner,
        };
        // Release: ordered before the unit release that follows a clear
        // (see the registry comment above).
        c.pin_entry(rd.pin_idx).store(v, Ordering::Release);
    }
}

/// Protocol ablation switches (E6), set through the group and register
/// builders.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawOptions {
    /// Enable the §3.4 reader-posted free-slot hint.
    pub(crate) hint: bool,
    /// Enable the R1/R2 no-RMW fast path. Disabling it makes every read pay
    /// the RF-style RMW — the ablation that isolates the paper's central
    /// optimization.
    pub(crate) fast_path: bool,
}

impl Default for RawOptions {
    fn default() -> Self {
        Self { hint: true, fast_path: true }
    }
}

// ---------------------------------------------------------------------
// The storage-generic protocol core
// ---------------------------------------------------------------------

/// Storage view the protocol state machine runs over: which atomics hold
/// the protocol words of *one* register.
///
/// The slab's per-register view is the implementor. It guarantees the
/// usual ownership discipline (the words are dedicated to this register
/// and live as long as the view); the protocol functions below provide all
/// synchronization.
///
/// The functions below make exactly one access to each word an accessor
/// returns, before calling the next accessor: the test-only model checker
/// treats each accessor call as the step boundary of the access after it.
pub(crate) trait ArcCells {
    /// Number of slots of this register.
    fn n_slots(&self) -> usize;
    /// The packed `(index, counter)` synchronization word.
    fn current_word(&self) -> &AtomicU64;
    /// The §3.4 free-slot hint word (`usize::MAX` = empty).
    fn hint_word(&self) -> &AtomicUsize;
    /// Frozen presence units of `slot` (W3).
    fn r_start(&self, slot: usize) -> &AtomicU32;
    /// Released presence units of `slot` (R3).
    fn r_end(&self, slot: usize) -> &AtomicU32;
    /// Live reader-handle count.
    fn live_readers_word(&self) -> &AtomicU32;
    /// Reader handles created since the last write (churn guard).
    fn gen_joins_word(&self) -> &AtomicU32;
    /// Whether the unique writer handle is claimed.
    fn writer_claimed_word(&self) -> &AtomicBool;
    /// The published-version event word: number of completed writes, bumped
    /// strictly after W2 (0 = only the initial value is published).
    fn version_word(&self) -> &AtomicU64;
    /// Per-slot publication-version stamp (written before W2 under writer
    /// exclusivity, read under a standing presence unit).
    fn slot_version(&self, slot: usize) -> &AtomicU64;
    /// The waiter word: 0, or the target version (low 32 bits) some
    /// watcher waits for (module docs, the watch edge).
    fn waiters_word(&self) -> &AtomicU32;
    /// Park the calling watcher while the version word still reads
    /// `seen`, for at most `timeout`; returns on a wake, a changed
    /// version, the timeout or spuriously.
    fn park(&self, seen: u64, timeout: Option<Duration>);
    /// Wake every watcher parked on this register; returns how many woke.
    fn wake(&self) -> usize;
    /// Publication-journal stage word (`STAGE_* << 32 | slot`).
    fn wip_word(&self) -> &AtomicU64;
    /// Publication-journal context word (stage-dependent; see `STAGE_*`).
    fn wip_old_word(&self) -> &AtomicU64;
    /// Writer-lease word: pid of the claiming process (0 = unclaimed).
    fn lease_word(&self) -> &AtomicU64;
    /// Lease v2 birth token: the claimant's process start time (0 =
    /// unknown / off-Linux). Paired with `lease_word` so a recycled pid
    /// cannot masquerade as the live lease holder.
    fn birth_word(&self) -> &AtomicU64;
    /// Writer progress odometer: bumped at W1 and again at publication
    /// completion. The stall watchdog compares successive snapshots — a
    /// mid-publication journal whose heartbeat stops moving is a stalled
    /// (not dead) writer.
    fn heartbeat_word(&self) -> &AtomicU64;
    /// Register health word: [`HEALTH_OK`] or a sticky `HEALTH_*`
    /// quarantine reason (never cleared — §3.10 accepted residue).
    fn health_word(&self) -> &AtomicU64;
    /// Version of the last publication known good before quarantine
    /// (stamped when the register is quarantined, for staleness reports).
    fn last_good_word(&self) -> &AtomicU64;
    /// Number of reader pin-registry entries (0 = the slab carries no
    /// registry; reader death then leaks at most one unit).
    fn pin_entries(&self) -> u32;
    /// Pin-registry entry `i` (`i < pin_entries()`).
    fn pin_entry(&self, i: u32) -> &AtomicU64;
    /// Configured reader cap `N`.
    fn max_readers(&self) -> u32;
    /// Protocol ablation switches.
    fn opts(&self) -> RawOptions;
    /// Ask for `line` ahead of its use, with `intent`: no access and no
    /// ordering, only an earlier start for its cache miss (module docs,
    /// prefetch hints). A no-op unless the storage is real memory.
    #[inline]
    fn prefetch(&self, _line: Line, _intent: Intent) {}
}

/// A line of one register's storage that the protocol asks for ahead of
/// its use ([`ArcCells::prefetch`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Line {
    /// The slot's line: its counters, length and inline bytes.
    Slot(usize),
    /// The slot's version stamp.
    Stamp(usize),
}

/// Whether a prefetched line is wanted shared, to read it, or owned, to
/// store to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Intent {
    /// Shared: readers of the line keep their copies.
    Read,
    /// Owned: every other copy of the line is invalidated.
    Write,
}

/// Width of a slot index: bit 31 of a cached candidate tags its hint
/// origin, so builders refuse `n_slots >= 2^SLOT_INDEX_BITS`.
pub(crate) const SLOT_INDEX_BITS: u32 = 31;
/// Empty-candidate sentinel (slot indices stay below `2^SLOT_INDEX_BITS`).
const NO_CAND: u32 = u32::MAX;
/// Tag bit recording that a candidate came from the §3.4 shared hint.
const CAND_HINT_BIT: u32 = 1 << SLOT_INDEX_BITS;

/// Writer-handle-local memory for W1/W3: the last published slot, the
/// rotating-scan position, and a two-entry FIFO of candidate-free slots
/// (module docs) — 16 bytes per register.
///
/// Entries are *candidates*: every pop is re-validated through
/// `slot_free_on`, so dropping, duplicating or staling entries is harmless,
/// and a dropped slot resurfaces through the fallback scan.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq, Eq, Hash))]
pub(crate) struct WriterMem {
    /// Slot of the current publication (always equals `current.index`).
    last_slot: u32,
    /// Rotating start position for the W1 fallback scan.
    search_pos: u32,
    /// Candidate slots (`NO_CAND` = empty); bit 31 tags hint origin.
    cand: [u32; 2],
}

impl WriterMem {
    /// Fresh writer memory for a claim that found `last_slot` published.
    pub(crate) fn new(last_slot: usize, n_slots: usize) -> Self {
        Self {
            last_slot: last_slot as u32,
            search_pos: ((last_slot + 1) % n_slots) as u32,
            cand: [NO_CAND; 2],
        }
    }

    /// Slot of the current publication.
    #[inline]
    pub(crate) fn last_slot(&self) -> usize {
        self.last_slot as usize
    }

    /// Queue a candidate-free slot (`from_hint` keeps metric attribution
    /// exact even when the candidate waits several calls); dropped when
    /// both entries are taken.
    #[inline]
    fn push_candidate(&mut self, slot: u32, from_hint: bool) {
        let tagged = slot | if from_hint { CAND_HINT_BIT } else { 0 };
        if let Some(c) = self.cand.iter_mut().find(|c| **c == NO_CAND) {
            *c = tagged;
        }
    }

    /// The candidate the next pop returns, if any.
    #[inline]
    fn head_candidate(&self) -> Option<usize> {
        (self.cand[0] != NO_CAND).then_some((self.cand[0] & !CAND_HINT_BIT) as usize)
    }

    /// Dequeue the oldest candidate, if any.
    #[inline]
    fn pop_candidate(&mut self) -> Option<(u32, bool)> {
        let head = self.cand[0];
        if head == NO_CAND {
            return None;
        }
        self.cand[0] = self.cand[1];
        self.cand[1] = NO_CAND;
        Some((head & !CAND_HINT_BIT, head & CAND_HINT_BIT != 0))
    }
}

/// Register a reader handle (bounded by `max_readers`) for process `pid`.
///
/// Orderings: both counters are pure capacity bookkeeping — the RMW itself
/// is atomic, and no payload data is published through them, so `Relaxed`
/// carries the whole argument (ordering-budget table in the module docs).
pub(crate) fn reader_join_on<C: ArcCells>(c: &C, pid: u64) -> Result<RawReader, HandleError> {
    let max_readers = c.max_readers();
    let live = c.live_readers_word().fetch_add(1, Ordering::Relaxed);
    if live >= max_readers {
        c.live_readers_word().fetch_sub(1, Ordering::Relaxed);
        return Err(HandleError::ReadersExhausted { max_readers });
    }
    // Churn guard: per write generation, presence-counter growth is one
    // unit per handle that performs a fetch_add; bound the number of
    // handles created per generation so the counter can never carry
    // into the index field (see crate::current).
    let budget = MAX_READERS - max_readers;
    let joins = c.gen_joins_word().fetch_add(1, Ordering::SeqCst);
    if joins >= budget {
        // Saturate rather than wrap; the handle is refused.
        c.gen_joins_word().fetch_sub(1, Ordering::SeqCst);
        c.live_readers_word().fetch_sub(1, Ordering::Relaxed);
        return Err(HandleError::ChurnExhausted);
    }
    // Claim a pin-registry entry (slab layouts) so a crash of this process
    // leaves a sweepable record instead of an anonymous leak. The capacity
    // check above admits at most `max_readers` handles, and dead readers
    // hold their live_readers unit until swept, so a free entry always
    // exists; the fallback (NO_PIN) only de-optimizes recovery.
    let owner = pid << 32;
    let mut pin_idx = NO_PIN;
    for i in 0..c.pin_entries() {
        // AcqRel: take over the entry after any previous owner's stores.
        if c.pin_entry(i).compare_exchange(0, owner, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
            pin_idx = i;
            break;
        }
    }
    Ok(RawReader { last_index: None, last_version: 0, last_good: 0, pin_idx, owner })
}

/// Perform the coordination part of a read (Algorithm 2), returning the
/// slot the caller may read, and count it in the handle's `m`.
///
/// The returned slot remains valid (never rewritten) until the next
/// `read_acquire_on`/`reader_leave_on` with the same handle.
#[inline]
pub(crate) fn read_acquire_on<C: ArcCells>(
    c: &C,
    rd: &mut RawReader,
    m: &mut OpMetrics,
) -> ReadOutcome {
    // The pinned slot's line: the fast path returns its bytes, and the
    // slow path's R3 releases its unit there. Read intent, never write:
    // every reader of the register shares this line.
    if let Some(pinned) = rd.last_index {
        c.prefetch(Line::Slot(pinned as usize), Intent::Read);
    }
    if c.opts().fast_path {
        // R1: SeqCst is part of the `current` budget (table above). On
        // x86 this is a plain `mov`; the *correctness* of the hit
        // additionally leans on per-location coherence delivering the
        // newest store of `current` (DESIGN.md §3.1) — the happens-
        // before edge for the payload bytes was already established by
        // this handle's own R4 when it pinned the slot.
        let raw = c.current_word().load(Ordering::SeqCst); // R1
        let index = index_of(raw);
        if rd.last_index == Some(index) {
            // R2: the pinned slot is still the most recent publication —
            // the same publication as last time (linchpin argument), so
            // the cached version is exact and the fast path stays free.
            m.fast_reads += 1;
            return ReadOutcome { slot: index as usize, fast: true, version: rd.last_version };
        }
        // R1 named a new slot: ask for its line and stamp now, so their
        // misses overlap the drains of R3 and R4 below.
        c.prefetch(Line::Slot(index as usize), Intent::Read);
        c.prefetch(Line::Stamp(index as usize), Intent::Read);
    }
    // Slow path: release the previously pinned slot (R3) ...
    m.slow_reads += 1;
    if let Some(old) = rd.last_index {
        // Un-register the pin *before* releasing the unit it describes,
        // so a crash-sweep never double-releases (registry comment above).
        pin_record(c, rd, None);
        release_unit_on(c, old as usize);
        m.read_rmws += 1;
    }
    // ... then atomically fetch the up-to-date index while registering
    // an anonymous presence unit on it (R4/R5).
    let raw = c.current_word().fetch_add(1, Ordering::SeqCst);
    m.read_rmws += 1;
    let index = index_of(raw);
    if index as usize >= c.n_slots() {
        // `current` no longer names a real slot: the word was scribbled
        // (it is never legally stored with an out-of-range index).
        // Quarantine the register — sticky, first reason wins — and
        // degrade this read to the handle's last good slot (stale but
        // memory-safe) instead of faulting the whole plane. The unit the
        // fetch_add registered lives in the scribbled word and is
        // unrecoverable; acceptable on a quarantined register.
        quarantine_on(c, HEALTH_BAD_CURRENT);
        rd.last_index = None;
        return ReadOutcome { slot: rd.last_good as usize, fast: false, version: rd.last_version };
    }
    debug_assert!(
        counter_of(raw) < u32::MAX,
        "presence counter about to carry into the index field"
    );
    rd.last_index = Some(index);
    rd.last_good = index;
    // Record the new pin. A crash between the fetch_add above and this
    // store leaks one uncounted unit — the documented un-closable window.
    pin_record(c, rd, Some(index as usize));
    // The stamp was written before the W2 that published this slot, and
    // the slot cannot be re-stamped while our fresh presence unit pins it
    // — Relaxed per the ordering budget (the edge came from the SeqCst
    // swap/fetch_add pair on `current`).
    rd.last_version = c.slot_version(index as usize).load(Ordering::Relaxed);
    ReadOutcome { slot: index as usize, fast: false, version: rd.last_version }
}

/// Release a presence unit on `slot` (R3), optionally posting the §3.4
/// free-slot hint.
#[inline]
pub(crate) fn release_unit_on<C: ArcCells>(c: &C, slot: usize) {
    let prev = c.r_end(slot).fetch_add(1, Ordering::Release);
    if c.opts().hint {
        // §3.4: if this release made the slot free, propose it to the
        // writer. r_start is only meaningful once frozen; a stale read
        // here merely suppresses or misposts a hint, and the writer
        // re-validates before trusting it.
        let r_start = c.r_start(slot).load(Ordering::Acquire);
        if prev.wrapping_add(1) == r_start {
            c.hint_word().store(slot, Ordering::Release);
        }
    }
}

/// Drop edge of a zero-copy read guard: release the pin **eagerly iff
/// the pinned publication is already superseded**.
///
/// A guard is a standing presence unit; while held, the pinned slot is
/// out of W1 rotation (DESIGN.md §3.8). On drop there are two cases,
/// decided by one load of `current` (the budget's R1 entry — a plain
/// `mov` on x86, no RMW):
///
/// * the pinned slot is still the current publication — keep the pin,
///   exactly like [`read_acquire_on`]'s handle-carried pin, so the
///   handle's next read hits the R2 fast path for free;
/// * the register moved on — the pin can only delay reclamation now, so
///   release the unit (R3) immediately instead of waiting for the
///   handle's next read. The slot re-enters rotation one read earlier,
///   which is what keeps "guard per read" loops as slot-frugal as the
///   leased-snapshot API.
///
/// Releasing a held unit is legal at any point (R3 has no enabling
/// condition beyond holding the unit), so both branches of the racy
/// compare are sound — a write racing past the load merely defers the
/// release to the next read, today's behavior.
pub(crate) fn guard_drop_on<C: ArcCells>(c: &C, rd: &mut RawReader, m: &mut OpMetrics) {
    if let Some(last) = rd.last_index {
        let raw = c.current_word().load(Ordering::SeqCst);
        if index_of(raw) != last {
            pin_record(c, rd, None);
            release_unit_on(c, last as usize);
            // The eager release is an R3 RMW exactly like the one in
            // read_acquire_on's slow path — count it, or the E5 per-read
            // RMW figure under-reports guard workloads.
            m.read_rmws += 1;
            rd.last_index = None;
            rd.last_version = 0;
        }
    }
}

/// Deregister a reader handle, releasing its outstanding unit (if any).
pub(crate) fn reader_leave_on<C: ArcCells>(c: &C, mut rd: RawReader) {
    // Free the whole registry entry *before* the final release: a sweep
    // racing this leave then sees either our pin (and we are alive) or no
    // entry at all — never a cleared-but-still-pinned ghost.
    if rd.pin_idx != NO_PIN {
        c.pin_entry(rd.pin_idx).store(0, Ordering::Release);
    }
    if let Some(old) = rd.last_index.take() {
        release_unit_on(c, old as usize);
    }
    // Relaxed: capacity bookkeeping only (see reader_join_on). The data
    // edge for the released slot was carried by release_unit_on above.
    c.live_readers_word().fetch_sub(1, Ordering::Relaxed);
}

/// Whether `slot` has no standing readers (`r_start == r_end`).
///
/// Only sound for slots other than the current one (whose presence units
/// live in `current.counter`, not in `r_start`).
#[inline]
pub(crate) fn slot_free_on<C: ArcCells>(c: &C, slot: usize) -> bool {
    // Acquire on r_end: the releasing readers' payload loads must
    // happen-before our upcoming payload stores.
    let r_end = c.r_end(slot).load(Ordering::Acquire);
    // r_start is written only by the writer (us): Relaxed suffices.
    let r_start = c.r_start(slot).load(Ordering::Relaxed);
    r_start == r_end
}

/// Claim the unique writer role for process `me`, returning the slot of
/// the current publication (the claimer's initial `last_slot`). Makes no
/// syscall: see [`Identity::resolve`] for why.
pub(crate) fn writer_claim_on<C: ArcCells>(c: &C, me: &Identity) -> Result<usize, HandleError> {
    // Acquire: lock-style handoff — pairs with the Release store in
    // writer_release_on, ordering the previous writer's publishes (and
    // slot stores) before this claimer's reads of protocol state.
    if c.writer_claimed_word().swap(true, Ordering::Acquire) {
        return Err(HandleError::WriterAlreadyClaimed);
    }
    // Lease the register to this process so recovery can tell a crashed
    // claimant from a live one. Relaxed: consumed either by the pre-claim
    // dead-lease gate (advisory — the swap above is the real lock) or by
    // quiescent recovery. The birth token lands first so a probe that
    // sees our pid sees our incarnation too (a pid with birth 0 is
    // treated as "no birth evidence", i.e. v1 pid-only semantics).
    c.birth_word().store(me.birth, Ordering::Relaxed);
    c.lease_word().store(me.pid, Ordering::Relaxed);
    // Invariant: last_slot always equals current.index between writes,
    // so a re-claimed writer reconstructs it from `current`.
    Ok(current_index_on(c))
}

/// Release the writer role so another thread may claim it.
pub(crate) fn writer_release_on<C: ArcCells>(c: &C) {
    // A clean release leaves no journal: a selected-but-never-published
    // slot (select_slot without publish) is abandoned, which is exactly
    // what recovery would conclude from FILLING anyway.
    c.wip_word().store(STAGE_IDLE, Ordering::Relaxed);
    c.wip_old_word().store(0, Ordering::Relaxed);
    c.lease_word().store(0, Ordering::Relaxed);
    c.birth_word().store(0, Ordering::Relaxed);
    // Release: other half of the writer_claim_on handoff (also orders the
    // journal clears above before the next claimant's reads).
    c.writer_claimed_word().store(false, Ordering::Release);
}

/// Bump the writer progress odometer. Single-writer-owned, so a Relaxed
/// load + store bump avoids paying an RMW on the write path; the stall
/// watchdog only compares successive snapshots for movement.
#[inline]
pub(crate) fn heartbeat_tick_on<C: ArcCells>(c: &C) {
    let hb = c.heartbeat_word().load(Ordering::Relaxed);
    c.heartbeat_word().store(hb.wrapping_add(1), Ordering::Relaxed);
}

/// W1: select a free slot different from the last written one.
///
/// O(1) in steady state: candidates come from the writer-local FIFO (fed
/// by lazy reclamation at W3 and by drained §3.4 reader hints), each
/// re-validated through [`slot_free_on`] before use. Only when the FIFO
/// runs dry does the rotating scan run — and with `n_slots >=
/// live_readers + 2` a single sweep always finds a slot (Lemma 4.1),
/// preserving writer wait-freedom. Below that bound (ablation only) the
/// scan retries with backoff, which is where wait-freedom is lost.
pub(crate) fn select_slot_on<C: ArcCells>(c: &C, wr: &mut WriterMem, m: &mut OpMetrics) -> usize {
    m.writes += 1;
    // The watchdog's stall classifier keys on "journal mid-publication,
    // heartbeat not moving": tick once as the operation starts so a
    // writer that wedges *while filling* reads as stalled, not idle.
    heartbeat_tick_on(c);

    if c.opts().hint {
        // Ask to own the line of the first candidate: the validation
        // below loads it and the fill stores to it, and its miss then
        // overlaps the drain of the hint swap.
        if let Some(cand) = wr.head_candidate().filter(|&s| s != wr.last_slot()) {
            c.prefetch(Line::Slot(cand), Intent::Write);
        }
        // Drain the shared hint word into the local FIFO (the one RMW
        // this step has always cost). Acquire pairs with the posting
        // Release, though the real data edge is re-established by the
        // slot_free validation below.
        let h = c.hint_word().swap(NO_HINT, Ordering::Acquire);
        m.write_rmws += 1;
        if h != NO_HINT {
            wr.push_candidate(h as u32, true);
        }
        // Pop candidates until one validates. Each pop is plain local
        // memory; only the validation (slot_free) is a shared probe —
        // candidates discarded by the local last_slot check cost none.
        while let Some((cand, from_hint)) = wr.pop_candidate() {
            let cand = cand as usize;
            if cand == wr.last_slot() || cand >= c.n_slots() {
                continue;
            }
            m.slot_probes += 1;
            if slot_free_on(c, cand) {
                m.ring_hits += 1;
                // Attribute §3.4-origin candidates to the hint count no
                // matter how many calls they waited.
                if from_hint {
                    m.hint_hits += 1;
                }
                // Journal W1: the slot is about to be filled. A crash
                // between here and publish classifies as pre-W2 discard.
                c.wip_word().store(wip_pack(STAGE_FILLING, cand), Ordering::Relaxed);
                return cand;
            }
        }
    }
    let n = c.n_slots();
    let mut backoff = sync_backoff();
    loop {
        for off in 0..n {
            let s = (wr.search_pos as usize + off) % n;
            if s == wr.last_slot() {
                continue;
            }
            m.slot_probes += 1;
            if slot_free_on(c, s) {
                wr.search_pos = ((s + 1) % n) as u32;
                // Journal W1 (fallback-scan path) — same as above.
                c.wip_word().store(wip_pack(STAGE_FILLING, s), Ordering::Relaxed);
                return s;
            }
        }
        // Unreachable with n_slots >= live_readers + 2; reachable in the
        // under-provisioned ablation, where the writer must wait for a
        // reader to move on.
        backoff();
    }
}

/// W2 + W3: publish `slot` (already filled by the caller) and freeze the
/// superseded publication's presence count into its `r_start`.
///
/// # Contract
///
/// `slot` must come from [`select_slot_on`] with the same writer memory,
/// and the caller must have completed all payload stores to it.
#[cfg(test)]
pub(crate) fn publish_on<C: ArcCells>(c: &C, wr: &mut WriterMem, slot: usize, m: &mut OpMetrics) {
    let mut displaced = NOT_SWAPPED;
    publish_core(c, wr, slot, &mut displaced, m);
}

/// [`publish_on`] with the displaced-word mirror the panic-safe
/// [`PublishGuard`] needs: immediately after the W2 swap — before any
/// injection point — the displaced `current` word is stored through
/// `displaced`, a place in the *caller's* frame. An in-process unwind
/// preserves outer frames, so the guard can always finish W3 exactly;
/// the lossy at-W2 census repair is for cross-process crashes only.
fn publish_core<C: ArcCells>(
    c: &C,
    wr: &mut WriterMem,
    slot: usize,
    displaced: &mut u64,
    m: &mut OpMetrics,
) {
    debug_assert_ne!(slot, wr.last_slot(), "W1 forbids reusing the current slot");
    debug_assert!(slot_free_on(c, slot), "publishing a slot with standing readers");
    // Ask to own the new slot's stamp and the superseded slot's line: the
    // stamp store and W3's freeze below need them, and their misses then
    // overlap the drain of the gen_joins reset. W3 takes the old line from
    // its readers a few instructions later in any case.
    c.prefetch(Line::Stamp(slot), Intent::Write);
    c.prefetch(Line::Slot(wr.last_slot()), Intent::Write);
    // Journal the publication intent (§3.9): capture the previous slot,
    // then advance the stage. From here until the PUB_RAW capture below,
    // a crash is classified by comparing `current.index` against
    // `wip.slot` — W1 guarantees slot != last_slot, so `current` moving
    // to `wip.slot` can only mean *our* swap executed. The previous slot
    // is journalled `current`-shaped, so its index stays readable after
    // the capture below overwrites the word with the displaced one.
    let prev = Current { index: wr.last_slot, counter: PREV_ONLY }.pack();
    c.wip_old_word().store(prev, Ordering::Relaxed);
    c.wip_word().store(wip_pack(STAGE_PUB_PREV, slot), Ordering::Relaxed);
    // Reset the slot's generation counters. Visibility to readers is
    // carried by the SeqCst swap below (release) paired with their
    // SeqCst fetch_add (acquire).
    c.r_start(slot).store(0, Ordering::Relaxed);
    c.r_end(slot).store(0, Ordering::Relaxed);
    // Fresh generation: reset the reader-churn budget before exposing
    // the new publication. SeqCst deliberately — this is the one
    // bookkeeping counter whose bound (budget = MAX_READERS −
    // max_readers, leaving exactly one unit of slack below the index
    // carry) is load-bearing for the packed-word encoding, and joiners
    // never touch `current`, so no cheaper edge orders their RMWs
    // against this reset.
    c.gen_joins_word().store(0, Ordering::SeqCst);
    // Stamp the publication version into the slot before W2 (the writer
    // owns the event word, so the Relaxed reload is exact). Readers that
    // pin this slot read the stamp under the same protocol edge as the
    // payload bytes.
    let version = c.version_word().load(Ordering::Relaxed).wrapping_add(1);
    c.slot_version(slot).store(version, Ordering::Relaxed);
    maybe_crash(CrashPoint::PreW2);
    // W2: publish atomically with a zeroed presence counter.
    let old = c.current_word().swap(Current::fresh(slot as u32), Ordering::SeqCst);
    *displaced = old;
    m.write_rmws += 1;
    maybe_crash(CrashPoint::AtW2);
    // Capture the displaced word, then advance the journal stage. The
    // Release on the stage store orders it after the capture, so recovery
    // reading PUB_RAW (Acquire) always finds the real displaced word. A
    // crash *between* these stores classifies as at-W2 and finds the
    // capture by its counter half (not `PREV_ONLY`), so it replays the
    // freeze exactly; the census runs only when the capture is missing.
    c.wip_old_word().store(old, Ordering::Relaxed);
    c.wip_word().store(wip_pack(STAGE_PUB_RAW, slot), Ordering::Release);
    maybe_crash(CrashPoint::PostW2);
    // W3: freeze the superseded slot's presence count. Release pairs
    // with the Acquire load in readers' hint check. The displaced word
    // is validated first: `current` can only legally hold an in-range
    // index, so an out-of-range `old_slot` proves a scribble — freeze
    // nothing (the store would be out of bounds) and quarantine instead.
    let old_slot = index_of(old) as usize;
    let old_count = counter_of(old);
    if old_slot < c.n_slots() {
        c.r_start(old_slot).store(old_count, Ordering::Release);
        // Lazy reclamation: if the frozen count is already matched by
        // releases (or zero — the "never read" generation, which no reader
        // will ever post as a hint), the old slot is free *now*. Queue it
        // in the writer-local FIFO — zero shared-memory traffic, and the
        // next W1 is served in O(1). The Acquire on r_end orders the
        // releasing readers' payload loads before our next stores there.
        if c.opts().hint && old_count == c.r_end(old_slot).load(Ordering::Acquire) {
            wr.push_candidate(old_slot as u32, false);
        }
    } else {
        quarantine_on(c, HEALTH_BAD_CURRENT);
    }
    wr.last_slot = slot as u32;
    // The watch edge: bump the event word strictly AFTER W2, so any
    // watcher observing `version` finds publication `version` readable
    // (bumping before W2 would let a woken watcher read the old value).
    // Release pairs with watchers' Acquire loads; the wake at the end
    // costs one fence + one load when nobody waits.
    c.version_word().store(version, Ordering::Release);
    // Publication complete: retire the journal. Stage first — if only the
    // stage store lands before a crash, IDLE + stale wip_old reads as a
    // clean register, which it is.
    c.wip_word().store(STAGE_IDLE, Ordering::Relaxed);
    c.wip_old_word().store(0, Ordering::Relaxed);
    // Second watchdog tick: the publication finished — a writer that
    // keeps completing operations never trips the stall threshold, no
    // matter how slowly it fills.
    heartbeat_tick_on(c);
    wake_watchers_on(c, version);
}

/// Sentinel for "the W2 swap has not executed": not a legal `current`
/// word (its index half would be `u32::MAX`, always out of range).
const NOT_SWAPPED: u64 = u64::MAX;

/// How a mid-publication journal was classified and repaired — the shared
/// vocabulary of cross-process crash recovery ([`crate::recovery`]) and
/// the in-process unwind repair ([`PublishGuard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JournalVerdict {
    /// No publication was in flight.
    Idle,
    /// Pre-W2: the selected slot was never published — discarded.
    PreW2,
    /// At-W2: the publication was adopted and the previous slot's ledger
    /// rebuilt (exactly, if the displaced word was available; by census
    /// otherwise).
    AtW2 {
        /// The adopted publication's slot.
        published: usize,
    },
    /// Post-W2: the publication was rolled forward exactly.
    PostW2 {
        /// The adopted publication's slot.
        published: usize,
    },
    /// The journal was scribbled; the register was quarantined.
    BadJournal,
}

impl JournalVerdict {
    /// The slot of an adopted (completed) publication, if any.
    pub(crate) fn published(self) -> Option<usize> {
        match self {
            JournalVerdict::AtW2 { published } | JournalVerdict::PostW2 { published } => {
                Some(published)
            }
            _ => None,
        }
    }
}

/// Classify a mid-publication journal and complete (or discard) the
/// interrupted publication — the §3.9 classification, shared verbatim by
/// crash recovery (dead writer, quiescent slab, `displaced = None`) and
/// the panic-safe publication guard (same process, same thread, with the
/// displaced word preserved across the unwind). Clears nothing: journal,
/// lease, and claim retirement stay with the caller, because recovery
/// frees the role while the guard's handle keeps it.
///
/// At-W2 with `displaced = None` replays the displaced word if the writer
/// captured it into `wip_old` before dying; otherwise the census counts
/// the previous slot's standing pins from the registry. On a slab without
/// one the census conservatively over-freezes with the live-reader count
/// — a possible one-slot leak, never a torn read. In-process this branch
/// is unreachable (the guard always has the displaced word); it exists
/// for the cross-process path and as defense in depth.
pub(crate) fn classify_and_complete_on<C: ArcCells>(
    c: &C,
    displaced: Option<u64>,
) -> JournalVerdict {
    let w = c.wip_word().load(Ordering::Acquire);
    let slot = wip_slot(w);
    match wip_stage(w) {
        // W1 reached, W2 not journalled: the slot was (at most) being
        // filled and was never published — discard by doing nothing; its
        // ledger still reads free.
        STAGE_FILLING if slot < c.n_slots() => JournalVerdict::PreW2,
        STAGE_PUB_PREV if slot < c.n_slots() => {
            // The swap may or may not have executed. W1 forbids selecting
            // `last_slot`, so `current` pointing at the journalled slot
            // can only mean the interrupted writer's own swap ran.
            let cur = c.current_word().load(Ordering::SeqCst);
            if index_of(cur) as usize == slot {
                match displaced {
                    // The displaced word survived (in-process unwind):
                    // replay the W3 freeze exactly, like post-W2.
                    Some(old) => {
                        let old_slot = index_of(old) as usize;
                        if old_slot < c.n_slots() {
                            c.r_start(old_slot).store(counter_of(old), Ordering::Release);
                        } else {
                            quarantine_on(c, HEALTH_BAD_CURRENT);
                        }
                    }
                    // Published, and the writer died. If the displaced word
                    // was captured before the stage advanced, replay it
                    // exactly. Otherwise it (and with it the previous
                    // slot's acquisition count) died with the writer:
                    // rebuild the W3 freeze by census — frozen count :=
                    // releases so far + standing pins on the previous
                    // slot. Exact with a registry under the
                    // quiescent-recovery contract; conservative (possible
                    // one-slot leak, never a torn read) without one.
                    None => {
                        let journalled = c.wip_old_word().load(Ordering::Acquire);
                        let prev = index_of(journalled) as usize;
                        if prev < c.n_slots() {
                            let frozen = if counter_of(journalled) != PREV_ONLY {
                                counter_of(journalled)
                            } else {
                                let standing = if c.pin_entries() > 0 {
                                    let mut standing = 0u32;
                                    for i in 0..c.pin_entries() {
                                        let e = c.pin_entry(i).load(Ordering::Acquire);
                                        if pin_pinned_slot(e) == Some(prev) {
                                            standing += 1;
                                        }
                                    }
                                    standing
                                } else {
                                    c.live_readers_word().load(Ordering::Acquire)
                                };
                                let released = c.r_end(prev).load(Ordering::Acquire);
                                released.wrapping_add(standing)
                            };
                            c.r_start(prev).store(frozen, Ordering::Release);
                        }
                    }
                }
                roll_forward_version_on(c, slot);
                JournalVerdict::AtW2 { published: slot }
            } else {
                // Swap not reached: pre-W2 discard. The version stamp on
                // the never-published slot is inert, but its ledger reset
                // may have landed only half (`r_start` stored, `r_end`
                // not), which would read pinned forever: finish it. No
                // reader can touch this ledger — W1 chose the slot only
                // once its last generation was fully released, and it
                // was never published since.
                c.r_start(slot).store(0, Ordering::Relaxed);
                c.r_end(slot).store(0, Ordering::Relaxed);
                JournalVerdict::PreW2
            }
        }
        STAGE_PUB_RAW if slot < c.n_slots() => {
            // Post-W2: the displaced word was captured, so the W3 freeze
            // can be replayed *exactly* (idempotent — storing the same
            // frozen count the writer would have stored).
            let old = c.wip_old_word().load(Ordering::Acquire);
            let old_slot = index_of(old) as usize;
            if old_slot < c.n_slots() {
                c.r_start(old_slot).store(counter_of(old), Ordering::Release);
            }
            roll_forward_version_on(c, slot);
            JournalVerdict::PostW2 { published: slot }
        }
        // Died/unwound between operations — nothing in flight.
        STAGE_IDLE => JournalVerdict::Idle,
        // Out-of-range slots and impossible stages (a scribbled journal):
        // adopt nothing — garbage would be worse than a discarded
        // publication — and quarantine: something wrote through this
        // header, so its other words cannot be trusted either.
        _ => {
            quarantine_on(c, HEALTH_BAD_JOURNAL);
            JournalVerdict::BadJournal
        }
    }
}

/// Finish an adopted publication's version bump: the stamp the writer
/// wrote into the slot pre-W2 becomes the register's published version
/// (skipped if the writer already got that far). The caller wakes the
/// watchers once the repair is over.
pub(crate) fn roll_forward_version_on<C: ArcCells>(c: &C, slot: usize) {
    let v = c.slot_version(slot).load(Ordering::Acquire);
    if c.version_word().load(Ordering::Acquire) < v {
        c.version_word().store(v, Ordering::Release);
    }
}

/// Panic-safe publication window (DESIGN.md §3.13): W1 + arm on
/// construction, fill while live, W2 + W3 + disarm in [`publish`].
///
/// Any unwind between construction and `publish` returning — the caller's
/// fill closure (a `write_with` or typed-serializer panic), or an
/// injected protocol-point panic ([`crate::crash::arm_panic`]) — runs the
/// shared §3.9 classification *in place* on the writing thread: pre-W2
/// states discard the selected slot, at/post-W2 states complete the
/// publication (exact W3 replay — the displaced word is mirrored into
/// this guard before any injection point). Either way the journal is
/// retired and the writer handle remains valid: the same handle writes
/// again immediately, or its drop releases the role cleanly — a panicking
/// writer closure can no longer wedge the register until process exit.
///
/// [`publish`]: PublishGuard::publish
pub(crate) struct PublishGuard<'g, C: ArcCells> {
    c: &'g C,
    wr: &'g mut WriterMem,
    /// The writer handle's counts (W1's RMWs and probes, then W2's swap).
    m: &'g mut OpMetrics,
    slot: usize,
    /// The word the W2 swap displaced ([`NOT_SWAPPED`] until it runs).
    displaced: u64,
    armed: bool,
}

impl<'g, C: ArcCells> PublishGuard<'g, C> {
    /// W1: select a free slot and arm the unwind repair.
    pub(crate) fn select(c: &'g C, wr: &'g mut WriterMem, m: &'g mut OpMetrics) -> Self {
        let slot = select_slot_on(c, wr, m);
        PublishGuard { c, wr, m, slot, displaced: NOT_SWAPPED, armed: true }
    }

    /// The selected slot the caller may fill until [`publish`].
    ///
    /// [`publish`]: PublishGuard::publish
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// W2 + W3: publish the filled slot and disarm.
    pub(crate) fn publish(mut self) {
        let slot = self.slot;
        publish_core(self.c, &mut *self.wr, slot, &mut self.displaced, &mut *self.m);
        self.armed = false;
    }
}

impl<C: ArcCells> Drop for PublishGuard<'_, C> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let displaced = (self.displaced != NOT_SWAPPED).then_some(self.displaced);
        if let Some(published) = classify_and_complete_on(self.c, displaced).published() {
            // An adopted publication is a completed write: the invariant
            // `last_slot == current.index` must be restored before the
            // handle's next W1 (which forbids re-selecting it).
            self.wr.last_slot = published as u32;
        }
        // Retire the journal only. Unlike recovery, the claim, lease, and
        // birth words stay: the handle survives the unwind, so the role is
        // still (correctly) held — re-claimable the instant the handle
        // drops, writable immediately through the same handle.
        self.c.wip_word().store(STAGE_IDLE, Ordering::Relaxed);
        self.c.wip_old_word().store(0, Ordering::Relaxed);
        // The operation ended (however abnormally): tick the odometer so
        // the watchdog sees a live writer, not a mid-publication stall.
        heartbeat_tick_on(self.c);
        // The unwind may have come after the bump but before the wake.
        // The writer owns the event word, so the Relaxed reload is exact.
        wake_watchers_on(self.c, self.c.version_word().load(Ordering::Relaxed));
    }
}

/// The write path of Algorithm 3: W1 with writer memory `wr`, then
/// `fill(slot)`, then W2 + W3, counted in `m`.
///
/// `fill` has exclusive access to the storage of `slot` until it returns:
/// W1 proved the slot free, and the Acquire edge on its `r_end` ordered
/// all prior readers' loads before the fill's stores. The window runs
/// under a [`PublishGuard`]: if `fill` (or an injected crash point in
/// panic mode) unwinds, the guard classifies the journal and completes or
/// discards the publication, so a panicking fill leaves the register
/// consistent and the writer memory usable again.
#[inline]
pub(crate) fn publish_with_on<C: ArcCells, R>(
    c: &C,
    wr: &mut WriterMem,
    m: &mut OpMetrics,
    fill: impl FnOnce(usize) -> R,
) -> R {
    let guard = PublishGuard::select(c, wr, m);
    let out = fill(guard.slot());
    guard.publish();
    out
}

/// The waiter-word target of a watcher waiting past `last`: the low 32
/// bits of `last + 1`, with 0 (the empty word) stored as 1.
#[inline]
fn waiter_target(last: u64) -> u32 {
    (last.wrapping_add(1) as u32).max(1)
}

/// Whether target `a` is at or past target `b` in serial order (mod 2^32).
#[inline]
fn serial_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

/// Register a watcher waiting past `last` in the waiter word, then fence:
/// the caller's next load of the version word is the re-check of the
/// watch edge (module docs).
pub(crate) fn register_watcher_on<C: ArcCells>(c: &C, last: u64) {
    let want = waiter_target(last);
    let mut w = c.waiters_word().load(Ordering::Relaxed);
    loop {
        // Raise the word to our target, or store what is there: the CAS
        // is the registration either way.
        let target = if w != 0 && serial_ge(w, want) { w } else { want };
        // SeqCst: the RMW half of the store-buffering pair (module docs).
        match c.waiters_word().compare_exchange(w, target, Ordering::SeqCst, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => w = now,
        }
    }
    // SeqCst fence between the registration and the caller's re-check:
    // the watcher's half of the store-buffering pair.
    fence(Ordering::SeqCst);
}

/// The writer's half of the watch edge, after `version` was stored: wake
/// the register's watchers if any registered, and clear a target that a
/// wake which woke nobody shows stale (module docs).
pub(crate) fn wake_watchers_on<C: ArcCells>(c: &C, version: u64) {
    // SeqCst fence between the version store and the waiter-word load:
    // the writer's half of the store-buffering pair.
    fence(Ordering::SeqCst);
    // Acquire: a registration also releases what the watcher left for the
    // wake (a stream's waker, `crate::group`).
    let w = c.waiters_word().load(Ordering::Acquire);
    if w != 0 && c.wake() == 0 && serial_ge(version as u32, w) {
        // Fails if a watcher registered since the load: registrations
        // only raise the word.
        let _ = c.waiters_word().compare_exchange(w, 0, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// Block until the published version exceeds `last`, returning the version
/// observed (≥ `last + 1`). This is the opt-in blocking edge of the watch
/// layer — the register's own operations never call it.
pub(crate) fn wait_for_version_on<C: ArcCells>(c: &C, last: u64) -> u64 {
    wait_past_on(c, last, None).expect("an untimed wait returns a newer version")
}

/// Like [`wait_for_version_on`] with a timeout; `None` if it elapsed with
/// no newer publication.
pub(crate) fn wait_for_version_timeout_on<C: ArcCells>(
    c: &C,
    last: u64,
    timeout: Duration,
) -> Option<u64> {
    // A deadline past the clock's range waits without one.
    wait_past_on(c, last, Instant::now().checked_add(timeout))
}

/// The watcher's half of the watch edge (module docs): check, register,
/// re-check, park on the version re-checked, and go round again on a wake.
fn wait_past_on<C: ArcCells>(c: &C, last: u64, deadline: Option<Instant>) -> Option<u64> {
    loop {
        let v = c.version_word().load(Ordering::Acquire);
        if v > last {
            return Some(v);
        }
        let timeout = match deadline {
            None => None,
            Some(d) => Some(d.checked_duration_since(Instant::now()).filter(|t| !t.is_zero())?),
        };
        register_watcher_on(c, last);
        let v = c.version_word().load(Ordering::Acquire);
        if v > last {
            return Some(v);
        }
        c.park(v, timeout);
    }
}

/// The currently published slot index (diagnostic snapshot).
pub(crate) fn current_index_on<C: ArcCells>(c: &C) -> usize {
    // Acquire: diagnostic — exact only in quiescent states, where the
    // acquire is enough to observe the last publication.
    index_of(c.current_word().load(Ordering::Acquire)) as usize
}

/// Sum of outstanding presence units across all non-current slots plus
/// the current counter (test/diagnostic; racy under concurrency).
///
/// In a quiescent state this equals the number of live readers that
/// have performed at least one read.
pub(crate) fn outstanding_units_on<C: ArcCells>(c: &C) -> u64 {
    // Acquire throughout: a diagnostic snapshot is racy whatever the
    // ordering; Acquire is enough for the quiescent case to be exact.
    let cur = c.current_word().load(Ordering::Acquire);
    let cur_idx = index_of(cur) as usize;
    let mut units = counter_of(cur) as u64;
    for i in 0..c.n_slots() {
        if i == cur_idx {
            continue;
        }
        let rs = c.r_start(i).load(Ordering::Acquire) as u64;
        let re = c.r_end(i).load(Ordering::Acquire) as u64;
        units += rs.saturating_sub(re);
    }
    // Correction: the current slot's counter includes units whose
    // holders already released. Switch-releases never target the
    // current slot (a reader switches only when the index moved), but
    // `reader_leave` and fast-path-disabled re-reads do release against
    // a still-current slot; those releases sit in its r_end until the
    // freeze reconciles them.
    // Saturating like the per-slot terms above: a release racing this
    // snapshot can make r_end momentarily exceed the counter we read.
    units.saturating_sub(c.r_end(cur_idx).load(Ordering::Acquire) as u64)
}

/// Reader-side per-handle state: the slot pinned by the previous read.
///
/// `None` until the handle's first read (lazy acquisition; DESIGN.md §3.2).
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(crate) struct RawReader {
    last_index: Option<u32>,
    /// Version of the publication this handle pins — cached so the R2
    /// fast path reports a version without touching the slot line.
    last_version: u64,
    /// Slot of this handle's last successful acquire: the degraded-read
    /// target if the register is quarantined (slot 0 — the initial
    /// value — before the first read).
    last_good: u32,
    /// Pin-registry entry owned by this handle (NO_PIN = the slab has no
    /// registry; the handle works, but a crash of its process leaks its
    /// unit and the pinned slot is never reusable — acceptable for heap
    /// slabs, whose readers cannot outlive the process).
    pin_idx: u32,
    /// `pid << 32` — the owner half of this handle's registry entries.
    owner: u64,
}

impl RawReader {
    /// Slot this reader currently pins, if any.
    pub(crate) fn pinned_slot(&self) -> Option<usize> {
        self.last_index.map(|i| i as usize)
    }
}

/// Outcome of `read_acquire_on`: the slot a read may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReadOutcome {
    /// Slot the caller may now read until its next `read_acquire`/leave.
    pub(crate) slot: usize,
    /// True if the no-RMW fast path was taken (R2).
    pub(crate) fast: bool,
    /// Publication version of the value in `slot`: the number of writes
    /// completed up to (and including) the one this read observes; 0 for
    /// the initial value. Strictly increases whenever the value changes,
    /// never decreases across a handle's reads.
    pub(crate) version: u64,
}

/// A minimal backoff closure (avoids depending on sync-primitives here).
fn sync_backoff() -> impl FnMut() {
    let mut step = 0u32;
    move || {
        if step < 10 {
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
            step += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use register_common::errors::ConfigError;
    use register_common::traits::BuildError;

    use super::*;
    use crate::group::{ArcGroup, GroupCells};

    /// The protocol functions driven directly on the one register of a
    /// K = 1 group: the cells every register type of the crate runs on.
    struct K1(Arc<ArcGroup>);

    impl K1 {
        fn with(n: u32, hint: bool, fast_path: bool) -> Self {
            K1(ArcGroup::builder(1, n, 8).hint(hint).fast_path(fast_path).build().unwrap())
        }

        fn c(&self) -> GroupCells<'_> {
            self.0.cells(0)
        }

        fn reader_join(&self) -> Result<RawReader, HandleError> {
            reader_join_on(&self.c(), Identity::resolve().pid)
        }

        fn read_acquire(&self, rd: &mut RawReader) -> ReadOutcome {
            read_acquire_on(&self.c(), rd, &mut OpMetrics::default())
        }

        fn reader_leave(&self, rd: RawReader) {
            reader_leave_on(&self.c(), rd)
        }

        fn writer_claim(&self) -> Result<WriterMem, HandleError> {
            let c = self.c();
            writer_claim_on(&c, &Identity::resolve()).map(|last| WriterMem::new(last, c.n_slots()))
        }

        fn writer_release(&self, _wr: WriterMem) {
            writer_release_on(&self.c())
        }

        fn select_slot(&self, wr: &mut WriterMem) -> usize {
            select_slot_on(&self.c(), wr, &mut OpMetrics::default())
        }

        fn publish(&self, wr: &mut WriterMem, slot: usize) {
            publish_on(&self.c(), wr, slot, &mut OpMetrics::default())
        }

        fn current_index(&self) -> usize {
            current_index_on(&self.c())
        }

        fn current_counter(&self) -> u32 {
            counter_of(self.c().current_word().load(Ordering::Acquire))
        }

        fn outstanding_units(&self) -> u64 {
            outstanding_units_on(&self.c())
        }

        fn published_version(&self) -> u64 {
            self.0.published_version(0)
        }
    }

    fn raw(n: u32) -> K1 {
        K1::with(n, true, true)
    }

    #[test]
    fn init_matches_algorithm_1() {
        let r = raw(4);
        assert_eq!(r.c().n_slots(), 6);
        assert_eq!(r.current_index(), 0);
        assert_eq!(r.current_counter(), 0);
    }

    #[test]
    fn rejects_too_few_slots() {
        let err = ArcGroup::builder(1, 1, 8).slots(2).build().unwrap_err();
        assert_eq!(err, BuildError::Config(ConfigError::TooFewSlots { n_slots: 2 }));
        assert!(err.to_string().contains("at least 3 slots"));
    }

    #[test]
    fn rejects_zero_readers() {
        let err = ArcGroup::builder(1, 0, 8).slots(3).build().unwrap_err();
        assert_eq!(err, BuildError::ZeroReaders);
        assert!(err.to_string().contains("at least one reader"));
    }

    #[test]
    fn first_read_acquires_current_slot() {
        let r = raw(2);
        let mut rd = r.reader_join().unwrap();
        let out = r.read_acquire(&mut rd);
        assert_eq!(out, ReadOutcome { slot: 0, fast: false, version: 0 });
        assert_eq!(r.current_counter(), 1, "one anonymous unit registered");
        r.reader_leave(rd);
    }

    #[test]
    fn repeat_read_takes_fast_path() {
        let r = raw(2);
        let mut rd = r.reader_join().unwrap();
        let _ = r.read_acquire(&mut rd);
        let out = r.read_acquire(&mut rd);
        assert!(out.fast, "unchanged publication must hit R2");
        assert_eq!(r.current_counter(), 1, "fast path must not add units");
        r.reader_leave(rd);
    }

    #[test]
    fn fast_path_disabled_forces_rmw() {
        let r = K1::with(2, true, false);
        let mut rd = r.reader_join().unwrap();
        let a = r.read_acquire(&mut rd);
        let b = r.read_acquire(&mut rd);
        assert!(!a.fast && !b.fast);
        // Each slow read re-registers: the counter accumulates one unit per
        // acquisition; releases accrue in r_end (reconciled at freeze), so
        // two RMW reads leave counter = 2, r_end[0] = 1, net 1 outstanding.
        assert_eq!(r.current_counter(), 2);
        assert_eq!(r.outstanding_units(), 1);
        r.reader_leave(rd);
    }

    #[test]
    fn write_moves_readers_to_new_slot() {
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        assert_eq!(r.read_acquire(&mut rd).slot, 0);

        let s = r.select_slot(&mut w);
        assert_ne!(s, 0, "W1 must avoid the current slot");
        r.publish(&mut w, s);
        assert_eq!(r.current_index(), s);

        let out = r.read_acquire(&mut rd);
        assert_eq!(out.slot, s);
        assert!(!out.fast);
        r.reader_leave(rd);
        r.writer_release(w);
    }

    #[test]
    fn freeze_accounts_for_standing_reader() {
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        let _ = r.read_acquire(&mut rd); // unit on slot 0

        let s = r.select_slot(&mut w);
        r.publish(&mut w, s);
        // Slot 0 was superseded with one standing reader: frozen r_start = 1.
        assert_eq!(r.c().r_start(0).load(Ordering::SeqCst), 1);
        assert_eq!(r.c().r_end(0).load(Ordering::SeqCst), 0);

        // Reader switches away: releases slot 0.
        let _ = r.read_acquire(&mut rd);
        assert_eq!(r.c().r_end(0).load(Ordering::SeqCst), 1);
        r.reader_leave(rd);
        r.writer_release(w);
    }

    #[test]
    fn pinned_slot_is_never_selected() {
        // One reader camping on an old snapshot must keep its slot out of
        // rotation for arbitrarily many writes.
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        let pinned = r.read_acquire(&mut rd).slot;
        for _ in 0..100 {
            let s = r.select_slot(&mut w);
            assert_ne!(s, pinned, "writer selected a slot with a standing reader");
            r.publish(&mut w, s);
        }
        r.reader_leave(rd);
        r.writer_release(w);
    }

    #[test]
    fn camping_reader_slot_is_reclaimed_after_release() {
        let r = raw(1); // 3 slots
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        let pinned = r.read_acquire(&mut rd).slot;
        assert_eq!(pinned, 0);
        // With 3 slots, one pinned and one current, the writer must cycle
        // the single remaining slot.
        for _ in 0..10 {
            let s = r.select_slot(&mut w);
            assert_ne!(s, 0);
            r.publish(&mut w, s);
        }
        // Reader moves on: slot 0 becomes reusable.
        let _ = r.read_acquire(&mut rd);
        let mut seen0 = false;
        for _ in 0..4 {
            let s = r.select_slot(&mut w);
            seen0 |= s == 0;
            r.publish(&mut w, s);
        }
        assert!(seen0, "released slot must re-enter rotation");
        r.reader_leave(rd);
        r.writer_release(w);
    }

    #[test]
    fn writer_is_unique() {
        let r = raw(1);
        let w = r.writer_claim().unwrap();
        assert_eq!(r.writer_claim().unwrap_err(), HandleError::WriterAlreadyClaimed);
        r.writer_release(w);
        let w2 = r.writer_claim().unwrap();
        r.writer_release(w2);
    }

    #[test]
    fn reclaimed_writer_knows_current_slot() {
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let s = r.select_slot(&mut w);
        r.publish(&mut w, s);
        r.writer_release(w);
        let w2 = r.writer_claim().unwrap();
        assert_eq!(w2.last_slot(), s);
        r.writer_release(w2);
    }

    #[test]
    fn reader_cap_enforced() {
        let r = raw(2);
        let a = r.reader_join().unwrap();
        let b = r.reader_join().unwrap();
        assert_eq!(r.reader_join().unwrap_err(), HandleError::ReadersExhausted { max_readers: 2 });
        r.reader_leave(a);
        let c = r.reader_join().unwrap();
        r.reader_leave(b);
        r.reader_leave(c);
        assert_eq!(r.0.live_readers(0), 0);
    }

    #[test]
    fn leave_releases_outstanding_unit() {
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        let _ = r.read_acquire(&mut rd); // unit on slot 0
        r.reader_leave(rd);
        // After leave + one write, slot 0 must be free again.
        let s = r.select_slot(&mut w);
        r.publish(&mut w, s); // freezes slot 0 with count 1; r_end already 1
        assert!(slot_free_on(&r.c(), 0), "dropped reader's unit must be released");
        r.writer_release(w);
    }

    #[test]
    fn unread_generations_recycle_immediately() {
        // A written slot never observed by any reader has r_start == r_end
        // == 0 after freeze: immediately free (paper §3.3, last paragraph).
        let r = raw(4);
        let mut w = r.writer_claim().unwrap();
        for _ in 0..50 {
            let s = r.select_slot(&mut w);
            r.publish(&mut w, s);
        }
        r.writer_release(w);
    }

    #[test]
    fn outstanding_units_track_live_pinned_readers() {
        let r = raw(3);
        let mut rds: Vec<_> = (0..3).map(|_| r.reader_join().unwrap()).collect();
        for rd in rds.iter_mut() {
            let _ = r.read_acquire(rd);
        }
        assert_eq!(r.outstanding_units(), 3);
        for rd in rds.drain(..) {
            r.reader_leave(rd);
        }
        // All units released; none outstanding (they sit in r_end of slot 0
        // which is current — the diagnostic subtracts them).
        assert_eq!(r.outstanding_units(), 0);
    }

    #[test]
    fn hint_is_posted_and_consumed() {
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        let _ = r.read_acquire(&mut rd); // pin slot 0
        let s1 = r.select_slot(&mut w);
        r.publish(&mut w, s1); // slot 0 frozen with 1 standing unit
        let _ = r.read_acquire(&mut rd); // release slot 0 -> posts hint(0)
        assert_eq!(r.c().hint_word().load(Ordering::SeqCst), 0);
        let s2 = r.select_slot(&mut w);
        assert_eq!(s2, 0, "writer must consume the reader-posted hint");
        assert_eq!(r.c().hint_word().load(Ordering::SeqCst), NO_HINT, "hint consumed");
        r.reader_leave(rd);
        r.writer_release(w);
    }

    #[test]
    fn stale_hint_is_revalidated() {
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        // Manually post a bogus hint at the current slot; select_slot must
        // reject it (hint == last_slot).
        r.c().hint_word().store(0, Ordering::SeqCst);
        let s = r.select_slot(&mut w);
        assert_ne!(s, 0);
        r.publish(&mut w, s);
        r.writer_release(w);
    }

    #[test]
    fn hint_disabled_still_finds_slots() {
        let r = K1::with(2, false, true);
        let mut w = r.writer_claim().unwrap();
        for _ in 0..20 {
            let s = r.select_slot(&mut w);
            r.publish(&mut w, s);
        }
        assert_eq!(r.c().hint_word().load(Ordering::SeqCst), NO_HINT, "no hints when disabled");
        r.writer_release(w);
    }

    #[test]
    fn churn_guard_refuses_joins_at_budget() {
        // The per-generation churn budget protects the 32-bit presence
        // counter from carrying into the index field. Simulate a pathological
        // generation by pre-loading the join counter to the budget.
        let r = raw(4);
        let budget = MAX_READERS - r.c().max_readers();
        r.c().gen_joins_word().store(budget, Ordering::SeqCst);
        assert_eq!(r.reader_join().unwrap_err(), HandleError::ChurnExhausted);
        // A write opens a fresh generation and resets the budget.
        let mut w = r.writer_claim().unwrap();
        let s = r.select_slot(&mut w);
        r.publish(&mut w, s);
        let rd = r.reader_join().expect("budget reset by the write");
        r.reader_leave(rd);
        r.writer_release(w);
    }

    #[test]
    fn candidate_cache_serves_steady_state_without_scanning() {
        // With no readers, every freeze reclaims the superseded slot into
        // the writer-local cache; after warm-up, every W1 pops from it.
        let r = raw(4);
        let mut w = r.writer_claim().unwrap();
        for _ in 0..100 {
            let s = r.select_slot(&mut w);
            r.publish(&mut w, s);
        }
        let cached = w.cand.iter().filter(|&&c| c != NO_CAND).count();
        assert!(cached >= 1, "steady state must keep the cache fed");
        r.writer_release(w);
    }

    #[test]
    fn cached_candidates_are_revalidated() {
        // A slot queued in the cache that has standing readers by pop time
        // must be rejected by the validation, never selected.
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        // Write once so slot 0 (never read) is reclaimed into the cache.
        let s1 = r.select_slot(&mut w);
        r.publish(&mut w, s1);
        // A reader now pins the *current* slot s1; slot 0 sits in the cache.
        let pinned = r.read_acquire(&mut rd).slot;
        assert_eq!(pinned, s1);
        // Next write: the cache proposes slot 0 (free — fine). Publish moves
        // current there; s1 is frozen with one standing unit and is NOT
        // reclaimed. Subsequent selections must never return s1.
        for _ in 0..20 {
            let s = r.select_slot(&mut w);
            assert_ne!(s, pinned, "cached candidate with standing reader selected");
            r.publish(&mut w, s);
        }
        r.reader_leave(rd);
        r.writer_release(w);
    }

    #[test]
    fn candidate_cache_is_a_two_deep_fifo() {
        let mut m = WriterMem::new(0, 4);
        assert_eq!(m.pop_candidate(), None);
        m.push_candidate(1, false);
        m.push_candidate(2, true);
        m.push_candidate(3, false); // dropped: the cache is two deep
        assert_eq!(m.pop_candidate(), Some((1, false)));
        m.push_candidate(4, false);
        assert_eq!(m.pop_candidate(), Some((2, true)));
        assert_eq!(m.pop_candidate(), Some((4, false)));
        assert_eq!(m.pop_candidate(), None);
    }

    #[test]
    fn versions_count_publications_and_reads_observe_them() {
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        assert_eq!(r.published_version(), 0);
        assert_eq!(r.read_acquire(&mut rd).version, 0, "initial value is version 0");
        for i in 1..=50u64 {
            let s = r.select_slot(&mut w);
            r.publish(&mut w, s);
            assert_eq!(r.published_version(), i);
            let out = r.read_acquire(&mut rd);
            assert_eq!(out.version, i, "read must observe publication {i}");
        }
        // Fast path repeats report the same (cached) version.
        let out = r.read_acquire(&mut rd);
        assert!(out.fast);
        assert_eq!(out.version, 50);
        r.reader_leave(rd);
        r.writer_release(w);
    }

    #[test]
    fn version_survives_writer_reclaim() {
        // The recycled-writer hazard, for versions: a re-claimed writer
        // must continue the version sequence, never restart it.
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        for _ in 0..7 {
            let s = r.select_slot(&mut w);
            r.publish(&mut w, s);
        }
        r.writer_release(w);
        let mut w2 = r.writer_claim().unwrap();
        let s = r.select_slot(&mut w2);
        r.publish(&mut w2, s);
        assert_eq!(r.published_version(), 8, "version regressed across writer reclaim");
        r.writer_release(w2);
    }

    #[test]
    fn wait_for_version_returns_immediately_when_already_newer() {
        let r = raw(1);
        let mut w = r.writer_claim().unwrap();
        let s = r.select_slot(&mut w);
        r.publish(&mut w, s);
        assert_eq!(wait_for_version_on(&r.c(), 0), 1);
        r.writer_release(w);
    }

    #[test]
    fn wait_for_version_timeout_elapses_quietly() {
        let r = raw(1);
        assert_eq!(
            wait_for_version_timeout_on(&r.c(), 0, std::time::Duration::from_millis(5)),
            None,
            "no publication, so the wait must time out"
        );
    }

    #[test]
    fn waiter_is_woken_by_publish() {
        let r = raw(2);
        let waiter = {
            let g = Arc::clone(&r.0);
            std::thread::spawn(move || wait_for_version_on(&g.cells(0), 0))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut w = r.writer_claim().unwrap();
        let s = r.select_slot(&mut w);
        r.publish(&mut w, s);
        assert_eq!(waiter.join().unwrap(), 1, "parked watcher must wake on W2");
        r.writer_release(w);
    }

    #[test]
    fn interleaved_read_write_storm_single_thread() {
        // Deterministic interleaving mimicking the paper's Figure-1 loop:
        // every publication must move the reader exactly once, and slot
        // accounting must stay exact.
        let r = raw(2);
        let mut w = r.writer_claim().unwrap();
        let mut rd = r.reader_join().unwrap();
        let mut last_slot_seen = r.read_acquire(&mut rd).slot;
        for i in 0..1000 {
            let s = r.select_slot(&mut w);
            r.publish(&mut w, s);
            let out = r.read_acquire(&mut rd);
            assert_eq!(out.slot, s, "iteration {i}");
            assert!(!out.fast);
            assert_ne!(out.slot, last_slot_seen);
            last_slot_seen = out.slot;
            // Exactly one unit outstanding (this reader's).
            assert_eq!(r.outstanding_units(), 1);
        }
        r.reader_leave(rd);
        r.writer_release(w);
    }
}
