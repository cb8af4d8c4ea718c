//! Process-kill fault-injection harness for the crash-tolerant register
//! plane (DESIGN.md §3.9, EXPERIMENTS.md E13).
//!
//! Each test builds an [`ArcGroup`] on the shared-memory slab backend,
//! forks a child that attaches through the inherited `MAP_SHARED`
//! mapping, and kills it — for real, via `SIGABRT` — at a seeded point
//! of the publication protocol (`arc_register::crash`) or while holding
//! a read pin. The parent then asserts the full recovery story:
//!
//! * the corpse's lease/pin flags the plane (`needs_recovery`) and gates
//!   the writer role with [`HandleError::NeedsRecovery`];
//! * reads stay untorn and version-monotone while the plane is poisoned
//!   *and* across the repair;
//! * [`ArcGroup::recover`] classifies the interruption exactly (pre-W2
//!   discard / at-W2 adoption / post-W2 roll-forward / pin sweep);
//! * the recovered plane serves fresh writers, and a second mapping of
//!   the same slab observes the same healed state;
//! * a live forked child's lease carries the child's birth token, not
//!   the one its parent cached before the fork (lease v2, §3.10).
//!
//! Seeds (the number of successful writes before the fatal one, which
//! varies the victim slot and hint state) come from `ARC_CRASH_SEEDS`, a
//! comma-separated list; CI pins a fixed set.
//!
//! Linux-only: the scenarios need a slab that is *genuinely* shared
//! across `fork` (`SlabBackend::Shm`), and fork/waitpid themselves.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use arc_register::{crash, ArcGroup, CrashPoint, HandleError, RecoveryReport, SlabBackend};
use workload_harness::procs::{
    child_exit, fork_child, send_signal, wait_child, ChildExit, SIGKILL,
};

const CAP: usize = 64;
/// Registers in the plane; crashes target register 1 so the tests also
/// witness that untouched registers never need repair.
const K: usize = 3;
/// Stamp byte of the write the child dies inside.
const FATAL: u8 = 0xAB;

/// Forking from a threaded test runner: one crash scenario at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Warmup-write counts before the fatal write (`ARC_CRASH_SEEDS`
/// overrides; CI pins these defaults).
fn seeds() -> Vec<u8> {
    match std::env::var("ARC_CRASH_SEEDS") {
        Ok(s) => {
            let v: Vec<u8> = s.split(',').filter_map(|t| t.trim().parse().ok()).collect();
            assert!(!v.is_empty(), "ARC_CRASH_SEEDS set but unparseable: {s:?}");
            v
        }
        Err(_) => vec![1, 2, 4, 7],
    }
}

fn plane() -> Arc<ArcGroup> {
    ArcGroup::builder(K, 8, CAP)
        .backend(SlabBackend::Shm)
        .initial(&[0u8; CAP])
        .build()
        .expect("shm-backed plane")
}

/// Assert the payload is untorn (every byte from the same write) and
/// return its stamp byte.
fn untorn(bytes: &[u8], version: u64) -> u8 {
    assert_eq!(bytes.len(), CAP, "short read at version {version}");
    let stamp = bytes[0];
    assert!(bytes.iter().all(|&b| b == stamp), "torn read at version {version}: {bytes:?}");
    stamp
}

struct CrashOutcome {
    report: RecoveryReport,
    /// Stamp served immediately after recovery (before any new writer).
    recovered_stamp: u8,
}

/// The full writer-death story: fork a child writer that aborts at
/// `point` after `warmup` clean writes, then recover and check every
/// observable along the way. Returns the classification report and the
/// stamp the recovered register serves.
fn writer_crash(warmup: u8, point: CrashPoint) -> CrashOutcome {
    let g = plane();
    let mut reader = g.reader(1).expect("parent reader");
    let v0 = reader.read().version();

    let gc = Arc::clone(&g);
    let pid = fork_child(move || {
        let mut w = match gc.writer(1) {
            Ok(w) => w,
            Err(_) => child_exit(101),
        };
        for s in 1..=warmup {
            w.write(&[s; CAP]);
        }
        crash::arm(point);
        w.write(&[FATAL; CAP]);
        // Only reachable if the armed point failed to fire.
        child_exit(102);
    })
    .expect("fork");
    let exit = wait_child(pid).expect("waitpid");
    assert!(exit.aborted(), "child must die at {point:?}, got {exit:?}");

    // The corpse's lease flags the plane and gates the writer role; other
    // registers of the plane are untouched.
    assert!(g.needs_recovery(), "dead lease not detected ({point:?})");
    assert!(g.poisoned());
    assert!(matches!(g.writer(1), Err(HandleError::NeedsRecovery)));
    assert!(g.writer(0).is_ok(), "uninvolved register gated ({point:?})");

    // Reads stay wait-free, untorn, and monotone on the poisoned plane.
    let (v1, poisoned_stamp) = {
        let snap = reader.read();
        (snap.version(), untorn(snap.bytes(), snap.version()))
    };
    assert!(v1 >= v0, "version regressed across the crash: {v0} -> {v1}");
    // Whatever is served mid-poison must be a complete write: one of the
    // warmups, the initial value, or the fatal write in full.
    assert!(
        poisoned_stamp == FATAL || poisoned_stamp <= warmup,
        "unknown stamp {poisoned_stamp:#x} served while poisoned"
    );

    let report = g.recover();
    assert_eq!(report.writers_recovered, 1, "{point:?}: {report:?}");
    assert!(!g.needs_recovery());
    assert_eq!(g.epoch(), 1, "repair must bump the slab epoch");

    let (v2, recovered_stamp) = {
        let snap = reader.read();
        (snap.version(), untorn(snap.bytes(), snap.version()))
    };
    assert!(v2 >= v1, "version regressed across recovery: {v1} -> {v2}");

    // The writer role is reclaimable and the plane is fully live again.
    let mut w = g.writer(1).expect("writer claim after recovery");
    w.write(&[0xEE; CAP]);
    let snap = reader.read();
    assert!(snap.version() > v2, "fresh write must advance the version");
    assert_eq!(untorn(snap.bytes(), snap.version()), 0xEE);

    CrashOutcome { report, recovered_stamp }
}

#[test]
fn pre_w2_crash_discards_the_filled_slot() {
    let _s = serial();
    for warmup in seeds() {
        let out = writer_crash(warmup, CrashPoint::PreW2);
        let r = out.report;
        assert_eq!((r.pre_w2, r.at_w2, r.post_w2), (1, 0, 0), "{r:?}");
        // The interrupted write never published: the last clean write wins.
        assert_eq!(out.recovered_stamp, warmup, "seed {warmup}");
    }
}

#[test]
fn at_w2_crash_adopts_the_published_slot() {
    let _s = serial();
    for warmup in seeds() {
        let out = writer_crash(warmup, CrashPoint::AtW2);
        let r = out.report;
        assert_eq!((r.pre_w2, r.at_w2, r.post_w2), (0, 1, 0), "{r:?}");
        // The swap happened: the fatal write is adopted, in full.
        assert_eq!(out.recovered_stamp, FATAL, "seed {warmup}");
    }
}

#[test]
fn post_w2_crash_rolls_the_publication_forward() {
    let _s = serial();
    for warmup in seeds() {
        let out = writer_crash(warmup, CrashPoint::PostW2);
        let r = out.report;
        assert_eq!((r.pre_w2, r.at_w2, r.post_w2), (0, 0, 1), "{r:?}");
        assert_eq!(out.recovered_stamp, FATAL, "seed {warmup}");
    }
}

#[test]
fn mid_fill_crash_is_discarded_as_pre_w2() {
    let _s = serial();
    let g = plane();
    let gc = Arc::clone(&g);
    let pid = fork_child(move || {
        let mut w = match gc.writer(1) {
            Ok(w) => w,
            Err(_) => child_exit(101),
        };
        w.write(&[7; CAP]);
        // Die with the slot half-filled (journal stage: FILLING).
        w.write_with(CAP, |buf| {
            buf[..CAP / 2].fill(FATAL);
            std::process::abort();
        });
        child_exit(102);
    })
    .expect("fork");
    assert!(wait_child(pid).expect("waitpid").aborted());

    assert!(g.needs_recovery());
    let report = g.recover();
    assert_eq!(report.writers_recovered, 1);
    assert_eq!((report.pre_w2, report.at_w2, report.post_w2), (1, 0, 0));

    // The half-written slot was never published and is discarded whole:
    // no reader can ever see a FATAL byte.
    let mut r = g.reader(1).expect("reader");
    let snap = r.read();
    assert_eq!(untorn(snap.bytes(), snap.version()), 7);
}

#[test]
fn dead_reader_pin_is_swept() {
    let _s = serial();
    let g = plane();
    let mut w = g.writer(1).expect("writer");
    w.write(&[5; CAP]);

    let gc = Arc::clone(&g);
    let pid = fork_child(move || {
        let mut r = match gc.reader(1) {
            Ok(r) => r,
            Err(_) => child_exit(101),
        };
        let guard = r.read_ref();
        // Die while pinning: the guard's release never runs.
        if guard.bytes().len() == CAP {
            std::process::abort();
        }
        child_exit(103);
    })
    .expect("fork");
    assert!(wait_child(pid).expect("waitpid").aborted());

    let live_before = g.live_readers(1);
    assert!(g.needs_recovery(), "orphaned pin not detected");
    let report = g.recover();
    assert_eq!(report.pins_swept, 1, "{report:?}");
    assert_eq!(report.units_released, 1, "{report:?}");
    assert_eq!(report.writers_recovered, 0, "{report:?}");
    assert_eq!(g.live_readers(1), live_before - 1);
    assert!(!g.needs_recovery());

    // The swept slot is genuinely free again: the writer can cycle
    // through every slot without exhausting the pool (W1 would panic on
    // a slot leak long before this loop ends).
    for s in 0..(2 * g.n_slots() as u8) {
        w.write(&[s; CAP]);
    }
}

#[test]
fn recovery_heals_every_mapping_of_the_slab() {
    let _s = serial();
    let g = plane();
    let gc = Arc::clone(&g);
    let pid = fork_child(move || {
        let mut w = match gc.writer(1) {
            Ok(w) => w,
            Err(_) => child_exit(101),
        };
        w.write(&[3; CAP]);
        crash::arm(CrashPoint::PostW2);
        w.write(&[FATAL; CAP]);
        child_exit(102);
    })
    .expect("fork");
    assert!(wait_child(pid).expect("waitpid").aborted());

    // A second, independently-validated mapping of the same slab sees
    // the poisoned state...
    let g2 = ArcGroup::attach_fd(g.memfd().expect("shm plane has a memfd")).expect("attach");
    assert!(g2.needs_recovery());

    // ...and recovery through EITHER mapping heals both.
    let report = g2.recover();
    assert_eq!(report.post_w2, 1, "{report:?}");
    assert!(!g.needs_recovery());
    assert_eq!((g.epoch(), g2.epoch()), (1, 1));

    let mut r1 = g.reader(1).expect("reader on original mapping");
    let mut r2 = g2.reader(1).expect("reader on second mapping");
    let s1 = r1.read();
    assert_eq!(untorn(s1.bytes(), s1.version()), FATAL);
    let s2 = r2.read();
    assert_eq!(untorn(s2.bytes(), s2.version()), FATAL);

    // Writes through the original mapping land in the second.
    let mut w = g.writer(1).expect("writer after recovery");
    w.write(&[0x5A; CAP]);
    let s2 = r2.read();
    assert_eq!(untorn(s2.bytes(), s2.version()), 0x5A);
}

#[test]
fn concurrent_recover_from_two_processes_repairs_exactly_once() {
    let _s = serial();
    let g = plane();

    // Leave a corpse: a writer child dies post-W2 on register 1.
    let gc = Arc::clone(&g);
    let pid = fork_child(move || {
        let mut w = match gc.writer(1) {
            Ok(w) => w,
            Err(_) => child_exit(101),
        };
        w.write(&[3; CAP]);
        crash::arm(CrashPoint::PostW2);
        w.write(&[FATAL; CAP]);
        child_exit(102);
    })
    .expect("fork");
    assert!(wait_child(pid).expect("waitpid").aborted());
    assert!(g.needs_recovery());

    // Two racing attachers: each parks on a GO flag (the first byte of
    // healthy register 0, polled through the zero-copy guard so the spin
    // is allocation-free), then calls `recover()` the instant the parent
    // raises it — exercising the superblock's CAS-claimed arbitration
    // token across real process boundaries. Exit codes encode what each
    // observed.
    const GO: u8 = 0x60;
    let spawn_recoverer = |g: &Arc<ArcGroup>| {
        let gc = Arc::clone(g);
        fork_child(move || {
            let mut r = match gc.reader(0) {
                Ok(r) => r,
                Err(_) => child_exit(101),
            };
            loop {
                let raised = r.read_ref().bytes().first() == Some(&GO);
                if raised {
                    break;
                }
                std::hint::spin_loop();
            }
            // `child_exit` skips destructors: retire the reader handle by
            // hand or its registry entry would itself poison the plane.
            drop(r);
            let report = gc.recover();
            if report.lost_arbitration {
                child_exit(20); // waited out the winner, repaired nothing
            }
            if report.writers_recovered == 1 {
                child_exit(10); // won the token and did the repair
            }
            child_exit(30); // won the token after the repair: nothing left
        })
        .expect("fork recoverer")
    };
    let pid_a = spawn_recoverer(&g);
    let pid_b = spawn_recoverer(&g);
    g.writer(0).expect("healthy register 0").write(&[GO; CAP]);

    let mut codes = [wait_child(pid_a).expect("waitpid"), wait_child(pid_b).expect("waitpid")].map(
        |e| match e {
            ChildExit::Exited(c) => c,
            other => panic!("recoverer died: {other:?}"),
        },
    );
    codes.sort_unstable();
    assert_eq!(codes[0], 10, "exactly one process must repair: {codes:?}");
    assert!(codes[1] == 20 || codes[1] == 30, "the other must stand aside: {codes:?}");

    // One repair, not two: the epoch moved exactly once and the plane is
    // fully healed through the parent's mapping as well.
    assert_eq!(g.epoch(), 1);
    assert!(!g.needs_recovery());
    let mut r = g.reader(1).expect("reader after arbitrated recovery");
    let snap = r.read();
    assert_eq!(untorn(snap.bytes(), snap.version()), FATAL);
    let mut w = g.writer(1).expect("writer claim after arbitrated recovery");
    w.write(&[0x77; CAP]);
}

/// A watcher in another process, on its own mapping of the slab, parks on
/// the register's version word and wakes on a publication made through
/// this process's mapping.
#[test]
fn watcher_in_another_process_wakes_on_publish() {
    let _s = serial();
    let g = plane();
    let gc = Arc::clone(&g);
    let pid = fork_child(move || {
        let Ok(g2) = ArcGroup::attach_fd(gc.memfd().expect("shm plane has a memfd")) else {
            child_exit(101);
        };
        let Ok(mut w) = g2.writer(1) else {
            child_exit(102);
        };
        // The marker: this process is about to park on register 0.
        w.write(&[1; CAP]);
        drop(w);
        let start = Instant::now();
        let woke = g2.wait_for_update_timeout(0, 0, Duration::from_secs(10));
        if start.elapsed() >= Duration::from_secs(5) {
            child_exit(1); // slept through the publication
        }
        match woke {
            Some(v) if v >= 1 => child_exit(0),
            _ => child_exit(2),
        }
    })
    .expect("fork");
    let deadline = Instant::now() + Duration::from_secs(10);
    while g.published_version(1) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the child reach its park before the publication it waits for.
    std::thread::sleep(Duration::from_millis(50));
    g.writer(0).expect("writer on register 0").write(&[2; CAP]);
    let exit = wait_child(pid).expect("waitpid");
    assert_eq!(
        exit,
        ChildExit::Exited(0),
        "the watcher in the child must wake on the parent's publication (1 = slept through it)"
    );
}

#[test]
fn cleanly_exiting_child_needs_no_recovery() {
    let _s = serial();
    let g = plane();
    let gc = Arc::clone(&g);
    let pid = fork_child(move || {
        let mut w = match gc.writer(1) {
            Ok(w) => w,
            Err(_) => child_exit(101),
        };
        w.write(&[9; CAP]);
        // Handles drop normally: lease and claim are released.
    })
    .expect("fork");
    let exit = wait_child(pid).expect("waitpid");
    assert!(!exit.aborted(), "clean child must not abort: {exit:?}");

    assert!(!g.needs_recovery(), "clean exit left recovery state behind");
    let mut w = g.writer(1).expect("role free after clean exit");
    let mut r = g.reader(1).expect("reader");
    let snap = r.read();
    assert_eq!(untorn(snap.bytes(), snap.version()), 9);
    w.write(&[10; CAP]);
}

/// Birth token of `pid` as the kernel reports it: field 22 of
/// `/proc/<pid>/stat`, in clock ticks since boot.
fn birth_of(pid: &str) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    rest.split_ascii_whitespace().nth(19).and_then(|t| t.parse().ok()).expect("starttime")
}

#[test]
fn live_forked_child_lease_carries_the_childs_birth() {
    let _s = serial();
    let g = plane();
    // Claiming warms this process's identity word: the child must not
    // lease with it (the kernel wipes the identity page at fork).
    let _parent_writer = g.writer(0).expect("parent writer");
    let mut reader = g.reader(1).expect("parent reader");
    // Births tick at 100 Hz: forking two ticks after this process started
    // guarantees the child's birth differs from the parent's, so a child
    // that reused the parent's cached birth would be caught.
    std::thread::sleep(Duration::from_millis(20));

    const MARK: u8 = 0x3C;
    let gc = Arc::clone(&g);
    let pid = fork_child(move || {
        let mut w = match gc.writer(1) {
            Ok(w) => w,
            Err(_) => child_exit(101),
        };
        w.write(&[MARK; CAP]);
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    })
    .expect("fork");
    let deadline = Instant::now() + Duration::from_secs(30);
    let published = loop {
        if reader.read().bytes().first() == Some(&MARK) {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    // Observed while the child lives, asserted once it is reaped, so a
    // failure leaves no process behind.
    let births = (birth_of("self"), birth_of(&pid.to_string()));
    let probe = g.writer_probe(1);
    let live_child_looks_dead = g.needs_recovery() || probe.lease_dead;
    let _ = send_signal(pid, SIGKILL);
    assert_eq!(wait_child(pid).expect("waitpid"), ChildExit::Signaled(SIGKILL));
    assert!(published, "the child never published its marker");
    assert_ne!(births.0, births.1, "parent and child share a birth tick");
    assert_eq!(
        probe.lease,
        u64::from(pid),
        "a live forked child's lease names another pid: it must carry the child's identity"
    );
    assert!(
        !live_child_looks_dead,
        "a live forked child's lease reads as dead: it must carry the child's birth token"
    );

    assert!(g.needs_recovery(), "the killed child's lease must read as dead");
    assert_eq!(g.recover().writers_recovered, 1);
    assert!(!g.needs_recovery());
}
