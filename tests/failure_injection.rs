//! Failure injection: correctness must survive hostile scheduling.
//!
//! Four interference regimes, each with full payload verification:
//!
//! 1. **CPU steal** — stealer threads burn cores in bursts (the Figure-2
//!    regime);
//! 2. **oversubscription** — 4× more workers than cores (the Figure-3
//!    regime, miniature);
//! 3. **random reader pauses** — readers sleep at random points *between*
//!    pin and release, maximizing the time slots stay pinned;
//! 4. **a `SIGSTOP`'d writer process** (Linux) — the paper's preempted
//!    lock-holder made literal: the writer is suspended *mid-publication*
//!    while readers keep going and the §3.10 watchdog must flag the stall
//!    without ever mistaking it (or a slow-but-progressing writer) for
//!    death.
//!
//! Each regime runs against the single-register families *and* (the
//! regimes that stress pinning) against a many-register [`ArcGroup`]
//! plane, where all registers' ledgers live in one relocatable mapping —
//! the layout the crash-recovery harness shares across processes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use arc_register::{ArcFamily, ArcGroup, SlabBackend};
use baseline_registers::{PetersonFamily, RfFamily};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use register_common::payload::{stamp, verify};
use register_common::{ReadHandle, RegisterFamily, RegisterSpec, WriteHandle};
use workload_harness::{StealConfig, StealInjector};

fn verified_run<F: RegisterFamily>(
    readers: usize,
    size: usize,
    window: Duration,
    steal: Option<StealConfig>,
    reader_pause: Option<Duration>,
    seed: u64,
) {
    let mut initial = vec![0u8; size];
    stamp(&mut initial, 0);
    let (mut writer, reader_handles) =
        F::build(RegisterSpec::new(readers, size), &initial).unwrap();
    let injector = steal.map(StealInjector::start);

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(readers + 2));
    let mut handles = Vec::new();

    for (i, mut reader) in reader_handles.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(i as u64));
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut last = 0u64;
            let mut reads = 0u64;
            // One read before honoring `stop`, so the progress assertion
            // below holds however late this thread is first scheduled.
            loop {
                let seq = reader.read_with(|v| {
                    verify(v).unwrap_or_else(|e| panic!("{}: torn under injection: {e}", F::NAME))
                });
                assert!(seq >= last, "{}: regression {last} -> {seq}", F::NAME);
                last = seq;
                reads += 1;
                if let Some(pause) = reader_pause {
                    if rng.random_range(0..100u32) == 0 {
                        // Sleep while still pinning the snapshot's slot.
                        std::thread::sleep(pause);
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            reads
        }));
    }
    {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut buf = vec![0u8; size];
            barrier.wait();
            let mut seq = 0u64;
            loop {
                seq += 1;
                stamp(&mut buf, seq);
                writer.write(&buf);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            seq
        }));
    }

    barrier.wait();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let counts: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    if let Some(inj) = injector {
        inj.stop();
    }
    assert!(counts.iter().all(|&c| c > 0), "{}: a worker made no progress", F::NAME);
}

/// The same verified regime against the shared-slab plane: one batch
/// writer cycling all K registers of an [`ArcGroup`], `readers_per_reg`
/// readers per register holding zero-copy guards (optionally napping while
/// pinned). Every payload is verified and every register's stamped
/// sequence must be monotone. Not expressible through `verified_run`'s
/// [`RegisterFamily`] bound — the group is a table, and the point here is
/// exercising the *shared slab* (on Linux, the same memfd backend the
/// cross-process harness uses).
fn verified_group_run(
    registers: usize,
    readers_per_reg: usize,
    size: usize,
    window: Duration,
    steal: Option<StealConfig>,
    reader_pause: Option<Duration>,
    seed: u64,
) {
    let mut initial = vec![0u8; size];
    stamp(&mut initial, 0);
    let backend = if cfg!(target_os = "linux") { SlabBackend::Shm } else { SlabBackend::Heap };
    let group = ArcGroup::builder(registers, readers_per_reg as u32 + 1, size)
        .backend(backend)
        .initial(&initial)
        .build()
        .expect("slab plane");
    let injector = steal.map(StealInjector::start);

    let n_readers = registers * readers_per_reg;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(n_readers + 2));
    let mut handles = Vec::new();

    for k in 0..registers {
        for i in 0..readers_per_reg {
            let mut reader = group.reader(k).expect("reader slot");
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add((k * 31 + i) as u64));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let mut last = 0u64;
                let mut reads = 0u64;
                // One read before honoring `stop` (see `verified_run`).
                loop {
                    let guard = reader.read_ref();
                    let seq = verify(guard.bytes())
                        .unwrap_or_else(|e| panic!("group[{k}]: torn under injection: {e}"));
                    assert!(seq >= last, "group[{k}]: regression {last} -> {seq}");
                    last = seq;
                    reads += 1;
                    if let Some(pause) = reader_pause {
                        if rng.random_range(0..100u32) == 0 {
                            // Nap while the guard still pins its slot.
                            std::thread::sleep(pause);
                        }
                    }
                    drop(guard);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            }));
        }
    }
    {
        let mut writer = group.writer_set().expect("writer plane");
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut buf = vec![0u8; size];
            barrier.wait();
            let mut seq = 0u64;
            loop {
                seq += 1;
                stamp(&mut buf, seq);
                for k in 0..registers {
                    writer.write(k, &buf);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            seq
        }));
    }

    barrier.wait();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let counts: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    if let Some(inj) = injector {
        inj.stop();
    }
    assert!(counts.iter().all(|&c| c > 0), "group: a worker made no progress");
    // A clean run must leave nothing for recovery to find.
    assert!(!group.needs_recovery(), "healthy plane reports recovery state");
}

fn steal_cfg(seed: u64) -> StealConfig {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    StealConfig {
        stealers: cores,
        burst: Duration::from_millis(3),
        idle: Duration::from_millis(1),
        seed,
    }
}

const WINDOW: Duration = Duration::from_millis(300);

#[test]
fn arc_correct_under_cpu_steal() {
    verified_run::<ArcFamily>(6, 4 << 10, WINDOW, Some(steal_cfg(11)), None, 1);
}

#[test]
fn rf_correct_under_cpu_steal() {
    verified_run::<RfFamily>(6, 4 << 10, WINDOW, Some(steal_cfg(13)), None, 2);
}

#[test]
fn peterson_correct_under_cpu_steal() {
    verified_run::<PetersonFamily>(6, 4 << 10, WINDOW, Some(steal_cfg(17)), None, 3);
}

#[test]
fn arc_correct_oversubscribed() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    verified_run::<ArcFamily>(cores * 4, 1 << 10, WINDOW, None, None, 4);
}

#[test]
fn peterson_correct_oversubscribed() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    verified_run::<PetersonFamily>(cores * 4, 1 << 10, WINDOW, None, None, 5);
}

#[test]
fn arc_correct_with_sleeping_pinned_readers() {
    // Readers nap while holding snapshots: slots stay pinned across many
    // write generations; the writer must rotate correctly around them.
    verified_run::<ArcFamily>(4, 2 << 10, WINDOW, None, Some(Duration::from_millis(5)), 6);
}

#[test]
fn rf_correct_with_sleeping_pinned_readers() {
    verified_run::<RfFamily>(4, 2 << 10, WINDOW, None, Some(Duration::from_millis(5)), 7);
}

#[test]
fn group_slab_correct_with_sleeping_pinned_readers() {
    // Guards napping while pinned, on the shared slab: every register's
    // writer must rotate around standing pins that live in one mapping.
    verified_group_run(4, 2, 2 << 10, WINDOW, None, Some(Duration::from_millis(5)), 9);
}

#[test]
fn group_slab_correct_under_cpu_steal() {
    verified_group_run(4, 2, 1 << 10, WINDOW, Some(steal_cfg(23)), None, 10);
}

/// Regime 4: a real `SIGSTOP`'d writer process. The child publishes
/// verified stamped payloads, then suspends itself *inside* a fill (the
/// one moment a stall holds a protocol resource). The §3.10 watchdog must
/// flag `Stalled` — never `Dead`, never a recovery — readers must stay
/// wait-free and version-monotone straight through the suspension, and a
/// merely slow-but-progressing writer must never be flagged at all.
#[test]
#[cfg(target_os = "linux")]
fn group_slab_correct_with_sigstopped_writer() {
    use arc_register::{PlaneSupervisor, SupervisorConfig, SupervisorEvent};
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;
    use workload_harness::procs::{child_exit, fork_child, send_signal, wait_child, SIGCONT};

    const SIZE: usize = 1 << 10;
    /// The write whose fill the child suspends itself inside — late
    /// enough that the watchdog first observes a long healthy (and
    /// flag-free) progressing phase.
    const STALL_SEQ: u64 = 400;

    let mut initial = vec![0u8; SIZE];
    stamp(&mut initial, 0);
    let group = ArcGroup::builder(1, 4, SIZE)
        .backend(SlabBackend::Shm)
        .initial(&initial)
        .build()
        .expect("shm plane");

    // The writer child: paced stamped writes through the in-place fill
    // path (allocation-free after the claim), one self-SIGSTOP mid-fill.
    let gc = Arc::clone(&group);
    let pid = fork_child(move || {
        let mut w = match gc.writer(0) {
            Ok(w) => w,
            Err(_) => child_exit(101),
        };
        for seq in 1.. {
            w.write_with(SIZE, |buf| {
                stamp(buf, seq);
                if seq == STALL_SEQ {
                    // Suspend with the journal mid-publication: the
                    // exact regime the stall watchdog exists for.
                    let _ = send_signal(std::process::id(), workload_harness::procs::SIGSTOP);
                }
            });
            std::thread::sleep(Duration::from_micros(100));
        }
    })
    .expect("fork writer");

    let (sup, rx) = PlaneSupervisor::spawn_channel(
        Arc::clone(&group),
        SupervisorConfig {
            probe_interval: Duration::from_millis(2),
            stall_threshold: Duration::from_millis(30),
            ..SupervisorConfig::default()
        },
    );

    // Readers hammer the register with full verification throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let group = Arc::clone(&group);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                let mut r = group.reader(0).expect("reader");
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = r.read_ref();
                    let seq = verify(guard.bytes())
                        .unwrap_or_else(|e| panic!("torn under writer stall: {e}"));
                    assert!(seq >= last, "regression under writer stall: {last} -> {seq}");
                    last = seq;
                    drop(guard);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Any hint of "damage" is a watchdog false positive: the writer is
    // alive (if suspended) for this entire phase.
    let damage = |e: &SupervisorEvent| {
        matches!(
            e,
            SupervisorEvent::WriterDead { .. }
                | SupervisorEvent::RecoveryStarted { .. }
                | SupervisorEvent::RecoveryCompleted { .. }
                | SupervisorEvent::RecoveryLostArbitration
                | SupervisorEvent::RecoveryFailed { .. }
                | SupervisorEvent::RegisterQuarantined { .. }
                | SupervisorEvent::ScrubAnomaly { .. }
        )
    };

    // Phase 1+2: several hundred healthy writes (no events allowed),
    // then the mid-fill suspension, which the watchdog must flag.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "watchdog never flagged the suspended writer");
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(SupervisorEvent::WriterStalled { register: 0, pid: p, .. }) => {
                assert_eq!(p, pid as u64);
                break;
            }
            Ok(e) if damage(&e) => panic!("false positive on a live writer: {e:?}"),
            Ok(_) | Err(_) => {}
        }
    }

    // The writer is frozen mid-publication; readers must not be. Poll
    // until reads advance: a loaded machine may not schedule a reader
    // within any fixed sleep.
    let before = reads.load(Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(30);
    while reads.load(Ordering::Relaxed) == before {
        assert!(
            Instant::now() < deadline,
            "readers stopped making progress during the writer stall"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Resume; the watchdog must close the episode.
    send_signal(pid, SIGCONT).expect("SIGCONT");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "watchdog never reported the resume");
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(SupervisorEvent::WriterResumed { register: 0 }) => break,
            Ok(e) if damage(&e) => panic!("false positive after resume: {e:?}"),
            Ok(_) | Err(_) => {}
        }
    }
    // Let the resumed writer publish a while longer under observation.
    std::thread::sleep(Duration::from_millis(100));

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader survived the stall regime");
    }
    sup.stop();
    assert!(
        !rx.try_iter().any(|e| damage(&e)),
        "a live (stalled or slow) writer was treated as damage"
    );
    assert!(!group.needs_recovery(), "a stall left recovery state behind");
    assert!(reads.load(Ordering::Relaxed) > 0);

    // Teardown: the child loops forever by design; kill and repair.
    send_signal(pid, workload_harness::procs::SIGKILL).expect("SIGKILL");
    wait_child(pid).expect("waitpid");
    assert!(group.needs_recovery());
    let report = group.recover();
    assert_eq!(report.writers_recovered, 1, "{report:?}");
    assert!(!group.needs_recovery());
}

#[test]
fn arc_correct_under_combined_interference() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    verified_run::<ArcFamily>(
        cores * 2,
        8 << 10,
        WINDOW,
        Some(steal_cfg(19)),
        Some(Duration::from_millis(2)),
        8,
    );
}
