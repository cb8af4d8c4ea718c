//! Exhaustive resource-fault sweeps over the slab setup/attach/placement
//! paths (the deterministic resource-fault injection plane, DESIGN.md
//! §3.13).
//!
//! Every fallible syscall/allocation behind `ArcGroup` creation and
//! attach is tagged with a [`FaultSite`]; these tests fail **every site
//! at every hit index** and assert the containment contract:
//!
//! * the failure surfaces as a *typed* error (`SlabError`/`BuildError`),
//!   never a panic or abort;
//! * no file descriptor or mapping leaks (`/proc/self/fd` delta is zero
//!   across the failing operation);
//! * the plane is never half-initialized — after any injected failure, a
//!   clean build/attach of the same geometry succeeds;
//! * transient errnos (`EINTR`) are absorbed by the unified
//!   [`RetryPolicy`] while permanent ones surface immediately.
//!
//! The seeded gauntlet replays the `ARC_FAULT_SEEDS` contract: each seed
//! deterministically derives `(site, skip, errno)` and the whole
//! create→use→attach→use pipeline must either succeed or fail typed,
//! with zero leaked fds either way.

use std::sync::Mutex;

use arc_register::faults::{self, FaultSite, ALL_SITES, EINTR, EIO};
use arc_register::{ArcGroup, BuildError, SlabError};

/// The fault registry is process-global: every test that arms it holds
/// this lock (mirrors the discipline of the crash-point harness).
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Open fds of this process. The iterator's own dirfd shows up in every
/// sample identically, so deltas are exact.
#[cfg(target_os = "linux")]
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count()
}

/// One clean shm build of the reference geometry, as the "plane is not
/// poisoned" probe after every injected failure.
#[cfg(target_os = "linux")]
fn clean_shm_build() -> std::sync::Arc<ArcGroup> {
    ArcGroup::builder(4, 2, 64)
        .backend(arc_register::SlabBackend::Shm)
        .initial(b"seed")
        .build()
        .expect("clean build after an injected failure must succeed")
}

/// Sweep the shm *create* path: fail `memfd_create`, `ftruncate`, `mmap`
/// and `fallocate` at every hit index the path has. Each injected failure
/// must be the matching typed `SlabError::Os`, leak nothing, and leave the
/// next clean build working.
#[cfg(target_os = "linux")]
#[test]
fn create_path_fails_typed_at_every_site_and_leaks_nothing() {
    let _g = lock();
    let sites = [
        (FaultSite::MemfdCreate, "memfd_create"),
        (FaultSite::Ftruncate, "ftruncate"),
        (FaultSite::Mmap, "mmap"),
        (FaultSite::Fallocate, "fallocate"),
    ];
    for (site, call) in sites {
        for skip in 0..4u32 {
            faults::arm(site, skip, EIO);
            let before = fd_count();
            let result =
                ArcGroup::builder(4, 2, 64).backend(arc_register::SlabBackend::Shm).build();
            let fired = !faults::armed();
            faults::disarm();
            if !fired {
                // This skip index walked past the last hit of the site on
                // this path — the sweep of this site is complete.
                assert!(result.is_ok(), "{site:?} skip {skip}: unfired schedule broke the build");
                drop(result);
                assert_eq!(fd_count(), before, "{site:?} skip {skip}: successful build leaked");
                break;
            }
            assert_eq!(fd_count(), before, "{site:?} skip {skip}: leaked fds");
            match result {
                Err(BuildError::Slab(SlabError::Os { call: c, errno })) => {
                    assert_eq!(c, call, "{site:?} skip {skip}: wrong call attribution");
                    assert_eq!(errno, EIO, "{site:?} skip {skip}: wrong errno");
                }
                other => panic!("{site:?} skip {skip}: expected typed Os error, got {other:?}"),
            }
            // Never half-initialized: the same geometry builds cleanly.
            drop(clean_shm_build());
        }
    }

    // A transient fallocate refusal is retried away; the policy's third
    // is surfaced.
    faults::arm_run(FaultSite::Fallocate, 0, 2, EINTR);
    let built = ArcGroup::builder(4, 2, 64).backend(arc_register::SlabBackend::Shm).build();
    faults::disarm();
    assert!(built.is_ok(), "two EINTRs must be retried away: {built:?}");
    let before = fd_count();
    faults::arm_run(FaultSite::Fallocate, 0, 3, EINTR);
    let built = ArcGroup::builder(4, 2, 64).backend(arc_register::SlabBackend::Shm).build();
    faults::disarm();
    assert!(
        matches!(built, Err(BuildError::Slab(SlabError::Os { call: "fallocate", errno })) if errno == EINTR),
        "exhausted transients must surface typed: {built:?}"
    );
    assert_eq!(fd_count(), before, "an exhausted fallocate retry leaked");
}

/// Sweep the *attach* path: fail `dup`, `fstat`, and `mmap` at every hit
/// index. The originator plane must stay fully usable after every
/// injected attach failure.
#[cfg(target_os = "linux")]
#[test]
fn attach_path_fails_typed_at_every_site_and_leaks_nothing() {
    let _g = lock();
    let group = clean_shm_build();
    let fd = group.memfd().expect("shm group has a memfd");
    let sites = [(FaultSite::DupFd, "dup"), (FaultSite::Fstat, "fstat"), (FaultSite::Mmap, "mmap")];
    for (site, call) in sites {
        for skip in 0..4u32 {
            faults::arm(site, skip, EIO);
            let before = fd_count();
            let result = ArcGroup::attach_fd(fd);
            let fired = !faults::armed();
            faults::disarm();
            if fired {
                match result {
                    Err(SlabError::Os { call: c, errno }) => {
                        assert_eq!(c, call, "{site:?} skip {skip}");
                        assert_eq!(errno, EIO, "{site:?} skip {skip}");
                    }
                    other => {
                        panic!("{site:?} skip {skip}: expected typed Os error, got {other:?}")
                    }
                }
                assert_eq!(fd_count(), before, "{site:?} skip {skip}: leaked fds");
            } else {
                drop(result);
                assert_eq!(fd_count(), before, "{site:?} skip {skip}: successful attach leaked");
                break;
            }
            // The plane is untouched by a failed attach: a clean attach
            // works and reads the initial value.
            let attached = ArcGroup::attach_fd(fd).expect("clean attach after injected failure");
            let mut r = attached.reader(0).unwrap();
            assert_eq!(&*r.read(), b"seed");
        }
    }
}

/// Placement sites degrade honestly instead of erroring: an injected
/// `mbind` refusal records first-touch, an injected `madvise` refusal
/// skips the advice, an injected *hugetlb* `memfd_create` failure
/// deterministically exercises the THP fallback chain, a huge-page
/// build never calls `fallocate`, and refused populates leave every page
/// to first touch.
#[cfg(target_os = "linux")]
#[test]
fn placement_sites_degrade_honestly_never_error() {
    use arc_register::{NodePolicy, PageMode, PagePolicy, SlabPlacement};
    let _g = lock();

    // Injected mbind refusal → effective policy is FirstTouch, build Ok.
    faults::arm(FaultSite::Mbind, 0, EIO);
    let group = ArcGroup::builder(2, 1, 64)
        .backend(arc_register::SlabBackend::Shm)
        .placement(SlabPlacement { pages: PagePolicy::Base, nodes: NodePolicy::Bind(0) })
        .build()
        .expect("mbind refusal must not fail the build");
    faults::disarm();
    assert_eq!(group.placement().nodes, NodePolicy::FirstTouch);
    drop(group);

    // Injected hugetlb memfd failure → the THP fallback path runs (the
    // second, base-page memfd succeeds once the one-shot plan consumed).
    faults::arm(FaultSite::MemfdCreate, 0, EIO);
    let group = ArcGroup::builder(2, 1, 64)
        .backend(arc_register::SlabBackend::Shm)
        .placement(SlabPlacement { pages: PagePolicy::Huge, nodes: NodePolicy::FirstTouch })
        .build()
        .expect("hugetlb refusal must fall back, not fail");
    assert!(!faults::armed(), "the hugetlb attempt must have consumed the schedule");
    faults::disarm();
    assert_eq!(group.placement().pages, PageMode::ThpAdvised);
    assert_eq!(group.placement().quantum, 2 << 20, "huge quantum survives the fallback");
    drop(group);

    // Injected madvise refusal on that same fallback → still Ok.
    faults::arm(FaultSite::Madvise, 0, EIO);
    let group = ArcGroup::builder(2, 1, 64)
        .backend(arc_register::SlabBackend::Shm)
        .placement(SlabPlacement { pages: PagePolicy::Huge, nodes: NodePolicy::FirstTouch })
        .build()
        .expect("madvise refusal must not fail the build");
    faults::disarm();
    drop(group);

    // Huge pages only populate: `fallocate` would ignore the THP advice
    // and a hugetlb mapping's node policy, so an armed refusal of it is
    // never reached, whichever of the two the build gets.
    faults::arm(FaultSite::Fallocate, 0, EIO);
    let group = ArcGroup::builder(2, 1, 64)
        .backend(arc_register::SlabBackend::Shm)
        .placement(SlabPlacement { pages: PagePolicy::Huge, nodes: NodePolicy::FirstTouch })
        .build()
        .expect("a huge-page build must not call fallocate");
    assert!(faults::armed(), "a huge-page build called fallocate");
    faults::disarm();
    drop(group);

    // Every populate refused (the build's, and the two of the attached
    // mapping's first set) → build, attach and both sets still work and
    // read the initial value.
    faults::arm_run(FaultSite::Populate, 0, 3, EIO);
    let group = clean_shm_build();
    let attached = ArcGroup::attach_fd(group.memfd().unwrap()).expect("attach");
    let writers = attached.writer_set().expect("writer set");
    let mut readers = attached.reader_set().expect("reader set");
    let mut creator = group.reader_set().expect("the creator's reader set");
    assert!(!faults::armed(), "a populate was skipped, not refused");
    faults::disarm();
    for k in 0..group.registers() {
        assert_eq!(&*readers.read(k), b"seed");
        assert_eq!(&*creator.read(k), b"seed");
    }
    drop((writers, readers, creator, attached, group));
}

/// A refused identity page (its `mmap`, or its `MADV_WIPEONFORK` advice)
/// degrades to the getpid-keyed word and never fails a build or a claim.
/// A process maps the page at its first resolve, which an earlier test of
/// this binary may have made, so each refusal runs in a fresh copy of
/// this binary that runs this test alone.
#[cfg(target_os = "linux")]
#[test]
fn identity_page_refusal_degrades_never_errors() {
    const HIT: &str = "ARC_FAULT_SWEEP_IDENTITY_HIT";
    // Held while the copies run too: their pipes are fds of this process.
    let _g = lock();
    let Some(hit) = std::env::var_os(HIT) else {
        // Hit 0 is the page's mmap, hit 1 its madvise.
        for hit in 0..2 {
            let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
                .args(["--exact", "identity_page_refusal_degrades_never_errors"])
                .env(HIT, hit.to_string())
                .output()
                .expect("run a fresh copy of this test binary");
            assert!(
                out.status.success(),
                "identity page refused at hit {hit}:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        return;
    };
    let hit: u32 = hit.to_str().and_then(|h| h.parse().ok()).expect("a hit index");
    faults::arm(FaultSite::IdentityPage, hit, EIO);
    let group = clean_shm_build();
    let mut w = group.writer(0).expect("a refused identity page must not fail a claim");
    let mut r = group.reader(0).expect("a refused identity page must not fail a join");
    assert!(!faults::armed(), "hit {hit}: the first resolve never reached the identity page");
    w.write(b"value");
    assert_eq!(&*r.read(), b"value");
    assert_eq!(group.writer_probe(0).lease, u64::from(std::process::id()));
    assert!(!group.needs_recovery(), "the fallback identity reads as dead");
    drop((w, r));
    drop((group.writer_set().expect("writer set"), group.reader_set().expect("reader set")));
}

/// A refused heap allocation is a typed error, not an abort, and the
/// next build succeeds.
#[test]
fn heap_alloc_refusal_is_typed_and_recoverable() {
    let _g = lock();
    faults::arm(FaultSite::HeapAlloc, 0, faults::ENOMEM);
    let result = ArcGroup::builder(4, 2, 64).build();
    faults::disarm();
    match result {
        Err(BuildError::Slab(SlabError::Os { call, errno })) => {
            assert_eq!(call, "alloc_zeroed");
            assert_eq!(errno, faults::ENOMEM);
        }
        other => panic!("expected typed alloc failure, got {other:?}"),
    }
    drop(ArcGroup::builder(4, 2, 64).build().expect("clean heap build"));
}

/// The unified retry policy absorbs short transient runs on the attach
/// path and surfaces exhaustion (or permanent errnos) typed.
#[cfg(target_os = "linux")]
#[test]
fn attach_retries_transients_and_stops_on_permanent() {
    let _g = lock();
    let group = clean_shm_build();
    let fd = group.memfd().unwrap();

    // Two consecutive EINTRs: the 3-attempt policy outlasts them.
    faults::arm_run(FaultSite::DupFd, 0, 2, EINTR);
    let attached = ArcGroup::attach_fd(fd);
    faults::disarm();
    assert!(attached.is_ok(), "two EINTRs must be retried away: {attached:?}");

    // Three consecutive EINTRs exhaust the attempt budget.
    faults::arm_run(FaultSite::DupFd, 0, 3, EINTR);
    let attached = ArcGroup::attach_fd(fd);
    faults::disarm();
    assert!(
        matches!(attached, Err(SlabError::Os { call: "dup", errno }) if errno == EINTR),
        "exhausted transients must surface typed: {attached:?}"
    );

    // A permanent errno is not retried: exactly one hit consumed.
    faults::arm_run(FaultSite::Fstat, 0, 3, EIO);
    let attached = ArcGroup::attach_fd(fd);
    assert!(matches!(attached, Err(SlabError::Os { call: "fstat", errno }) if errno == EIO));
    assert!(faults::armed(), "permanent errors must not burn retry hits");
    faults::disarm();
}

/// Degradation sites outside the slab: an injected `/proc` or `/sys`
/// read failure falls back (never errors), and a refused supervisor
/// thread spawn is a typed `io::Error` with the plane untouched.
#[test]
fn probe_and_spawn_sites_degrade_or_fail_typed() {
    use arc_register::supervise::{PlaneSupervisor, SupervisorConfig};
    let _g = lock();

    faults::arm(FaultSite::ProcRead, 0, EIO);
    let cpus = arc_register::topology::allowed_cpus();
    faults::disarm();
    assert!(!cpus.is_empty(), "ProcRead injection must degrade, not empty the CPU set");

    faults::arm(FaultSite::SysfsRead, 0, EIO);
    let topo = arc_register::Topology::probe();
    faults::disarm();
    assert!(topo.node_count() >= 1, "SysfsRead injection must fall back to one node");

    let group = ArcGroup::builder(2, 1, 64).build().unwrap();
    faults::arm(FaultSite::ThreadSpawn, 0, faults::EAGAIN);
    let sup = PlaneSupervisor::try_spawn(
        std::sync::Arc::clone(&group),
        SupervisorConfig::default(),
        |_| {},
    );
    faults::disarm();
    assert_eq!(
        sup.err().and_then(|e| e.raw_os_error()),
        Some(faults::EAGAIN),
        "refused spawn must carry the injected errno"
    );
    // The plane is untouched: a real supervisor then runs fine.
    let sup = PlaneSupervisor::try_spawn(group, SupervisorConfig::default(), |_| {})
        .expect("clean spawn after injected refusal");
    sup.stop();
}

/// A process reads its own birth token once: after one claim, no claim or
/// join path reads `/proc` again. A `ProcRead` fault armed then stays
/// armed through every handle constructor.
#[cfg(target_os = "linux")]
#[test]
fn warm_process_claims_and_joins_without_reading_proc() {
    use arc_register::ArcRegister;
    let _g = lock();
    let plane =
        ArcGroup::builder(64, 2, 64).backend(arc_register::SlabBackend::Shm).build().unwrap();
    let register = ArcRegister::builder(2, 64).build().unwrap();
    drop(plane.writer(0).expect("warm-up claim"));

    faults::arm(FaultSite::ProcRead, 0, EIO);
    let writers = plane.writer_set().expect("writer_set");
    let readers = plane.reader_set().expect("reader_set");
    let w = register.writer().expect("ArcRegister writer");
    let r = register.reader().expect("ArcRegister reader");
    let untouched = faults::armed();
    faults::disarm();
    assert!(untouched, "a claim or join of a warm process read /proc");
    drop((writers, readers, w, r));
}

/// The `ARC_FAULT_SEEDS` replay contract: each seed derives one schedule
/// deterministically; the full create→use→attach→use gauntlet under it
/// must end in success or a typed error — never a panic, never a leaked
/// fd, never a half-initialized plane.
#[cfg(target_os = "linux")]
#[test]
fn seeded_gauntlet_never_panics_or_leaks() {
    use arc_register::{NodePolicy, PagePolicy, SlabPlacement};
    let _g = lock();
    let seeds: Vec<u64> = match std::env::var("ARC_FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(|p| p.trim().parse().expect("ARC_FAULT_SEEDS: comma-separated u64s"))
            .collect(),
        Err(_) => (0..48).collect(),
    };
    for seed in seeds {
        let armed = faults::arm_seeded(seed);
        let before = fd_count();
        let outcome = std::panic::catch_unwind(|| {
            let built = ArcGroup::builder(3, 2, 64)
                .backend(arc_register::SlabBackend::Shm)
                .placement(SlabPlacement { pages: PagePolicy::Huge, nodes: NodePolicy::Bind(0) })
                .initial(b"g0")
                .build();
            let group = match built {
                Ok(g) => g,
                Err(e) => {
                    // Typed refusal; the message must render.
                    let _ = e.to_string();
                    return;
                }
            };
            // A successful build is never half-initialized: it works.
            let mut w = group.writer(0).unwrap();
            w.write(b"value");
            let mut r = group.reader(0).unwrap();
            assert_eq!(&*r.read(), b"value");
            match ArcGroup::attach_fd(group.memfd().unwrap()) {
                Ok(attached) => {
                    let mut r2 = attached.reader(0).unwrap();
                    assert_eq!(&*r2.read(), b"value");
                }
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        });
        faults::disarm();
        assert!(outcome.is_ok(), "seed {seed} (schedule {armed:?}) panicked");
        assert_eq!(fd_count(), before, "seed {seed} (schedule {armed:?}) leaked fds");
    }
    // Sanity on the contract itself: every site is reachable by *some*
    // seed (the derivation covers the whole registry).
    let mut covered: Vec<FaultSite> = (0..256)
        .map(|s| {
            let (site, _, _) = faults::arm_seeded(s);
            faults::disarm();
            site
        })
        .collect();
    covered.sort_by_key(|s| *s as u8);
    covered.dedup();
    assert_eq!(covered.len(), ALL_SITES.len(), "256 seeds must cover every fault site");
}
