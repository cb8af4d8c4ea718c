//! The getpid-keyed identity word (DESIGN.md §3.10), the fallback where a
//! process cannot have the identity page the kernel wipes at fork: a
//! forked child inherits its parent's word and must still lease with its
//! own pid and birth token.
//!
//! A process maps its identity page at its first resolve, so this binary
//! holds a single test, which refuses the page before anything resolves.
//!
//! Linux-only: it forks, and reads births from `/proc`.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use arc_register::faults::{self, FaultSite, EIO};
use arc_register::{ArcGroup, SlabBackend};
use workload_harness::procs::{
    child_exit, fork_child, send_signal, wait_child, ChildExit, SIGKILL,
};

#[test]
fn refused_page_forked_child_leases_with_its_own_identity() {
    faults::arm(FaultSite::IdentityPage, 0, EIO);
    let g = ArcGroup::builder(2, 4, 64).backend(SlabBackend::Shm).build().expect("shm plane");
    // The first claim resolves this process's identity: the page is
    // refused, and the fallback word caches the identity the child
    // inherits across the fork.
    let _parent_writer = g.writer(0).expect("parent writer");
    assert!(!faults::armed(), "the first resolve never asked for the identity page");
    // Births tick at 100 Hz: two ticks on, the child's birth differs
    // from the parent's, so a child leasing with the parent's birth reads
    // as a recycled pid.
    std::thread::sleep(Duration::from_millis(20));

    let gc = g.clone();
    let pid = fork_child(move || {
        let mut w = match gc.writer(1) {
            Ok(w) => w,
            Err(_) => child_exit(101),
        };
        w.write(&[0x3C; 64]);
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    })
    .expect("fork");
    let deadline = Instant::now() + Duration::from_secs(30);
    while g.writer_probe(1).lease != u64::from(pid) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Observed while the child lives, asserted once it is reaped, so a
    // failure leaves no process behind.
    let probe = g.writer_probe(1);
    let live_child_looks_dead = g.needs_recovery() || probe.lease_dead;
    let _ = send_signal(pid, SIGKILL);
    assert_eq!(wait_child(pid).expect("waitpid"), ChildExit::Signaled(SIGKILL));
    assert_eq!(probe.lease, u64::from(pid), "the child's lease never named the child");
    assert!(
        !live_child_looks_dead,
        "a live forked child's lease reads as dead: it must carry the child's birth token"
    );
}
