//! Plane supervision: stall watchdog, arbitrated auto-recovery, and
//! runtime scrubbing (DESIGN.md §3.10).
//!
//! PR 6 made a shared plane *recoverable*: a process that dies holding a
//! role leaves typed residue that [`ArcGroup::recover`] repairs. But
//! recovery was manual, a live-but-wedged writer (the paper's preempted
//! lock-holder, Figs. 2–3 — here a SIGSTOP'd or hypervisor-stolen
//! process) was indistinguishable from a healthy one, and a scribbled
//! ledger was only caught at [`ArcGroup::attach_fd`] time. This module
//! closes all three gaps with an **opt-in background thread per mapping**:
//!
//! * **Watchdog** — every `probe_interval` the supervisor probes each
//!   register's [`WriterProbe`] (lease, birth token, heartbeat odometer,
//!   journal stage) and classifies its writer [`WriterHealth::Live`],
//!   [`Stalled`](WriterHealth::Stalled) (alive, mid-publication, heartbeat
//!   frozen for at least `stall_threshold`) or
//!   [`Dead`](WriterHealth::Dead) (dead pid, or live pid wearing a
//!   recycled number — the birth token tells them apart). A writer
//!   suspended *between* publications holds no protocol resource and is
//!   deliberately **not** flagged: readers are wait-free regardless, so
//!   only a wedged in-flight publication is worth an event.
//! * **Auto-recovery** — a dead writer (or dead reader pins) triggers
//!   [`ArcGroup::recover`] automatically, retried up to
//!   `max_recovery_attempts` times with exponential backoff. The call is
//!   arbitrated through the superblock's CAS-claimed recovery token, so
//!   when several attachers supervise the same plane exactly one repairs
//!   while the rest observe [`RecoveryReport::lost_arbitration`] and move
//!   on.
//! * **Scrubber** — every `scrub_interval` the supervisor runs
//!   [`ArcGroup::scrub`], re-validating the superblock and per-register
//!   journal/ledger invariants on the live mapping; a failing register is
//!   quarantined (sticky, per-register — never plane-wide poisoning) and
//!   surfaced as an event.
//!
//! Everything the supervisor does is loads, CASes on supervision words,
//! and the recovery writes a dead writer would have issued itself —
//! readers and writers of healthy registers stay wait-free throughout.
//!
//! # Example
//!
//! ```
//! use arc_register::supervise::{PlaneSupervisor, SupervisorConfig};
//! use arc_register::ArcGroup;
//!
//! let group = ArcGroup::builder(4, 2, 64).build().unwrap();
//! let sup = PlaneSupervisor::spawn(
//!     std::sync::Arc::clone(&group),
//!     SupervisorConfig::default(),
//!     |event| eprintln!("{event:?}"),
//! );
//! // ... use the plane; the supervisor heals it in the background ...
//! sup.stop();
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sync_primitives::Backoff;

use crate::faults::{self, FaultSite, RetryPolicy};
use crate::group::{ArcGroup, ScrubReport, WriterProbe};
use crate::recovery::RecoveryReport;

/// Liveness classification of one register's writer (§3.10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterHealth {
    /// No writer, or a live writer with no publication wedged in flight.
    Live,
    /// The lease holder is alive but its publication journal shows an
    /// operation in flight and its heartbeat has not moved for at least
    /// the stall threshold — a preempted/suspended writer. Readers are
    /// unaffected (wait-freedom is the whole point); the flag is
    /// observability, not a trigger for repair.
    Stalled,
    /// The lease holder is dead — the pid is gone, or the pid is alive
    /// but its birth token names a different process incarnation (pid
    /// reuse). Triggers auto-recovery.
    Dead,
}

/// Pure §3.10 watchdog classification: `probe` is the current signal
/// sample, `heartbeat_unchanged_for` how long the heartbeat has read the
/// same value across successive probes (the supervisor tracks this;
/// callers running their own probe loop track it themselves).
pub fn classify(
    probe: &WriterProbe,
    heartbeat_unchanged_for: Duration,
    stall_threshold: Duration,
) -> WriterHealth {
    if probe.lease == 0 {
        return WriterHealth::Live;
    }
    if probe.lease_dead {
        return WriterHealth::Dead;
    }
    if probe.mid_publication && heartbeat_unchanged_for >= stall_threshold {
        WriterHealth::Stalled
    } else {
        WriterHealth::Live
    }
}

/// Tuning knobs of a [`PlaneSupervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How often the watchdog probes every register's liveness signals.
    pub probe_interval: Duration,
    /// How long a mid-publication writer's heartbeat must stay frozen
    /// before it is flagged [`WriterHealth::Stalled`]. Must comfortably
    /// exceed one publication's duration (a memcpy plus a handful of
    /// atomics) or slow-but-progressing writers will false-positive.
    pub stall_threshold: Duration,
    /// How often the scrubber re-validates superblock and register
    /// invariants ([`ArcGroup::scrub`]).
    pub scrub_interval: Duration,
    /// How many times one damage episode is allowed to retry
    /// [`ArcGroup::recover`] before the supervisor reports
    /// [`SupervisorEvent::RecoveryFailed`] and stands down (until the
    /// next probe finds the plane still damaged).
    pub max_recovery_attempts: u32,
    /// Base delay between recovery retries; doubles per attempt under
    /// the unified [`RetryPolicy`] (exponential backoff with
    /// deterministic jitter, on top of the [`Backoff`] spin phase).
    pub recovery_backoff: Duration,
}

impl SupervisorConfig {
    /// The [`RetryPolicy`] these knobs describe: `max_recovery_attempts`
    /// attempts, `recovery_backoff` base delay, doubling to a cap of
    /// 1024× base (the saturation point of the historical ad-hoc
    /// backoff this policy replaced).
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::new(
            self.max_recovery_attempts,
            self.recovery_backoff,
            self.recovery_backoff.saturating_mul(1024),
        )
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_millis(10),
            stall_threshold: Duration::from_millis(100),
            scrub_interval: Duration::from_millis(100),
            max_recovery_attempts: 5,
            recovery_backoff: Duration::from_millis(10),
        }
    }
}

/// What a [`PlaneSupervisor`] observed or did, surfaced through the
/// `on_event` callback (or the channel of
/// [`PlaneSupervisor::spawn_channel`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// A register's writer lease belongs to a corpse; auto-recovery is
    /// about to run.
    WriterDead {
        /// Damaged register.
        register: usize,
        /// The dead claimant's pid (possibly since recycled).
        pid: u64,
    },
    /// A live writer has been mid-publication with a frozen heartbeat for
    /// at least the stall threshold.
    WriterStalled {
        /// Stalled register.
        register: usize,
        /// The stalled claimant's pid.
        pid: u64,
        /// How long the heartbeat has been frozen.
        stalled_for: Duration,
    },
    /// A previously [`WriterStalled`](SupervisorEvent::WriterStalled)
    /// writer's heartbeat moved again (or its publication completed).
    WriterResumed {
        /// The recovered register.
        register: usize,
    },
    /// An auto-recovery attempt is starting (1-based attempt number).
    RecoveryStarted {
        /// Which attempt of `max_recovery_attempts` this is.
        attempt: u32,
    },
    /// An auto-recovery pass completed on this mapping.
    RecoveryCompleted {
        /// What it repaired.
        report: RecoveryReport,
    },
    /// Another attacher's supervisor won the recovery arbitration; this
    /// mapping waited for it instead of repairing.
    RecoveryLostArbitration,
    /// The plane still needs recovery after `max_recovery_attempts`
    /// attempts; the supervisor stands down until the next probe.
    RecoveryFailed {
        /// How many attempts were made.
        attempts: u32,
    },
    /// A scrub pass quarantined this register (§3.10 — sticky,
    /// per-register; the rest of the plane keeps running).
    RegisterQuarantined {
        /// The quarantined register.
        register: usize,
    },
    /// A scrub pass found something (only emitted when it did — newly
    /// quarantined registers or a superblock that no longer validates).
    ScrubAnomaly {
        /// The pass's findings.
        report: ScrubReport,
    },
}

/// Per-register watchdog history: the last heartbeat sample, when it last
/// changed, and what has already been reported.
#[derive(Clone, Copy)]
struct WatchState {
    heartbeat: u64,
    since: Instant,
    stall_reported: bool,
    death_reported: bool,
}

/// The opt-in self-healing thread over one [`ArcGroup`] mapping (module
/// docs). Dropping (or [`stop`](PlaneSupervisor::stop)ping) it signals
/// and joins the thread; the plane itself is unaffected.
pub struct PlaneSupervisor {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl PlaneSupervisor {
    /// Start supervising `group`, delivering [`SupervisorEvent`]s to
    /// `on_event` from the supervisor thread.
    ///
    /// # Panics
    ///
    /// Panics if the supervisor thread cannot be spawned;
    /// [`PlaneSupervisor::try_spawn`] is the fallible form.
    pub fn spawn(
        group: Arc<ArcGroup>,
        config: SupervisorConfig,
        on_event: impl FnMut(SupervisorEvent) + Send + 'static,
    ) -> Self {
        match Self::try_spawn(group, config, on_event) {
            Ok(sup) => sup,
            Err(e) => panic!("spawn supervisor thread: {e}"),
        }
    }

    /// Fallible form of [`PlaneSupervisor::spawn`]: a thread-spawn
    /// refusal (resource exhaustion) surfaces as the `io::Error` the OS
    /// reported instead of panicking — the plane itself is untouched and
    /// the caller can run unsupervised or retry.
    pub fn try_spawn(
        group: Arc<ArcGroup>,
        config: SupervisorConfig,
        on_event: impl FnMut(SupervisorEvent) + Send + 'static,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        if let Some(errno) = faults::fail_errno(FaultSite::ThreadSpawn) {
            return Err(std::io::Error::from_raw_os_error(errno));
        }
        let thread = std::thread::Builder::new()
            .name("arc-supervisor".into())
            .spawn(move || run(group, config, on_event, &stop2))?;
        Ok(Self { stop, thread: Some(thread) })
    }

    /// [`PlaneSupervisor::spawn`] delivering events through a channel
    /// instead of a callback. The receiver end is returned; the
    /// supervisor drops the sender at shutdown, disconnecting it.
    pub fn spawn_channel(
        group: Arc<ArcGroup>,
        config: SupervisorConfig,
    ) -> (Self, mpsc::Receiver<SupervisorEvent>) {
        let (tx, rx) = mpsc::channel();
        let sup = Self::spawn(group, config, move |event| {
            let _ = tx.send(event);
        });
        (sup, rx)
    }

    /// Signal the supervisor thread and join it. (Dropping does the same;
    /// the method exists for explicit, panic-propagating shutdown.)
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PlaneSupervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for PlaneSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlaneSupervisor").field("running", &self.thread.is_some()).finish()
    }
}

/// The supervisor loop: probe → (maybe) recover → (maybe) scrub → sleep.
fn run(
    group: Arc<ArcGroup>,
    config: SupervisorConfig,
    mut on_event: impl FnMut(SupervisorEvent),
    stop: &AtomicBool,
) {
    let start = Instant::now();
    let mut watch: Vec<WatchState> = (0..group.registers())
        .map(|_| WatchState {
            heartbeat: 0,
            since: start,
            stall_reported: false,
            death_reported: false,
        })
        .collect();
    let mut last_scrub = start;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let mut corpses = false;
        // Dead writers probed here are one trigger; dead *reader pins*
        // (and anything a probe race missed) are caught by the pass's
        // plane-wide check. Both funnel into the same arbitrated repair.
        let damaged = group.probe_pass(|k, probe| {
            let st = &mut watch[k];
            if probe.heartbeat != st.heartbeat || !probe.mid_publication || probe.lease == 0 {
                // Progress (or no publication in flight): reset the stall
                // clock and close any open stall report.
                st.heartbeat = probe.heartbeat;
                st.since = now;
                if st.stall_reported {
                    st.stall_reported = false;
                    on_event(SupervisorEvent::WriterResumed { register: k });
                }
            }
            match classify(&probe, now.duration_since(st.since), config.stall_threshold) {
                WriterHealth::Live => st.death_reported = false,
                WriterHealth::Stalled => {
                    if !st.stall_reported {
                        st.stall_reported = true;
                        on_event(SupervisorEvent::WriterStalled {
                            register: k,
                            pid: probe.lease,
                            stalled_for: now.duration_since(st.since),
                        });
                    }
                }
                WriterHealth::Dead => {
                    corpses = true;
                    if !st.death_reported {
                        st.death_reported = true;
                        on_event(SupervisorEvent::WriterDead { register: k, pid: probe.lease });
                    }
                }
            }
        });
        if corpses || damaged {
            auto_recover(&group, &config, &mut on_event, stop);
        }
        if now.duration_since(last_scrub) >= config.scrub_interval {
            last_scrub = now;
            let healthy_before: Vec<bool> = (0..group.registers())
                .map(|k| group.register_health(k) == crate::group::RegisterHealth::Healthy)
                .collect();
            let report = group.scrub();
            for (k, was_healthy) in healthy_before.iter().enumerate() {
                if *was_healthy && group.register_health(k) != crate::group::RegisterHealth::Healthy
                {
                    on_event(SupervisorEvent::RegisterQuarantined { register: k });
                }
            }
            if report.newly_quarantined > 0 || !report.superblock_ok {
                on_event(SupervisorEvent::ScrubAnomaly { report });
            }
        }
        spin_sleep(config.probe_interval, stop);
    }
}

/// Run [`ArcGroup::recover`] with bounded retries under the unified
/// [`RetryPolicy`] until the plane is clean (or attempts run out).
fn auto_recover(
    group: &Arc<ArcGroup>,
    config: &SupervisorConfig,
    on_event: &mut impl FnMut(SupervisorEvent),
    stop: &AtomicBool,
) {
    let policy = config.retry_policy();
    for attempt in 1..=config.max_recovery_attempts {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        on_event(SupervisorEvent::RecoveryStarted { attempt });
        let report = group.recover();
        if report.lost_arbitration {
            on_event(SupervisorEvent::RecoveryLostArbitration);
        } else {
            on_event(SupervisorEvent::RecoveryCompleted { report });
        }
        if !group.needs_recovery() {
            return;
        }
        // Still damaged (a racing claimant died mid-repair, or a corpse
        // appeared between passes): spin briefly, then take the policy's
        // jittered exponential delay before the next attempt.
        let mut backoff = Backoff::new();
        while !backoff.is_saturated() {
            backoff.snooze();
        }
        spin_sleep(policy.delay_before(attempt + 1), stop);
    }
    on_event(SupervisorEvent::RecoveryFailed { attempts: config.max_recovery_attempts });
}

/// Sleep `total` in small slices so a stop signal is honored promptly.
fn spin_sleep(total: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + total;
    let slice = Duration::from_millis(2);
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(slice));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(lease: u64, mid: bool, dead: bool) -> WriterProbe {
        WriterProbe { lease, heartbeat: 7, mid_publication: mid, lease_dead: dead }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn classify_matrix() {
        // No lease: vacuously live, whatever the clocks say.
        assert_eq!(classify(&probe(0, true, false), 100 * MS, 10 * MS), WriterHealth::Live);
        // Dead trumps everything, even with a moving heartbeat.
        assert_eq!(classify(&probe(9, false, true), Duration::ZERO, 10 * MS), WriterHealth::Dead);
        // Mid-publication + frozen past the threshold: stalled.
        assert_eq!(classify(&probe(9, true, false), 20 * MS, 10 * MS), WriterHealth::Stalled);
        // Frozen but *between* publications: not a stall (nothing held).
        assert_eq!(classify(&probe(9, false, false), 20 * MS, 10 * MS), WriterHealth::Live);
        // Mid-publication but under the threshold: still live.
        assert_eq!(classify(&probe(9, true, false), 5 * MS, 10 * MS), WriterHealth::Live);
    }

    #[test]
    fn supervisor_on_healthy_plane_is_quiet_and_stops_cleanly() {
        let group = ArcGroup::builder(4, 2, 64).build().unwrap();
        let cfg = SupervisorConfig {
            probe_interval: Duration::from_millis(1),
            scrub_interval: Duration::from_millis(2),
            ..SupervisorConfig::default()
        };
        let (sup, rx) = PlaneSupervisor::spawn_channel(Arc::clone(&group), cfg);
        let mut w = group.writer(0).unwrap();
        for i in 0..100u32 {
            w.write(&i.to_le_bytes());
        }
        std::thread::sleep(Duration::from_millis(20));
        sup.stop();
        let events: Vec<_> = rx.try_iter().collect();
        assert!(events.is_empty(), "healthy plane must be event-free: {events:?}");
    }

    #[test]
    fn supervisor_auto_recovers_a_forgotten_writer_lease() {
        // A corpse the supervisor can see: a *forged* dead lease (a pid
        // that existed and exited), exactly like group.rs's recovery
        // tests. The supervisor must detect and repair it with no manual
        // recover() call.
        let mut child = std::process::Command::new("true")
            .spawn()
            .or_else(|_| std::process::Command::new("sh").arg("-c").arg("exit 0").spawn())
            .expect("spawn a short-lived child");
        let dead_pid = child.id() as u64;
        child.wait().unwrap();

        let group = ArcGroup::builder(2, 2, 64).build().unwrap();
        group.fault_forge_lease(0, dead_pid, 0);
        assert!(group.needs_recovery());

        let cfg = SupervisorConfig {
            probe_interval: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let (sup, rx) = PlaneSupervisor::spawn_channel(Arc::clone(&group), cfg);
        let deadline = Instant::now() + Duration::from_secs(10);
        while group.needs_recovery() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        sup.stop();
        assert!(!group.needs_recovery(), "supervisor must have repaired the plane");
        assert_eq!(group.epoch(), 1);
        let events: Vec<_> = rx.try_iter().collect();
        assert!(
            events.iter().any(|e| matches!(e, SupervisorEvent::WriterDead { register: 0, .. })),
            "expected WriterDead: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                SupervisorEvent::RecoveryCompleted { report } if report.writers_recovered == 1
            )),
            "expected RecoveryCompleted: {events:?}"
        );
        let _w = group.writer(0).expect("recovered register is claimable");
    }

    #[test]
    fn supervisor_quarantines_a_scribbled_register_not_the_plane() {
        let group = ArcGroup::builder(3, 2, 64).initial(b"ok").build().unwrap();
        let cfg = SupervisorConfig {
            probe_interval: Duration::from_millis(1),
            scrub_interval: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let (sup, rx) = PlaneSupervisor::spawn_channel(Arc::clone(&group), cfg);
        // Scribble register 1's synchronization word with an absurd index.
        group.fault_scribble_current(1, u32::MAX as u64);
        let deadline = Instant::now() + Duration::from_secs(10);
        while group.health_report().all_healthy() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        sup.stop();
        let report = group.health_report();
        assert_eq!(report.quarantined.len(), 1, "exactly one register quarantined");
        assert_eq!(report.quarantined[0].register, 1);
        // The rest of the plane keeps working.
        assert!(matches!(group.writer(1), Err(crate::HandleError::Quarantined)));
        let mut w0 = group.writer(0).expect("healthy register stays writable");
        w0.write(b"still fine");
        let mut r0 = group.reader(0).unwrap();
        assert_eq!(&*r0.read(), b"still fine");
        let events: Vec<_> = rx.try_iter().collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SupervisorEvent::RegisterQuarantined { register: 1 })),
            "expected RegisterQuarantined: {events:?}"
        );
    }
}
