//! **E14** — supervision cost: kill→detection latency, auto-recovery
//! end-to-end time, and per-cycle scrub cost at plane scale.
//!
//! ```text
//! ARC_BENCH_PROFILE=quick|standard|full cargo run -p arc-bench --release --bin supervision
//! ```
//!
//! Five metrics, one table:
//!
//! * `kill_to_detect` — a forked child claims a register's writer lease
//!   and publishes in a loop; the parent SIGKILLs (and reaps) it and
//!   measures the wall time until the supervising watchdog emits
//!   `WriterDead`. Dominated by the probe interval (200 µs here).
//! * `kill_to_healed` — same trial, measured until `RecoveryCompleted`
//!   reports the lease repaired: detection + arbitration + the O(K)
//!   recovery walk. Always ≥ the detection time of the same trial.
//! * `scrub_cycle` — one full `ArcGroup::scrub` pass over a healthy
//!   plane of K registers (superblock re-validation + per-register
//!   journal/ledger invariants), swept up to K = 1M. Reported per cycle
//!   and per register; this is the steady-state tax a supervisor pays
//!   every `scrub_interval`.
//! * `probe_cycle` — one watchdog probe pass (`ArcGroup::probe_pass`)
//!   over a shm plane of K registers, every one held by a live writer set
//!   and pinned by a live reader set (both of this process, so the pass
//!   checks 2K liveness records of its own pid, which it answers from
//!   its identity word); `probe_cycle_idle` is the same pass over the
//!   same plane with no lease and no pin; `probe_cycle_forked` the same
//!   pass while a forked child holds the writer set, so each pass asks
//!   `kill(2)` about the child and reads its birth from `/proc` once. The
//!   supervisor pays one pass every `probe_interval`.
//!
//! Shape to expect: detection tracks the probe interval, healing adds
//! tens of microseconds, and scrubbing is linear in K at a few tens of
//! nanoseconds per register — all supervisor-side, nowhere near the
//! wait-free data plane.
//!
//! Linux-only (memfd + fork); elsewhere the bin prints a note and exits
//! without touching the JSON trajectory.

use arc_bench::{json_dir, merge_section, out_dir, BenchProfile};

fn main() {
    let profile = BenchProfile::from_env();
    println!("# E14 — supervision: detection, auto-recovery, scrub cost");
    imp::run(profile);
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn run(_profile: super::BenchProfile) {
        println!("supervision bench requires the Linux memfd backend; skipping");
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{json_dir, merge_section, out_dir, BenchProfile};
    use arc_bench::json::table_to_json;
    use arc_register::{ArcGroup, PlaneSupervisor, SlabBackend, SupervisorConfig, SupervisorEvent};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use workload_harness::procs::{child_exit, fork_child, send_signal, wait_child, SIGKILL};
    use workload_harness::{write_csv, Table};

    const CAP: usize = 64;
    /// Registers in the heal-trial plane (the recovery walk is O(K); the
    /// scrub sweep covers the large-K axis separately).
    const HEAL_K: usize = 4;

    struct HealTrial {
        detect_ns: u64,
        heal_ns: u64,
    }

    /// Fork a writer, kill it, and time the supervisor noticing (first
    /// `WriterDead`) and finishing the repair (`RecoveryCompleted` with
    /// the lease actually recovered).
    fn heal_trial() -> HealTrial {
        let g = ArcGroup::builder(HEAL_K, 4, CAP)
            .backend(SlabBackend::Shm)
            .initial(&[1u8; CAP])
            .build()
            .expect("shm plane");

        // Fork before spawning the supervisor thread: the child only runs
        // the allocation-free claim + publish loop until it is killed.
        let gc = Arc::clone(&g);
        let pid = fork_child(move || {
            let Ok(mut w) = gc.writer(0) else { child_exit(101) };
            loop {
                w.write(&[2u8; CAP]);
            }
        })
        .expect("fork");
        while g.writer_probe(0).lease != u64::from(pid) {
            std::hint::spin_loop();
        }

        let config = SupervisorConfig {
            probe_interval: Duration::from_micros(200),
            // Far above one publication; stalls never fire in this trial.
            stall_threshold: Duration::from_millis(200),
            // Scrub cost is measured separately; keep it out of the way.
            scrub_interval: Duration::from_secs(3600),
            max_recovery_attempts: 5,
            recovery_backoff: Duration::from_millis(1),
        };
        let (sup, events) = PlaneSupervisor::spawn_channel(Arc::clone(&g), config);
        // Let the watchdog take a few healthy samples first.
        std::thread::sleep(config.probe_interval * 4);

        let t0 = Instant::now();
        send_signal(pid, SIGKILL).expect("kill");
        // Reap at once: a zombie keeps its /proc entry, so the clock
        // honestly includes the reap a real supervisor setup pays too.
        let exit = wait_child(pid).expect("waitpid");
        assert_eq!(exit, workload_harness::procs::ChildExit::Signaled(SIGKILL));

        let mut detect_ns = None;
        let deadline = Instant::now() + Duration::from_secs(20);
        let heal_ns = loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match events.recv_timeout(remaining) {
                Ok(SupervisorEvent::WriterDead { .. }) => {
                    detect_ns.get_or_insert(t0.elapsed().as_nanos() as u64);
                }
                Ok(SupervisorEvent::RecoveryCompleted { report })
                    if report.writers_recovered > 0 =>
                {
                    break t0.elapsed().as_nanos() as u64;
                }
                Ok(SupervisorEvent::RecoveryFailed { attempts }) => {
                    panic!("auto-recovery failed after {attempts} attempts");
                }
                Ok(_) => {}
                Err(e) => panic!("supervisor went quiet before healing the plane: {e}"),
            }
        };
        sup.stop();
        assert!(!g.needs_recovery(), "healed plane still flagged damaged");
        HealTrial { detect_ns: detect_ns.expect("WriterDead precedes RecoveryCompleted"), heal_ns }
    }

    /// Per-cycle cost of one full scrub pass over a healthy K-register
    /// plane (median and max over `cycles`).
    fn scrub_point(registers: usize, cycles: usize) -> (u64, u64) {
        let g =
            ArcGroup::builder(registers, 1, 16).initial(&[7u8; 16]).build().expect("heap plane");
        // Warm pass: fault in the mapping before timing.
        let warm = g.scrub();
        assert!(warm.superblock_ok && warm.registers_scrubbed == registers);
        let mut xs = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let t = Instant::now();
            let report = g.scrub();
            xs.push(t.elapsed().as_nanos() as u64);
            assert!(report.superblock_ok, "healthy plane failed superblock validation");
            assert_eq!(report.quarantined_total, 0, "healthy plane grew quarantines");
        }
        let max = *xs.iter().max().expect("at least one cycle");
        (median(xs), max)
    }

    /// Per-cycle cost of one watchdog probe pass over a K-register shm
    /// plane: `[idle, held, forked]`, each `(median, max)` over `cycles`.
    /// Held: a live writer set claims every register and a live reader
    /// set pins a slot on each. Forked: a live forked child holds the
    /// writer set.
    fn probe_point(registers: usize, cycles: usize) -> [(u64, u64); 3] {
        let g = ArcGroup::builder(registers, 1, 16)
            .backend(SlabBackend::Shm)
            .initial(&[7u8; 16])
            .build()
            .expect("shm plane");
        let time = || {
            let mut xs = Vec::with_capacity(cycles);
            for _ in 0..=cycles {
                let t = Instant::now();
                let damaged = g.probe_pass(|_, probe| assert!(!probe.lease_dead));
                xs.push(t.elapsed().as_nanos() as u64);
                assert!(!damaged, "a live plane read as damaged");
            }
            xs.remove(0); // the warm pass
            let max = *xs.iter().max().expect("at least one cycle");
            (median(xs), max)
        };
        let idle = time();
        let writers = g.writer_set().expect("claim every writer role");
        let mut readers = g.reader_set().expect("join every register");
        for k in 0..registers {
            let _ = readers.read(k);
        }
        let held = time();
        drop((readers, writers));

        let gc = Arc::clone(&g);
        let pid = fork_child(move || {
            let Ok(_writers) = gc.writer_set() else { child_exit(101) };
            loop {
                std::thread::sleep(Duration::from_secs(1));
            }
        })
        .expect("fork");
        // The set claims in register order: the last lease is the child's
        // once the whole set is.
        let deadline = Instant::now() + Duration::from_secs(60);
        while g.writer_probe(registers - 1).lease != u64::from(pid) {
            assert!(Instant::now() < deadline, "the forked child never held the writer set");
            std::thread::sleep(Duration::from_millis(1));
        }
        let forked = time();
        send_signal(pid, SIGKILL).expect("kill");
        wait_child(pid).expect("waitpid");
        [idle, held, forked]
    }

    fn median(mut xs: Vec<u64>) -> u64 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    pub fn run(profile: BenchProfile) {
        let trials = match profile {
            BenchProfile::Quick => 5,
            BenchProfile::Standard => 15,
            BenchProfile::Full => 40,
        };
        let cycles = match profile {
            BenchProfile::Quick => 3,
            BenchProfile::Standard => 10,
            BenchProfile::Full => 30,
        };
        // Three points, so `thin` keeps the K = 1M acceptance point in
        // every profile — the large-K scrub cost is the row that matters.
        let scrub_counts = profile.thin(&[1024usize, 65_536, 1_000_000]);
        println!("# {trials} heal trials, {cycles} scrub cycles, scrub K={scrub_counts:?}\n");

        let mut table = Table::new(vec![
            "metric",
            "registers",
            "trials",
            "p50_ns",
            "max_ns",
            "per_register_ns",
        ]);
        let mut row = |metric: &str, registers: usize, n: usize, p50: u64, max: u64| {
            println!(
                "  {metric:<15} K={registers:>9}  p50={p50:>10} ns  max={max:>10} ns  \
                 ({:>6} ns/reg)",
                p50 / registers as u64,
            );
            table.row(vec![
                metric.to_string(),
                registers.to_string(),
                n.to_string(),
                p50.to_string(),
                max.to_string(),
                (p50 / registers as u64).to_string(),
            ]);
        };

        let heals: Vec<HealTrial> = (0..trials).map(|_| heal_trial()).collect();
        let pick = |f: fn(&HealTrial) -> u64| {
            let xs: Vec<u64> = heals.iter().map(f).collect();
            let max = *xs.iter().max().expect("trials > 0");
            (median(xs), max)
        };
        let (d50, dmax) = pick(|t| t.detect_ns);
        row("kill_to_detect", HEAL_K, trials, d50, dmax);
        let (h50, hmax) = pick(|t| t.heal_ns);
        row("kill_to_healed", HEAL_K, trials, h50, hmax);

        for &registers in &scrub_counts {
            let (p50, max) = scrub_point(registers, cycles);
            row("scrub_cycle", registers, cycles, p50, max);
        }
        // Every profile probes plane_20k's K = 20,000, where json_schema
        // holds the committed held pass to 3× the idle one.
        for registers in [1024usize, 20_000, 65_536, 1_000_000] {
            let [(i50, imax), (h50, hmax), (f50, fmax)] = probe_point(registers, cycles);
            row("probe_cycle_idle", registers, cycles, i50, imax);
            row("probe_cycle", registers, cycles, h50, hmax);
            row("probe_cycle_forked", registers, cycles, f50, fmax);
        }

        let path = out_dir().join("supervision.csv");
        write_csv(&table, &path).expect("write CSV");
        println!("\nwrote {}", path.display());

        let json_path = json_dir().join("BENCH_latency.json");
        merge_section(&json_path, "arc-bench/latency/v1", "supervision", table_to_json(&table))
            .expect("write BENCH_latency.json");
        println!("merged supervision into {}", json_path.display());
    }
}
