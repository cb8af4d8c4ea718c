//! **E13** — crash-recovery cost: reopen (attach + validate) and repair
//! time for a slab plane whose writer died mid-publication.
//!
//! ```text
//! ARC_BENCH_PROFILE=quick|standard|full cargo run -p arc-bench --release --bin recovery
//! ```
//!
//! Each trial builds a shared-memory plane of K registers, forks a child
//! that claims the whole writer plane and dies — by real `SIGABRT` — at a
//! seeded crash point (or while holding reader pins), then measures in
//! the parent: `attach_ns` (map + superblock validation of the orphaned
//! slab, the "reopen" a supervisor pays) and `recover_ns` (classify every
//! dead lease, repair the interrupted publication, sweep orphaned pins).
//! Medians over per-profile trial counts.
//!
//! Shape to expect: both costs are microseconds and scale linearly in K
//! (one lease/journal inspection per register) — recovery is a
//! supervisor-side O(K) walk, nowhere near the data plane's hot path.
//!
//! A second table, `setup`, prices what a shm plane pays before it serves
//! its first read, set up as `e2ebench`'s `plane_20k` sets it up (one
//! reader per register, 48 B values, an initial value): `build`, a second
//! mapping's `attach`, the creator's `writer_set` and the second
//! mapping's `reader_set`, each timed on its own, p1 and p50 over the
//! trials. K = 20,000 in every profile, and K = 2^20 in standard and
//! full.
//!
//! Linux-only (memfd + fork); elsewhere the bin prints a note and exits
//! without touching the JSON trajectory.

use arc_bench::{json_dir, merge_section, out_dir, BenchProfile};

fn main() {
    let profile = BenchProfile::from_env();
    println!("# E13 — crash recovery: reopen + repair cost");
    imp::run(profile);
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn run(_profile: super::BenchProfile) {
        println!("recovery bench requires the Linux memfd backend; skipping");
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{json_dir, merge_section, out_dir, BenchProfile};
    use arc_bench::json::table_to_json;
    use arc_register::{crash, ArcGroup, CrashPoint, RecoveryReport, SlabBackend};
    use std::sync::Arc;
    use std::time::Instant;
    use workload_harness::procs::{child_exit, fork_child, wait_child};
    use workload_harness::{write_csv, Table};

    const CAP: usize = 256;

    /// How the forked child leaves the plane for the parent to repair.
    #[derive(Clone, Copy)]
    enum Scenario {
        Crash(CrashPoint),
        /// Readers die holding one pinned guard per register.
        ReaderPins,
    }

    impl Scenario {
        fn name(self) -> &'static str {
            match self {
                Scenario::Crash(CrashPoint::PreW2) => "pre_w2",
                Scenario::Crash(CrashPoint::AtW2) => "at_w2",
                Scenario::Crash(CrashPoint::PostW2) => "post_w2",
                Scenario::ReaderPins => "reader_pins",
            }
        }
    }

    struct Trial {
        attach_ns: u64,
        recover_ns: u64,
        report: RecoveryReport,
    }

    fn one_trial(registers: usize, scenario: Scenario) -> Trial {
        let g = ArcGroup::builder(registers, 4, CAP)
            .backend(SlabBackend::Shm)
            .initial(&[1u8; CAP])
            .build()
            .expect("shm plane");

        let gc = Arc::clone(&g);
        let pid = fork_child(move || match scenario {
            Scenario::Crash(point) => {
                // Claim the whole writer plane (K dead leases to clear),
                // leave one register's publication interrupted at `point`.
                let mut w = match gc.writer_set() {
                    Ok(w) => w,
                    Err(_) => child_exit(101),
                };
                for k in 0..gc.registers() {
                    w.write(k, &[2u8; CAP]);
                }
                crash::arm(point);
                w.write(0, &[3u8; CAP]);
                child_exit(102);
            }
            Scenario::ReaderPins => {
                // One dead pinned guard per register.
                let mut readers = Vec::with_capacity(gc.registers());
                for k in 0..gc.registers() {
                    match gc.reader(k) {
                        Ok(r) => readers.push(r),
                        Err(_) => child_exit(101),
                    }
                }
                let guards: Vec<_> = readers.iter_mut().map(|r| r.read_ref()).collect();
                if guards.len() == gc.registers() {
                    std::process::abort();
                }
                child_exit(103);
            }
        })
        .expect("fork");
        let exit = wait_child(pid).expect("waitpid");
        assert!(exit.aborted(), "bench child must abort, got {exit:?}");

        // Reopen: what a supervisor pays to map and validate the orphan.
        let t = Instant::now();
        let g2 = ArcGroup::attach_fd(g.memfd().expect("memfd")).expect("attach");
        let attach_ns = t.elapsed().as_nanos() as u64;
        assert!(g2.needs_recovery(), "child left nothing to repair");

        let t = Instant::now();
        let report = g2.recover();
        let recover_ns = t.elapsed().as_nanos() as u64;
        assert!(!g2.needs_recovery(), "repair incomplete: {report:?}");
        Trial { attach_ns, recover_ns, report }
    }

    fn median(mut xs: Vec<u64>) -> u64 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    /// The set-up phases of one shm plane, in order.
    const PHASES: [&str; 4] = ["build", "attach", "writer_set", "reader_set"];

    /// One set-up of a K-register plane as `plane_20k` does it; the
    /// nanoseconds of each of [`PHASES`].
    fn setup_trial(registers: usize) -> [u64; 4] {
        let t0 = Instant::now();
        let g = ArcGroup::builder(registers, 1, 48)
            .backend(SlabBackend::Shm)
            .initial(&[1u8; 48])
            .build()
            .expect("shm plane");
        let t1 = Instant::now();
        let mirror = ArcGroup::attach_fd(g.memfd().expect("memfd")).expect("attach");
        let t2 = Instant::now();
        let writers = g.writer_set().expect("claim every writer role");
        let t3 = Instant::now();
        let readers = mirror.reader_set().expect("join every register");
        let t4 = Instant::now();
        drop((readers, writers, mirror, g));
        [t1 - t0, t2 - t1, t3 - t2, t4 - t3].map(|d| d.as_nanos() as u64)
    }

    fn setup_table(profile: BenchProfile) -> Table {
        let (points, trials): (&[usize], usize) = match profile {
            BenchProfile::Quick => (&[20_000], 100),
            BenchProfile::Standard => (&[20_000, 1 << 20], 40),
            BenchProfile::Full => (&[20_000, 1 << 20], 100),
        };
        let mut table = Table::new(vec!["registers", "phase", "trials", "p1_ns", "p50_ns"]);
        for &registers in points {
            let runs: Vec<[u64; 4]> = (0..trials).map(|_| setup_trial(registers)).collect();
            for (i, phase) in PHASES.iter().enumerate() {
                let mut xs: Vec<u64> = runs.iter().map(|r| r[i]).collect();
                xs.sort_unstable();
                let (p1, p50) = (xs[xs.len() / 100], xs[xs.len() / 2]);
                println!("  K={registers:>7}  {phase:>10}  p1={p1:>10} ns  p50={p50:>10} ns");
                table.row(vec![
                    registers.to_string(),
                    phase.to_string(),
                    trials.to_string(),
                    p1.to_string(),
                    p50.to_string(),
                ]);
            }
        }
        table
    }

    pub fn run(profile: BenchProfile) {
        let trials = match profile {
            BenchProfile::Quick => 5,
            BenchProfile::Standard => 15,
            BenchProfile::Full => 40,
        };
        let register_counts = profile.thin(&[4usize, 16, 64]);
        let scenarios = [
            Scenario::Crash(CrashPoint::PreW2),
            Scenario::Crash(CrashPoint::AtW2),
            Scenario::Crash(CrashPoint::PostW2),
            Scenario::ReaderPins,
        ];
        println!("# {trials} trials per point, registers={register_counts:?}\n");

        let mut table = Table::new(vec![
            "registers",
            "crash_point",
            "attach_ns",
            "recover_ns",
            "writers_recovered",
            "pins_swept",
        ]);
        for &registers in &register_counts {
            for &scenario in &scenarios {
                let mut attach = Vec::with_capacity(trials);
                let mut recover = Vec::with_capacity(trials);
                let mut last = None;
                for _ in 0..trials {
                    let t = one_trial(registers, scenario);
                    attach.push(t.attach_ns);
                    recover.push(t.recover_ns);
                    last = Some(t.report);
                }
                let report = last.expect("at least one trial");
                let (attach_ns, recover_ns) = (median(attach), median(recover));
                println!(
                    "  K={registers:>3}  {:>11}  attach={attach_ns:>8} ns  recover={recover_ns:>8} ns  writers={:>3}  pins={:>3}",
                    scenario.name(),
                    report.writers_recovered,
                    report.pins_swept,
                );
                table.row(vec![
                    registers.to_string(),
                    scenario.name().to_string(),
                    attach_ns.to_string(),
                    recover_ns.to_string(),
                    report.writers_recovered.to_string(),
                    report.pins_swept.to_string(),
                ]);
            }
        }

        let path = out_dir().join("recovery.csv");
        write_csv(&table, &path).expect("write CSV");
        println!("\nwrote {}", path.display());

        let json_path = json_dir().join("BENCH_latency.json");
        merge_section(&json_path, "arc-bench/latency/v1", "recovery", table_to_json(&table))
            .expect("write BENCH_latency.json");
        println!("merged recovery into {}", json_path.display());

        println!("\n# set-up of a shm plane, phase by phase\n");
        let setup = setup_table(profile);
        let path = out_dir().join("setup.csv");
        write_csv(&setup, &path).expect("write CSV");
        println!("\nwrote {}", path.display());
        merge_section(&json_path, "arc-bench/latency/v1", "setup", table_to_json(&setup))
            .expect("write BENCH_latency.json");
        println!("merged setup into {}", json_path.display());
    }
}
