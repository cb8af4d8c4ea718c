//! Configuration hot-swap: a control plane pushes config blobs of varying
//! size to a fleet of worker threads — **watch-driven**, zero busy-polling.
//!
//! ```text
//! cargo run --release --example config_hotswap
//! ```
//!
//! Pre-ISSUE-4 this example busy-polled: every worker spun on `read()`
//! burning a core to ask "did the config change?". Workers now park in
//! [`ArcReader::wait_for_update`] and are woken by the control plane's
//! publish — the wait-free read path is untouched, the cores are free
//! between updates, and a woken worker always reads the *freshest* config
//! (intermediate versions coalesce; a config fleet wants current state,
//! not a replay log).
//!
//! Still exercises the byte-register API with **variable-size values**,
//! the stamped-payload integrity machinery, and dynamic reader
//! registration (ephemeral probes join and leave while updates flow).
//!
//! [`ArcReader::wait_for_update`]: arc_suite::ArcReader::wait_for_update

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use arc_suite::common::payload::{stamp, verify, MIN_PAYLOAD_LEN};
use arc_suite::ArcRegister;

const WORKERS: usize = 8;
const MAX_CONFIG: usize = 16 << 10;
const UPDATES: u64 = 20_000;

fn main() {
    let mut initial = vec![0u8; MIN_PAYLOAD_LEN];
    stamp(&mut initial, 0);
    let reg = ArcRegister::builder(WORKERS as u32 + 4, MAX_CONFIG)
        .initial(&initial)
        .build()
        .expect("valid configuration");

    let applied = Arc::new(AtomicU64::new(0));

    // Long-lived workers: park until the control plane publishes, verify,
    // "apply". No stop flag needed — the register's version tells each
    // worker when it has applied the final config.
    let mut handles = Vec::new();
    for w in 0..WORKERS {
        let mut watcher = reg.reader().expect("worker watcher");
        let applied = Arc::clone(&applied);
        handles.push(std::thread::spawn(move || {
            let mut last_version = 0u64; // register + config versions coincide here
            let mut reloads = 0u64;
            loop {
                // Parked here between updates: zero CPU, woken by publish.
                let snap = watcher.wait_for_update(last_version);
                let version =
                    verify(&snap).unwrap_or_else(|e| panic!("worker {w}: corrupt config: {e}"));
                assert_eq!(
                    version,
                    snap.version(),
                    "stamped config version must match the register version"
                );
                assert!(version > last_version, "wakeups must deliver strictly newer configs");
                last_version = version;
                reloads += 1;
                applied.fetch_add(1, Ordering::Relaxed);
                if version == UPDATES {
                    return (w, last_version, reloads);
                }
            }
        }));
    }

    // A churn thread: short-lived diagnostic probes join, sample one
    // config, and leave — dynamic registration under load. (This is
    // sampling, not change-polling: the probes nap two hundred
    // microseconds between joins.)
    let churn_reg = Arc::clone(&reg);
    let churn_stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let stop = Arc::clone(&churn_stop);
        std::thread::spawn(move || {
            let mut samples = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut probe) = churn_reg.reader() {
                    let snap = probe.read();
                    verify(&snap).expect("probe saw corrupt config");
                    samples += 1;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            samples
        })
    };

    // Control plane: push UPDATES configs of pseudo-random sizes.
    let mut writer = reg.writer().expect("single control plane");
    let mut buf = vec![0u8; MAX_CONFIG];
    for version in 1..=UPDATES {
        // size varies write-to-write: 24 B .. 16 KB
        let size = MIN_PAYLOAD_LEN
            + (version.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize)
                % (MAX_CONFIG - MIN_PAYLOAD_LEN);
        stamp(&mut buf[..size], version);
        writer.write(&buf[..size]);
        if version % 4096 == 0 {
            std::thread::sleep(Duration::from_micros(200)); // let some watchers win a wake
        }
    }

    println!("pushed {UPDATES} config versions (24 B – 16 KB each)\n");
    println!("{:>6} {:>14} {:>10}", "worker", "final_version", "reloads");
    let mut total_reloads = 0u64;
    for h in handles {
        let (w, final_version, reloads) = h.join().expect("worker panicked");
        println!("{w:>6} {final_version:>14} {reloads:>10}");
        assert_eq!(final_version, UPDATES, "worker {w} missed the final config");
        total_reloads += reloads;
    }
    churn_stop.store(true, Ordering::Relaxed);
    let samples = churner.join().expect("churner panicked");
    println!("\nephemeral probes sampled {samples} configs while churning");
    println!(
        "total applies observed: {} (of {} worker-updates published — the gap is \
         coalescing: a woken worker applies the freshest config, skipping stale ones)",
        applied.load(Ordering::Relaxed),
        UPDATES * WORKERS as u64
    );
    assert!(total_reloads >= WORKERS as u64, "every worker must apply at least the final config");
    println!("config_hotswap OK — watch-driven, no busy-polling");
}
