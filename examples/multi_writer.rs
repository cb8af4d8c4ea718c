//! Multi-writer extension: a cluster-status board written by M node agents
//! and read by N dashboards — the (M,N) register the paper positions ARC
//! as a building block for (§1).
//!
//! ```text
//! cargo run --release --example multi_writer
//! ```
//!
//! Each agent periodically publishes its view of the cluster; dashboards
//! always see the *globally newest* publication (largest timestamp),
//! atomically, wait-free, and torn-free. No agent ever waits on another.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arc_suite::common::payload::{stamp, verify, MIN_PAYLOAD_LEN};
use mn_register::{MnRegister, Timestamp};

const AGENTS: usize = 4;
const DASHBOARDS: usize = 6;
const STATUS_SIZE: usize = 2 << 10;
const RUN: Duration = Duration::from_millis(600);

fn main() {
    let mut initial = vec![0u8; MIN_PAYLOAD_LEN];
    stamp(&mut initial, 0);
    // `writer()`/`reader()` below return `Result<_, HandleError>` (the
    // same contract as `ArcRegister`): claiming a fifth agent here would
    // yield `Err(WriterAlreadyClaimed)` rather than a panic or a None.
    let board =
        MnRegister::new(AGENTS, DASHBOARDS, STATUS_SIZE, &initial).expect("valid configuration");
    println!(
        "status board: {} agents (writers), {} dashboards (readers), {} B statuses \
         ({} B heap)",
        board.writers(),
        board.max_readers(),
        board.capacity(),
        board.heap_bytes()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // Agents: write wait-free; the timestamp collect costs M-1 ARC reads.
    for _ in 0..AGENTS {
        let mut agent = board.writer().expect("agent writer handle");
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut buf = vec![0u8; STATUS_SIZE];
            let mut published = 0u64;
            let mut last_ts = Timestamp { counter: 0, writer: 0 };
            while !stop.load(Ordering::Relaxed) {
                published += 1;
                stamp(&mut buf, (agent.id() as u64) << 48 | published);
                let ts = agent.write(&buf);
                assert!(ts > last_ts, "agent timestamps must advance");
                last_ts = ts;
            }
            (agent.id(), published, last_ts)
        }));
    }

    // Dashboards: read the newest status; timestamps must never regress.
    let mut dash_handles = Vec::new();
    for d in 0..DASHBOARDS {
        let mut dash = board.reader().expect("dashboard reader handle");
        let stop = Arc::clone(&stop);
        dash_handles.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            let mut last = Timestamp { counter: 0, writer: 0 };
            let mut sources = [0u64; AGENTS];
            while !stop.load(Ordering::Relaxed) {
                dash.read_with(|status, ts| {
                    verify(status).expect("dashboard saw a torn status");
                    assert!(ts >= last, "dashboard saw time run backwards");
                    last = ts;
                    sources[ts.writer as usize] += 1;
                });
                reads += 1;
            }
            (d, reads, last, sources)
        }));
    }

    let started = Instant::now();
    while started.elapsed() < RUN {
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);

    println!("\nagents:");
    let mut newest = Timestamp { counter: 0, writer: 0 };
    for h in handles {
        let (id, published, last_ts) = h.join().expect("agent panicked");
        println!("  agent {id}: {published} statuses, final ts {last_ts:?}");
        newest = newest.max(last_ts);
    }
    println!("\ndashboards:");
    for h in dash_handles {
        let (d, reads, last, sources) = h.join().expect("dashboard panicked");
        println!("  dash {d}: {reads} reads, final ts {last:?}, per-agent mix {sources:?}");
    }
    println!("\nglobal newest timestamp: {newest:?}");
    println!("multi_writer OK — every dashboard saw a monotone, torn-free history");
}
