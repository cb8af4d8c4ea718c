//! Market-data fan-out: one feed handler publishes order-book snapshots,
//! many strategy threads consume the freshest book — **watch-driven**.
//!
//! ```text
//! cargo run --release --example market_data
//! ```
//!
//! Pre-ISSUE-4 every strategy busy-polled `read()` at full speed, mostly
//! re-validating the book it already had. Strategies now park in
//! [`TypedReader::wait_for_update`] and wake once per *fresh* book:
//! the feed handler never blocks (its write path is the unchanged
//! wait-free protocol plus one version bump), a slow strategy never sees
//! a torn book, and a fast feed simply coalesces — each wake delivers the
//! newest book, versions may skip, sequence numbers never go backwards.
//!
//! The demo verifies book integrity on every wake (bids descending, asks
//! ascending, internal checksum) and reports per-strategy wake counts
//! against the publish count — the coalescing ratio a real trading stack
//! tunes around.
//!
//! [`TypedReader::wait_for_update`]: arc_suite::TypedReader::wait_for_update

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arc_suite::TypedArc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DEPTH: usize = 64;
const STRATEGIES: usize = 6;
const RUN: Duration = Duration::from_millis(800);

/// A fixed-depth L2 order book snapshot.
#[derive(Clone)]
struct OrderBook {
    seq: u64,
    bids: Vec<(u64, u32)>, // (price ticks, qty), descending prices
    asks: Vec<(u64, u32)>, // ascending prices
    checksum: u64,
}

impl OrderBook {
    fn synthetic(seq: u64, rng: &mut SmallRng) -> Self {
        let mid = 10_000 + (rng.random_range(0..200u64));
        let bids: Vec<(u64, u32)> =
            (0..DEPTH).map(|i| (mid - 1 - i as u64, rng.random_range(1..1000))).collect();
        let asks: Vec<(u64, u32)> =
            (0..DEPTH).map(|i| (mid + 1 + i as u64, rng.random_range(1..1000))).collect();
        let checksum = Self::fold(seq, &bids, &asks);
        Self { seq, bids, asks, checksum }
    }

    fn fold(seq: u64, bids: &[(u64, u32)], asks: &[(u64, u32)]) -> u64 {
        let mut acc = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for &(p, q) in bids.iter().chain(asks) {
            acc = acc.rotate_left(7) ^ p.wrapping_mul(31).wrapping_add(q as u64);
        }
        acc
    }

    /// Full structural validation — fails loudly on any torn snapshot.
    fn validate(&self) {
        assert!(self.bids.windows(2).all(|w| w[0].0 > w[1].0), "bids must descend");
        assert!(self.asks.windows(2).all(|w| w[0].0 < w[1].0), "asks must ascend");
        assert!(self.bids[0].0 < self.asks[0].0, "book must not be crossed");
        assert_eq!(
            self.checksum,
            Self::fold(self.seq, &self.bids, &self.asks),
            "checksum mismatch: torn snapshot"
        );
    }

    fn spread(&self) -> u64 {
        self.asks[0].0 - self.bids[0].0
    }
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);
    let book0 = OrderBook::synthetic(0, &mut rng);
    let register = TypedArc::new(STRATEGIES as u32, book0);
    let stop = Arc::new(AtomicBool::new(false));

    // Strategy threads: park until the feed publishes a fresh book,
    // verify integrity, track coalescing. Monotonicity is structural now —
    // every wake returns a version strictly past the watermark — and the
    // demo still asserts it.
    let mut strategies = Vec::new();
    for sid in 0..STRATEGIES {
        let mut watcher = register.reader().expect("strategy watcher");
        let stop = Arc::clone(&stop);
        strategies.push(std::thread::spawn(move || {
            let mut wakes = 0u64;
            let mut last_version = 0u64;
            let mut last_seq = 0u64;
            let mut monotone_violations = 0u64;
            let mut spread_acc = 0u64;
            while !stop.load(Ordering::Acquire) {
                // Parked between books; the timeout only bounds shutdown.
                let Some(got) = watcher.wait_for_update_timeout(last_version, RUN) else {
                    continue;
                };
                let book = got.value;
                book.validate();
                if book.seq < last_seq {
                    monotone_violations += 1; // per-watcher regression = bug
                }
                last_seq = book.seq;
                last_version = got.version;
                spread_acc += book.spread();
                wakes += 1;
            }
            (sid, wakes, last_seq, monotone_violations, spread_acc / wakes.max(1))
        }));
    }

    // Feed handler: publish synthetic books at full speed.
    let mut writer = register.writer().expect("single writer");
    let started = Instant::now();
    let mut published = 0u64;
    while started.elapsed() < RUN {
        published += 1;
        // The displaced (long superseded) book comes back for reuse; a real
        // feed handler would recycle its allocations here.
        let _recycled = writer.write(OrderBook::synthetic(published, &mut rng));
    }
    stop.store(true, Ordering::Release);
    // Final book after raising the flag: wakes any parked strategy so it
    // observes the stop promptly (the lost-wakeup-free edge guarantees
    // this wake lands).
    published += 1;
    writer.write(OrderBook::synthetic(published, &mut rng));

    println!("feed handler published {published} books in {RUN:?}\n");
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>10}",
        "strat", "wakes", "last_seq", "regressions", "avg_spread"
    );
    for h in strategies {
        let (sid, wakes, last_seq, regressions, avg_spread) = h.join().expect("strategy panicked");
        println!("{sid:>5} {wakes:>10} {last_seq:>12} {regressions:>10} {avg_spread:>10}");
        assert_eq!(regressions, 0, "a strategy observed sequence numbers going backwards");
        assert!(wakes > 0, "strategy {sid} never woke");
        // Coalescing keeps every wake fresh: the final seq each strategy
        // saw must be within sight of the last published book.
        assert!(published - last_seq < published / 2 + 1000, "strategy hopelessly stale");
    }
    println!("\nall books valid, no regressions — market_data OK (watch-driven, no busy-polling)");
}
