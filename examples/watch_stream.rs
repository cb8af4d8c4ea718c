//! Async watching: consume a register's publication versions as a stream.
//!
//! ```text
//! cargo run --release --example watch_stream
//! ```
//!
//! [`VersionStream`] is a poll-based stream of publication versions over
//! the register's waiter word, the edge a blocking
//! [`ArcReader::wait_for_update`] parks on — no executor dependency, any
//! `std::task`-driven runtime works. A stream hears publications made
//! through its own mapping of the register. This example drives it with a
//! ~30-line thread-parking executor built from `std::task::Wake` to show
//! the contract end to end: each `next().await` resolves to the newest
//! version strictly past the last one yielded, and the paired wait-free
//! read then fetches that (or a newer) value.
//!
//! [`VersionStream`]: arc_suite::VersionStream
//! [`ArcReader::wait_for_update`]: arc_suite::ArcReader::wait_for_update

use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use arc_suite::ArcRegister;

/// Minimal single-future executor: `wake` unparks the blocked thread.
struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Block the current thread on a future (a 10-line `block_on`).
fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
    }
}

const UPDATES: u64 = 1_000;

fn main() {
    let reg = ArcRegister::builder(4, 64).initial(b"v0").build().expect("valid register");

    // The async consumer: awaits versions, reads wait-free on each yield.
    let consumer = {
        let reg = Arc::clone(&reg);
        std::thread::spawn(move || {
            let mut reader = reg.reader().expect("consumer reader");
            let mut stream = reg.version_stream(0);
            block_on(async move {
                let mut yields = 0u64;
                let mut last = 0u64;
                loop {
                    let version = stream.next().await;
                    assert!(version > last, "stream must yield strictly increasing versions");
                    last = version;
                    yields += 1;
                    let snap = reader.read();
                    assert!(
                        snap.version() >= version,
                        "a yielded version must already be readable"
                    );
                    if version >= UPDATES {
                        return (yields, last);
                    }
                }
            })
        })
    };

    // The producer: ordinary wait-free writes, paced so the consumer
    // genuinely parks between some of them.
    let mut writer = reg.writer().expect("single writer");
    for i in 1..=UPDATES {
        writer.write(format!("update-{i}").as_bytes());
        if i % 64 == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    let (yields, last) = consumer.join().expect("consumer panicked");
    println!(
        "published {UPDATES} updates; stream yielded {yields} versions (coalesced), last {last}"
    );
    assert_eq!(last, UPDATES, "the final publication must reach the stream");
    println!("watch_stream OK — async watching over the wait-free register");
}
