//! The watch layer: learn that the register changed without re-reading it.
//!
//! The paper's register answers "what is the value now?" in O(1); every
//! *reactive* consumer built on it (config reload, market-data fan-out)
//! still had to busy-poll to answer "has the value changed?". This module
//! adds that missing edge, following the version-function treatment of
//! atomic registers: every publication carries a monotone `u64` version
//! (see [`crate::raw`]'s event word), and watchers park on that word in
//! the slab until the version passes their watermark.
//!
//! **Wait-freedom is preserved.** The read and write paths are unchanged
//! except for the writer's post-W2 version bump (one release store) and
//! the wake check after it (a fence and one relaxed load of the
//! register's waiter word; no syscall when nobody waits). Only the
//! watcher blocks, and only because it *asked* to — a watcher is a
//! consumer with nothing to do until the next write, so parking it is the
//! point, not a protocol concession. The lost-wakeup argument is in
//! [`crate::raw`] (the watch edge); the test-only `model_check` module
//! runs the shipped wait and wake in watcher threads and checks it.
//!
//! Shapes of watching:
//!
//! * Every reader handle's `wait_for_update`
//!   ([`GroupReader::wait_for_update`] for bytes,
//!   [`TypedReader::wait_for_update`] for `T`) parks until the version
//!   passes a watermark, then reads; [`crate::ArcGroup::wait_for_update`]
//!   parks without a reader handle. A thread parks on its register's own
//!   version word (a futex on Linux), so a publication through any
//!   mapping of the slab, in any process, wakes it, and nothing else
//!   does. Elsewhere a parked thread re-checks every millisecond.
//! * [`crate::ArcGroup::poll_changed`] — the batch edge: one pass over
//!   the group's adjacent header lines, no parking, no handles.
//! * [`VersionStream`] — the versions as a poll-based stream for
//!   executor-driven consumers. A task cannot park on the slab: it leaves
//!   its waker in a list of the mapping and registers in the same waiter
//!   word, so a stream hears only publications made through its own
//!   mapping (in its own process).
//!
//! [`GroupReader::wait_for_update`]: crate::GroupReader::wait_for_update
//! [`TypedReader::wait_for_update`]: crate::TypedReader::wait_for_update

use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::group::{Register0, RegisterOwner, LOCAL};
use crate::register::ArcRegister;
use crate::typed::TypedArc;

/// An endless stream of publication versions: each successful poll
/// yields the newest version strictly greater than the last yielded
/// one (intermediate versions are coalesced — watchers want the
/// freshest state, not a replay log).
///
/// No executor dependency: any `std::task`-driven runtime works. The
/// stream is woken by publications made through the same mapping of the
/// register (module docs).
pub struct VersionStream<S> {
    src: Arc<S>,
    last: u64,
}

impl<S: RegisterOwner<Index = Register0>> VersionStream<S> {
    /// Watch `src` for publications past `last` (pass the version of
    /// the value you already have, or 0 to hear about the first
    /// write).
    pub fn new(src: Arc<S>, last: u64) -> Self {
        Self { src, last }
    }

    /// Poll for the next version. On `Pending` the task's waker waits
    /// for the register's next publication, whose wake fires it.
    pub fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<u64> {
        match self.src.slab_group(LOCAL).poll_update(0, self.last, cx.waker()) {
            Some(v) => {
                self.last = v;
                Poll::Ready(v)
            }
            None => Poll::Pending,
        }
    }

    /// The next version as a future: `stream.next().await`.
    // Deliberately named like Iterator::next / StreamExt::next — that
    // is the call-site idiom this stands in for (no futures dep).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> NextVersion<'_, S> {
        NextVersion { stream: self }
    }

    /// The last version this stream yielded (its watermark).
    pub fn last(&self) -> u64 {
        self.last
    }
}

/// Future returned by [`VersionStream::next`].
pub struct NextVersion<'a, S> {
    stream: &'a mut VersionStream<S>,
}

impl<S: RegisterOwner<Index = Register0>> std::future::Future for NextVersion<'_, S> {
    type Output = u64;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
        self.get_mut().stream.poll_next(cx)
    }
}

impl ArcRegister {
    /// An async stream of this register's publication versions.
    pub fn version_stream(self: &Arc<Self>, last: u64) -> VersionStream<ArcRegister> {
        VersionStream::new(Arc::clone(self), last)
    }
}

impl<T: Send + Sync> TypedArc<T> {
    /// An async stream of this register's publication versions.
    pub fn version_stream(self: &Arc<Self>, last: u64) -> VersionStream<TypedArc<T>> {
        VersionStream::new(Arc::clone(self), last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    use crate::group::Sealed;
    use crate::typed::Versioned;

    #[test]
    fn wait_for_update_sees_new_value() {
        let reg = ArcRegister::builder(2, 64).initial(b"v0").build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut watch = reg.reader().unwrap();
        let first = watch.read_versioned();
        assert_eq!(first.version, 0);
        w.write(b"v1");
        let snap = watch.wait_for_update(0);
        assert_eq!(&*snap, b"v1");
        assert_eq!(snap.version(), 1);
    }

    #[test]
    fn wait_parks_until_publish() {
        let reg = ArcRegister::builder(2, 64).initial(b"v0").build().unwrap();
        let waiter = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.reader().unwrap().wait_for_update(0).version())
        };
        // A watcher registers in the waiter word only once it has found
        // no newer version, right before it parks: seeing the
        // registration proves it was waiting before the write.
        while reg.slab_group(LOCAL).waiters(0) == 0 {
            std::thread::yield_now();
        }
        let mut w = reg.writer().unwrap();
        w.write(b"v1");
        assert_eq!(waiter.join().unwrap(), 1);
    }

    #[test]
    fn wait_timeout_expires_without_write() {
        let reg = ArcRegister::builder(1, 16).build().unwrap();
        let mut watch = reg.reader().unwrap();
        assert!(watch.wait_for_update_timeout(0, Duration::from_millis(5)).is_none());
    }

    #[test]
    fn wake_never_delivers_the_old_value() {
        // The bump-after-W2 contract: a woken watcher's read is always at
        // least the publication that woke it.
        let reg = ArcRegister::builder(4, 16).build().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        // Watchers and writer start together, so no watcher can miss the
        // whole run because the scheduler ran the writer first.
        let start = Arc::new(std::sync::Barrier::new(3));
        let mut watchers = Vec::new();
        for _ in 0..2 {
            let mut watch = reg.reader().unwrap();
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            watchers.push(std::thread::spawn(move || {
                let mut last = 0;
                let mut wakes = 0u64;
                start.wait();
                // `stop` is honoured only after a checked wake: the writer
                // publishes after setting it, so every watcher wakes at
                // least once, however late it is scheduled.
                while wakes == 0 || !stop.load(Ordering::SeqCst) {
                    if let Some(snap) =
                        watch.wait_for_update_timeout(last, Duration::from_millis(50))
                    {
                        assert!(
                            snap.version() > last,
                            "wake at watermark {last} delivered version {}",
                            snap.version()
                        );
                        last = snap.version();
                        wakes += 1;
                    }
                }
                wakes
            }));
        }
        let mut w = reg.writer().unwrap();
        start.wait();
        for i in 0..2000u64 {
            w.write(&i.to_le_bytes());
        }
        stop.store(true, Ordering::SeqCst);
        w.write(b"final"); // wakes any watcher still parked
        for h in watchers {
            assert!(h.join().unwrap() > 0, "every watcher must check at least one wake");
        }
    }

    #[test]
    fn typed_reader_waits_for_update() {
        let reg = TypedArc::new(2, 10u64);
        let mut w = reg.writer().unwrap();
        let mut watch = reg.reader().unwrap();
        assert_eq!(watch.read_versioned(), Versioned { version: 0, value: &10 });
        w.write(11);
        let got = watch.wait_for_update(0);
        assert_eq!((got.version, *got.value), (1, 11));
        assert!(watch.wait_for_update_timeout(1, Duration::from_millis(5)).is_none());
        assert_eq!(reg.published_version(), 1);
    }

    #[test]
    fn version_stream_yields_on_publish() {
        use std::task::{Wake, Waker};

        // A minimal thread-parking executor: Wake unparks the poller.
        struct Unpark(std::thread::Thread);
        impl Wake for Unpark {
            fn wake(self: Arc<Self>) {
                self.0.unpark();
            }
        }

        let reg = ArcRegister::builder(2, 16).initial(b"v0").build().unwrap();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let streamer = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
                let mut cx = std::task::Context::from_waker(&waker);
                let mut stream = reg.version_stream(0);
                let mut yielded = Vec::new();
                while yielded.len() < 3 {
                    match stream.poll_next(&mut cx) {
                        std::task::Poll::Ready(v) => {
                            yielded.push(v);
                            seen_tx.send(v).unwrap();
                        }
                        std::task::Poll::Pending => std::thread::park(),
                    }
                }
                yielded
            })
        };
        let mut w = reg.writer().unwrap();
        for i in 1..=3u64 {
            w.write(&i.to_le_bytes());
            // A stream coalesces the versions it has not polled yet, so
            // publish the next one only after this one was yielded.
            let seen = seen_rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(seen, Ok(i), "the stream must yield version {i}");
        }
        let yielded = streamer.join().unwrap();
        assert_eq!(yielded.len(), 3);
        assert!(yielded.windows(2).all(|w| w[0] < w[1]), "versions strictly increase");
        assert_eq!(*yielded.last().unwrap(), 3);
    }
}
