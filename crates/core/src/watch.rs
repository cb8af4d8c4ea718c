//! The watch layer: learn that the register changed without re-reading it.
//!
//! The paper's register answers "what is the value now?" in O(1); every
//! *reactive* consumer built on it (config reload, market-data fan-out)
//! still had to busy-poll to answer "has the value changed?". This module
//! adds that missing edge, following the version-function treatment of
//! atomic registers: every publication carries a monotone `u64` version
//! (see [`crate::raw`]'s event word), and watchers park on a
//! [`sync_primitives::WaitSet`] until the version passes their watermark.
//!
//! **Wait-freedom is preserved.** The read and write paths are unchanged
//! except for the writer's post-W2 version bump (one release store) and
//! `notify_all`'s fence + relaxed load (no lock when nobody waits). Only
//! the watcher blocks, and only because it *asked* to — a watcher is a
//! consumer with nothing to do until the next write, so parking it is the
//! point, not a protocol concession. The lost-wakeup-freedom of the park
//! edge is model-checked exhaustively by `interleave::notify_model`.
//!
//! Three shapes of watching:
//!
//! * [`WatchReader`] — a reader handle plus the blocking edge:
//!   [`WatchReader::wait_for_update`] parks until the version passes a
//!   watermark, then reads.
//! * [`TypedWatchReader`] — the same over a [`TypedArc`].
//! * [`crate::ArcGroup::poll_changed`] — the batch edge: one pass over
//!   the group's adjacent header lines, no parking, no handles.
//! * (`async` feature) `VersionStream` — the versions as a poll-based
//!   stream for executor-driven consumers.

use std::sync::Arc;
use std::time::Duration;

use crate::errors::HandleError;
use crate::register::{ArcReader, ArcRegister, Snapshot};
use crate::typed::{TypedArc, TypedReader, Versioned};

/// A reader handle that can park until the register changes.
///
/// Obtain via [`ArcRegister::watch_reader`]. Wraps an [`ArcReader`] (and
/// counts against the same `max_readers` cap); reads are the identical
/// wait-free Algorithm 2, and [`WatchReader::wait_for_update`] adds the
/// opt-in blocking edge.
pub struct WatchReader {
    inner: ArcReader,
}

impl WatchReader {
    pub(crate) fn new(inner: ArcReader) -> Self {
        Self { inner }
    }

    /// Read the most recent value (wait-free; identical to
    /// [`ArcReader::read`]). The snapshot carries its version.
    #[inline]
    pub fn read(&mut self) -> Snapshot<'_> {
        self.inner.read()
    }

    /// Read the most recent value with its version, explicitly paired.
    #[inline]
    pub fn read_versioned(&mut self) -> Versioned<Snapshot<'_>> {
        self.inner.read_versioned()
    }

    /// Read the most recent value as an RAII zero-copy guard (identical to
    /// [`ArcReader::read_ref`]).
    #[inline]
    pub fn read_ref(&mut self) -> crate::register::ReadGuard<'_> {
        self.inner.read_ref()
    }

    /// The register's published version right now (cheap poll).
    #[inline]
    pub fn published_version(&self) -> u64 {
        self.inner.register().published_version()
    }

    /// Park until the register publishes **past** `last`, then read.
    ///
    /// The returned snapshot's [`Snapshot::version`] is at least
    /// `last + 1` — the wake happens strictly after the W2 publication it
    /// announces, so the post-wake read can never deliver the old value.
    /// Typical loop: `last = watch.wait_for_update(last).version()`.
    pub fn wait_for_update(&mut self, last: u64) -> Snapshot<'_> {
        self.inner.register().group().wait_for_update(0, last);
        self.read()
    }

    /// Like [`WatchReader::wait_for_update`] with a timeout: `None` if no
    /// newer publication arrived in time.
    pub fn wait_for_update_timeout(
        &mut self,
        last: u64,
        timeout: Duration,
    ) -> Option<Snapshot<'_>> {
        self.inner.register().group().wait_for_update_timeout(0, last, timeout)?;
        Some(self.read())
    }

    /// The underlying plain reader, for APIs that want one.
    pub fn into_reader(self) -> ArcReader {
        self.inner
    }
}

impl std::fmt::Debug for WatchReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchReader").field("inner", &self.inner).finish()
    }
}

impl ArcRegister {
    /// Register a watch-capable reader handle (counts against
    /// `max_readers` exactly like [`ArcRegister::reader`]).
    pub fn watch_reader(self: &Arc<Self>) -> Result<WatchReader, HandleError> {
        Ok(WatchReader::new(self.reader()?))
    }
}

/// A typed reader handle that can park until the register changes.
///
/// Obtain via [`TypedArc::watch_reader`].
pub struct TypedWatchReader<T: Send + Sync> {
    inner: TypedReader<T>,
}

impl<T: Send + Sync> TypedWatchReader<T> {
    /// Read the most recent value (wait-free; identical to
    /// [`TypedReader::read`]).
    #[inline]
    pub fn read(&mut self) -> &T {
        self.inner.read()
    }

    /// Read the most recent value with its publication version.
    #[inline]
    pub fn read_versioned(&mut self) -> Versioned<&T> {
        self.inner.read_versioned()
    }

    /// Read the most recent value as an RAII guard (identical to
    /// [`TypedReader::read_ref`]).
    #[inline]
    pub fn read_ref(&mut self) -> crate::typed::TypedReadGuard<'_, T> {
        self.inner.read_ref()
    }

    /// The register's published version right now (cheap poll).
    #[inline]
    pub fn published_version(&self) -> u64 {
        self.inner.register().published_version()
    }

    /// Park until the register publishes past `last`, then read; the
    /// returned version is at least `last + 1` (see
    /// [`WatchReader::wait_for_update`]).
    pub fn wait_for_update(&mut self, last: u64) -> Versioned<&T> {
        self.inner.register().group().wait_for_update(0, last);
        self.read_versioned()
    }

    /// Like [`TypedWatchReader::wait_for_update`] with a timeout; `None`
    /// if no newer publication arrived in time.
    pub fn wait_for_update_timeout(
        &mut self,
        last: u64,
        timeout: Duration,
    ) -> Option<Versioned<&T>> {
        self.inner.register().group().wait_for_update_timeout(0, last, timeout)?;
        Some(self.read_versioned())
    }
}

impl<T: Send + Sync> TypedArc<T> {
    /// Register a watch-capable reader handle (counts against
    /// `max_readers` exactly like [`TypedArc::reader`]).
    pub fn watch_reader(self: &Arc<Self>) -> Result<TypedWatchReader<T>, HandleError> {
        Ok(TypedWatchReader { inner: self.reader()? })
    }
}

#[cfg(feature = "async")]
pub use self::stream::{NextVersion, VersionStream, WatchSource};

#[cfg(feature = "async")]
mod stream {
    //! Poll-based version streams over the same [`WaitSet`] edge — no
    //! executor dependency, any `std::task`-driven runtime works.
    //!
    //! [`WaitSet`]: sync_primitives::WaitSet

    use std::pin::Pin;
    use std::sync::Arc;
    use std::task::{Context, Poll};

    use crate::group::ArcGroup;
    use crate::register::ArcRegister;
    use crate::typed::TypedArc;

    /// Sources a [`VersionStream`] can watch (sealed: [`ArcRegister`] and
    /// [`TypedArc`]).
    pub trait WatchSource: Send + Sync + 'static {
        /// The one-register group carrying the version word (register 0)
        /// and the wait set.
        #[doc(hidden)]
        fn group(&self) -> &ArcGroup;
    }

    impl WatchSource for ArcRegister {
        fn group(&self) -> &ArcGroup {
            ArcRegister::group(self)
        }
    }

    impl<T: Send + Sync + 'static> WatchSource for TypedArc<T> {
        fn group(&self) -> &ArcGroup {
            TypedArc::group(self)
        }
    }

    /// An endless stream of publication versions: each successful poll
    /// yields the newest version strictly greater than the last yielded
    /// one (intermediate versions are coalesced — watchers want the
    /// freshest state, not a replay log).
    pub struct VersionStream<S> {
        src: Arc<S>,
        last: u64,
    }

    impl<S: WatchSource> VersionStream<S> {
        /// Watch `src` for publications past `last` (pass the version of
        /// the value you already have, or 0 to hear about the first
        /// write).
        pub fn new(src: Arc<S>, last: u64) -> Self {
            Self { src, last }
        }

        /// Poll for the next version. Registers the task's waker with the
        /// register's wait set on `Pending`; the writer's post-publish
        /// notify wakes it.
        pub fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<u64> {
            let group = self.src.group();
            let v = group.published_version(0);
            if v > self.last {
                self.last = v;
                return Poll::Ready(v);
            }
            // Register-then-recheck: the waker is in the wait set before
            // the second look, so a publish between the two cannot be
            // lost (same Dekker discipline as the blocking edge).
            group.watch_set().register_waker(cx.waker());
            let v = group.published_version(0);
            if v > self.last {
                self.last = v;
                return Poll::Ready(v);
            }
            Poll::Pending
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

    impl<S: WatchSource> std::future::Future for NextVersion<'_, S> {
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

    impl<T: Send + Sync + 'static> TypedArc<T> {
        /// An async stream of this register's publication versions.
        pub fn version_stream(self: &Arc<Self>, last: u64) -> VersionStream<TypedArc<T>> {
            VersionStream::new(Arc::clone(self), last)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn wait_for_update_sees_new_value() {
        let reg = ArcRegister::builder(2, 64).initial(b"v0").build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut watch = reg.watch_reader().unwrap();
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
        let parked = Arc::new(AtomicBool::new(true));
        let waiter = {
            let reg = Arc::clone(&reg);
            let parked = Arc::clone(&parked);
            std::thread::spawn(move || {
                let mut watch = reg.watch_reader().unwrap();
                let snap = watch.wait_for_update(0);
                parked.store(false, Ordering::SeqCst);
                snap.version()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(parked.load(Ordering::SeqCst), "watcher must park, not spin-return");
        let mut w = reg.writer().unwrap();
        w.write(b"v1");
        assert_eq!(waiter.join().unwrap(), 1);
    }

    #[test]
    fn wait_timeout_expires_without_write() {
        let reg = ArcRegister::builder(1, 16).build().unwrap();
        let mut watch = reg.watch_reader().unwrap();
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
            let mut watch = reg.watch_reader().unwrap();
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
    fn typed_watch_reader_roundtrip() {
        let reg = TypedArc::new(2, 10u64);
        let mut w = reg.writer().unwrap();
        let mut watch = reg.watch_reader().unwrap();
        assert_eq!(watch.read_versioned(), Versioned { version: 0, value: &10 });
        w.write(11);
        let got = watch.wait_for_update(0);
        assert_eq!((got.version, *got.value), (1, 11));
        assert_eq!(watch.published_version(), 1);
    }

    #[cfg(feature = "async")]
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
