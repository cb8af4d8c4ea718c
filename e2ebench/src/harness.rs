//! What every workload shares: the clock, repeated set-ups, the
//! warm-up / measure / stop phases, CPU placement, the seeded input
//! generator, sample histograms and the per-layer trace.

use std::time::Instant;

/// Monotonic nanoseconds since the run started. A timed call includes one
/// clock read, whose cost is left in: on a virtual machine it switches
/// between two levels (about 38 and 55 ns on the machine the benchmark
/// was tuned on) from one tenth of a second to the next, so a
/// calibration taken once would not match the run.
#[derive(Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Clock { epoch: Instant::now() }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

pub const WARMUP: u8 = 0;
pub const MEASURE: u8 = 1;
pub const STOP: u8 = 2;

const WARMUP_NS: u64 = 1_000_000_000;

/// The run's schedule on the shared clock: warm up for a second, then
/// measure for the run's seconds, then stop. Every worker reads the clock
/// anyway, so each finds its phase without any state shared between
/// threads; workers record samples only in [`MEASURE`].
#[derive(Clone, Copy)]
pub struct Phase {
    measure_at: u64,
    stop_at: u64,
}

impl Phase {
    pub fn new(clock: &Clock, seconds: u64) -> Self {
        let measure_at = clock.now() + WARMUP_NS;
        Phase { measure_at, stop_at: measure_at + seconds * 1_000_000_000 }
    }

    #[inline]
    pub fn at(&self, now: u64) -> u8 {
        if now < self.measure_at {
            WARMUP
        } else if now < self.stop_at {
            MEASURE
        } else {
            STOP
        }
    }
}

/// How long to set the plane up, both before the run and after it.
pub struct Setups {
    /// Batches, run on the two CPUs in turn.
    pub batches: usize,
    /// A batch sets up back to back, at least once, until this much time
    /// has passed.
    pub batch_ns: u64,
}

/// Set the plane up in `n.batches` batches, tearing each plane down
/// before the next, and add each set-up's nanoseconds to `times`; returns
/// the last plane. On a virtual machine each CPU switches, every tenth of
/// a second to every few seconds, between running the set-up's system
/// calls at full speed and about half again as slow (its sibling
/// hardware thread busy, apparently), so the batches alternate between
/// the two CPUs and the workloads time them both before and after the
/// run (see [`setup_again`]); [`setup_seconds`] then takes the fast end.
pub fn repeat_setup<P>(
    n: Setups,
    clock: &Clock,
    trace: &mut Trace,
    mut setup: impl FnMut(&mut Trace) -> P,
    times: &mut Vec<u64>,
) -> P {
    let mut plane = None;
    for batch in 0..n.batches {
        pin(if batch % 2 == 0 { CONSUMER_CPU } else { WRITER_CPU });
        let batch_start = clock.now();
        while plane.is_none() || clock.now() < batch_start + n.batch_ns {
            if let Some(old) = plane.take() {
                teardown(old, clock, trace);
            }
            let start = clock.now();
            plane = Some(setup(trace));
            times.push(clock.now() - start);
        }
    }
    pin(CONSUMER_CPU);
    plane.expect("at least one set-up")
}

/// Time `n` more batches of set-ups once the run is over, so that the
/// set-up figure spans the whole run.
pub fn setup_again<P>(
    n: Setups,
    clock: &Clock,
    trace: &mut Trace,
    setup: impl FnMut(&mut Trace) -> P,
    times: &mut Vec<u64>,
) {
    let plane = repeat_setup(n, clock, trace, setup, times);
    teardown(plane, clock, trace);
}

/// The set-up figure: the 1st percentile of every set-up's time, in
/// seconds. A median would follow the host: it sits near the slow level
/// or the fast one depending on which filled more of the run, and its
/// median over ten runs moved by a quarter from one set of ten to the
/// next. The 1st percentile lands on the fast level in any run that saw
/// it for a hundredth of its set-ups, and still moves with the cost of
/// every set-up.
pub fn setup_seconds(times: &mut [u64]) -> f64 {
    times.sort_unstable();
    quantile_sorted(times, 0.01) / 1e9
}

/// The `q` quantile of sorted samples, interpolated between neighbours.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else { return f64::NAN };
    let rank = (sorted.len() - 1) as f64 * q;
    let below = rank.floor() as usize;
    let above = sorted.get(below + 1).copied().unwrap_or(last);
    sorted[below] as f64 + (rank - below as f64) * (above - sorted[below]) as f64
}

pub fn teardown<P>(plane: P, clock: &Clock, trace: &mut Trace) {
    let start = clock.now();
    drop(plane);
    trace.add(Span::Teardown, start, clock.now());
}

/// The consumer's CPU, which the set-up also runs on.
pub const CONSUMER_CPU: usize = 0;
pub const WRITER_CPU: usize = 1;

/// Run `writer` and `consumer` on threads of their own, each pinned to
/// its CPU, until both have passed the end of the schedule.
pub fn run_pair<W: Send, C: Send>(
    writer: impl FnOnce() -> W + Send,
    consumer: impl FnOnce() -> C + Send,
) -> (W, C) {
    std::thread::scope(|s| {
        let w = s.spawn(|| {
            pin(WRITER_CPU);
            writer()
        });
        let c = s.spawn(|| {
            pin(CONSUMER_CPU);
            consumer()
        });
        (w.join().expect("writer thread panicked"), c.join().expect("consumer thread panicked"))
    })
}

/// SplitMix64: the seeded source of every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

/// The SplitMix64 finalizer, also used to tie a payload's words together
/// so a torn read fails its check.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whole-nanosecond classes kept; a longer sample counts in the last.
const CLASSES: usize = 1 << 20;

/// Every sample of a run, counted in 1 ns classes, so that hundreds of
/// millions of timed calls cost a fixed 8 MiB per histogram.
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { counts: vec![0; CLASSES], n: 0 }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[(ns as usize).min(CLASSES - 1)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q` quantile (0..1), interpolated inside its 1 ns class (the
    /// grouped-data quantile), so it is not rounded to a whole number.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = self.n as f64 * q;
        let mut below = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                return ns as f64 - 0.5 + (rank - below as f64) / c as f64;
            }
            below += c;
        }
        f64::NAN
    }
}

/// Pin the calling thread to `cpu`; best effort (a machine without that
/// CPU leaves the thread where it was), reported on stderr.
pub fn pin(cpu: usize) {
    if let Err(e) = workload_harness::procs::pin_to_cpu(cpu) {
        eprintln!("note: could not pin to cpu {cpu}: {e}");
    }
}

/// The layer boundaries a traced run records. Every span wraps one call
/// from the benchmark into the library (or, for `Verify`, the
/// benchmark's own check of a value); none contains another, so each
/// span's duration is its self time.
#[derive(Clone, Copy)]
pub enum Span {
    /// Constructing the plane (the register, or the slab and its memfd).
    Build,
    /// Claiming handles: writer and reader roles, and attaching a second
    /// mapping.
    Handles,
    /// Dropping handles and plane.
    Teardown,
    /// One write call: the publish path.
    Write,
    /// One read call.
    Read,
    /// The benchmark's check of one value read.
    Verify,
}

const SPANS: usize = 6;

/// Per-layer aggregates of a traced run: count and summed duration per
/// span kind, and per value the consumer took, the lag from its write
/// start to the consumer learning of it and to the consumer holding it.
/// Spans are summed as they close rather than kept one by one: a run
/// closes hundreds of millions of them.
#[derive(Clone, Default)]
pub struct Trace {
    /// Whether this is a traced run.
    enabled: bool,
    /// Whether spans are being recorded now (traced run, measured phase
    /// or set-up).
    on: bool,
    count: [u64; SPANS],
    total_ns: [u64; SPANS],
    pub slow_reads: u64,
    pub notices: u64,
    pub notice_ns: u64,
    pub visible_ns: u64,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace { enabled, on: enabled, ..Trace::default() }
    }

    /// A worker's trace: it records only once the phase reads [`MEASURE`].
    pub fn worker(enabled: bool) -> Self {
        Trace { enabled, on: false, ..Trace::default() }
    }

    /// Follow the phase: record while measuring, if this run is traced.
    #[inline]
    pub fn measuring(&mut self, measuring: bool) {
        self.on = self.enabled && measuring;
    }

    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn add(&mut self, span: Span, start: u64, end: u64) {
        if self.on {
            self.count[span as usize] += 1;
            self.total_ns[span as usize] += end.saturating_sub(start);
        }
    }

    /// Time `f` as one `span` when tracing; call it bare otherwise.
    #[inline(always)]
    pub fn time<R>(&mut self, clock: &Clock, span: Span, f: impl FnOnce() -> R) -> R {
        if self.on {
            let start = clock.now();
            let r = f();
            self.add(span, start, clock.now());
            r
        } else {
            f()
        }
    }

    pub fn merge(&mut self, other: &Trace) {
        for i in 0..SPANS {
            self.count[i] += other.count[i];
            self.total_ns[i] += other.total_ns[i];
        }
        self.slow_reads += other.slow_reads;
        self.notices += other.notices;
        self.notice_ns += other.notice_ns;
        self.visible_ns += other.visible_ns;
    }

    pub fn count(&self, span: Span) -> u64 {
        self.count[span as usize]
    }

    /// Mean self time of `span` in ns, one clock read included.
    pub fn mean_ns(&self, span: Span) -> f64 {
        let n = self.count[span as usize];
        if n == 0 {
            return f64::NAN;
        }
        self.total_ns[span as usize] as f64 / n as f64
    }
}

/// What a writer thread measured.
pub struct Written {
    /// Single write calls (clock read included).
    pub samples: Histogram,
    pub failed: u64,
    pub trace: Trace,
}

impl Written {
    pub fn new(trace: bool) -> Self {
        Written { samples: Histogram::new(), failed: 0, trace: Trace::worker(trace) }
    }

    /// Account one write call that ran from `start` to `end`.
    #[inline]
    pub fn record(&mut self, measuring: bool, ok: bool, start: u64, end: u64) {
        self.failed += u64::from(!ok);
        if measuring {
            self.samples.record(end - start);
            self.trace.add(Span::Write, start, end);
        }
    }
}

/// What a consumer thread measured.
pub struct Consumed {
    /// Single read calls (clock read included).
    pub samples: Histogram,
    /// Write start to the consumer holding the value.
    pub visible: Histogram,
    pub failed: u64,
    pub trace: Trace,
}

impl Consumed {
    pub fn new(trace: bool) -> Self {
        Consumed {
            samples: Histogram::new(),
            visible: Histogram::new(),
            failed: 0,
            trace: Trace::worker(trace),
        }
    }

    /// Account one read call that ran from `start` to `end` and whether
    /// it took the fast path.
    #[inline]
    pub fn read(&mut self, measuring: bool, fast: bool, start: u64, end: u64) {
        if measuring {
            self.samples.record(end - start);
            self.trace.add(Span::Read, start, end);
            if self.trace.on() && !fast {
                self.trace.slow_reads += 1;
            }
        }
    }

    /// Account a new value whose write started at `stamp`, learned of at
    /// `noticed` and held (read) at `held`.
    #[inline]
    pub fn seen(&mut self, measuring: bool, stamp: u64, noticed: u64, held: u64) {
        if measuring {
            self.visible.record(held.saturating_sub(stamp));
            if self.trace.on() {
                self.trace.notices += 1;
                self.trace.notice_ns += noticed.saturating_sub(stamp);
                self.trace.visible_ns += held.saturating_sub(stamp);
            }
        }
    }
}

/// Everything one workload run produced, before it becomes metrics.
pub struct Outcome {
    /// Nanoseconds of each set-up repetition.
    pub setup_ns: Vec<u64>,
    pub write_ns: Histogram,
    pub read_ns: Histogram,
    pub visible: Histogram,
    pub attempted: u64,
    pub failed: u64,
    /// Whether every check of the run passed.
    pub correct: bool,
    pub trace: Trace,
}

impl Outcome {
    pub fn new(
        setup_ns: Vec<u64>,
        written: Written,
        consumed: Consumed,
        final_check: bool,
        mut trace: Trace,
    ) -> Self {
        trace.merge(&written.trace);
        trace.merge(&consumed.trace);
        let failed = written.failed + consumed.failed;
        if !final_check {
            eprintln!("e2ebench: the final state of the plane does not match what was written");
        }
        Outcome {
            setup_ns,
            attempted: written.samples.count() + consumed.samples.count(),
            write_ns: written.samples,
            read_ns: consumed.samples,
            visible: consumed.visible,
            failed,
            correct: failed == 0 && final_check,
            trace,
        }
    }
}
