//! `watch_4k`: ROADMAP item 1's "publish to a parked watcher waking" row,
//! at the paper's 4 KB value size. One register of an `ArcGroup`, a
//! writer, and a consumer parked in the watch layer between values. Each
//! value costs a 4 KB copy on the write side, the wake of a parked
//! consumer, and a zero-copy read whose every byte the consumer checks.
//!
//! No source fixes a publication rate, so the loop is closed: the writer
//! publishes the next value [`PARK_GAP_NS`] after the consumer has taken
//! the previous one, which leaves the consumer time to park again, and
//! each value meets a parked watcher. The writer spins through the gap:
//! a sleeping writer would leave both CPUs idle, and on a virtual machine
//! waking an idle CPU then takes up to a millisecond, which would swamp
//! what the watch layer costs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use arc_register::{ArcGroup, GroupReader, GroupWriter};

use crate::harness::{
    repeat_setup, run_pair, setup_again, teardown, Clock, Consumed, Outcome, Phase, Rng, Setups,
    Span, Trace, Written, MEASURE, STOP,
};
use crate::payload::{Bodies, VALUE};

/// Set-ups before the run and again after it (each takes microseconds):
/// 8 batches of a quarter second.
const SETUPS: Setups = Setups { batches: 8, batch_ns: 250_000_000 };
const PARK_GAP_NS: u64 = 50_000;
/// Bounds one park, so that the consumer sees the stop promptly.
const PARK: Duration = Duration::from_millis(20);

pub fn run(seed: u64, seconds: u64, trace: bool, clock: &Clock) -> Outcome {
    let bodies = Bodies::new(seed);
    let mut tr = Trace::new(trace);
    let initial = bodies.initial();
    let mut setup = |tr: &mut Trace| {
        let start = clock.now();
        let group =
            ArcGroup::builder(1, 1, VALUE).initial(&initial).build().expect("build the group");
        let built = clock.now();
        let writer = group.writer(0).expect("claim the writer");
        let reader = group.reader(0).expect("claim a reader");
        tr.add(Span::Build, start, built);
        tr.add(Span::Handles, built, clock.now());
        (group, writer, reader)
    };
    let mut setup_ns = Vec::new();
    let (group, writer, reader) = repeat_setup(SETUPS, clock, &mut tr, &mut setup, &mut setup_ns);
    let phase = Phase::new(clock, seconds);
    // The last version the consumer took: Release after its check, Acquire
    // in the writer, which publishes nothing through it but its pacing.
    let taken = AtomicU64::new(0);
    let ((published, written), (mut reader, consumed)) = run_pair(
        || write_loop(phase, clock, trace, seed, &bodies, &taken, writer),
        || watch_loop(phase, clock, trace, &bodies, &taken, reader),
    );
    let snap = reader.read();
    let final_check = snap.version() == published
        && group.published_version(0) == published
        && bodies.decode(&snap).map(|(seq, _)| seq) == Some(published);
    teardown((group, reader), clock, &mut tr);
    setup_again(SETUPS, clock, &mut tr, setup, &mut setup_ns);
    Outcome::new(setup_ns, written, consumed, final_check, tr)
}

fn write_loop(
    phase: Phase,
    clock: &Clock,
    trace: bool,
    seed: u64,
    bodies: &Bodies,
    taken: &AtomicU64,
    mut writer: GroupWriter,
) -> (u64, Written) {
    let mut out = Written::new(trace);
    let mut pick = Rng::new(seed, 2);
    let mut seq = 0;
    loop {
        let start = clock.now();
        let p = phase.at(start);
        if p == STOP {
            return (seq, out);
        }
        out.trace.measuring(p == MEASURE);
        let ok = writer.try_write_with(VALUE, bodies.fill(seq + 1, start, &mut pick)).is_ok();
        let end = clock.now();
        seq += u64::from(ok);
        out.record(p == MEASURE, ok, start, end);
        while taken.load(Ordering::Acquire) < seq && phase.at(clock.now()) != STOP {
            std::hint::spin_loop();
        }
        let acked = clock.now();
        while clock.now() < acked + PARK_GAP_NS {
            std::hint::spin_loop();
        }
    }
}

fn watch_loop(
    phase: Phase,
    clock: &Clock,
    trace: bool,
    bodies: &Bodies,
    taken: &AtomicU64,
    mut reader: GroupReader,
) -> (GroupReader, Consumed) {
    let mut out = Consumed::new(trace);
    let group: Arc<ArcGroup> = Arc::clone(reader.group());
    let mut last = 0u64;
    loop {
        let woke = group.wait_for_update_timeout(0, last, PARK).is_some();
        let noticed = clock.now();
        let p = phase.at(noticed);
        if p == STOP {
            return (reader, out);
        }
        let measuring = p == MEASURE;
        out.trace.measuring(measuring);
        if !woke {
            continue;
        }
        let guard = reader.read_ref();
        let held = clock.now();
        out.read(measuring, guard.fast(), noticed, held);
        let version = guard.version();
        match out.trace.time(clock, Span::Verify, || bodies.decode(&guard)) {
            Some((seq, stamp)) if seq == version && version > last => {
                out.seen(measuring, stamp, noticed, held);
            }
            _ => out.failed += 1,
        }
        drop(guard);
        last = version;
        taken.store(version, Ordering::Release);
    }
}
