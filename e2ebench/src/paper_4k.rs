//! `paper_4k`: the source paper's processing workload at its smallest
//! value size, as the workload crate's `run_register` records it: one
//! `ArcRegister` of 4 KB values, one thread writing new values without
//! pause, and one reader (the register's N = 1) reading without pause and
//! scanning every value it reads. Here the scan is the check of all
//! 4 KB. Writes land while the reader scans, so most reads find a new
//! value and take the slow path; the writer's copy and the reader's scan
//! move the value's cache lines between the two CPUs.

use arc_register::{ArcReader, ArcRegister, ArcWriter};

use crate::harness::{
    repeat_setup, run_pair, setup_again, teardown, Clock, Consumed, Outcome, Phase, Rng, Setups,
    Span, Trace, Written, MEASURE, STOP,
};
use crate::payload::{Bodies, VALUE};

/// The paper sets N to the number of reader threads.
const READERS: u32 = 1;
/// Set-ups before the run and again after it (each takes microseconds):
/// 8 batches of a quarter second.
const SETUPS: Setups = Setups { batches: 8, batch_ns: 250_000_000 };

pub fn run(seed: u64, seconds: u64, trace: bool, clock: &Clock) -> Outcome {
    let bodies = Bodies::new(seed);
    let mut tr = Trace::new(trace);
    let initial = bodies.initial();
    let mut setup = |tr: &mut Trace| {
        let start = clock.now();
        let reg = ArcRegister::builder(READERS, VALUE)
            .initial(&initial)
            .build()
            .expect("build the register");
        let built = clock.now();
        let writer = reg.writer().expect("claim the writer");
        let reader = reg.reader().expect("claim a reader");
        tr.add(Span::Build, start, built);
        tr.add(Span::Handles, built, clock.now());
        (reg, writer, reader)
    };
    let mut setup_ns = Vec::new();
    let (reg, writer, reader) = repeat_setup(SETUPS, clock, &mut tr, &mut setup, &mut setup_ns);
    let phase = Phase::new(clock, seconds);
    let ((published, written), (mut reader, consumed)) = run_pair(
        || write_loop(phase, clock, trace, seed, &bodies, writer),
        || read_loop(phase, clock, trace, &bodies, reader),
    );
    let snap = reader.read();
    let final_check =
        snap.version() == published && bodies.decode(&snap).map(|(seq, _)| seq) == Some(published);
    teardown((reg, reader), clock, &mut tr);
    setup_again(SETUPS, clock, &mut tr, setup, &mut setup_ns);
    Outcome::new(setup_ns, written, consumed, final_check, tr)
}

fn write_loop(
    phase: Phase,
    clock: &Clock,
    trace: bool,
    seed: u64,
    bodies: &Bodies,
    mut writer: ArcWriter,
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
    }
}

fn read_loop(
    phase: Phase,
    clock: &Clock,
    trace: bool,
    bodies: &Bodies,
    mut reader: ArcReader,
) -> (ArcReader, Consumed) {
    let mut out = Consumed::new(trace);
    let mut last = 0u64;
    loop {
        let start = clock.now();
        let p = phase.at(start);
        if p == STOP {
            return (reader, out);
        }
        let measuring = p == MEASURE;
        out.trace.measuring(measuring);
        let snap = reader.read();
        let held = clock.now();
        out.read(measuring, snap.fast(), start, held);
        let version = snap.version();
        match out.trace.time(clock, Span::Verify, || bodies.decode(&snap)) {
            Some((seq, stamp)) if seq == version && version >= last => {
                if version != last {
                    out.seen(measuring, stamp, held, held);
                }
            }
            _ => out.failed += 1,
        }
        last = version;
    }
}
