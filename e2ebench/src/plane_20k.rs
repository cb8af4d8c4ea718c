//! `plane_20k`: the shared plane set up as production sets it up, at the
//! K = 20,000 of the repo's `numa_scaling` bench (E15) in its quick
//! profile: registers on a memfd slab with its reader-pin registry, the
//! writer claiming every register's writer role on the creating mapping,
//! and the consumer claiming a reader on every register through a second
//! mapping of the memfd. As in the paper's setup the writer writes
//! without pause, here to uniformly random registers; the consumer reads
//! uniformly random registers and, between blocks of reads, polls a
//! watch list of 1024 registers and reads those that changed. Values are
//! 48 B, the size E15 uses and the inline capacity; the plane's 5 MiB
//! outgrow the per-core caches but not the shared last-level cache.
//!
//! At K = 1M (ROADMAP item 1's row) a set-up takes seconds, so a run
//! could time only one or two, and nearly every access goes to memory,
//! where a shared host moved the figures by up to a fifth from one set
//! of ten runs to the next. No `PlaneSupervisor` runs: one of its probe
//! passes checks every writer lease against `/proc`, which would keep a
//! CPU busy.

use std::sync::Arc;

use arc_register::{ArcGroup, GroupReaderSet, GroupWriterSet, SlabBackend};

use crate::harness::{
    mix, repeat_setup, run_pair, setup_again, teardown, Clock, Consumed, Outcome, Phase, Rng,
    Setups, Span, Trace, Written, MEASURE, STOP,
};

const REGISTERS: usize = 20_000;
/// `[key][seq][stamp][check][mix(check)][mix(mix(check))]`.
const VALUE: usize = 48;
/// The key word of the initial value every register starts with.
const ANY_KEY: u64 = u64::MAX;
/// Random reads between two polls of the watch list.
const BLOCK: usize = 512;
const WATCHED: usize = 1024;
/// Set-ups before the run and again after it (each claims 20,000 writer
/// roles and takes a tenth to a fifth of a second): 8 batches of a
/// quarter second.
const SETUPS: Setups = Setups { batches: 8, batch_ns: 250_000_000 };

fn encode(key: u64, seq: u64, stamp: u64, salt: u64) -> [u8; VALUE] {
    let mut v = [0u8; VALUE];
    let check = mix(key ^ mix(seq ^ mix(stamp ^ salt)));
    for (i, w) in [key, seq, stamp, check, mix(check), mix(mix(check))].into_iter().enumerate() {
        v[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
    v
}

/// The stamp of a well-formed value of register `k` at `version`.
fn decode(k: usize, version: u64, v: &[u8], salt: u64) -> Option<u64> {
    if v.len() != VALUE {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(v[i * 8..i * 8 + 8].try_into().expect("word"));
    let check = mix(word(0) ^ mix(word(1) ^ mix(word(2) ^ salt)));
    let well_formed = word(3) == check && word(4) == mix(check) && word(5) == mix(mix(check));
    let key_ok = word(0) == k as u64 || (version == 0 && word(0) == ANY_KEY);
    (well_formed && key_ok && word(1) == version).then_some(word(2))
}

pub fn run(seed: u64, seconds: u64, trace: bool, clock: &Clock) -> Outcome {
    let salt = Rng::new(seed, 1).next();
    let mut tr = Trace::new(trace);
    let mut setup = |tr: &mut Trace| {
        let start = clock.now();
        let group = ArcGroup::builder(REGISTERS, 1, VALUE)
            .backend(SlabBackend::Shm)
            .initial(&encode(ANY_KEY, 0, 0, salt))
            .build()
            .expect("build the shared plane");
        let built = clock.now();
        let mirror = ArcGroup::attach_fd(group.memfd().expect("a shared plane has a memfd"))
            .expect("attach a second mapping");
        let writers = group.writer_set().expect("claim every writer role");
        let readers = mirror.reader_set().expect("claim a reader on every register");
        tr.add(Span::Build, start, built);
        tr.add(Span::Handles, built, clock.now());
        (writers, readers)
    };
    let mut setup_ns = Vec::new();
    let (writers, readers) = repeat_setup(SETUPS, clock, &mut tr, &mut setup, &mut setup_ns);
    let phase = Phase::new(clock, seconds);
    let ((counts, written), (mut readers, consumed)) = run_pair(
        || write_loop(phase, clock, trace, seed, salt, writers),
        || read_loop(phase, clock, trace, seed, salt, readers),
    );
    let final_check = counts.iter().enumerate().all(|(k, &count)| {
        let snap = readers.read(k);
        snap.version() == u64::from(count) && decode(k, snap.version(), &snap, salt).is_some()
    });
    teardown(readers, clock, &mut tr);
    setup_again(SETUPS, clock, &mut tr, setup, &mut setup_ns);
    Outcome::new(setup_ns, written, consumed, final_check, tr)
}

fn write_loop(
    phase: Phase,
    clock: &Clock,
    trace: bool,
    seed: u64,
    salt: u64,
    mut writers: GroupWriterSet,
) -> (Vec<u32>, Written) {
    let mut out = Written::new(trace);
    let mut rng = Rng::new(seed, 2);
    let mut counts = vec![0u32; REGISTERS];
    loop {
        let k = rng.below(REGISTERS);
        let seq = u64::from(counts[k]) + 1;
        let start = clock.now();
        let p = phase.at(start);
        if p == STOP {
            return (counts, out);
        }
        out.trace.measuring(p == MEASURE);
        let ok = writers.try_write(k, &encode(k as u64, seq, start, salt)).is_ok();
        let end = clock.now();
        counts[k] += u32::from(ok);
        out.record(p == MEASURE, ok, start, end);
    }
}

fn read_loop(
    phase: Phase,
    clock: &Clock,
    trace: bool,
    seed: u64,
    salt: u64,
    mut readers: GroupReaderSet,
) -> (GroupReaderSet, Consumed) {
    let mut out = Consumed::new(trace);
    let mirror = Arc::clone(readers.group());
    let mut rng = Rng::new(seed, 3);
    // The highest version read of every register: no read may go below it.
    let mut seen = vec![0u32; REGISTERS];
    // One watched key per stripe of the plane: distinct, sorted, spread.
    let stripe = REGISTERS / WATCHED;
    let mut pick = Rng::new(seed, 4);
    let mut marks: Vec<(usize, u64)> =
        (0..WATCHED).map(|i| (i * stripe + pick.below(stripe), 0)).collect();
    let mut changed = Vec::new();
    loop {
        let p = phase.at(clock.now());
        if p == STOP {
            return (readers, out);
        }
        let measuring = p == MEASURE;
        out.trace.measuring(measuring);
        for _ in 0..BLOCK {
            let k = rng.below(REGISTERS);
            let start = clock.now();
            let snap = readers.read(k);
            let end = clock.now();
            out.read(measuring, snap.fast(), start, end);
            let version = snap.version();
            let stamp = out.trace.time(clock, Span::Verify, || decode(k, version, &snap, salt));
            if stamp.is_none() || version < u64::from(seen[k]) {
                out.failed += 1;
            }
            seen[k] = version as u32;
        }
        changed.clear();
        mirror.poll_changed(&marks, |k, v| changed.push((k, v)));
        let noticed = clock.now();
        for &(k, polled) in &changed {
            let start = clock.now();
            let snap = readers.read(k);
            let held = clock.now();
            out.read(measuring, snap.fast(), start, held);
            let version = snap.version();
            match decode(k, version, &snap, salt) {
                Some(stamp) if version >= polled && version >= u64::from(seen[k]) => {
                    out.seen(measuring, stamp, noticed, held)
                }
                _ => out.failed += 1,
            }
            seen[k] = version as u32;
            let i = marks.binary_search_by_key(&k, |m| m.0).expect("a polled key is watched");
            marks[i].1 = version;
        }
    }
}
