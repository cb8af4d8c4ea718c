//! Model checking of the (M,N) composition that ships: [`explore`] runs
//! `next_stamp` and `newest`, the collect and scan that `MnGroupWriter::write`
//! and `MnGroupReader::read_with` call, through every sequentially
//! consistent interleaving of a small workload on one cell.
//!
//! The sub-registers are atomic (`arc-register`'s `model_check` checks the
//! shipped ARC code with two writers on one slab), so model memory holds
//! each sub-register's stamp and one sub-register read or publish is one
//! access, under [`interleave::stepper`]. A write is `next_stamp` over the
//! other M − 1 sub-registers, then the publish to its own; a read is
//! `newest` over all M; an operation's first step is its invocation. A run
//! starts from the stamps a real `MnGroup::new` leaves in its sub-registers
//! and the counters of its claimed writer roles. [`MwChecker`] checks each
//! response, and no operation may take more than M accesses.

use std::panic::resume_unwind;

use interleave::spec::{MwObs, Stamp};
use interleave::stepper::{self, Replay};
use interleave::{explore, ExploreLimits, Model, MwChecker};

use super::{newest, next_stamp, MnGroup};
use crate::Timestamp;

/// One thread's progress.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Thread {
    /// Operations completed.
    done: u8,
    /// The stamps the current operation has seen or published (empty
    /// between operations).
    log: Vec<Stamp>,
    /// The current operation's invocation snapshot.
    obs: MwObs,
}

/// A state of one cell: threads `0..M` are its writer roles, then its
/// readers.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Composition {
    /// Each sub-register's stamp.
    subs: Vec<Stamp>,
    /// Each writer role's largest counter in the cell.
    last: Vec<u64>,
    threads: Vec<Thread>,
    spec: MwChecker,
    /// Operations each thread makes.
    ops: u8,
}

fn stamp(ts: Timestamp) -> Stamp {
    (ts.counter.try_into().expect("model counter"), ts.writer.try_into().expect("model id"))
}

fn timestamp((counter, writer): Stamp) -> Timestamp {
    Timestamp { counter: counter.into(), writer: writer.into() }
}

impl Composition {
    fn new(writers: usize, readers: usize, ops: u8) -> Self {
        let cell = MnGroup::new(1, writers, 1, 8, b"").expect("model cell");
        let mut roles: Vec<_> = (0..writers).map(|_| cell.writer().expect("role")).collect();
        roles.sort_by_key(|role| role.id);
        let last = roles.iter().map(|role| role.last_counter[0]).collect();
        let mut reader = cell.reader().expect("reader");
        let subs: Vec<_> =
            reader.subs.iter_mut().map(|sub| stamp(Timestamp::decode(&sub.read()))).collect();
        let threads = vec![Thread::default(); writers + readers];
        Self { spec: MwChecker::new(&subs), subs, last, threads, ops }
    }
}

impl Model for Composition {
    fn enabled(&self) -> Vec<usize> {
        (0..self.threads.len()).filter(|&t| self.threads[t].done < self.ops).collect()
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        let m = self.subs.len();
        let t = &mut self.threads[tid];
        if t.log.is_empty() {
            // The operation's first step is its invocation.
            t.obs = if tid < m { self.spec.on_write_start() } else { self.spec.on_read_start() };
        }
        let mut replay = Replay::new(std::mem::take(&mut t.log));
        let mut last = self.last.get(tid).copied().unwrap_or_default();
        let subs = &mut self.subs;
        let result = stepper::step(|| {
            // One access to sub-register `j`: a read, or the publish of `ts`.
            let mut access = |j: usize, ts: Option<Stamp>| {
                let seen = replay.access(true, || {
                    subs[j] = ts.unwrap_or(subs[j]);
                    subs[j]
                });
                timestamp(seen.expect("no drop runs in a step's unwind"))
            };
            if tid < m {
                let peers = (0..m).filter(|&j| j != tid).map(|j| access(j, None));
                let ts = next_stamp(peers, &mut last, tid);
                access(tid, Some(stamp(ts)))
            } else {
                newest((0..m).map(|j| (access(j, None), ()))).0
            }
        });
        let t = &mut self.threads[tid];
        t.log = replay.into_log();
        if t.log.len() > m {
            return Err(format!("access bound exceeded: thread {tid} took more than {m} accesses"));
        }
        let Some(ts) = result.unwrap_or_else(|payload| resume_unwind(payload)) else {
            return Ok(());
        };
        t.log.clear();
        t.done += 1;
        let obs = std::mem::take(&mut t.obs);
        if tid < m {
            self.last[tid] = last;
            self.spec.on_write_complete(obs, stamp(ts))
        } else {
            self.spec.on_read_complete(obs, stamp(ts))
        }
    }

    fn is_done(&self) -> bool {
        self.threads.iter().all(|t| t.done == self.ops)
    }
}

/// Every interleaving of `writers` writer roles and `readers` readers of
/// one cell, two operations each.
fn exhaustive(writers: usize, readers: usize) {
    let what = format!("{writers} writers, {readers} readers, 2 ops each");
    explore(Composition::new(writers, readers, 2), ExploreLimits::default()).assert_ok(&what);
}

#[test]
fn m2_n1_2x() {
    exhaustive(2, 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn m2_n2_2x() {
    exhaustive(2, 2);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn m3_n1_2x() {
    exhaustive(3, 1);
}
