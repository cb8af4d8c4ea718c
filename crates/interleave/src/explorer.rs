//! The schedule explorer: exhaustive DFS with state memoization, plus a
//! randomized mode for configurations too large to exhaust.

use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;

/// A protocol model: a deterministic state machine stepped one thread at a
/// time. Each step must correspond to **at most one shared-memory access**
/// (that is what makes exploration equivalent to all SC interleavings).
pub trait Model: Clone + Eq + Hash {
    /// Thread ids currently able to take a step.
    fn enabled(&self) -> Vec<usize>;

    /// Advance thread `tid` by one atomic step.
    ///
    /// Returns `Err(description)` if the step exposed a violation.
    fn step(&mut self, tid: usize) -> Result<(), String>;

    /// True when every thread has finished its workload.
    fn is_done(&self) -> bool;

    /// Invariants valid in *every* state (checked after each step).
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Abort after visiting this many distinct states.
    pub max_states: usize,
    /// Abort any schedule longer than this (guards against models that
    /// fail to terminate — a liveness bug surfaces as hitting this).
    pub max_depth: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        Self { max_states: 20_000_000, max_depth: 10_000 }
    }
}

/// Statistics from a completed exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Distinct states visited (0 for random walks, which keep none).
    pub states: usize,
    /// Transitions executed.
    pub transitions: usize,
    /// Number of terminal (all-threads-done) states reached: for random
    /// walks, the walks completed.
    pub terminals: usize,
}

/// What a search covered: its states, or the walks of a randomized one,
/// and its transitions.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.states == 0 {
            write!(f, "{} walks, {} transitions", self.terminals, self.transitions)
        } else {
            write!(f, "{} states, {} transitions", self.states, self.transitions)
        }
    }
}

/// Result of an exploration.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// All reachable interleavings satisfy the model's checks.
    Ok(Report),
    /// A violation was found; `schedule` replays it from the initial state.
    Violation {
        /// What went wrong.
        message: String,
        /// Thread ids to step, in order, to reproduce.
        schedule: Vec<usize>,
        /// Statistics up to the point of failure.
        report: Report,
    },
    /// `max_states` was exhausted before completing the search.
    StateLimit(Report),
    /// A schedule exceeded `max_depth` (liveness suspicion).
    DepthLimit {
        /// The runaway schedule.
        schedule: Vec<usize>,
        /// Statistics up to that point.
        report: Report,
    },
}

impl Outcome {
    /// The violation message, if any.
    pub fn violation(&self) -> Option<&str> {
        match self {
            Outcome::Violation { message, .. } => Some(message),
            _ => None,
        }
    }

    /// Print the counts of a search of `what` that proved it safe; panic
    /// otherwise, with `"{what}: VIOLATION: {message}"` for a violation.
    pub fn assert_ok(self, what: &str) {
        match self {
            Outcome::Ok(r) => {
                println!("{what}: {r}");
                assert!(r.terminals > 0, "{what}: exploration never reached a terminal state");
            }
            Outcome::Violation { message, schedule, .. } => {
                panic!("{what}: VIOLATION: {message}\nschedule: {schedule:?}")
            }
            other => panic!("{what}: exploration did not complete: {other:?}"),
        }
    }
}

/// Exhaustively explore every interleaving of `init` (up to memoized state
/// equivalence).
pub fn explore<M: Model>(init: M, limits: ExploreLimits) -> Outcome {
    let mut visited: HashSet<M> = HashSet::new();
    // DFS stack: (state, schedule-so-far, enabled threads not yet tried).
    let mut stack: Vec<(M, Vec<usize>)> = Vec::new();
    let mut report = Report { states: 0, transitions: 0, terminals: 0 };

    visited.insert(init.clone());
    report.states = 1;
    stack.push((init, Vec::new()));

    while let Some((state, schedule)) = stack.pop() {
        if schedule.len() >= limits.max_depth {
            return Outcome::DepthLimit { schedule, report };
        }
        if state.is_done() {
            report.terminals += 1;
            continue;
        }
        let enabled = state.enabled();
        debug_assert!(!enabled.is_empty(), "non-done state with no enabled threads");
        for tid in enabled {
            let mut next = state.clone();
            report.transitions += 1;
            let mut schedule_next = schedule.clone();
            schedule_next.push(tid);
            if let Err(message) = next.step(tid) {
                return Outcome::Violation { message, schedule: schedule_next, report };
            }
            if let Err(message) = next.check_invariants() {
                return Outcome::Violation { message, schedule: schedule_next, report };
            }
            if visited.insert(next.clone()) {
                report.states += 1;
                if report.states >= limits.max_states {
                    return Outcome::StateLimit(report);
                }
                stack.push((next, schedule_next));
            }
        }
    }
    Outcome::Ok(report)
}

/// Randomized exploration for configurations too large to exhaust: runs
/// `walks` random schedules of at most `limits.max_depth` steps each.
///
/// Uses a deterministic xorshift generator seeded by `seed`, so failures
/// are reproducible.
pub fn random_walks<M: Model>(init: M, walks: usize, seed: u64, limits: ExploreLimits) -> Outcome {
    let mut rng = seed.max(1);
    let mut next_u64 = move || {
        // xorshift64*
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        rng.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let mut report = Report { states: 0, transitions: 0, terminals: 0 };
    for _ in 0..walks {
        let mut state = init.clone();
        let mut schedule = Vec::new();
        loop {
            if state.is_done() {
                report.terminals += 1;
                break;
            }
            if schedule.len() >= limits.max_depth {
                return Outcome::DepthLimit { schedule, report };
            }
            let enabled = state.enabled();
            let tid = enabled[(next_u64() as usize) % enabled.len()];
            schedule.push(tid);
            report.transitions += 1;
            if let Err(message) = state.step(tid) {
                return Outcome::Violation { message, schedule, report };
            }
            if let Err(message) = state.check_invariants() {
                return Outcome::Violation { message, schedule, report };
            }
        }
    }
    Outcome::Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: two threads each increment a shared counter `n` times;
    /// the "violation" flag triggers when the counter skips (never happens
    /// with atomic increments) — used to exercise the explorer plumbing.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Counter {
        value: u32,
        remaining: [u32; 2],
        poison_at: Option<u32>,
    }

    impl Model for Counter {
        fn enabled(&self) -> Vec<usize> {
            (0..2).filter(|&t| self.remaining[t] > 0).collect()
        }
        fn step(&mut self, tid: usize) -> Result<(), String> {
            self.value += 1;
            self.remaining[tid] -= 1;
            if Some(self.value) == self.poison_at {
                return Err(format!("poison value {} reached", self.value));
            }
            Ok(())
        }
        fn is_done(&self) -> bool {
            self.remaining == [0, 0]
        }
    }

    #[test]
    fn explores_all_interleavings() {
        let m = Counter { value: 0, remaining: [3, 3], poison_at: None };
        match explore(m, ExploreLimits::default()) {
            Outcome::Ok(r) => {
                // Distinct states: value+remaining tuples. The diamond of
                // (a,b) pairs with a+b steps taken: 4*4 = 16 states.
                assert_eq!(r.states, 16);
                assert!(r.terminals >= 1);
                assert_eq!(r.to_string(), format!("16 states, {} transitions", r.transitions));
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn finds_violations_with_schedule() {
        let m = Counter { value: 0, remaining: [2, 2], poison_at: Some(3) };
        match explore(m, ExploreLimits::default()) {
            Outcome::Violation { schedule, message, .. } => {
                assert!(message.contains("poison"));
                assert_eq!(schedule.len(), 3);
            }
            other => panic!("expected Violation, got {other:?}"),
        }
    }

    #[test]
    fn state_limit_respected() {
        let m = Counter { value: 0, remaining: [50, 50], poison_at: None };
        let out = explore(m, ExploreLimits { max_states: 10, max_depth: 10_000 });
        assert!(matches!(out, Outcome::StateLimit(_)));
    }

    #[test]
    fn random_walks_cover_terminals() {
        let m = Counter { value: 0, remaining: [3, 3], poison_at: None };
        match random_walks(m, 32, 42, ExploreLimits::default()) {
            Outcome::Ok(r) => {
                assert_eq!((r.terminals, r.transitions), (32, 32 * 6));
                // The report counts the walks, not states walks never keep.
                assert_eq!(r.to_string(), "32 walks, 192 transitions");
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn random_walks_find_easy_violations() {
        let m = Counter { value: 0, remaining: [2, 2], poison_at: Some(1) };
        assert!(random_walks(m, 4, 7, ExploreLimits::default()).violation().is_some());
    }
}
