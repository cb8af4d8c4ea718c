//! Stepping a real function one shared access at a time.
//!
//! The explorer clones, compares and hashes states, so a thread cannot be
//! parked inside a function. Instead each step *replays* the thread's
//! current operation from its start, every access an earlier step made
//! seeing the entry logged for it, and makes one new access to a word
//! another thread can touch (a *shared* access). The next shared access
//! ends the step: [`Replay::next`] unwinds with a private payload
//! (`resume_unwind`, which skips the panic hook) that [`step`] catches. A
//! *private* access, which no other thread can observe, never ends a step.
//! A `Drop` run by an unwind would abort on a second one, so there `next`
//! returns [`Next::Over`] and the caller hands out scratch words.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The payload that ends a step.
struct EndStep;

/// What one access of a replayed operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next<A> {
    /// An earlier step made it: it sees this log entry.
    Logged(A),
    /// The step's new access: the caller makes it and pushes its entry.
    New,
    /// The step is over: the caller hands out a scratch word.
    Over,
}

/// One thread's operation during one step: its log and the replay's cursor.
#[derive(Debug)]
pub struct Replay<A> {
    log: Vec<A>,
    cursor: usize,
    shared_done: bool,
    over: bool,
}

impl<A: Copy> Replay<A> {
    /// Replay an operation that logged `log` in its earlier steps.
    pub fn new(log: Vec<A>) -> Self {
        Self { log, cursor: 0, shared_done: false, over: false }
    }

    /// Enter the next access, `shared` if another thread can touch its word.
    pub fn next(&mut self, shared: bool) -> Next<A> {
        if self.over {
            return Next::Over;
        }
        if shared && self.shared_done {
            if std::thread::panicking() {
                self.over = true;
                return Next::Over;
            }
            self.end_step();
        }
        self.cursor += 1;
        match self.log.get(self.cursor - 1) {
            Some(&a) => Next::Logged(a),
            None => {
                self.shared_done |= shared;
                Next::New
            }
        }
    }

    /// Log the new access that [`Replay::next`] let through.
    pub fn push(&mut self, a: A) {
        self.log.push(a);
    }

    /// Accesses entered so far, logged or new.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Whether the step is over.
    pub fn is_over(&self) -> bool {
        self.over
    }

    /// End the step before an unwind of the caller's own: a `Drop` gets scratch.
    pub fn end(&mut self) {
        self.over = true;
    }

    /// End the step here, as its next shared access would.
    pub fn end_step(&mut self) -> ! {
        self.over = true;
        resume_unwind(Box::new(EndStep))
    }

    /// The operation's log, for its next step.
    pub fn into_log(self) -> Vec<A> {
        self.log
    }

    /// Enter an access whose log entry is the value it sees: the logged
    /// one, or `f()` for a new access; `None` once the step is over.
    pub fn access(&mut self, shared: bool, f: impl FnOnce() -> A) -> Option<A> {
        match self.next(shared) {
            Next::Logged(a) => Some(a),
            Next::New => {
                self.push(f());
                self.log.last().copied()
            }
            Next::Over => None,
        }
    }
}

/// Run one step of `op`: `Some` with its result if it completed, `None` if
/// the step ended first, and the payload of any other unwind.
pub fn step<R>(op: impl FnOnce() -> R) -> Result<Option<R>, Box<dyn Any + Send>> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(r) => Ok(Some(r)),
        Err(payload) if payload.is::<EndStep>() => Ok(None),
        Err(payload) => Err(payload),
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    /// Touches shared words 4 and 8 when an unwind drops it, as a repair
    /// would.
    struct Guard<'a>(&'a RefCell<Replay<u8>>);

    impl Drop for Guard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let _seen = [4, 8].map(|w| self.0.borrow_mut().access(true, || w));
            }
        }
    }

    /// One step of an operation that touches `words` (odd ones private)
    /// under a guard, and unwinds on its own before word `unwind_at`.
    fn run(log: Vec<u8>, words: &[u8], unwind_at: usize) -> (Option<usize>, Vec<u8>) {
        let replay = RefCell::new(Replay::new(log));
        let out = step(|| {
            let _guard = Guard(&replay);
            for (i, &w) in words.iter().enumerate() {
                if i == unwind_at {
                    resume_unwind(Box::new(i));
                }
                replay.borrow_mut().access(w % 2 == 0, || w);
            }
            words.len()
        });
        let out =
            out.unwrap_or_else(|p| Some(*p.downcast::<usize>().expect("the caller's payload")));
        (out, replay.into_inner().into_log())
    }

    #[test]
    fn each_step_makes_one_new_shared_access() {
        let words = [1, 0, 3, 2, 5, 6];
        // Private 1, shared 0 and private 3 end at shared 2; the guard
        // dropped by the end of the step gets scratch words.
        let (out, log) = run(Vec::new(), &words, 9);
        assert_eq!((out, &log[..]), (None, &[1, 0, 3][..]));
        let (out, log) = run(log, &words, 9);
        assert_eq!((out, &log[..]), (None, &[1, 0, 3, 2, 5][..]));
        assert_eq!(run(log, &words, 9), (Some(6), words.to_vec()));
        // The caller's own unwind comes back; the guard it drops makes the
        // step's new access, then gets a scratch word.
        assert_eq!(run(Vec::new(), &words, 1), (Some(1), vec![1, 4]));
    }
}
