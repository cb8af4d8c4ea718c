//! Exhaustive model-checking of the hand-written protocol models at
//! multi-reader configurations. The ARC protocol, two writers sharing one
//! slab, crash recovery and the watch edge are checked on the shipped code
//! by `arc-register`'s test-only `model_check` module.
//!
//! Each test enumerates *every* sequentially-consistent interleaving of the
//! configured workload (deduplicated by state, up to ~365k states),
//! checking torn reads, regularity, new-old inversion, slot exclusion and
//! writer progress at every step.
//!
//! These are **release-gated** (`#[ignore]` in debug builds, like loom
//! suites): run them with `cargo test -p interleave --release` — debug
//! builds would spend minutes re-exploring the same state spaces. Small
//! sanity configurations always run in the crates' unit tests.

use interleave::{
    explore, random_walks, ExploreLimits, MnDefect, MnModel, ModelConfig, Outcome, PetersonModel,
    RfModel,
};

fn assert_ok(out: Outcome, what: &str) {
    match out {
        Outcome::Ok(r) => {
            println!(
                "{what}: {} states, {} transitions, {} terminals",
                r.states, r.transitions, r.terminals
            );
            assert!(r.terminals > 0, "{what}: exploration never reached a terminal state");
        }
        Outcome::Violation { message, schedule, .. } => {
            panic!("{what}: VIOLATION: {message}\nschedule: {schedule:?}");
        }
        other => panic!("{what}: exploration did not complete: {other:?}"),
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn rf_two_readers_exhaustive() {
    let cfg = ModelConfig { readers: 2, writes: 2, reads_each: 2 };
    assert_ok(explore(RfModel::new(cfg), ExploreLimits::default()), "RF 2r/2w/2x");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn rf_buffer_reuse_exhaustive() {
    let cfg = ModelConfig { readers: 1, writes: 4, reads_each: 3 };
    assert_ok(explore(RfModel::new(cfg), ExploreLimits::default()), "RF 1r/4w/3x");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn peterson_single_reader_deep_exhaustive() {
    let cfg = ModelConfig { readers: 1, writes: 3, reads_each: 3 };
    assert_ok(explore(PetersonModel::new(cfg), ExploreLimits::default()), "Peterson 1r/3w/3x");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn peterson_two_readers_exhaustive() {
    let cfg = ModelConfig { readers: 2, writes: 2, reads_each: 2 };
    assert_ok(explore(PetersonModel::new(cfg), ExploreLimits::default()), "Peterson 2r/2w/2x");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn randomized_larger_configs() {
    // Too large to exhaust: hammer with reproducible random schedules.
    let pet = PetersonModel::new(ModelConfig { readers: 3, writes: 6, reads_each: 5 });
    assert_ok(
        random_walks(pet, 20_000, 0x7E7E, ExploreLimits::default()),
        "Peterson 3r/6w/5x randomized",
    );
    let rf = RfModel::new(ModelConfig { readers: 3, writes: 6, reads_each: 5 });
    assert_ok(random_walks(rf, 20_000, 0x0F0F, ExploreLimits::default()), "RF 3r/6w/5x randomized");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn mn_two_writers_two_readers_exhaustive() {
    let cfg = ModelConfig { readers: 2, writes: 2, reads_each: 2 };
    assert_ok(
        explore(MnModel::new(2, cfg, MnDefect::None), ExploreLimits::default()),
        "MN 2w/2r/2x",
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn mn_three_writers_exhaustive() {
    let cfg = ModelConfig { readers: 1, writes: 2, reads_each: 2 };
    assert_ok(
        explore(MnModel::new(3, cfg, MnDefect::None), ExploreLimits::default()),
        "MN 3w/1r/2x",
    );
}
