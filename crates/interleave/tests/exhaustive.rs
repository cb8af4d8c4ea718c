//! Exhaustive model-checking of the hand-written RF and Peterson models at
//! multi-reader configurations: every sequentially-consistent interleaving
//! of each workload (deduplicated by state), checking torn reads,
//! regularity, new-old inversion, slot exclusion and writer progress at
//! every step. The code the registers ship is checked by the test-only
//! `model_check` modules of `arc-register` and `mn-register`.
//!
//! These are **release-gated** (`#[ignore]` in debug builds): run them with
//! `cargo test -p interleave --release`; small ones run in the unit tests.

use interleave::{explore, random_walks, ExploreLimits, ModelConfig, PetersonModel, RfModel};

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn rf_two_readers_exhaustive() {
    let cfg = ModelConfig { readers: 2, writes: 2, reads_each: 2 };
    explore(RfModel::new(cfg), ExploreLimits::default()).assert_ok("RF 2r/2w/2x");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn rf_buffer_reuse_exhaustive() {
    let cfg = ModelConfig { readers: 1, writes: 4, reads_each: 3 };
    explore(RfModel::new(cfg), ExploreLimits::default()).assert_ok("RF 1r/4w/3x");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn peterson_single_reader_deep_exhaustive() {
    let cfg = ModelConfig { readers: 1, writes: 3, reads_each: 3 };
    explore(PetersonModel::new(cfg), ExploreLimits::default()).assert_ok("Peterson 1r/3w/3x");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn peterson_two_readers_exhaustive() {
    let cfg = ModelConfig { readers: 2, writes: 2, reads_each: 2 };
    explore(PetersonModel::new(cfg), ExploreLimits::default()).assert_ok("Peterson 2r/2w/2x");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive exploration: run with --release")]
fn randomized_larger_configs() {
    // Too large to exhaust: hammer with reproducible random schedules.
    let pet = PetersonModel::new(ModelConfig { readers: 3, writes: 6, reads_each: 5 });
    random_walks(pet, 20_000, 0x7E7E, ExploreLimits::default())
        .assert_ok("Peterson 3r/6w/5x randomized");
    let rf = RfModel::new(ModelConfig { readers: 3, writes: 6, reads_each: 5 });
    random_walks(rf, 20_000, 0x0F0F, ExploreLimits::default()).assert_ok("RF 3r/6w/5x randomized");
}
