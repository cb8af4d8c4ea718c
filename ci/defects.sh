#!/usr/bin/env bash
# Seeded-defect gate for the shipped protocol, recovery, watch edge,
# watchdog, process identity, slab set-up and (M,N) composition code, and
# for the RF and Peterson baselines.
#
# Each patch under ci/defects/ breaks the shipped code in one small,
# plausible way. For each one this script applies the patch, runs the
# listed tests in release (most are arc-register lib tests: configurations
# of the real-code model checker, crates/core/src/model_check.rs, or of
# the (M,N) one, crates/mn-register/src/group/model_check.rs, or of the
# baselines' one, crates/baselines/src/model_check.rs), requires
# every one of them to fail with its expected message, and reverts the
# patch. A patch that no longer applies fails the gate, so a change that
# moves the patched lines must refresh the patch.
#
# Each patch costs one release rebuild of the test binaries it runs.
#
# Usage: ci/defects.sh            (run from anywhere in the repository)
set -uo pipefail
cd "$(dirname "$0")/.."

status=0
applied=""
trap '[ -n "$applied" ] && git apply -R "$applied"' EXIT

# check PATCH TEST MESSAGE [TEST MESSAGE]...
#   TEST is an arc-register lib test path (e.g. model_check::k1_1r_3w_2x),
#   PACKAGE:PATH for lib test PATH of another package, or FILE/NAME for
#   test NAME of the root package's tests/FILE.rs; MESSAGE is a fixed
#   string its failure output must contain.
check() {
    local patch="ci/defects/$1.patch"
    shift
    if ! git apply "$patch"; then
        echo "defects: $patch no longer applies"
        status=1
        return
    fi
    applied="$patch"
    while [ $# -gt 0 ]; do
        local test="$1" message="$2" target=(-p arc-register --lib) out
        shift 2
        if [[ $test == */* ]]; then
            target=(--test "${test%%/*}")
            test=${test#*/}
        elif [[ $test =~ ^([a-z0-9_-]+):([^:].*)$ ]]; then
            target=(-p "${BASH_REMATCH[1]}" --lib)
            test=${BASH_REMATCH[2]}
        fi
        if out=$(cargo test -q --release "${target[@]}" -- --exact "$test" 2>&1); then
            echo "defects: $patch was not caught by $test"
            status=1
        elif grep -qF -- "$message" <<<"$out"; then
            echo "defects: $patch caught by $test ($message)"
        else
            echo "defects: $patch made $test fail without '$message':"
            tail -n 20 <<<"$out"
            status=1
        fi
    done
    git apply -R "$patch"
    applied=""
}

exclusion="VIOLATION: slot exclusion violated"
bound="VIOLATION: access bound exceeded"
regularity="VIOLATION: regularity violation"
collision="VIOLATION: writer collision"
lost="VIOLATION: lost wakeup"
woken="VIOLATION: woken read"
mc=model_check
mn=mn-register:group::model_check
bl=baseline-registers:model_check

check release_early $mc::k1_1r_3w_2x "$exclusion" $mc::walks_1r_3w_2x "$exclusion"
check no_freeze $mc::k1_1r_3w_2x "$exclusion"
check publish_before_copy $mc::k1_1r_1w_1x "$exclusion"
check acquire_before_release $mc::k1_2r_4w_2x "$bound"
check ring_no_revalidate $mc::hint_1r_5w_3x "$exclusion"
check guard_leak_unit $mc::guard_no_hint_1r_3w_2x "$bound"
check slab_overlap $mc::k2_2w_2x "$bound" $mc::k2_3w_2x_pruned "$exclusion" \
    $mc::mn_2w_1x "$bound" $mc::mn_3w_0x_pruned "$collision"
check skip_adoption $mc::kill_1r_1_2w_2x "$exclusion"
check skip_freeze_replay $mc::kill_1r_1_2w_2x "$exclusion"
check skip_rollback $mc::kill_1r_1_2w_2x "$regularity"
check skip_completion $mc::panic_1r_2_2w_2x "$exclusion"
check skip_birth_check group::tests::forged_live_pid_with_stale_birth_token_counts_as_dead \
    "a recycled pid (birth mismatch)"
check sweep_release_first recovery::tests::interrupted_pin_sweep_never_releases_a_unit_twice \
    "a live reader's pinned slot was recycled"
check heartbeat_false_positive supervise::tests::classify_matrix "left: Dead"
check identity_not_wiped crash_recovery/live_forked_child_lease_carries_the_childs_birth \
    "a live forked child's lease names another pid"
check identity_unkeyed identity_fallback/refused_page_forked_child_leases_with_its_own_identity \
    "a live forked child's lease reads as dead"
check check_before_bump $mc::watch_1_2w "$lost"
check unregistered_park $mc::watch_1_2w "$lost"
check bump_before_w2 $mc::watch_1_2w "$woken"
check stale_registration_kept group::tests::stale_watcher_registrations_cost_at_most_one_idle_wake \
    "a registration nobody parks on outlived two publications"
check read_hint_write_intent group::tests::prefetches_name_their_lines_and_intents \
    "fast read: one shared hint, on the pinned slot"
check prefault_arena group::tests::shm_build_commits_the_protocol_regions_and_no_more_of_the_arena \
    "arena pages committed at set-up"
check memo_trusts_dead group::tests::a_dead_verdict_is_confirmed_before_a_repair_acts_on_it \
    "a live claim was cleared"
check pin_trusts_dead group::tests::a_dead_pin_verdict_is_confirmed_before_the_sweep_acts_on_it \
    "a live pin was swept"
check skip_collect $mn::m2_n1_2x "VIOLATION: timestamp order violates real time"
check counter_seed_zero $mn::m2_n1_2x "VIOLATION: timestamp order violates real time: wrote (1, 0) after (1, 0)"
check rf_ignore_trace $bl::rf_1r_2w_2x "VIOLATION: buffer exclusion violated"
check peterson_check_before_copy $bl::peterson_1r_2w_2x "VIOLATION: torn read"

exit $status
