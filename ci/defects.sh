#!/usr/bin/env bash
# Seeded-defect gate for the real-code model checker
# (crates/core/src/model_check.rs).
#
# Each patch under ci/defects/ breaks the shipped protocol in one small,
# plausible way. For each one this script applies the patch, runs the
# listed checker tests of the arc-register lib in release, requires every
# one of them to fail with its violation class, and reverts the patch.
# A patch that no longer applies fails the gate, so a change to raw.rs or
# group.rs that moves the patched lines must refresh the patch.
#
# Each patch costs one release rebuild of the arc-register lib tests.
#
# Usage: ci/defects.sh            (run from anywhere in the repository)
set -uo pipefail
cd "$(dirname "$0")/.."

status=0
applied=""
trap '[ -n "$applied" ] && git apply -R "$applied"' EXIT

# check PATCH TEST CLASS [TEST CLASS]...
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
        local test="$1" class="$2" out
        shift 2
        if out=$(cargo test -q --release -p arc-register --lib -- --exact "model_check::$test" 2>&1); then
            echo "defects: $patch was not caught by $test"
            status=1
        elif grep -q "VIOLATION: $class" <<<"$out"; then
            echo "defects: $patch caught by $test ($class)"
        else
            echo "defects: $patch made $test fail without a '$class' violation:"
            tail -n 20 <<<"$out"
            status=1
        fi
    done
    git apply -R "$patch"
    applied=""
}

exclusion="slot exclusion violated"
bound="access bound exceeded"

check release_early k1_1r_3w_2x "$exclusion" walks_1r_3w_2x "$exclusion"
check no_freeze k1_1r_3w_2x "$exclusion"
check publish_before_copy k1_1r_1w_1x "$exclusion"
check acquire_before_release k1_2r_4w_2x "$bound"
check ring_no_revalidate hint_1r_5w_3x "$exclusion"
check guard_leak_unit guard_no_hint_1r_3w_2x "$bound"
check slab_overlap k2_2w_2x "$bound" k2_3w_2x_pruned "$exclusion"

exit $status
