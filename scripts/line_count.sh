#!/usr/bin/env bash
# Prints the line counts a change reports: the total of ROADMAP.md's
# command, its non-test and test lines, and the vendored stand-ins.
#
# Rule: every `.rs` file under crates, src, tests, examples, benchmark/src
# and benchmark/tests counts. A line is a test line when its file is the
# root crate's `src/lib.rs` (the shared test harness) or lies under a
# `tests/` directory, or when it sits at or after a `#[cfg(test)]` line
# that is followed by `mod tests`, `pub mod tests` or `pub(crate) mod
# tests` (the unit-test tail of a file). Every other line is non-test.
# `vendor/` is counted on its own, all `.rs` lines.
#
# Usage: scripts/line_count.sh [repository root, default: this script's]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

files=$(find crates src tests examples benchmark/src benchmark/tests -name '*.rs' | sort)
total=$(cat $files | wc -l)
test_lines=$(for f in $files; do
    case "$f" in
    src/lib.rs | tests/* | */tests/*) wc -l <"$f" ;;
    *) awk '!start && prev ~ /^#\[cfg\(test\)\]/ && /^(pub(\(crate\))? )?mod tests/ { start = NR - 1 }
            { prev = $0 } END { print start ? NR - start + 1 : 0 }' "$f" ;;
    esac
done | awk '{ s += $1 } END { print s + 0 }')
vendor=$(find vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)

echo "total (ROADMAP command): $total"
echo "non-test:                $((total - test_lines))"
echo "test:                    $test_lines"
echo "vendor/:                 $vendor"
