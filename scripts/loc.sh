#!/bin/sh
# Non-test line counts of the library sources: every `.rs` file under
# `crates/*/src`, counted up to the `#[cfg(test)]` line that opens its
# `mod tests` (a file without one counts whole; a `tests.rs` holds only
# tests and is skipped). Prints one line per file, one per crate and the
# total, so a change that deletes code can quote before and after counts
# made by one rule.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the current directory)
set -eu
cd "${1:-.}"
find crates/*/src -name '*.rs' ! -name tests.rs | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '
        pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod tests[[:space:]]*[{;]/ { exit }
        { if (pending) n++; pending = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        { n++ }
        END { printf "%7d %s\n", n, f }
    ' "$f"
done | awk '
    { print; split($2, p, "/"); by[p[2]] += $1; total += $1 }
    END {
        for (c in by) printf "%7d crates/%s\n", by[c], c | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d total\n", total
    }
'
