#!/usr/bin/env bash
# Regenerate every golden under crates/bench/out/ (the CSVs and the stdout
# captured in all_figures.txt) from the figure table, then require the
# working tree to equal git's index there: the CSVs are cleared first, so
# one that no figure writes any more shows as deleted and a newly written
# one as untracked. Goldens staged for commit count as committed. After an
# intentional model change, inspect the drift and stage it; otherwise it
# is a determinism bug (STATIC_ANALYSIS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p bench
out=crates/bench/out
rm -f "$out"/*.csv
./target/release/bench all --jobs 2 > "$out/all_figures.txt"

untracked="$(git ls-files --others --exclude-standard -- "$out")"
if ! git --no-pager diff --exit-code -- "$out" || [ -n "$untracked" ]; then
    [ -z "$untracked" ] || sed 's/^/untracked: /' <<< "$untracked"
    echo "refresh_goldens: the goldens above drifted" >&2
    exit 1
fi
echo "refresh_goldens: all goldens reproduced byte-identically"
