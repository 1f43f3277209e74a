#!/bin/sh
# Non-test code lines of Rust sources, per file and in total: every line
# before a file's first `#[cfg(test)]`, less blank lines and lines that
# start with `//` (comments and doc comments).
#
# Usage: scripts/ncloc.sh [path...]   files or directories; default crates/*/src
set -eu
[ "$#" -gt 0 ] || set -- crates/*/src
find "$@" -type f -name '*.rs' | sort | while read -r f; do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)
    printf '%7d %s\n' "$n" "$f"
done | awk '{ print } { total += $1 } END { printf "%7d total\n", total }'
