#!/usr/bin/env bash
# Code lines of a Rust source tree, counted the way every ROADMAP line
# gate quotes them: non-blank lines that are not `//` comments (doc
# comments included), in each file's non-test code (everything above its
# first `#[cfg(test)]` line).
#
# Run from the repository root: `bash scripts/code_lines.sh [dir]`
# (default `crates/xbrtime/src`). Prints one `count path` line per file,
# sorted by path, then `count total`. Report only: always exits 0 when the
# directory exists.
set -eu

dir=${1:-crates/xbrtime/src}
if [ ! -d "$dir" ]; then
    echo "code_lines: $dir is not a directory" >&2
    exit 2
fi
total=0
for f in $(find "$dir" -name '*.rs' | sort); do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*$/ && !/^[[:space:]]*\/\//{c++} END{print c+0}' "$f")
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
