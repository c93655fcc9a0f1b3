#!/usr/bin/env bash
# One price list: every simulated cycle is computed in
# crates/xbrtime/src/timing.rs. Every other runtime source file only calls
# `pe.clock.*`, so no cost arithmetic, clock-enable test or host address
# may appear in its non-test code (everything above `#[cfg(test)]`), and no
# wall-clock wait: a fabric wait ends on a peer's action (or the watchdog),
# never on host time passing.
#
# Run from the repository root: `bash scripts/check_pricing.sh`. Prints
# each offending line and exits 1; prints nothing and exits 0 when clean.
set -eu

pattern='timing\.cost|timing\(\)\.cost|clock\.enabled\(\)|host_addr|intra_node_factor|chan_occ|sim_now|WARMUP_CYCLES|port_busy|element_overhead|set_cycles|thread::sleep|from_micros'
src=crates/xbrtime/src
if [ ! -f "$src/timing.rs" ]; then
    echo "check_pricing: $src/timing.rs not found (run from the repository root)" >&2
    exit 2
fi
status=0
for f in $(find "$src" -name '*.rs' ! -path "$src/timing.rs" | sort); do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" | grep -E "$pattern"; then
        status=1
    fi
done
exit "$status"
