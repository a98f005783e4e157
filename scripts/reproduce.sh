#!/usr/bin/env sh
# Regenerates every table and figure of the paper (Figure 1 included) and
# the extension studies, then renders EXPERIMENTS.md.
# Usage: scripts/reproduce.sh [smoke|quick|paper]
set -eu
SCALE="${1:-quick}"
cargo run --release -p adv-eval --bin reproduce_all -- --scale "$SCALE"
cargo run --release -p adv-eval --bin experiments_md -- --scale "$SCALE"
echo "Done. CSVs + SVGs in results/, summary in EXPERIMENTS.md"
