#!/usr/bin/env sh
# Regenerates every table and figure of the paper (Figure 1 included),
# runs the extension studies, then renders EXPERIMENTS.md.
# Usage: scripts/reproduce.sh [smoke|quick|paper]
set -eu
SCALE="${1:-quick}"
cargo build --release --workspace
cargo run --release -p adv-eval --bin reproduce_all -- --scale "$SCALE"
cargo run --release -p adv-eval --bin graybox -- --scale "$SCALE"
cargo run --release -p adv-eval --bin ablation_ista -- --scale "$SCALE"
cargo run --release -p adv-eval --bin detector_breakdown -- --scale "$SCALE"
cargo run --release -p adv-eval --bin experiments_md -- --scale "$SCALE"
echo "Done. CSVs + SVGs in results/, summary in EXPERIMENTS.md"
