#!/bin/sh
# Run every experiment config through the CLI into results/<name>/, then
# print the sha256 of every artifact (results/ is not committed, so this
# listing is the record of the artifact bytes; the one exception is
# results/bias_scan_alpha/, whose alpha-cost descent moves with any change to
# its rounding, so a rerun that changes it shows in git diff and fails CI).
# The package is imported from src/, so a plain checkout needs no install.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
for cfg in configs/*.cfg; do
    name=$(basename "$cfg" .cfg)
    sub=$(echo "$name" | sed -e 's/_lambda$//' -e 's/_alpha$//' -e 's/_link$//' -e 's/_/-/g')
    case "$sub" in
        lgt-budget) sub=lgt-energy ;;
    esac
    echo "== $sub ($cfg)"
    python3 -m reshadow.cli "$sub" --config "$cfg" --seed 0 \
        --out "results/$name"
done
echo "== sha256 of results/"
find results -type f | LC_ALL=C sort | xargs sha256sum
