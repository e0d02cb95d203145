#!/usr/bin/env bash
# claims.sh SCALE COLUMN runs all 22 experiments at -scale SCALE and holds
# each claim's verdict to the column of README "Paper claims" whose heading
# starts with COLUMN (1.0, 0.5). It fails on a claim the column marks PASS
# that fails, one it marks FAIL that passes, a claim with no row and a row
# with no claim. Run it from the repository root:
#   bash .github/scripts/claims.sh 1 1.0
set -euo pipefail
scale=$1 column=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/ndpsim -exp all -scale "$scale" > "$tmp/run.txt"
grep '^claim: ' "$tmp/run.txt" > "$tmp/got.txt"
awk -F'|' -v col="$column" '/^### Paper claims/ {on = 1; next} /^#/ {on = 0}
  on && NF == 7 && !c {
    for (i = 4; i <= 6; i++) { h = $i; sub(/^ +/, "", h); if (index(h, col " ") == 1) c = i }
    next
  }
  on && NF == 7 && $c ~ /PASS|FAIL/ {
    for (i = 2; i <= 6; i++) gsub(/^ +| +$/, "", $i)
    print "claim: " $c " " $2 ": " $3 " ("
  }
  END { if (!c) { print "README \"Paper claims\" has no " col " column" > "/dev/stderr"; exit 1 } }' README.md > "$tmp/want.txt"
fail=0
while IFS= read -r w; do
  if ! awk -v w="$w" 'index($0, w) == 1 {found = 1} END {exit !found}' "$tmp/got.txt"; then
    echo "README marks, scale $scale does not show: ${w% (}"
    fail=1
  fi
done < "$tmp/want.txt"
if [ "$(wc -l < "$tmp/got.txt")" -ne "$(wc -l < "$tmp/want.txt")" ]; then
  echo "scale $scale states $(wc -l < "$tmp/got.txt") claims; README lists $(wc -l < "$tmp/want.txt")"
  fail=1
fi
if [ "$fail" -ne 0 ]; then
  cat "$tmp/got.txt"
  exit 1
fi
echo "scale $scale: $(wc -l < "$tmp/got.txt") claims as README's $column column marks them"
