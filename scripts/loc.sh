#!/usr/bin/env bash
# Rust lines per workspace crate, src/ apart from tests (tests/, benches/
# and examples/), plus the workspace total, as a markdown table. Counts
# are physical lines (`wc -l`) of every .rs file, unit tests inside src/
# included; run `cargo fmt` first so counts compare like for like.
#
# Usage: scripts/loc.sh   (CI appends the table to the lint job summary)
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count DIR... — lines of the .rs files under the DIRs that exist
  local dirs=()
  for d in "$@"; do
    if [ -d "$d" ]; then dirs+=("$d"); fi
  done
  if [ ${#dirs[@]} -eq 0 ]; then
    echo 0
    return
  fi
  echo $(($(find "${dirs[@]}" -type f -name '*.rs' -exec cat {} + | wc -l)))
}

echo "| crate | src | tests | total |"
echo "|-------|----:|------:|------:|"
sum_src=0
sum_tests=0
for dir in . crates/* vendor/*; do
  [ -f "$dir/Cargo.toml" ] || continue
  name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n1)
  src=$(count "$dir/src")
  tests=$(count "$dir/tests" "$dir/benches" "$dir/examples")
  echo "| $name | $src | $tests | $((src + tests)) |"
  sum_src=$((sum_src + src))
  sum_tests=$((sum_tests + tests))
done
echo "| **workspace** | $sum_src | $sum_tests | $((sum_src + sum_tests)) |"
