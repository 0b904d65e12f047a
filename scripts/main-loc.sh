#!/usr/bin/env bash
# Prints the number of lines of main code: the non-blank lines of
# src/main/scala/**/*.scala that are neither `//` comment lines nor inside a
# `/* ... */` block (scaladoc included). Run from anywhere in the repository:
#
#   scripts/main-loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find src/main/scala -name '*.scala' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { inBlock = 0 }
  {
    line = $0
    sub(/^[ \t]+/, "", line)
    if (inBlock) { if (line ~ /\*\//) inBlock = 0; next }
    if (line == "" || line ~ /^\/\//) next
    if (line ~ /^\/\*/) { if (line !~ /\*\//) inBlock = 1; next }
    n++
  }
  END { print n + 0 }'
