#!/usr/bin/env bash
# Runs the sh block under "## Command line" in README.md through the
# installed fracbvp console script, in an empty directory, with Python
# warnings as errors.  The block must hold 7 fracbvp commands; a failing
# command, or any output on stderr, fails the script.
#
#   bash .github/readme-commands.sh
set -euo pipefail
readme="$(cd "$(dirname "$0")/.." && pwd)/README.md"
tmp="${RUNNER_TEMP:-$(mktemp -d)}"
sed -n '/^## Command line/,/^```$/p' "$readme" | sed '1,/^```sh$/d;$d' > "$tmp/readme.sh"
test "$(grep -c '^fracbvp ' "$tmp/readme.sh")" -eq 7
cd "$(mktemp -d)"
if ! PYTHONWARNINGS=error bash -e "$tmp/readme.sh" 2> "$tmp/readme.err" \
    || [ -s "$tmp/readme.err" ]; then
  cat "$tmp/readme.err"
  exit 1
fi
