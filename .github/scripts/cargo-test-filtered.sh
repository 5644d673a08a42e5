#!/usr/bin/env bash
# Runs `cargo test "$@"` (arguments that end in a test-name filter) and
# fails when the filter selected no test. Cargo exits 0 when a filter
# matches nothing, so without this check a renamed test would silently
# turn the step that names it into a no-op.
#
#   .github/scripts/cargo-test-filtered.sh -p tempopr-core pipelined
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq '^running [1-9][0-9]* tests?$' "$log"; then
  echo "cargo test $*: the name filter matched no test" >&2
  exit 1
fi
