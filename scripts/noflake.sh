#!/usr/bin/env bash
# Flake quarantine: run `go test -json "$@"` and fail if any test was run
# more often than the invocation's -count (1 unless given). Go itself never
# retries a test, so an extra run means a retry wrapper is papering over a
# flaky test. Flaky tests get fixed or explicitly skipped — never retried
# into green — and this check keeps that policy enforceable. An explicit
# -count=N asks for N repeats, so exactly N runs of a test are allowed:
#
#   scripts/noflake.sh ./e2e -race -run TestHierParentKillQuorumSurvives -count=200
set -u

# The repeat count go test will use: its last -count flag wins.
count=1
prev=
for arg in "$@"; do
  case "$prev" in
    -count | --count | -test.count | --test.count) count="$arg" ;;
  esac
  case "$arg" in
    -count=* | --count=* | -test.count=* | --test.count=*) count="${arg#*=}" ;;
  esac
  prev="$arg"
done
case "$count" in
  '' | *[!0-9]*)
    echo "noflake: -count must be a whole number, got '$count'" >&2
    exit 2
    ;;
esac

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

# Keep the JSON events for the count below, and show the human-readable
# test output as it arrives, so a long -count run shows its progress.
# Build errors and panics arrive as plain text rather than JSON events;
# they pass through untouched.
go test -json "$@" 2>&1 | tee "$out" | sed -u -n '
  /^{/!{p;d;}
  s/.*"Action":"output","Package":[^,]*\(,"Test":[^,]*\)\{0,1\},"Output":"\(.*\)"}$/\2/
  T
  s/\\t/\t/g; s/\\n$//; s/\\"/"/g; s/\\\\/\\/g
  p'
status=${PIPESTATUS[0]}

retried="$(sed -n 's/.*"Action":"run","Package":"\([^"]*\)","Test":"\([^"]*\)".*/\1 \2/p' "$out" |
  sort | uniq -c | awk -v n="$count" '$1 > n { print $2, $3, "(" $1 " runs)" }')"
if [ -n "$retried" ]; then
  echo "flake quarantine violation: tests were run more than $count time(s) (retried):" >&2
  echo "$retried" >&2
  exit 1
fi
exit "$status"
