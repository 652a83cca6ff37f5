#!/bin/sh
# Assert the CLI's documented exit-code contract (macroflow_cli header):
#   0 success, 1 usage error, 2 runtime failure, 130 cancelled.
# Registered as ctest `cli_exit_codes` with $1 = path to macroflow_cli.
set -u

CLI=${1:?usage: cli_exit_codes.sh <path-to-macroflow_cli>}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/mf_cli_exit.XXXXXX") || exit 2
trap 'rm -rf "$TMP"' EXIT
FAILURES=0

expect() {
  WANT=$1
  LABEL=$2
  shift 2
  "$@" > "$TMP/out" 2> "$TMP/err"
  GOT=$?
  if [ "$GOT" -ne "$WANT" ]; then
    echo "FAIL: $LABEL: expected exit $WANT, got $GOT" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $LABEL (exit $GOT)"
  fi
}

# 0 -- success.
expect 0 "devices succeeds" "$CLI" devices

# 1 -- usage errors: no command, unknown command, bad flag value, unknown
# module name.
expect 1 "no command" "$CLI"
expect 1 "unknown command" "$CLI" frobnicate
expect 1 "bad numeric flag" "$CLI" sweep not-a-number
expect 1 "unknown module" "$CLI" implement no-such-module --min
expect 1 "bad deadline value" "$CLI" cnv --deadline-seconds nope

# The shared flag parser's paths, one verb each: a value-taking flag given
# last, an out-of-range value, an unknown flag, a bad enumerated value.
expect_stderr() {
  if ! grep -qxF "$1" "$TMP/err"; then
    echo "FAIL: stderr lacks the line: $1" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: stderr says: $1"
  fi
}
expect 1 "int flag without value" "$CLI" train --jobs
expect_stderr "missing value for --jobs"
expect 1 "double flag without value" "$CLI" serve --stdio --coalesce-us
expect 1 "string flag without value" "$CLI" train --registry
expect 1 "int flag out of range" "$CLI" train --jobs 2000
expect_stderr "invalid value '2000' for --jobs (expected 0..1024)"
expect 1 "double flag out of range" "$CLI" farm --chaos-kill 1.5
expect 1 "train unknown flag" "$CLI" train --frobnicate
expect 1 "cnv unknown flag" "$CLI" cnv --frobnicate
expect 1 "ping unknown flag" "$CLI" ping --frobnicate
expect 1 "farm unknown flag" "$CLI" farm --frobnicate
expect 1 "convert unknown --to value" "$CLI" convert a b --to yaml

# 2 -- runtime failure: a bundle path that is not a bundle.
echo garbage > "$TMP/not-a-bundle.mfb"
expect 2 "corrupt bundle file" \
  "$CLI" predict shiftreg_0 --model "$TMP/not-a-bundle.mfb"

# 2 -- malformed stitch options fail fast (validated before any flow work
# starts, never silently falling back to the SA engine).
expect 2 "unknown stitch engine" "$CLI" cnv --stitch-engine frobnicate
expect 2 "removed portfolio engine" "$CLI" cnv --stitch-engine portfolio
expect 2 "engine list" "$CLI" cnv --stitch-engine sa,evo
expect 2 "stitch population below 2" "$CLI" cnv --stitch-population 1

# 130 -- cancelled: a deadline that expires immediately. The flow must still
# exit cleanly (drain + checkpoint), just with the distinct status.
expect 130 "expired deadline" \
  "$CLI" cnv --deadline-seconds 0 --checkpoint "$TMP/cnv.ckpt"

# The cancelled run above must have checkpointed atomically: no temp litter.
if ls "$TMP"/cnv.ckpt.tmp.* > /dev/null 2>&1; then
  echo "FAIL: cancelled run left checkpoint temp files behind" >&2
  FAILURES=$((FAILURES + 1))
fi

# Resume after cancel: without a deadline the same checkpoint completes.
expect 0 "resume after cancel" "$CLI" cnv --checkpoint "$TMP/cnv.ckpt"

# -- farm: the whole supervised process tree obeys the same contract --------
FARM_COMMON="--count 8 --shards 2 --checkpoint-every 2 --workers 2 --quiet"

# 1 -- usage errors surface before any process is spawned.
expect 1 "farm without --dir" "$CLI" farm $FARM_COMMON
expect 1 "farm bad grid" "$CLI" farm --dir "$TMP/farm-bad" --grid nope
expect 1 "farm bad workers" "$CLI" farm --dir "$TMP/farm-bad" --workers 0
# Each chaos probability is in range, but kill + hang exceeds 1.
expect 1 "farm chaos probabilities over 1" \
  "$CLI" farm --dir "$TMP/farm-p" $FARM_COMMON --chaos-kill 0.8 --chaos-hang 0.8
expect_stderr "farm: --chaos-kill + --chaos-hang + --chaos-slow must not exceed 1"
if [ -e "$TMP/farm-p" ]; then
  echo "FAIL: rejected chaos farm created its directory" >&2
  FAILURES=$((FAILURES + 1))
fi

# 0 -- a clean farm completes and merges.
expect 0 "farm completes" "$CLI" farm --dir "$TMP/farm-a" $FARM_COMMON
expect 0 "farm resumes done shards" "$CLI" farm --dir "$TMP/farm-a" $FARM_COMMON

# Determinism across topologies: a single-shard single-worker farm of the
# same plan must produce the identical merged bytes.
expect 0 "farm single process" \
  "$CLI" farm --dir "$TMP/farm-b" --count 8 --shards 1 --workers 1 --quiet
if ! cmp -s "$TMP/farm-a/ground_truth.gt" "$TMP/farm-b/ground_truth.gt"; then
  echo "FAIL: sharded farm output differs from single-shard run" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: farm merge is byte-identical across topologies"
fi

# 0 -- injected SIGKILLs at every checkpoint boundary recover transparently
# and change nothing about the merged bytes.
expect 0 "farm recovers from chaos kills" \
  "$CLI" farm --dir "$TMP/farm-c" $FARM_COMMON \
  --chaos-kill 1.0 --chaos-faults 1 --max-attempts 3
if ! cmp -s "$TMP/farm-a/ground_truth.gt" "$TMP/farm-c/ground_truth.gt"; then
  echo "FAIL: chaos-kill farm output differs from clean run" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: chaos-kill farm merge is byte-identical to the clean run"
fi

# 2 -- a poison shard (faults never stop) is quarantined with a .reason
# trail; the farm still finishes the rest and reports the degradation.
expect 2 "farm quarantines poison shards" \
  "$CLI" farm --dir "$TMP/farm-d" $FARM_COMMON \
  --chaos-kill 1.0 --max-attempts 2
if ! ls "$TMP"/farm-d/quarantine/*.reason > /dev/null 2>&1; then
  echo "FAIL: quarantined farm left no .reason files" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: poison shards quarantined with .reason files"
fi

# 2 -- a farm directory holding a different plan is refused, not re-sharded.
expect 2 "farm refuses mismatched manifest" \
  "$CLI" farm --dir "$TMP/farm-a" --count 9 --shards 2 --workers 2 --quiet

# 130 -- an expired deadline tears the whole process tree down with the
# cancelled status; rerunning without the deadline resumes and completes.
expect 130 "farm expired deadline" \
  "$CLI" farm --dir "$TMP/farm-e" $FARM_COMMON --deadline-seconds 0
expect 0 "farm resume after cancel" "$CLI" farm --dir "$TMP/farm-e" $FARM_COMMON
if ! cmp -s "$TMP/farm-a/ground_truth.gt" "$TMP/farm-e/ground_truth.gt"; then
  echo "FAIL: resumed farm output differs from uninterrupted run" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: farm resumed after cancellation with identical bytes"
fi

# -- serve: the daemon obeys the same contract ------------------------------

# 1 -- usage errors: unknown flag, bad numeric value.
expect 1 "serve unknown flag" "$CLI" serve --stdio --frobnicate
expect 1 "serve bad coalesce value" "$CLI" serve --stdio --coalesce-us nope

# 2 -- semantic validation fails fast, before any socket is bound or
# request read (never a partial listen).
expect 2 "serve without socket or stdio" "$CLI" serve
expect 2 "serve with both socket and stdio" \
  "$CLI" serve --stdio --socket "$TMP/s.sock"
expect 2 "serve queue smaller than a batch" \
  "$CLI" serve --stdio --max-batch 64 --queue-capacity 4
expect 2 "serve unbindable socket path" \
  "$CLI" serve --socket "$TMP/no/such/dir/s.sock"

# 0 -- stdio happy path: train a tiny bundle, pipe the protocol through,
# EOF ends the session cleanly.
expect 0 "train bundle for serve" \
  "$CLI" train --kind linreg --name srv --count 24 \
  --registry "$TMP/serve-reg"
printf 'PING\nINFO srv\nESTIMATE c srv 1 2 3 4 5 6 7 8 9\n' \
  > "$TMP/serve-in"
expect 0 "serve stdio session" sh -c \
  "\"$CLI\" serve --stdio --registry \"$TMP/serve-reg\" < \"$TMP/serve-in\""
OK_LINES=$(grep -c '^OK ' "$TMP/out")
if [ "$OK_LINES" -ne 3 ]; then
  echo "FAIL: serve stdio session answered $OK_LINES OK lines, wanted 3" >&2
  sed 's/^/  stdout: /' "$TMP/out" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: serve stdio session answered every request"
fi

# 130 -- SIGINT mid-traffic: feed the daemon through a FIFO so it stays
# alive, interrupt it, and assert the drain exit status.
mkfifo "$TMP/serve-fifo"
"$CLI" serve --stdio --registry "$TMP/serve-reg" \
  < "$TMP/serve-fifo" > "$TMP/serve-sigint-out" 2>/dev/null &
SERVE_PID=$!
# Hold the FIFO open and trickle traffic while the signal lands.
exec 3> "$TMP/serve-fifo"
printf 'ESTIMATE c srv 1 2 3 4 5 6 7 8 9\n' >&3
sleep 1
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_STATUS=$?
exec 3>&-
if [ "$SERVE_STATUS" -ne 130 ]; then
  echo "FAIL: serve SIGINT: expected exit 130, got $SERVE_STATUS" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: serve SIGINT mid-traffic (exit 130)"
fi
if ! grep -q '^OK ' "$TMP/serve-sigint-out"; then
  echo "FAIL: serve dropped the request accepted before SIGINT" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: serve drained the in-flight request before exiting"
fi

# -- ping / supervised serve: the resilient-client verbs -------------------

# 1 -- usage errors: ping without a socket, malformed deadline.
expect 1 "ping without --socket" "$CLI" ping
expect 1 "ping bad deadline value" \
  "$CLI" ping --socket "$TMP/p.sock" --deadline-seconds nope

# 2 -- a socket nobody listens on is unreachable within the deadline.
expect 2 "ping dead socket" \
  "$CLI" ping --socket "$TMP/no-daemon.sock" --deadline-seconds 0.3

# 2 -- supervised mode needs a real socket, validated before any fork.
expect 2 "supervised needs a socket" "$CLI" serve --stdio --supervised
expect 2 "supervised rejects bad server flags" \
  "$CLI" serve --socket "$TMP/sup.sock" --supervised \
  --max-batch 64 --queue-capacity 4

# 0/130 -- a live supervised daemon answers ping; SIGINT tears the whole
# supervisor+child tree down with the cancelled status and removes the
# socket file.
"$CLI" serve --socket "$TMP/sup.sock" --registry "$TMP/serve-reg" \
  --supervised 2>/dev/null &
SUP_PID=$!
PING_OK=1
for _ in 1 2 3 4 5 6 7 8 9 10; do
  if "$CLI" ping --socket "$TMP/sup.sock" --deadline-seconds 1 \
      > /dev/null 2>&1; then
    PING_OK=0
    break
  fi
  sleep 0.5
done
if [ "$PING_OK" -ne 0 ]; then
  echo "FAIL: supervised daemon never answered ping" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: supervised daemon answers ping (exit 0)"
fi
kill -INT "$SUP_PID"
wait "$SUP_PID"
SUP_STATUS=$?
if [ "$SUP_STATUS" -ne 130 ]; then
  echo "FAIL: supervised SIGINT: expected exit 130, got $SUP_STATUS" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: supervised serve SIGINT (exit 130)"
fi
if [ -e "$TMP/sup.sock" ]; then
  echo "FAIL: supervised serve left its socket file behind" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: supervised serve removed its socket at shutdown"
fi

# -- convert: text <-> binary migration obeys the same contract -------------

# 1 -- usage errors: missing operands, unknown --to value.
expect 1 "convert without output" "$CLI" convert "$TMP/farm-a/ground_truth.gt"
expect 1 "convert bad --to" \
  "$CLI" convert "$TMP/farm-a/ground_truth.gt" "$TMP/gt.mfb" --to nope

# 2 -- runtime failures: missing input, input that is no known artifact.
expect 2 "convert missing input" \
  "$CLI" convert "$TMP/no-such-file.gt" "$TMP/gt.mfb"
echo garbage > "$TMP/garbage.gt"
expect 2 "convert unrecognised input" \
  "$CLI" convert "$TMP/garbage.gt" "$TMP/gt.mfb"

# 0 -- text -> binary -> text reproduces the original bytes exactly (the
# lossless-migration contract; the farm merge above supplies real data).
expect 0 "convert text to binary" \
  "$CLI" convert "$TMP/farm-a/ground_truth.gt" "$TMP/gt.mfb"
expect 0 "convert binary back to text" \
  "$CLI" convert "$TMP/gt.mfb" "$TMP/gt_roundtrip.gt"
if ! cmp -s "$TMP/farm-a/ground_truth.gt" "$TMP/gt_roundtrip.gt"; then
  echo "FAIL: convert text->binary->text changed the bytes" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: convert text->binary->text is byte-identical"
fi

[ "$FAILURES" -eq 0 ] || exit 1
exit 0
