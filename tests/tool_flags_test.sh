#!/bin/sh
# The command-line tools refuse an integer flag that is not a whole
# decimal number in range: usage text on stderr and exit code 2, before
# they start anything. And rwdt_serve --port=0 still listens on an
# ephemeral port.
#
#   sh tests/tool_flags_test.sh <rwdt_serve binary> <loadgen binary>
serve=$1
loadgen=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail=0

# expect_usage <binary> <flags>...: exit code 2 with the usage text. A
# binary that took the flag would start serving or sending; `timeout`
# ends it and the test fails rather than hangs.
expect_usage() {
  timeout 10 "$@" > /dev/null 2> "$dir/err"
  code=$?
  if [ "$code" -ne 2 ] || ! grep -q '^usage:' "$dir/err"; then
    echo "FAIL: $* exited $code; want 2 and the usage text"
    cat "$dir/err"
    fail=1
  fi
}

for port in 70000 65536 8x -1 +80 '' ' 80' 0x50; do
  expect_usage "$serve" "--port=$port"
done
expect_usage "$serve" --workers=2x
expect_usage "$serve" --handler-threads=abc
expect_usage "$serve" --queue=1.5
expect_usage "$serve" --slow-log=-3

# Against a closed port, for a tenth of a second, should one be taken.
send="--target=127.0.0.1:1 --duration=0.1 --out=$dir/out.json"
expect_usage "$loadgen" $send --connections=8x
expect_usage "$loadgen" $send --connections=
expect_usage "$loadgen" $send --trace=2
expect_usage "$loadgen" --target=127.0.0.1:70000 --duration=0.1 \
  "--out=$dir/out.json"

# --port=0: the kernel picks the port, which the "listening on" line
# names; SIGTERM drains and exits 0.
"$serve" --port=0 --workers=1 --handler-threads=1 2> "$dir/log" &
pid=$!
port=
for i in $(seq 1 100); do
  port=$(sed -n 's/^rwdt_serve: listening on [^:]*:\([0-9]*\) .*/\1/p' \
    "$dir/log")
  [ -n "$port" ] && break
  sleep 0.1
done
kill -TERM "$pid"
wait "$pid"
code=$?
if [ -z "$port" ] || [ "$port" -eq 0 ] || [ "$code" -ne 0 ]; then
  echo "FAIL: --port=0 listened on '$port' and exited $code"
  cat "$dir/log"
  fail=1
fi

[ "$fail" -eq 0 ] && echo "tool flags: ok"
exit "$fail"
