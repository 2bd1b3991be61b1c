#!/usr/bin/env bash
# Start an hlpowerd in the background, or SIGTERM-drain one, for the
# serving CI jobs.  Run it from the root of a checkout whose
# bin/hlpower_cli.exe is built.
#
#   scripts/daemon_ci.sh start NAME SOCKET LOG [serve flags...]
#       Runs `hlpower_cli.exe serve --socket SOCKET [serve flags...]`
#       in the background with its output in LOG and its pid in
#       NAME.pid, then waits up to 10 s for SOCKET to appear.
#
#   scripts/daemon_ci.sh drain NAME SOCKET LOG
#       Sends SIGTERM to the pid in NAME.pid, waits up to 20 s for it
#       to exit, and requires "drained, exiting" in LOG and SOCKET gone.
#       Prints LOG.
#
# The binary is exec'd directly (not through dune exec): SIGTERM must
# reach the daemon itself so its drain runs, not a build-tool wrapper
# that would just die.
set -euo pipefail

CLI=./_build/default/bin/hlpower_cli.exe

if [ $# -lt 4 ]; then
  echo "usage: $0 start|drain NAME SOCKET LOG [serve flags...]" >&2
  exit 2
fi
cmd=$1 name=$2 socket=$3 log=$4
shift 4

case $cmd in
  start)
    "$CLI" serve --socket "$socket" "$@" > "$log" 2>&1 &
    echo $! > "$name.pid"
    for _ in $(seq 50); do
      test -S "$socket" && exit 0
      sleep 0.2
    done
    echo "$name did not come up on $socket"; cat "$log"; exit 1
    ;;
  drain)
    pid=$(cat "$name.pid")
    kill -TERM "$pid"
    for _ in $(seq 100); do
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.2
    done
    if kill -0 "$pid" 2>/dev/null; then
      echo "$name did not exit after SIGTERM"; cat "$log"; exit 1
    fi
    grep -q 'drained, exiting' "$log"
    test ! -e "$socket"
    cat "$log"
    ;;
  *)
    echo "unknown command: $cmd (expected start or drain)" >&2
    exit 2
    ;;
esac
