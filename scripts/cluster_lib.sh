# Helpers shared by the live-cluster smoke scripts (transport_smoke.sh,
# chaos_smoke.sh). Source it after setting HEAD, M1 and M2 (listen
# addresses) and DIM, with the calling script's name as its argument:
#
#   source "$(dirname "$0")/cluster_lib.sh" transport_smoke
#
# It sets BIN (release binaries, overridable) and WORK (a scratch
# directory removed on exit, when every background node is killed), and
# defines fail, await, client, start_member and boot_cluster.

SMOKE=$1
BIN=${BIN:-target/release}
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

fail() { echo "$SMOKE: FAIL: $1" >&2; exit 1; }

# Poll a log file for a marker line.
await() { # await <file> <pattern> <what>
  for _ in $(seq 1 100); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "--- $1 ---" >&2; cat "$1" >&2 || true
  fail "timed out waiting for $3"
}

# One JSON object per client call; every call must report ok:true.
# Callers capture with $(client ...) and grep the result — never pipe
# this function into `grep -q` (early-exit SIGPIPE + pipefail = flake).
client() { # client <args...>
  local out
  out=$("$BIN/hyperm-client" "$@")
  echo "$out"
  echo "$out" >&2
  case "$out" in *'"ok": true'*) ;; *) fail "client $* -> $out" ;; esac
}

# Start member <id> on <addr>, logging to $WORK/<log>.log, and wait until
# it has joined the head's overlay; further arguments go to hyperm-node.
# Sets MEMBER_PID and MEMBER_PEER (the overlay peer id it joined as).
start_member() { # start_member <id> <addr> <log> [args...]
  local id=$1 addr=$2 log="$WORK/$3.log"
  shift 3
  "$BIN/hyperm-node" member --listen "$addr" --head "$HEAD" --id "$id" \
    --items 20 --dim "$DIM" "$@" >"$log" 2>&1 &
  MEMBER_PID=$!
  await "$log" "joined as overlay peer" "member $id to join"
  MEMBER_PEER=$(grep -o 'joined as overlay peer [0-9]*' "$log" | grep -o '[0-9]*$')
}

# Boot the head (3 peers of 20 items, 3 levels) on $HEAD, then members 1
# and 2 on $M1 and $M2. The optional files are the --trace streams of
# the head and of member 1. Sets M1_PID and PEER1 for member 1.
boot_cluster() { # boot_cluster [head trace] [member 1 trace]
  echo "== booting head ($HEAD) and members ($M1, $M2)"
  "$BIN/hyperm-node" head --listen "$HEAD" --peers 3 --items 20 --dim "$DIM" \
    --levels 3 ${1:+--trace "$1"} >"$WORK/head.log" 2>&1 &
  await "$WORK/head.log" "listening on" "head to bind"
  start_member 1 "$M1" m1 ${2:+--trace "$2"}
  M1_PID=$MEMBER_PID PEER1=$MEMBER_PEER
  start_member 2 "$M2" m2
}
