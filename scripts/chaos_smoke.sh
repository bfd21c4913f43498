#!/usr/bin/env bash
# Chaos smoke test: boot a 3-node loopback cluster with the real
# binaries, kill -9 a member mid-workload, restart it and verify the
# crash-rejoin path end to end: the reborn member re-Joins through the
# normal join protocol, resolves to the SAME overlay peer id (no
# duplicate admission), forwarded queries recover recall 1.0, the
# member's Stats report `"degraded": false`, and a final SLO-checked
# watch round over every node exits clean.
#
# Requires release binaries (cargo build --release). Run from the repo
# root: bash scripts/chaos_smoke.sh
set -euo pipefail

HEAD=127.0.0.1:7461
M1=127.0.0.1:7462
M2=127.0.0.1:7463
DIM=8
source "$(dirname "$0")/cluster_lib.sh" chaos_smoke

boot_cluster

ITEM="0.3,0.3,0.3,0.3,0.3,0.3,0.3,0.3"

echo "== workload: put an item and query it through member 1"
OUT=$(client put --node "$HEAD" --peer 0 --item "$ITEM" --republish)
case "$OUT" in *'"index": 20'*) ;; *) fail "expected the put item at index 20" ;; esac
OUT=$(client query --node "$M1" --centre "$ITEM" --eps 0.05)
case "$OUT" in *'[0,20]'*) ;; *) fail "pre-crash forwarded query missed the item" ;; esac

echo "== chaos: kill -9 member 1 (overlay peer $PEER1) mid-workload"
kill -9 "$M1_PID" 2>/dev/null || fail "could not kill member 1"
wait "$M1_PID" 2>/dev/null || true

echo "== the rest of the cluster keeps answering while it is down"
OUT=$(client query --node "$HEAD" --centre "$ITEM" --eps 0.05)
case "$OUT" in *'[0,20]'*) ;; *) fail "head query failed with a member down" ;; esac

echo "== restart member 1: same id, same listen address, normal join path"
start_member 1 "$M1" m1b
PEER1B=$MEMBER_PEER
[ "$PEER1B" = "$PEER1" ] \
  || fail "rejoin changed the overlay peer id ($PEER1 -> $PEER1B)"

echo "== no duplicate admission: the head still reports 5 overlay members"
MON=$("$BIN/hyperm-monitor" --node "$HEAD")
echo "$MON" | grep -q '"members": 5' || fail "monitor members after rejoin: $MON"

echo "== recall 1.0 through the reborn member"
OUT=$(client query --node "$M1" --centre "$ITEM" --eps 0.05)
case "$OUT" in *'[0,20]'*) ;; *) fail "post-rejoin forwarded query missed the item" ;; esac

echo "== the reborn member's liveness verdict is healthy"
STATS=$("$BIN/hyperm-client" stats --node "$M1")
echo "$STATS" >&2
case "$STATS" in *'"degraded": false'*) ;; *) fail "member reports degraded after rejoin: $STATS" ;; esac

echo "== final SLO verdict: one watch round over every node, clean"
"$BIN/hyperm-monitor" --watch --nodes "$HEAD,$M1,$M2" --interval 100 --count 2 \
  --slo "failed_routes == 0, rejected == 0" >"$WORK/watch.log" \
  || { cat "$WORK/watch.log" >&2; fail "post-rejoin watch breached its SLO"; }
grep -q '"down": 0' "$WORK/watch.log" || fail "watch saw a down node after rejoin"
grep -q '"kind": "watch_done"' "$WORK/watch.log" || fail "watch printed no final report"

echo "== clean protocol shutdown, members first"
client shutdown --node "$M2" >/dev/null
client shutdown --node "$M1" >/dev/null
client shutdown --node "$HEAD" >/dev/null
await "$WORK/m2.log" "shut down cleanly" "member 2 shutdown"
await "$WORK/m1b.log" "shut down cleanly" "member 1 shutdown"
await "$WORK/head.log" "shut down cleanly" "head shutdown"
wait

echo "chaos_smoke: PASS"
