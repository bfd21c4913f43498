#!/usr/bin/env bash
# Transport smoke test: boot a 3-node loopback cluster with the real
# binaries (1 head + 2 members), drive put/get/query through both the
# head and a member (exercising request forwarding), check the monitor
# dump and the observability plane (per-node JSONL traces, window
# stats scrapes, `hyperm-monitor --watch` with SLO rules including an
# injected breach), and shut every node down cleanly via the protocol.
#
# Artifacts left in the working directory for CI upload:
#   SMOKE_window.json        head sliding-window snapshot
#   SMOKE_trace_head.jsonl   head telemetry stream (--trace)
#   SMOKE_trace_member.jsonl member 1 telemetry stream (--trace)
#
# Requires release binaries (cargo build --release). Run from the repo
# root: bash scripts/transport_smoke.sh
set -euo pipefail

HEAD=127.0.0.1:7451
M1=127.0.0.1:7452
M2=127.0.0.1:7453
DIM=8
source "$(dirname "$0")/cluster_lib.sh" transport_smoke

boot_cluster "$WORK/trace_head.jsonl" "$WORK/trace_member.jsonl"

ITEM="0.3,0.3,0.3,0.3,0.3,0.3,0.3,0.3"

echo "== put a fresh item on peer 0 (via the head)"
OUT=$(client put --node "$HEAD" --peer 0 --item "$ITEM" --republish)
case "$OUT" in *'"index": 20'*) ;; *) fail "expected the put item at index 20" ;; esac

echo "== query centred on the put item via the head: must retrieve it"
OUT=$(client query --node "$HEAD" --centre "$ITEM" --eps 0.05)
case "$OUT" in *'[0,20]'*) ;; *) fail "head query missed the put item (recall < 1)" ;; esac

echo "== same query forwarded through member 1: identical recall"
OUT=$(client query --node "$M1" --centre "$ITEM" --eps 0.05 --trace 3735928559)
case "$OUT" in *'[0,20]'*) ;; *) fail "member-forwarded query missed the put item" ;; esac

echo "== stats: head serves its sliding-window snapshot"
STATS=$("$BIN/hyperm-client" stats --node "$HEAD")
echo "$STATS" >&2
case "$STATS" in *'"ops"'*) ;; *) fail "stats snapshot missing ops: $STATS" ;; esac
case "$STATS" in *'"ops": 0'*) fail "head window saw no ops after queries" ;; *) ;; esac
echo "$STATS" > SMOKE_window.json

echo "== watch: 2 scrape rounds over all 3 nodes, SLO rules holding"
"$BIN/hyperm-monitor" --watch --nodes "$HEAD,$M1,$M2" --interval 100 --count 2 \
  --slo "failed_routes == 0, rejected == 0" >"$WORK/watch.log" \
  || { cat "$WORK/watch.log" >&2; fail "clean watch breached its SLO"; }
grep -q '"kind": "cluster"' "$WORK/watch.log" || fail "watch printed no cluster aggregate"
grep -q '"kind": "watch_done"' "$WORK/watch.log" || fail "watch printed no final report"

echo "== inject an SLO breach: a wrong-dimension query is rejected"
BAD=$("$BIN/hyperm-client" query --node "$HEAD" --centre "0.3,0.3" --eps 0.05)
echo "$BAD" >&2
case "$BAD" in *'"ok": false'*) ;; *) fail "wrong-dimension query was not rejected: $BAD" ;; esac

echo "== watch: the rejected op must now breach 'rejected == 0' (exit non-zero)"
if "$BIN/hyperm-monitor" --watch --nodes "$HEAD" --interval 100 --count 1 \
  --slo "rejected == 0" >"$WORK/breach.log"; then
  cat "$WORK/breach.log" >&2
  fail "watch did not exit non-zero on the injected SLO breach"
fi
grep -q '"ok": false' "$WORK/breach.log" || fail "breach watch printed no structured report"

echo "== monitor: head reports all 5 overlay members"
MON=$("$BIN/hyperm-monitor" --node "$HEAD")
echo "$MON" | grep -q '"role": "head"' || fail "monitor role: $MON"
echo "$MON" | grep -q '"members": 5' || fail "monitor members: $MON"

echo "== get: level-0 summary spheres (key in the level's subspace)"
L0DIM=$(echo "$MON" | grep -o '"dim": [0-9]*' | head -1 | grep -o '[0-9]*')
KEY=$(seq $L0DIM | sed 's/.*/0.5/' | paste -sd, -)
client get --node "$HEAD" --level 0 --key "$KEY" >/dev/null

echo "== clean protocol shutdown, members first"
client shutdown --node "$M2" >/dev/null
client shutdown --node "$M1" >/dev/null
client shutdown --node "$HEAD" >/dev/null
await "$WORK/m2.log" "shut down cleanly" "member 2 shutdown"
await "$WORK/m1.log" "shut down cleanly" "member 1 shutdown"
await "$WORK/head.log" "shut down cleanly" "head shutdown"
wait

echo "== trace artifacts: both node streams carry serve spans"
grep -q '"name": "serve"' "$WORK/trace_head.jsonl" || fail "head trace has no serve spans"
grep -q '"name": "serve"' "$WORK/trace_member.jsonl" || fail "member trace has no serve spans"
grep -q '"ctx_trace": 3735928559' "$WORK/trace_member.jsonl" \
  || fail "member trace missing the client's wire trace context"
cp "$WORK/trace_head.jsonl" SMOKE_trace_head.jsonl
cp "$WORK/trace_member.jsonl" SMOKE_trace_member.jsonl

echo "transport_smoke: PASS"
