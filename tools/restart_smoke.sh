#!/usr/bin/env bash
# Kill-and-restart smoke test for durable v3 snapshots, over the wire.
#
# Drives a live serve-net process through churn (INSERT/REMOVE) and two
# REINDEX generation swaps, snapshots mid-churn, kills the server hard
# (SIGKILL — a crash, not a shutdown), restarts it from the snapshot file
# ALONE (no --db), and asserts the restarted process is indistinguishable:
#
#   - STATS dimension_generation and epoch match the pre-kill values
#     (a v2-era restart would report 0 for both),
#   - QUERY answers — MODE=full and MODE=approx NPROBE=all — are
#     byte-identical to the pre-kill responses. The snapshot carries no IVF
#     layout: the restarted server rebuilds it from the rows, so its
#     MODE=approx answers at the default NPROBE are those of a fresh build
#     over the same live rows, not of the churned pre-kill layout. Only
#     NPROBE=all (which probes every bucket) is compared byte for byte,
#   - REINDEX still works, fed by the snapshot's own store section,
#   - the restart log carries no missing-metadata WARN. `build` writes
#     META {generation 0, epoch 0}, so the cold start is quiet too; a
#     hand-written v1 text index (no META section) must WARN — the
#     loud/quiet pair is asserted both ways.
#
# Then the same snapshot goes through an offline `gdim_tool update`
# (--remove + --insert) and a third server starts from the result, again
# without --db: the dimension generation must be unchanged, REINDEX must
# still answer OK (update kept the store section in lockstep), and the log
# must carry no WARN.
#
# Usage: tools/restart_smoke.sh [build-dir]   (default: build)

set -euo pipefail

BUILD_DIR=${1:-build}
TOOL="$BUILD_DIR/gdim_tool"
[ -x "$TOOL" ] || { echo "restart_smoke: $TOOL not found" >&2; exit 1; }

TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for p in ${PIDS[@]+"${PIDS[@]}"}; do kill "$p" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

# Starts serve-net with the given extra flags and waits for the listen
# line. Sets SERVER_PID / SERVER_PORT (no subshell — the pid must survive
# for the later SIGKILL). Usage: start_server <logfile> <flags...>
start_server() {
  local log=$1
  shift
  "$TOOL" serve-net --host=127.0.0.1 --port=0 "$@" >"$log" 2>&1 &
  SERVER_PID=$!
  PIDS+=("$SERVER_PID")
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$log" && break
    sleep 0.1
  done
  grep -q 'listening on' "$log" || {
    echo "restart_smoke: server failed to start" >&2
    cat "$log" >&2
    exit 1
  }
  SERVER_PORT=$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$log" | head -1)
}

# One protocol client for both phases. `pre` churns, reindexes twice,
# snapshots, and records STATS + probe answers; `post` replays the probes
# against the restarted server and diffs everything.
CLIENT='
import socket, sys

def graphs(path):
    out, cur = [], []
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("t #") and cur:
            out.append(";".join(cur))
            cur = []
        cur.append(line)
    if cur:
        out.append(";".join(cur))
    return out

mode, port, qpath, state = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
sock = socket.create_connection(("127.0.0.1", port), timeout=60)
f = sock.makefile("rw", newline="\n")

def req(line):
    f.write(line + "\n")
    f.flush()
    resp = f.readline().strip()
    if not resp.startswith("OK"):
        sys.exit(f"restart_smoke: {line.split()[0]} failed: {resp!r}")
    return resp

def stats():
    return dict(tok.split("=", 1) for tok in req("STATS").split()[1:] if "=" in tok)

qs = graphs(qpath)
probes = []
for g in qs[:3]:
    probes.append(f"QUERY 5 MODE=full {g}")
    probes.append(f"QUERY 5 MODE=approx NPROBE=all {g}")

if mode == "pre":
    snap = sys.argv[5]
    # Churn + swap, twice: the snapshot must carry history no cold build
    # has (two generations selected over two different live sets).
    for g in qs:
        req("INSERT " + g)
    for rid in (1, 4, 9):
        req(f"REMOVE {rid}")
    r = req("REINDEX")
    assert "generation=1" in r, r
    for rid in (12, 15):
        req(f"REMOVE {rid}")
    for g in qs[:2]:
        req("INSERT " + g)
    r = req("REINDEX")
    assert "generation=2" in r, r
    # Mid-churn snapshot: an uncompacted tombstone and a fresh delta row.
    req("REMOVE 20")
    req("INSERT " + qs[0])
    req(f"SNAPSHOT {snap}")
    # Ground truth sampled after the snapshot with no further mutations:
    # the file and these answers describe the same state.
    kv = stats()
    assert kv["dimension_generation"] == "2", kv
    with open(state, "w") as out:
        out.write(kv["dimension_generation"] + "\n" + kv["epoch"] + "\n")
        for q in probes:
            out.write(req(q) + "\n")
elif mode == "updated":
    want = open(state).read().splitlines()
    kv = stats()
    assert kv["dimension_generation"] == want[0], (
        f"generation lost by update: {kv['"'"'dimension_generation'"'"']} != {want[0]}")
    r = req("REINDEX")
    assert "generation=3" in r, r
else:
    want = open(state).read().splitlines()
    kv = stats()
    assert kv["dimension_generation"] == want[0], (
        f"generation lost across restart: {kv['"'"'dimension_generation'"'"']} != {want[0]}")
    assert kv["epoch"] == want[1], (
        f"epoch lost across restart: {kv['"'"'epoch'"'"']} != {want[1]}")
    for q, exp in zip(probes, want[2:]):
        got = req(q)
        assert got == exp, f"answer drifted across restart:\n  pre:  {exp}\n  post: {got}"
    # The snapshot store section feeds further refreshes — no --db anywhere.
    r = req("REINDEX")
    assert "generation=3" in r, r
req("QUIT")
print(f"restart_smoke: {mode} phase OK")
'

echo "restart_smoke: generating corpus and initial index"
"$TOOL" generate --kind=chem --n=60 --queries=6 \
  --out="$TMP/db.gdb" --queries-out="$TMP/q.gdb"
"$TOOL" build --db="$TMP/db.gdb" --out="$TMP/index.idx" \
  --selector=DSPM --p=30 --minsup=0.15 --maxedges=4

# The v3 restarts below restore everything; any WARN there is a
# regression.
assert_no_warn() {
  if grep -q 'WARN' "$1"; then
    echo "restart_smoke: unexpected WARN in $1" >&2
    cat "$1" >&2
    exit 1
  fi
}

echo "restart_smoke: starting server 0 (META-less v1 index + --db)"
# Two single-vertex features (labels 0 and 1) over two one-vertex graphs.
# v1 has no META section, so with reindex-capable flags this is the
# degraded shape: the server must say so out loud.
printf 't # 0\nv 0 0\nt # 1\nv 0 1\n' >"$TMP/v1db.gdb"
{
  printf 'gdim-index v1\nfeatures 2\n'
  cat "$TMP/v1db.gdb"
  printf 'vectors 2 2\n10\n01\n'
} >"$TMP/v1.idx"
start_server "$TMP/serve0.log" --index="$TMP/v1.idx" --db="$TMP/v1db.gdb"
grep -q 'WARN: .*no generation/epoch metadata' "$TMP/serve0.log"
kill "$SERVER_PID"

echo "restart_smoke: starting server 1 (cold build + --db)"
start_server "$TMP/serve1.log" --index="$TMP/index.idx" \
  --shards=3 --cache-mb=16 --db="$TMP/db.gdb" \
  --reindex-minsup=0.15 --reindex-maxedges=4
KILL_PID=$SERVER_PID
# `build` wrote META {0, 0}: a fresh build has no history to lose.
assert_no_warn "$TMP/serve1.log"

python3 -c "$CLIENT" pre "$SERVER_PORT" "$TMP/q.gdb" "$TMP/pre.txt" \
  "$TMP/snap.idx2"
[ -s "$TMP/snap.idx2" ]

echo "restart_smoke: killing server 1 (SIGKILL)"
kill -9 "$KILL_PID"
wait "$KILL_PID" 2>/dev/null || true

echo "restart_smoke: restarting from the snapshot alone (no --db)"
start_server "$TMP/serve2.log" --index="$TMP/snap.idx2" \
  --shards=3 --cache-mb=16
assert_no_warn "$TMP/serve2.log"

python3 -c "$CLIENT" post "$SERVER_PORT" "$TMP/q.gdb" "$TMP/pre.txt"
kill "$SERVER_PID"

echo "restart_smoke: updating the snapshot offline, restarting from it (no --db)"
"$TOOL" update --index="$TMP/snap.idx2" --remove=2,3 --insert="$TMP/q.gdb" \
  --out="$TMP/updated.idx"
start_server "$TMP/serve3.log" --index="$TMP/updated.idx" \
  --shards=3 --cache-mb=16
assert_no_warn "$TMP/serve3.log"
python3 -c "$CLIENT" updated "$SERVER_PORT" "$TMP/q.gdb" "$TMP/pre.txt"

echo "restart_smoke: OK"
