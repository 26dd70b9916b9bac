#!/usr/bin/env bash
# Distributed-training smoke: 2 pkgm_psd shard daemons + 2 worker
# processes on loopback, trained on the same synthetic KG as a
# single-process baseline, then asserted on (a) loss parity — the
# distributed final eval hinge must land within a few percent of the
# single-process number — and (b) protocol cleanliness from the daemons'
# JSON stats (no rejects, no protocol errors, every epoch barrier
# released, transfer rows answered from the shards' update logs).
#
#   dist_smoke.sh <pkgm_psd> <pkgm_tool> <workdir> [epochs] [shard_kernel]
#
# shard_kernel, a PKGM_KERNEL value such as "scalar", runs only the shard
# daemons on that kernel table. The workers keep their own and replay each
# shard's transfer-row log records on the table that shard announces.
set -u

PSD="$1"
TOOL="$2"
WORKDIR="$3"
EPOCHS="${4:-3}"
SHARD_KERNEL="${5:-${PKGM_KERNEL:-}}"

DIM=16
LR=0.05
SEED=17
TOLERANCE=0.05   # relative eval-hinge gap allowed vs single-process

mkdir -p "$WORKDIR"
cd "$WORKDIR"
rm -f shard_*.port shard_*.json worker_*.log base.log kg.tsv

"$TOOL" generate kg.tsv 3 > /dev/null || {
  echo "FAIL: generate" >&2; exit 1; }

# Single-process baseline (2-worker hogwild, same seed budget).
"$TOOL" train kg.tsv base_model.pkgs --epochs "$EPOCHS" --dim "$DIM" \
        --workers 2 --optimizer sgd --lr "$LR" --seed "$SEED" \
        --eval-hinge > base.log 2>&1 || {
  echo "FAIL: baseline train" >&2; cat base.log >&2; exit 1; }
ENTITIES=$(sed -n 's/^loaded .* triples, \([0-9]*\) entities.*/\1/p' base.log)
RELATIONS=$(sed -n 's/^loaded .* triples, .* entities, \([0-9]*\) relations.*/\1/p' base.log)
BASE_HINGE=$(sed -n 's/^final eval hinge \([0-9.]*\)$/\1/p' base.log)
if [ -z "$ENTITIES" ] || [ -z "$RELATIONS" ] || [ -z "$BASE_HINGE" ]; then
  echo "FAIL: could not parse baseline output" >&2; cat base.log >&2; exit 1
fi

# Two shard daemons on ephemeral loopback ports.
PIDS=""
for S in 0 1; do
  PKGM_KERNEL="$SHARD_KERNEL" \
  "$PSD" --shard "$S" --num-shards 2 --entities "$ENTITIES" \
         --relations "$RELATIONS" --dim "$DIM" --model-seed "$SEED" \
         --optimizer sgd --lr "$LR" --port-file "shard_$S.port" \
         --stats-json "shard_$S.json" > "shard_$S.log" 2>&1 &
  PIDS="$PIDS $!"
done
trap 'kill -9 $PIDS 2>/dev/null' EXIT

for S in 0 1; do
  for _ in $(seq 1 100); do
    [ -s "shard_$S.port" ] && break
    sleep 0.1
  done
  if [ ! -s "shard_$S.port" ]; then
    echo "FAIL: shard $S never wrote its port file" >&2; exit 1
  fi
done
EP0="127.0.0.1:$(cat shard_0.port)"
EP1="127.0.0.1:$(cat shard_1.port)"

# Two worker processes splitting each epoch's batches, synchronized by the
# shards' epoch barriers. Worker 0 pulls the merged model and evaluates.
"$TOOL" train kg.tsv dist_model.pkgs --epochs "$EPOCHS" --dim "$DIM" \
        --workers 1 --optimizer sgd --lr "$LR" --seed "$SEED" \
        --connect-shards "$EP0,$EP1" --worker-index 0 --worker-procs 2 \
        --eval-hinge > worker_0.log 2>&1 &
W0=$!
"$TOOL" train kg.tsv dist_model_w1.pkgs --epochs "$EPOCHS" --dim "$DIM" \
        --workers 1 --optimizer sgd --lr "$LR" --seed "$SEED" \
        --connect-shards "$EP0,$EP1" --worker-index 1 --worker-procs 2 \
        > worker_1.log 2>&1 &
W1=$!
wait "$W0"; W0_RC=$?
wait "$W1"; W1_RC=$?
if [ "$W0_RC" -ne 0 ] || [ "$W1_RC" -ne 0 ]; then
  echo "FAIL: worker exited with $W0_RC/$W1_RC" >&2
  cat worker_0.log worker_1.log >&2
  exit 1
fi
DIST_HINGE=$(sed -n 's/^final eval hinge \([0-9.]*\)$/\1/p' worker_0.log)
if [ -z "$DIST_HINGE" ]; then
  echo "FAIL: worker 0 printed no eval hinge" >&2; cat worker_0.log >&2
  exit 1
fi

# Graceful drain: SIGTERM must flush the stats JSONs and exit 0.
kill -TERM $PIDS
for PID in $PIDS; do
  wait "$PID" || { echo "FAIL: shard daemon exited non-zero" >&2; exit 1; }
done
trap - EXIT

python3 - "$BASE_HINGE" "$DIST_HINGE" "$TOLERANCE" "$EPOCHS" \
    shard_0.json shard_1.json <<'EOF'
import json, sys

base, dist, tol = float(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3])
epochs = int(sys.argv[4])

gap = abs(dist - base) / base
assert gap <= tol, f"loss parity broken: base={base} dist={dist} gap={gap:.4f}"

for path in sys.argv[5:7]:
    shard = json.load(open(path))
    assert shard["rejects"] == 0, f"{path}: {shard}"
    assert shard["net"]["protocol_errors"] == 0, f"{path}: {shard['net']}"
    assert shard["barriers_released"] == epochs, f"{path}: {shard}"
    assert shard["pushes"] > 0 and shard["pulls"] > 0, f"{path}: {shard}"
    assert shard["transfer_rows_from_log"] > 0, f"{path}: {shard}"

print(f"dist smoke OK: base_hinge={base} dist_hinge={dist} gap={gap:.5f}")
EOF
