#!/usr/bin/env bash
# Loopback smoke for the network serving subsystem: start pkgm_netd on an
# ephemeral port, drive it with pkgm_serve --connect, then assert via the
# server's JSON stats that the run was protocol-clean.
#
#   loopback_smoke.sh <pkgm_netd> <pkgm_serve> <workdir> [requests]
set -u

NETD="$1"
SERVE="$2"
WORKDIR="$3"
REQUESTS="${4:-2000}"

mkdir -p "$WORKDIR"
PORT_FILE="$WORKDIR/netd.port"
CLIENT_STATS="$WORKDIR/client_stats.json"
DAEMON_STATS="$WORKDIR/daemon_stats.json"
rm -f "$PORT_FILE" "$CLIENT_STATS" "$DAEMON_STATS"

"$NETD" --port 0 --port-file "$PORT_FILE" --stats-json "$DAEMON_STATS" \
        --io-threads 2 --workers 2 &
NETD_PID=$!
trap 'kill -9 $NETD_PID 2>/dev/null' EXIT

# The daemon pre-trains before it listens; wait for the port file.
for _ in $(seq 1 600); do
  [ -s "$PORT_FILE" ] && break
  if ! kill -0 "$NETD_PID" 2>/dev/null; then
    echo "FAIL: pkgm_netd exited before listening" >&2
    exit 1
  fi
  sleep 0.1
done
if [ ! -s "$PORT_FILE" ]; then
  echo "FAIL: pkgm_netd never wrote its port file" >&2
  exit 1
fi
PORT=$(cat "$PORT_FILE")

"$SERVE" --connect "127.0.0.1:$PORT" --connections 2 --threads 2 \
         --duration-requests "$REQUESTS" --stats-json "$CLIENT_STATS"
SERVE_RC=$?
if [ "$SERVE_RC" -ne 0 ]; then
  echo "FAIL: pkgm_serve --connect exited with $SERVE_RC" >&2
  exit 1
fi

# Graceful shutdown: SIGTERM must drain and write the final stats json.
kill -TERM "$NETD_PID"
wait "$NETD_PID"
NETD_RC=$?
trap - EXIT
if [ "$NETD_RC" -ne 0 ]; then
  echo "FAIL: pkgm_netd exited with $NETD_RC after SIGTERM" >&2
  exit 1
fi

python3 - "$CLIENT_STATS" "$DAEMON_STATS" "$REQUESTS" <<'EOF'
import json, sys

client = json.load(open(sys.argv[1]))
daemon = json.load(open(sys.argv[2]))
requests = int(sys.argv[3])

net = client["net"]
assert net["protocol_errors"] == 0, f"protocol errors: {net}"
assert net["backpressure_disconnects"] == 0, f"backpressure: {net}"
assert net["requests_in"] >= requests, f"requests_in too low: {net}"
assert client["accepted"] >= requests, f"accepted too low: {client}"
# The daemon's own final snapshot must agree the run was clean.
assert daemon["net"]["protocol_errors"] == 0, daemon["net"]
assert daemon["net"]["io_backend"] == "epoll", daemon["net"]
print("loopback smoke OK:",
      f"requests_in={net['requests_in']}",
      f"frames_in={net['frames_in']}",
      f"io_backend={daemon['net']['io_backend']}",
      f"p99_queue_us={client['latency']['queue']['p99_us']}")
EOF
