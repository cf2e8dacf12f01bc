#!/usr/bin/env bash
# Cold-restart durability drill: the CI proof that the storage tier
# actually survives a kill -9, not just a clean Stop().
#
# The drill scripts the operator runbook from src/storage/README.md:
#
#   1. Start a durable shard process (--listen --data_dir), join it from
#      a router, and record the fleet's observed feed frontier (the
#      "FLEET max_epoch=N" line).
#   2. SIGKILL the shard mid-life — no flush, no goodbye. Whatever the
#      batch log and last checkpoint captured is all that survives.
#   3. Restart the shard over the SAME data_dir. It must report
#      RECOVERED with max_epoch == seq + 1 (the epoch is 1 + the update
#      requests the recovered log holds) and max_epoch >= the frontier
#      the router observed (WAL-before-apply: recovery lands AT or AHEAD
#      of any answer a client ever saw, never behind), and
#      --verify_recovery must find zero mismatches against a from-scratch
#      oracle index.
#   4. Re-admit the recovered shard into a fresh routing front-end
#      (--shards=0 --adopt). The adopted sources, and the hubs the churn
#      adds, must all answer at exactly the recovered epoch (the FLEET
#      line equals RECOVERED's max_epoch) and survive hub churn.
#      The adopt run is read-only (--slides=0): re-feeding the seeded
#      batch stream would replay deletions the recovered graph already
#      applied, which the graph rejects by design.
#
# Usable locally too: ./ci/run_cold_restart.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
HUB="${BUILD_DIR}/hub_server"
SEED=33

WORK="$(mktemp -d)"
SHARD_PID=""
cleanup() {
  [ -n "${SHARD_PID}" ] && kill -9 "${SHARD_PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

wait_for_listening() {
  local log="$1"
  for _ in $(seq 1 100); do
    if grep -q LISTENING "${log}"; then return 0; fi
    sleep 0.1
  done
  echo "FATAL: shard never printed LISTENING"; cat "${log}"; return 1
}

# ---- 1. durable shard + joining router -------------------------------
"${HUB}" --listen=0 --seed=${SEED} --data_dir="${WORK}/shard0" \
  > "${WORK}/shard0.log" 2>&1 &
SHARD_PID=$!
wait_for_listening "${WORK}/shard0.log"
PORT="$(awk '/^LISTENING/{print $2}' "${WORK}/shard0.log")"

"${HUB}" --join=127.0.0.1:"${PORT}" --shards=1 --seed=${SEED} \
  > "${WORK}/router1.log" 2>&1 \
  || { echo "FATAL: join-mode router failed"; cat "${WORK}/router1.log"; exit 1; }
FLEET_EPOCH="$(awk -F= '/^FLEET max_epoch=/{print $2}' "${WORK}/router1.log")"
echo "fleet frontier before the kill: max_epoch=${FLEET_EPOCH}"
[ -n "${FLEET_EPOCH}" ] && [ "${FLEET_EPOCH}" -gt 0 ] \
  || { echo "FATAL: router never observed a nonzero epoch"; exit 1; }

# ---- 2. kill -9 ------------------------------------------------------
kill -9 "${SHARD_PID}"
wait "${SHARD_PID}" 2>/dev/null || true
SHARD_PID=""

# ---- 3. cold restart from disk + oracle verification -----------------
"${HUB}" --listen=0 --seed=${SEED} --data_dir="${WORK}/shard0" \
  --verify_recovery > "${WORK}/shard0b.log" 2>&1 &
SHARD_PID=$!
wait_for_listening "${WORK}/shard0b.log"
grep '^RECOVERED\|^RECOVERY_VERIFIED' "${WORK}/shard0b.log"

RECOVERED_EPOCH="$(sed -n 's/^RECOVERED .*max_epoch=\([0-9]*\).*/\1/p' \
  "${WORK}/shard0b.log")"
RECOVERED_SEQ="$(sed -n 's/^RECOVERED seq=\([0-9]*\).*/\1/p' \
  "${WORK}/shard0b.log")"
[ -n "${RECOVERED_EPOCH}" ] && [ -n "${RECOVERED_SEQ}" ] \
  || { echo "FATAL: restart did not recover from disk"; cat "${WORK}/shard0b.log"; exit 1; }
if [ "${RECOVERED_EPOCH}" -ne $((RECOVERED_SEQ + 1)) ]; then
  echo "FATAL: recovered epoch ${RECOVERED_EPOCH} is not the recovered" \
       "feed sequence ${RECOVERED_SEQ} + 1"
  exit 1
fi
if [ "${RECOVERED_EPOCH}" -lt "${FLEET_EPOCH}" ]; then
  echo "FATAL: epoch regression across restart:" \
       "recovered ${RECOVERED_EPOCH} < observed ${FLEET_EPOCH}"
  exit 1
fi
MISMATCHES="$(sed -n 's/^RECOVERY_VERIFIED .*mismatches=\([0-9]*\).*/\1/p' \
  "${WORK}/shard0b.log")"
[ "${MISMATCHES:-1}" -eq 0 ] \
  || { echo "FATAL: recovered state diverges from the oracle"; exit 1; }

# ---- 4. adopt the recovered shard into a fresh front-end -------------
PORT2="$(awk '/^LISTENING/{print $2}' "${WORK}/shard0b.log")"
"${HUB}" --shards=0 --adopt=127.0.0.1:"${PORT2}" --seed=${SEED} --slides=0 \
  > "${WORK}/router2.log" 2>&1 \
  || { echo "FATAL: adopt-mode router failed"; cat "${WORK}/router2.log"; exit 1; }
grep '^ADOPTED' "${WORK}/router2.log"
ADOPT_EPOCH="$(awk -F= '/^FLEET max_epoch=/{print $2}' "${WORK}/router2.log")"
if [ "${ADOPT_EPOCH:-0}" -ne "${RECOVERED_EPOCH}" ]; then
  echo "FATAL: the read-only adopted fleet serves max_epoch=${ADOPT_EPOCH}," \
       "not the recovered ${RECOVERED_EPOCH}"
  exit 1
fi

echo "cold-restart drill passed:" \
     "recovered max_epoch=${RECOVERED_EPOCH} >= ${FLEET_EPOCH}," \
     "oracle mismatches=0, adopted fleet at max_epoch=${ADOPT_EPOCH}"
