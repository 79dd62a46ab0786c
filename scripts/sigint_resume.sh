#!/usr/bin/env bash
# Ctrl-C smoke for campaign_shard: interrupt a running campaign with
# SIGINT once its first checkpoint is on disk, require exit 130, resume
# the checkpoint, and require the result to be byte-identical to an
# uninterrupted run of the same flags. Both planners go through the
# one campaign loop, so run it once plain and once with --sample.
#
# Usage: scripts/sigint_resume.sh [campaign flags...]
#   The flags should make a campaign that lasts several seconds.
#   NOCALERT_BUILD_DIR  build tree holding examples/ (default build)
set -euo pipefail

SHARD="${NOCALERT_BUILD_DIR:-build}/examples/campaign_shard"
if [[ ! -x "${SHARD}" ]]; then
    echo "sigint_resume: ${SHARD} not found; build first" >&2
    exit 2
fi
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
FLAGS=(--mesh 4 --rate 0.05 --seed 9 --warmup 200 "$@")

"${SHARD}" run "${FLAGS[@]}" --jobs 2 --out "${WORK}/whole.json" \
    > /dev/null

"${SHARD}" run "${FLAGS[@]}" --jobs 2 --out "${WORK}/cut.json" \
    --checkpoint "${WORK}/cut.ckpt.json" --checkpoint-every 1 \
    > /dev/null &
pid=$!
for _ in $(seq 600); do
    [[ -s "${WORK}/cut.ckpt.json" ]] && break
    sleep 0.05
done
kill -INT "${pid}"
status=0
wait "${pid}" || status=$?
if [[ "${status}" -ne 130 ]]; then
    echo "sigint_resume: interrupted run exited ${status}, want 130" >&2
    exit 1
fi

"${SHARD}" resume --checkpoint "${WORK}/cut.ckpt.json" --jobs 2 \
    --out "${WORK}/cut.json" > /dev/null
diff "${WORK}/whole.json" "${WORK}/cut.json"
echo "sigint_resume: interrupted + resumed == uninterrupted ($*)"
