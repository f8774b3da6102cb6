#!/usr/bin/env bash
# Networked-collection smoke: boot `setstream serve` with a TCP collection
# listener on an ephemeral port, run a real remote site against it with
# `setstream site`, and verify the site's epochs landed by checking its
# commit-epoch gauge and the transport counters in the /metrics exposition.
#
#   scripts/net_smoke.sh                          # uses target/release/setstream
#   SETSTREAM_BIN=target/debug/setstream scripts/net_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${SETSTREAM_BIN:-target/release/setstream}"
if [[ ! -x "$BIN" ]]; then
    echo "net_smoke: $BIN not built (run cargo build --release first)" >&2
    exit 1
fi

out=$(mktemp)
pid=""
cleanup() {
    [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
    rm -f "$out"
}
trap cleanup EXIT

# Long-lived server: the demo rounds just keep the in-process stack warm
# while the external site connects; we kill it when the smoke is done.
# --fault-dup 1.0 fronts the collection listener with a proxy that
# duplicates every frame, so the remote site's traffic deterministically
# exercises the StaleEpoch retransmit path — and must show up as such in
# the coordinator's lineage record.
"$BIN" serve --port 0 --listen 127.0.0.1:0 --fault-dup 1.0 --rounds 400 \
    --interval-ms 50 --events 200 --sites 2 > "$out" &
pid=$!

collect_addr=""
http_addr=""
for _ in $(seq 1 100); do
    collect_addr=$(sed -n 's/^collecting sites on //p' "$out")
    http_addr=$(sed -n 's#^serving on http://##p' "$out")
    [[ -n "$collect_addr" && -n "$http_addr" ]] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "net_smoke: server exited before announcing" >&2
        cat "$out" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "$collect_addr" || -z "$http_addr" ]]; then
    echo "net_smoke: no announce lines within 10s" >&2
    cat "$out" >&2
    exit 1
fi

# A real external site: connects over TCP, ships three epochs of deltas
# (with retractions), and reports its collection summary. The default
# sketch family matches the serve stack's, which is what makes the
# remote synopses mergeable.
SITE_ROUNDS=3
"$BIN" site --connect "$collect_addr" --id 100 --rounds "$SITE_ROUNDS" --events 300

# The frames must be visible server-side: the strict scrape parser accepts
# the exposition, a TCP connection was made, and the coordinator committed
# every epoch of site 100. (Acks alone prove nothing about site 100: the
# in-process demo sites are acked through the same handler and counters.)
metrics=$("$BIN" scrape --addr "$http_addr")
echo "$metrics" | awk '
    $1 == "setstream_transport_connects_total" { found = 1; if ($2 + 0 >= 1) ok = 1 }
    END { exit !(found && ok) }' || {
    echo "net_smoke: FAIL — setstream_transport_connects_total missing or zero in /metrics" >&2
    exit 1
}
echo "$metrics" | awk -v want="$SITE_ROUNDS" '
    $1 == "setstream_distributed_site_commit_epoch{site=\"100\"}" { found = 1; if ($2 + 0 == want) ok = 1 }
    END { exit !(found && ok) }' || {
    echo "net_smoke: FAIL — site 100 did not commit ${SITE_ROUNDS} epochs (setstream_distributed_site_commit_epoch)" >&2
    exit 1
}

# Lineage must attribute the duplicated frames: the coordinator's
# /lineage record for the faulted collection names the retransmitting
# site (id 100). The demo's in-process sites 0 and 1 run nasty links of
# their own, so they can retransmit too; the check is that 100 is named.
lineage=$("$BIN" lineage --addr "$http_addr")
echo "$lineage" | grep -Eq '"retransmit_sites":\[[^]]*100' || {
    echo "net_smoke: FAIL — site 100 missing from lineage retransmit_sites" >&2
    echo "$lineage" >&2
    exit 1
}

echo "net_smoke: OK (collector $collect_addr, http $http_addr, lineage names site 100)"
