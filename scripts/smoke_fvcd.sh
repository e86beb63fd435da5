#!/usr/bin/env bash
# Smoke test for the fvcd coverage query daemon, run by CI and
# `make smoke`: start the daemon on a random port, register a small
# heterogeneous deployment, assert the service's query answers match the
# library bit-for-bit (examples/queryservice exits non-zero on any
# mismatch), scrape /metrics, and check that SIGTERM drains cleanly.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
logfile="$workdir/fvcd.log"
cluster_pids=()
cleanup() {
    [[ -n "${pid:-}" ]] && kill "$pid" 2>/dev/null || true
    for p in "${cluster_pids[@]:-}"; do
        [[ -n "$p" ]] && kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/fvcd" ./cmd/fvcd
"$workdir/fvcd" -addr 127.0.0.1:0 >"$logfile" 2>&1 &
pid=$!

# Wait for the daemon to report its bound address.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$logfile" | head -n 1)
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || { echo "fvcd died on startup:"; cat "$logfile"; exit 1; }
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "fvcd never reported its address:"; cat "$logfile"; exit 1; }
echo "fvcd up at $addr"

# Register a heterogeneous deployment, issue a batch query, and verify
# every verdict against the in-process library result.
go run ./examples/queryservice -addr "http://$addr" -n 300

# The deployment cache and request metrics must be visible on /metrics.
metrics=$(curl -sf "http://$addr/metrics")
for series in fvcd_depcache_hits_total fvcd_requests_total fvcd_points_evaluated_total; do
    grep -q "$series" <<<"$metrics" || { echo "missing $series in /metrics"; exit 1; }
done
curl -sf "http://$addr/healthz" | grep -q '"status":"ok"'

# SIGTERM must drain and exit 0.
kill -TERM "$pid"
if ! wait "$pid"; then
    echo "fvcd exited non-zero on SIGTERM:"; cat "$logfile"; exit 1
fi
grep -q "drained cleanly" "$logfile" || { echo "no clean-drain log line:"; cat "$logfile"; exit 1; }
pid=""

# --- Crash recovery ---------------------------------------------------
# Start with a durable state dir, register a deployment, PATCH it, query
# it, then kill -9 the daemon (no drain, no journal close). A fresh
# daemon on the same state dir must replay the registration AND the
# mutation records and answer the same query for the same id
# byte-for-byte, from the journal alone.
statedir="$workdir/state"
crashlog="$workdir/fvcd-crash.log"
"$workdir/fvcd" -addr 127.0.0.1:0 -state "$statedir" >"$crashlog" 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$crashlog" | head -n 1)
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || { echo "fvcd died on startup:"; cat "$crashlog"; exit 1; }
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "fvcd never reported its address:"; cat "$crashlog"; exit 1; }

depid=$(curl -sf -X POST "http://$addr/v1/deployments" \
    -d '{"profile":"0.3:0.2:0.4,0.7:0.1:0.5","n":200,"seed":42}' \
    | sed 's/.*"id":"\([^"]*\)".*/\1/')
[[ -n "$depid" ]] || { echo "registration returned no id"; exit 1; }

# Mutate the deployment in place: the patch must bump the version (one
# bump per group: reaim, remove, add) and is journaled before it is
# applied, so it must survive the kill -9 below.
patch='{"reaim":[{"index":0,"orient":2.25}],"remove":[11,5],"add":[{"x":0.4,"y":0.6,"orient":-0.5,"radius":0.18,"aperture":1.2}]}'
version=$(curl -sf -X PATCH "http://$addr/v1/deployments/$depid" -d "$patch" \
    | sed 's/.*"version":\([0-9]*\).*/\1/')
[[ "$version" == "3" ]] || { echo "patch reported version $version, want 3"; exit 1; }

query='{"thetasPi":[0.2,0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9}]}'
curl -sf -X POST "http://$addr/v1/deployments/$depid/query" -d "$query" >"$workdir/q1.json"

kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "fvcd killed (-9) after registering and patching $depid"

restartlog="$workdir/fvcd-restart.log"
"$workdir/fvcd" -addr 127.0.0.1:0 -state "$statedir" >"$restartlog" 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$restartlog" | head -n 1)
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || { echo "fvcd died on restart:"; cat "$restartlog"; exit 1; }
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "restarted fvcd never reported its address:"; cat "$restartlog"; exit 1; }

# Wait for the startup replay to finish.
for _ in $(seq 1 100); do
    curl -sf "http://$addr/readyz" | grep -q '"status":"ok"' && break
    sleep 0.1
done
curl -sf "http://$addr/readyz" | grep -q '"status":"ok"' \
    || { echo "restarted fvcd never became ready:"; cat "$restartlog"; exit 1; }

curl -sf -X POST "http://$addr/v1/deployments/$depid/query" -d "$query" >"$workdir/q2.json"
diff "$workdir/q1.json" "$workdir/q2.json" \
    || { echo "query answers diverged across kill -9 restart"; exit 1; }
curl -sf "http://$addr/v1/deployments/$depid" | grep -q '"version":3' \
    || { echo "restarted fvcd lost the patch: version != 3"; exit 1; }
echo "crash recovery: patched deployment $depid answered bit-identically after restart (version 3 replayed)"

kill -TERM "$pid"
wait "$pid" || { echo "restarted fvcd exited non-zero:"; cat "$restartlog"; exit 1; }
pid=""

# --- Job resumption ---------------------------------------------------
# Start a throttled durable daemon, submit an async survey job, kill -9
# the daemon mid-job, and restart it unthrottled on the same state dir.
# The job must resume from its journal, report resumed:true, bump
# fvcd_job_resume_total, and finish with a result byte-identical to a
# fresh, uninterrupted job of the same spec.
jobstate="$workdir/jobstate"
joblog="$workdir/fvcd-job.log"
"$workdir/fvcd" -addr 127.0.0.1:0 -state "$jobstate" -job-throttle 75ms >"$joblog" 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$joblog" | head -n 1)
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || { echo "fvcd died on startup:"; cat "$joblog"; exit 1; }
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "fvcd never reported its address:"; cat "$joblog"; exit 1; }

depid=$(curl -sf -X POST "http://$addr/v1/deployments" \
    -d '{"profile":"0.3:0.2:0.4,0.7:0.1:0.5","n":200,"seed":42}' \
    | sed 's/.*"id":"\([^"]*\)".*/\1/')
[[ -n "$depid" ]] || { echo "registration returned no id"; exit 1; }

jobid=$(curl -sf -X POST "http://$addr/v1/jobs" \
    -d '{"kind":"survey","deployment":"'"$depid"'","thetaPi":0.25,"grid":12}' \
    | sed 's/.*"id":"\([^"]*\)".*/\1/')
[[ -n "$jobid" ]] || { echo "job submission returned no id"; exit 1; }

# Wait for at least two journaled bands so the resume has a prefix to
# skip, then kill without warning.
bandsdone=0
for _ in $(seq 1 100); do
    bandsdone=$(curl -sf "http://$addr/v1/jobs/$jobid" \
        | sed 's/.*"bandsDone":\([0-9]*\).*/\1/')
    [[ "$bandsdone" -ge 2 ]] && break
    sleep 0.05
done
[[ "$bandsdone" -ge 2 ]] || { echo "job never journaled two bands"; cat "$joblog"; exit 1; }
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "fvcd killed (-9) with job $jobid at $bandsdone/12 bands"

jobrestartlog="$workdir/fvcd-job-restart.log"
"$workdir/fvcd" -addr 127.0.0.1:0 -state "$jobstate" >"$jobrestartlog" 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$jobrestartlog" | head -n 1)
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || { echo "fvcd died on restart:"; cat "$jobrestartlog"; exit 1; }
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "restarted fvcd never reported its address:"; cat "$jobrestartlog"; exit 1; }
for _ in $(seq 1 100); do
    curl -sf "http://$addr/readyz" | grep -q '"status":"ok"' && break
    sleep 0.1
done

# Poll the resumed job to completion.
for _ in $(seq 1 200); do
    curl -sf "http://$addr/v1/jobs/$jobid" >"$workdir/job1.json"
    grep -q '"state":"done"' "$workdir/job1.json" && break
    if grep -qE '"state":"(failed|cancelled)"' "$workdir/job1.json"; then
        echo "resumed job ended badly:"; cat "$workdir/job1.json"; exit 1
    fi
    sleep 0.05
done
grep -q '"state":"done"' "$workdir/job1.json" \
    || { echo "resumed job never finished:"; cat "$workdir/job1.json"; exit 1; }
grep -q '"resumed":true' "$workdir/job1.json" \
    || { echo "finished job does not report resumed:true:"; cat "$workdir/job1.json"; exit 1; }

# A fresh, uninterrupted job of the same spec must produce the same
# exact-integer result.
jobid2=$(curl -sf -X POST "http://$addr/v1/jobs" \
    -d '{"kind":"survey","deployment":"'"$depid"'","thetaPi":0.25,"grid":12}' \
    | sed 's/.*"id":"\([^"]*\)".*/\1/')
for _ in $(seq 1 200); do
    curl -sf "http://$addr/v1/jobs/$jobid2" >"$workdir/job2.json"
    grep -q '"state":"done"' "$workdir/job2.json" && break
    sleep 0.05
done
res1=$(grep -oE '"result":\{"stats":\[[^]]*\]\}' "$workdir/job1.json")
res2=$(grep -oE '"result":\{"stats":\[[^]]*\]\}' "$workdir/job2.json")
[[ -n "$res1" && "$res1" == "$res2" ]] \
    || { echo "resumed result diverged from fresh run:"; echo "$res1"; echo "$res2"; exit 1; }

resumes=$(curl -sf "http://$addr/metrics" | sed -n 's/^fvcd_job_resume_total \([0-9]*\)$/\1/p')
[[ "${resumes:-0}" -ge 1 ]] || { echo "fvcd_job_resume_total = ${resumes:-missing}, want >= 1"; exit 1; }
echo "job resumption: $jobid resumed after kill -9 and matched a fresh run bit-identically (resume_total=$resumes)"

kill -TERM "$pid"
wait "$pid" || { echo "job-leg fvcd exited non-zero:"; cat "$jobrestartlog"; exit 1; }
pid=""

# --- Cluster ----------------------------------------------------------
# Boot a 3-replica cluster plus a stateless router, register and PATCH
# a deployment through the router, and assert its query answer matches
# a single-node oracle byte-for-byte. Then kill -9 one replica, DELETE
# its state dir (disk loss, not just a crash), restart it, and assert
# its boot anti-entropy round warmed its journal from the peers and it
# answers the same query bit-identically — even when asked directly,
# bypassing the ring.
mapfile -t ports < <(go run ./scripts/freeport 4)
p1=${ports[0]} p2=${ports[1]} p3=${ports[2]} p4=${ports[3]}
peersfile="$workdir/peers.json"
cat >"$peersfile" <<EOF
{"members":[
  {"name":"r1","url":"http://127.0.0.1:$p1"},
  {"name":"r2","url":"http://127.0.0.1:$p2"},
  {"name":"r3","url":"http://127.0.0.1:$p3"}
]}
EOF

# start_replica sets $last_pid (command substitution would fork a
# subshell and lose the cluster_pids bookkeeping). Every replica runs
# the anti-entropy reconciler on a tight interval so the self-healing
# round below converges quickly.
start_replica() { # name port logfile
    "$workdir/fvcd" -addr "127.0.0.1:$2" -state "$workdir/cstate-$1" \
        -cluster "$peersfile" -self "$1" -antientropy 300ms >"$3" 2>&1 &
    last_pid=$!
    cluster_pids+=("$last_pid")
}
wait_ready() { # url logfile
    for _ in $(seq 1 100); do
        curl -sf "$1/readyz" | grep -q '"status":"ok"' && return 0
        sleep 0.1
    done
    echo "replica at $1 never became ready:"; cat "$2"; return 1
}

start_replica r1 "$p1" "$workdir/r1.log"; rpid1=$last_pid
start_replica r2 "$p2" "$workdir/r2.log"; rpid2=$last_pid
start_replica r3 "$p3" "$workdir/r3.log"; rpid3=$last_pid
"$workdir/fvcd" -addr "127.0.0.1:$p4" -route -cluster "$peersfile" >"$workdir/router.log" 2>&1 &
routerpid=$!
cluster_pids+=("$routerpid")
router="http://127.0.0.1:$p4"
for u in "http://127.0.0.1:$p1" "http://127.0.0.1:$p2" "http://127.0.0.1:$p3"; do
    wait_ready "$u" "$workdir/router.log" || exit 1
done
curl -sf "$router/readyz" | grep -q '"status":"ok"' \
    || { echo "router rollup not ok:"; curl -s "$router/readyz"; exit 1; }
echo "cluster up: 3 replicas + router at $router"

# Single-node oracle for byte-compares.
"$workdir/fvcd" -addr 127.0.0.1:0 >"$workdir/oracle.log" 2>&1 &
oraclepid=$!
cluster_pids+=("$oraclepid")
oracle=""
for _ in $(seq 1 100); do
    oracle=$(sed -n 's/.*listening on \(.*\)/\1/p' "$workdir/oracle.log" | head -n 1)
    [[ -n "$oracle" ]] && break
    sleep 0.1
done
[[ -n "$oracle" ]] || { echo "oracle never reported its address"; exit 1; }

regbody='{"profile":"0.3:0.2:0.4,0.7:0.1:0.5","n":150,"seed":11}'
patch='{"reaim":[{"index":2,"orient":1.5}],"remove":[7]}'
query='{"thetasPi":[0.2,0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9}]}'

depid=$(curl -sf -X POST "$router/v1/deployments" -d "$regbody" \
    | sed 's/.*"id":"\([^"]*\)".*/\1/')
[[ -n "$depid" ]] || { echo "cluster registration returned no id"; exit 1; }
curl -sf -X PATCH "$router/v1/deployments/$depid" -d "$patch" >/dev/null
oid=$(curl -sf -X POST "http://$oracle/v1/deployments" -d "$regbody" \
    | sed 's/.*"id":"\([^"]*\)".*/\1/')
[[ "$oid" == "$depid" ]] || { echo "cluster id $depid != oracle id $oid"; exit 1; }
curl -sf -X PATCH "http://$oracle/v1/deployments/$depid" -d "$patch" >/dev/null

curl -sf -X POST "$router/v1/deployments/$depid/query" -d "$query" >"$workdir/qc1.json"
curl -sf -X POST "http://$oracle/v1/deployments/$depid/query" -d "$query" >"$workdir/qo.json"
diff "$workdir/qc1.json" "$workdir/qo.json" \
    || { echo "cluster query diverged from single-node oracle"; exit 1; }

# The async mirror must land the deployment's records on every replica.
for u in "http://127.0.0.1:$p1" "http://127.0.0.1:$p2" "http://127.0.0.1:$p3"; do
    mirrored=0
    for _ in $(seq 1 100); do
        n=$(curl -sf "$u/metrics" | sed -n 's/^fvcd_journal_deployments \([0-9]*\)$/\1/p')
        [[ "${n:-0}" -ge 1 ]] && { mirrored=1; break; }
        sleep 0.1
    done
    [[ "$mirrored" == 1 ]] || { echo "mirror never reached $u"; exit 1; }
done
echo "cluster: $depid registered+patched via router, mirrored to all replicas, verdicts match oracle"

# kill -9 replica r2 and destroy its disk; its replacement must warm
# from its peers in its boot anti-entropy round.
kill -9 "$rpid2"
wait "$rpid2" 2>/dev/null || true
rm -rf "$workdir/cstate-r2"
start_replica r2 "$p2" "$workdir/r2-restart.log"; rpid2=$last_pid
wait_ready "http://127.0.0.1:$p2" "$workdir/r2-restart.log" || exit 1
grep -q "boot round warmed journal from peers" "$workdir/r2-restart.log" \
    || { echo "restarted r2 did not warm from a peer:"; cat "$workdir/r2-restart.log"; exit 1; }

curl -sf -X POST "$router/v1/deployments/$depid/query" -d "$query" >"$workdir/qc2.json"
diff "$workdir/qc2.json" "$workdir/qo.json" \
    || { echo "cluster query diverged after kill -9 + peer warm"; exit 1; }
# Even asked directly — bypassing the ring — the warmed replica answers
# from its peer-pulled journal.
curl -sf -X POST "http://127.0.0.1:$p2/v1/deployments/$depid/query" -d "$query" >"$workdir/qc3.json"
diff "$workdir/qc3.json" "$workdir/qo.json" \
    || { echo "warmed replica's direct answer diverged"; exit 1; }
echo "cluster: r2 killed -9 with disk loss, warmed from peers by its boot round, answers bit-identical"

curl -sf "$router/metrics" | grep -q fvcd_cluster_forwards_total \
    || { echo "router /metrics lacks fvcd_cluster_forwards_total"; exit 1; }

# --- Self-healing: mirror loss + anti-entropy -------------------------
# kill -9 r3 but keep its disk. A deployment registered and patched
# while it is down loses its mirror batches after bounded retries (r3's
# socket is gone); the restarted r3 keeps its intact journal — behind,
# not empty, so there is no boot warm — and must reconverge through
# the anti-entropy reconciler alone, until all three replicas answer
# byte-identical digest maps.
kill -9 "$rpid3"
wait "$rpid3" 2>/dev/null || true
regbody2='{"profile":"0.3:0.2:0.4,0.7:0.1:0.5","n":120,"seed":23}'
depid2=$(curl -sf -X POST "http://127.0.0.1:$p1/v1/deployments" -d "$regbody2" \
    | sed 's/.*"id":"\([^"]*\)".*/\1/')
[[ -n "$depid2" ]] || { echo "mirror-loss registration returned no id"; exit 1; }
curl -sf -X PATCH "http://127.0.0.1:$p1/v1/deployments/$depid2" -d "$patch" >/dev/null
curl -sf -X POST "http://$oracle/v1/deployments" -d "$regbody2" >/dev/null
curl -sf -X PATCH "http://$oracle/v1/deployments/$depid2" -d "$patch" >/dev/null
echo "self-healing: $depid2 registered+patched on r1 while r3 was down"

start_replica r3 "$p3" "$workdir/r3-restart.log"; rpid3=$last_pid
wait_ready "http://127.0.0.1:$p3" "$workdir/r3-restart.log" || exit 1

converged=0
for _ in $(seq 1 100); do
    d1=$(curl -sf "http://127.0.0.1:$p1/v1/internal/digest")
    d2=$(curl -sf "http://127.0.0.1:$p2/v1/internal/digest")
    d3=$(curl -sf "http://127.0.0.1:$p3/v1/internal/digest")
    [[ -n "$d1" && "$d1" == "$d2" && "$d1" == "$d3" ]] && { converged=1; break; }
    sleep 0.1
done
[[ "$converged" == 1 ]] || {
    echo "digests never converged after r3 rejoined:"
    echo "r1: $d1"; echo "r2: $d2"; echo "r3: $d3"
    cat "$workdir/r3-restart.log"; exit 1
}
# The repaired copy must answer, not just hash: ask r3 directly,
# bypassing the ring, and compare against the oracle byte-for-byte.
curl -sf -X POST "http://127.0.0.1:$p3/v1/deployments/$depid2/query" -d "$query" >"$workdir/qh.json"
curl -sf -X POST "http://$oracle/v1/deployments/$depid2/query" -d "$query" >"$workdir/qho.json"
diff "$workdir/qh.json" "$workdir/qho.json" \
    || { echo "anti-entropy-repaired replica's answer diverged from oracle"; exit 1; }
echo "self-healing: r3 rejoined behind, anti-entropy converged all digests, answers bit-identical"

# --- Self-healing: owner kill + failover reads ------------------------
# kill -9 the replica that owns $depid on the ring. Reads through the
# router must fail over to a ring successor's mirrored copy and stay
# bit-identical to the oracle; writes stay owner-only and shed with
# 503 + Retry-After; the router exports its breaker states.
owner=$(go run ./scripts/ringowner "$peersfile" "$depid")
case "$owner" in
    r1) ownerpid=$rpid1 ;;
    r2) ownerpid=$rpid2 ;;
    r3) ownerpid=$rpid3 ;;
    *) echo "ringowner printed unknown member '$owner'"; exit 1 ;;
esac
kill -9 "$ownerpid"
wait "$ownerpid" 2>/dev/null || true
echo "self-healing: owner $owner of $depid killed -9"

curl -sf -X POST "$router/v1/deployments/$depid/query" -d "$query" >"$workdir/qf.json"
diff "$workdir/qf.json" "$workdir/qo.json" \
    || { echo "failover read diverged from oracle with owner down"; exit 1; }

wcode=$(curl -s -o "$workdir/wbody.json" -D "$workdir/wheaders.txt" -w '%{http_code}' \
    -X PATCH "$router/v1/deployments/$depid" -d "$patch")
[[ "$wcode" == "503" ]] \
    || { echo "write with dead owner answered $wcode, want 503:"; cat "$workdir/wbody.json"; exit 1; }
grep -qi '^retry-after:' "$workdir/wheaders.txt" \
    || { echo "write-rejection 503 carries no Retry-After:"; cat "$workdir/wheaders.txt"; exit 1; }

rmetrics=$(curl -sf "$router/metrics")
grep -q fvcd_breaker_state <<<"$rmetrics" \
    || { echo "router /metrics lacks fvcd_breaker_state"; exit 1; }
grep -q fvcd_cluster_failover_reads_total <<<"$rmetrics" \
    || { echo "router /metrics lacks fvcd_cluster_failover_reads_total"; exit 1; }
echo "self-healing: owner-down reads failed over bit-identically, write shed 503+Retry-After"

# TERM everything; the router must drain cleanly like a replica.
kill -TERM "$routerpid"
wait "$routerpid" || { echo "router exited non-zero:"; cat "$workdir/router.log"; exit 1; }
grep -q "drained cleanly" "$workdir/router.log" \
    || { echo "router did not drain cleanly:"; cat "$workdir/router.log"; exit 1; }
for p in "$rpid1" "$rpid2" "$rpid3" "$oraclepid"; do
    kill -TERM "$p" 2>/dev/null || true
    wait "$p" 2>/dev/null || true
done
cluster_pids=()
echo "cluster smoke: OK"

echo "fvcd smoke: OK"
