package server

// Cluster suite: boots a real 3-replica fvcd cluster on loopback TCP
// with a stateless router in front, and drives the sharding contract
// end to end — ring-routed registrations and patches, async journal
// mirroring, kill -9 of a replica, a replacement warming from its peers
// in a boot anti-entropy round, and query/survey answers bit-identical
// to a single-node oracle throughout. The warm-failure path runs under
// internal/faultinject, so the degraded-but-serving verdict is
// deterministic.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fullview/internal/cluster"
	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/jobs"
)

// testClient disables keep-alives so that killing a replica (closing
// its listener) actually severs it: a pooled connection would keep an
// abandoned server reachable and mask the fault.
var testClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// replica is one live cluster member: its Server, listener, and the
// identity the peers file gives it.
type replica struct {
	name string
	addr string // host:port, stable across kill/restart
	url  string
	dir  string
	srv  *Server
	ln   net.Listener
}

// startReplica boots one member: New (which may warm from a peer),
// then bind and serve. The order matters and mirrors cmd/fvcd — the
// listener binds after New, so a booting cluster's warm probes hit
// closed ports (fast refusal → cold start) instead of hanging in an
// unserved accept queue.
func startReplica(t *testing.T, name, addr, dir string, peerURLs []string) *replica {
	t.Helper()
	srv := mustNew(t, Config{StateDir: dir, PeerURLs: peerURLs})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("replica %s: bind %s: %v", name, addr, err)
	}
	go srv.Serve(ln)
	return &replica{name: name, addr: addr, url: "http://" + addr, dir: dir, srv: srv, ln: ln}
}

// startCluster reserves n loopback ports, then boots n replicas that
// know each other's URLs, plus the Peers document a router needs.
func startCluster(t *testing.T, n int) ([]*replica, *cluster.Peers) {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close() // release for the replica to rebind; the port stays ours in practice
	}
	peers := &cluster.Peers{}
	for i, addr := range addrs {
		peers.Members = append(peers.Members,
			cluster.Member{Name: fmt.Sprintf("r%d", i), URL: "http://" + addr})
	}
	reps := make([]*replica, n)
	for i, addr := range addrs {
		var others []string
		for j, a := range addrs {
			if j != i {
				others = append(others, "http://"+a)
			}
		}
		reps[i] = startReplica(t, peers.Members[i].Name, addr, t.TempDir(), others)
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.ln.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			r.srv.Shutdown(ctx)
			cancel()
		}
	})
	return reps, peers
}

// httpDo sends one request over real TCP and returns status, body, and
// headers.
func httpDo(t *testing.T, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// waitURLReadyz polls a live replica's /readyz until it reports want.
func waitURLReadyz(t *testing.T, url, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	last := "unreachable"
	for time.Now().Before(deadline) {
		resp, err := testClient.Get(url + "/readyz")
		if err == nil {
			var body struct {
				Status string `json:"status"`
			}
			err := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil {
				if body.Status == want {
					return
				}
				last = body.Status
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s/readyz stuck at %q, want %q", url, last, want)
}

// stripElapsed re-marshals a survey answer with its wall-clock field
// removed, so two runs of the same deterministic sweep compare equal.
func stripElapsed(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	delete(m, "elapsedNs")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterKillWarmRestartBitIdentical is the chaos keystone: a
// 3-replica cluster with a router answers every query and survey
// bit-identically to a single-node oracle — before a fault, and after
// the owning replica is kill -9'd (listener torn down, state dir
// lost) and its replacement warms its journal from its peers.
func TestClusterKillWarmRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-replica TCP cluster")
	}
	reps, peers := startCluster(t, 3)
	for _, r := range reps {
		waitURLReadyz(t, r.url, ReadyOK)
	}
	ring, err := peers.Ring()
	if err != nil {
		t.Fatal(err)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:       peers,
		RegisterKey: DeploymentIDFromRequest,
		Client:      testClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	oracleSrv := mustNew(t, Config{StateDir: t.TempDir()})
	oracle := httptest.NewServer(oracleSrv.Handler())
	defer oracle.Close()

	// Register four deployments and patch each, through the router and
	// the oracle in lockstep. Four deployments over three shards makes
	// it overwhelmingly likely every replica owns at least one.
	queryBody := []byte(`{"thetasPi":[0.2,0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9},{"x":0.33,"y":0.81}]}`)
	surveyBody := []byte(`{"thetaPi":0.25,"grid":16}`)
	patch := patchBody(t, patchRequest{
		Reaim:  []reaimJSON{{Index: 0, Orient: 2.4}},
		Remove: []int{3},
		Add:    []depjournal.Camera{{X: 0.8, Y: 0.2, Orient: 1, Radius: 0.15, Aperture: 0.9}},
	})
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		body := camerasBody(t, testNetwork(t, 12, seed))
		code, data, _ := httpDo(t, "POST", router.URL+"/v1/deployments", body)
		if code != http.StatusCreated {
			t.Fatalf("register via router: %d %s", code, data)
		}
		var reg registerResponse
		if err := json.Unmarshal(data, &reg); err != nil {
			t.Fatal(err)
		}
		ocode, odata, _ := httpDo(t, "POST", oracle.URL+"/v1/deployments", body)
		var oreg registerResponse
		if err := json.Unmarshal(odata, &oreg); err != nil {
			t.Fatal(err)
		}
		if ocode != code || oreg.ID != reg.ID {
			t.Fatalf("router and oracle disagree on registration: %d/%s vs %d/%s", code, reg.ID, ocode, oreg.ID)
		}
		ids = append(ids, reg.ID)

		if code, data, _ := httpDo(t, "PATCH", router.URL+"/v1/deployments/"+reg.ID, patch); code != http.StatusOK {
			t.Fatalf("patch via router: %d %s", code, data)
		}
		if code, data, _ := httpDo(t, "PATCH", oracle.URL+"/v1/deployments/"+reg.ID, patch); code != http.StatusOK {
			t.Fatalf("patch via oracle: %d %s", code, data)
		}
	}

	compareAll := func(stage string) {
		t.Helper()
		for _, id := range ids {
			code, got, _ := httpDo(t, "POST", router.URL+"/v1/deployments/"+id+"/query", queryBody)
			ocode, want, _ := httpDo(t, "POST", oracle.URL+"/v1/deployments/"+id+"/query", queryBody)
			if code != http.StatusOK || ocode != http.StatusOK {
				t.Fatalf("%s: query %s answered %d via router, %d via oracle: %s", stage, id, code, ocode, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: query %s diverged from the oracle:\nrouter: %s\noracle: %s", stage, id, got, want)
			}
			code, got, _ = httpDo(t, "POST", router.URL+"/v1/deployments/"+id+"/survey", surveyBody)
			ocode, want, _ = httpDo(t, "POST", oracle.URL+"/v1/deployments/"+id+"/survey", surveyBody)
			if code != http.StatusOK || ocode != http.StatusOK {
				t.Fatalf("%s: survey %s answered %d via router, %d via oracle", stage, id, code, ocode)
			}
			if g, w := stripElapsed(t, got), stripElapsed(t, want); !bytes.Equal(g, w) {
				t.Errorf("%s: survey %s diverged from the oracle:\nrouter: %s\noracle: %s", stage, id, g, w)
			}
		}
	}
	compareAll("healthy cluster")

	// Let the async mirror drain everywhere, so every replica's journal
	// holds the full cluster history before we lose one.
	for _, r := range reps {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := r.srv.FlushMirror(ctx); err != nil {
			t.Fatalf("FlushMirror on %s: %v", r.name, err)
		}
		cancel()
	}

	// kill -9 the replica that owns the first deployment: tear down its
	// listener and abandon the process state. Its replacement gets a
	// FRESH state dir — the disk is gone too — so everything it knows
	// must come from a peer snapshot.
	victim := 0
	for i, r := range reps {
		if r.name == ring.Owner(ids[0]) {
			victim = i
		}
	}
	reps[victim].ln.Close()

	var peerURLs []string
	for i, r := range reps {
		if i != victim {
			peerURLs = append(peerURLs, r.url)
		}
	}
	reborn := startReplica(t, reps[victim].name, reps[victim].addr, t.TempDir(), peerURLs)
	t.Cleanup(func() {
		reborn.ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		reborn.srv.Shutdown(ctx)
		cancel()
	})
	// ok — not degraded: the peer snapshot must have installed cleanly.
	waitURLReadyz(t, reborn.url, ReadyOK)

	compareAll("after kill -9 and peer warm")

	// The warm was the replacement's boot anti-entropy round: it pulled
	// every deployment from the survivors.
	if pulls := urlMetricValue(t, reborn.url, "fvcd_antientropy_pulls_total"); pulls != float64(len(ids)) {
		t.Errorf("replacement pulled %v deployments in its boot round, want %d", pulls, len(ids))
	}

	// And the router did real routing: its forward counters cover the
	// cluster series the dashboards scrape.
	_, metrics, _ := httpDo(t, "GET", router.URL+"/metrics", nil)
	if !strings.Contains(string(metrics), "fvcd_cluster_forwards_total") {
		t.Error("router /metrics lacks fvcd_cluster_forwards_total")
	}
}

// TestClusterRouterReadyzRollsUpReplicas: the router's /readyz over
// live replicas reports the cluster rollup, and flips to degraded when
// a replica dies.
func TestClusterRouterReadyzRollsUpReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a TCP cluster")
	}
	reps, peers := startCluster(t, 3)
	for _, r := range reps {
		waitURLReadyz(t, r.url, ReadyOK)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:       peers,
		RegisterKey: DeploymentIDFromRequest,
		Client:      testClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	code, data, _ := httpDo(t, "GET", router.URL+"/readyz", nil)
	var roll struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &roll); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || roll.Status != cluster.ReadyOK {
		t.Fatalf("healthy rollup: %d %s", code, data)
	}

	// The router reuses a rollup for its probe-cache TTL (1s), so poll
	// until a post-kill probe lands.
	reps[1].ln.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, data, _ = httpDo(t, "GET", router.URL+"/readyz", nil)
		if err := json.Unmarshal(data, &roll); err != nil {
			t.Fatal(err)
		}
		if (roll.Status == cluster.ReadyDegraded && strings.Contains(string(data), `"r1"`)) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if code != http.StatusOK || roll.Status != cluster.ReadyDegraded {
		t.Fatalf("one-dead rollup: %d %s, want 200 degraded", code, data)
	}
	if !strings.Contains(string(data), `"r1"`) {
		t.Fatalf("rollup does not name the dead shard: %s", data)
	}
}

// TestClusterJobsRouteToOwner: a survey job submitted through the
// router to a live 3-replica cluster is followed, polled and cancelled
// through the router. Each poll or cancel is exactly one forward, to
// the ring owner of the job's deployment; with that owner killed, a
// poll is the router's 503 + Retry-After, not a 404.
func TestClusterJobsRouteToOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-replica TCP cluster")
	}
	defer faultinject.Reset()
	reps, peers := startCluster(t, 3)
	for _, r := range reps {
		waitURLReadyz(t, r.url, ReadyOK)
	}
	ring, err := peers.Ring()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:       peers,
		RegisterKey: DeploymentIDFromRequest,
		Client:      testClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	h := rt.Handler()

	dep := registerNet(t, h, testNetwork(t, 60, 14))
	owner := ring.Owner(dep)
	forwards := func() map[string]float64 {
		out := make(map[string]float64)
		for _, r := range reps {
			out[r.name] = urlMetricValue(t, router.URL, `fvcd_cluster_forwards_total{shard="`+r.name+`"}`)
		}
		return out
	}
	// oneForward runs req and checks it cost exactly one forward, to the
	// owner.
	oneForward := func(what string, req func()) {
		t.Helper()
		before := forwards()
		req()
		after := forwards()
		for _, r := range reps {
			want := 0.0
			if r.name == owner {
				want = 1
			}
			if got := after[r.name] - before[r.name]; got != want {
				t.Errorf("%s: %v forwards to %s, want %v (owner %s)", what, got, r.name, want, owner)
			}
		}
	}

	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: dep, ThetaPi: 0.25, Grid: 6})
	if got, ok := jobs.DeploymentOf(job.ID); !ok || got != dep {
		t.Fatalf("job id %s names deployment %q (%v), want %s", job.ID, got, ok, dep)
	}
	if _, state := streamEvents(t, router.URL+"/v1/jobs/"+job.ID+"/events"); state != "done" {
		t.Fatalf("event stream through the router ended in %q, want done", state)
	}
	oneForward("poll", func() {
		if body := getJob(t, h, job.ID); body.State != "done" {
			t.Fatalf("poll through the router: state %q, want done", body.State)
		}
	})

	// A job held in its first band is cancelled through the router.
	gate := make(chan struct{})
	remove := faultinject.Set(faultinject.JobBand, func() error {
		<-gate
		return nil
	})
	held := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: dep, ThetaPi: 0.25, Grid: 6})
	pollJobUntil(t, h, held.ID, func(b jobResponse) bool { return b.State == "running" })
	oneForward("cancel", func() {
		if rec := do(t, h, "DELETE", "/v1/jobs/"+held.ID, nil); rec.Code != http.StatusOK {
			t.Fatalf("cancel through the router: %d %s", rec.Code, rec.Body.String())
		}
	})
	remove()
	close(gate)
	if final := pollJob(t, h, held.ID); final.State != "cancelled" {
		t.Fatalf("cancelled job ended in %q", final.State)
	}

	// Kill the owner: the poll sheds with 503 + Retry-After.
	for _, r := range reps {
		if r.name == owner {
			r.ln.Close()
		}
	}
	code, data, hdr := httpDo(t, "GET", router.URL+"/v1/jobs/"+job.ID, nil)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("poll with the owner down: %d (Retry-After %q) %s, want 503 with Retry-After",
			code, hdr.Get("Retry-After"), data)
	}
}

// TestClusterSnapshotFetchFaultDegradedButServing: when a peer answers
// the boot warm round but installing its snapshot fails (injected), the
// replica starts cold and reports degraded — yet keeps serving
// registrations and queries. Contrast with no-peer-reachable, which is
// a clean cold start (whole-cluster first boot), pinned at the end.
func TestClusterSnapshotFetchFaultDegradedButServing(t *testing.T) {
	defer faultinject.Reset()
	donor := mustNew(t, Config{StateDir: t.TempDir(), PeerURLs: []string{"http://127.0.0.1:1"}})
	peer := httptest.NewServer(donor.Handler())
	defer peer.Close()
	if rec := do(t, donor.Handler(), "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 10, 2))); rec.Code != http.StatusCreated {
		t.Fatalf("register on the donor: %d %s", rec.Code, rec.Body.String())
	}
	remove := faultinject.Set(faultinject.AntiEntropyApply, faultinject.Error(errors.New("snapshot pipe burst")))

	srv := mustNew(t, Config{StateDir: t.TempDir(), PeerURLs: []string{peer.URL}})
	h := srv.Handler()
	deadline := time.Now().Add(5 * time.Second)
	var ready struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	for {
		decode(t, do(t, h, "GET", "/readyz", nil), &ready)
		if ready.Status != ReadyStarting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz stuck at starting")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ready.Status != ReadyDegraded || !strings.Contains(ready.Reason, "boot anti-entropy round failed") {
		t.Fatalf("readyz = %+v, want degraded with a warm-failure reason", ready)
	}

	// Degraded-but-serving: registration and query still work.
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 10, 1)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register on degraded replica: %d %s", rec.Code, rec.Body.String())
	}
	var reg registerResponse
	decode(t, rec, &reg)
	q := []byte(`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`)
	if rec := do(t, h, "POST", "/v1/deployments/"+reg.ID+"/query", q); rec.Code != http.StatusOK {
		t.Fatalf("query on degraded replica: %d %s", rec.Code, rec.Body.String())
	}
	remove()

	// No peer reachable at all is NOT degraded: that is what a
	// whole-cluster first boot looks like.
	srv2 := mustNew(t, Config{StateDir: t.TempDir(), PeerURLs: []string{"http://127.0.0.1:1"}})
	waitReadyz(t, srv2.Handler(), ReadyOK)
}

// TestClusterMirrorAppliesAndInvalidates drives POST /v1/internal/
// mirror directly: mirrored registrations and mutations land in the
// journal, a cached entry for a mirrored id is invalidated (the next
// read sees the mutated state), and a mutation for an unknown id is
// answered 422.
func TestClusterMirrorAppliesAndInvalidates(t *testing.T) {
	srv := mustNew(t, Config{StateDir: t.TempDir(), PeerURLs: []string{"http://127.0.0.1:1"}})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)

	// Register locally, query once to cache it.
	var reg registerResponse
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 10, 3)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg)
	q := []byte(`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`)
	before := do(t, h, "POST", "/v1/deployments/"+reg.ID+"/query", q).Body.Bytes()

	// A peer owning this deployment applied a patch and mirrors the
	// mutation record here.
	batch, err := json.Marshal(map[string]any{"records": []map[string]any{{
		"id": reg.ID, "op": "remove", "remove": []int{0}, "baseVersion": 1,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, "POST", "/v1/internal/mirror", batch); rec.Code != http.StatusNoContent {
		t.Fatalf("mirror: %d %s", rec.Code, rec.Body.String())
	}

	// The cached entry was invalidated: the same query now answers for
	// the mutated deployment (version bumped, possibly different
	// verdicts) instead of the stale cached state.
	rec = do(t, h, "POST", "/v1/deployments/"+reg.ID+"/query", q)
	if rec.Code != http.StatusOK {
		t.Fatalf("query after mirror: %d %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	decode(t, rec, &resp)
	if resp.Version != 1 {
		t.Fatalf("version after mirrored mutation = %d, want 1", resp.Version)
	}
	if bytes.Equal(rec.Body.Bytes(), before) {
		t.Fatal("query answer unchanged after mirrored mutation — stale cache served")
	}

	// Replays of that record (stale) and records past a gap are skipped
	// by the journal's version gate without failing the batch; an
	// unstamped record is refused outright.
	for _, tc := range []struct {
		rec  map[string]any
		code int
	}{
		{map[string]any{"id": reg.ID, "op": "remove", "remove": []int{0}, "baseVersion": 1}, http.StatusNoContent},
		{map[string]any{"id": reg.ID, "op": "remove", "remove": []int{0}, "baseVersion": 3}, http.StatusNoContent},
		{map[string]any{"id": reg.ID, "op": "remove", "remove": []int{0}}, http.StatusUnprocessableEntity},
	} {
		body, _ := json.Marshal(map[string]any{"records": []map[string]any{tc.rec}})
		if rec := do(t, h, "POST", "/v1/internal/mirror", body); rec.Code != tc.code {
			t.Fatalf("mirror of %v: %d, want %d", tc.rec, rec.Code, tc.code)
		}
	}
	if ins := inspect(t, h, reg.ID); ins.Version != 1 {
		t.Fatalf("version %d after stale, gapped and unstamped mirrors, want 1", ins.Version)
	}

	// A mutation for an id this replica never saw is a 422, not a 5xx.
	batch, _ = json.Marshal(map[string]any{"records": []map[string]any{{
		"id": "feedfacefeedface", "op": "remove", "remove": []int{0}, "baseVersion": 1,
	}}})
	if rec := do(t, h, "POST", "/v1/internal/mirror", batch); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("mirror of unknown id: %d, want 422", rec.Code)
	}
}

// TestShutdownDoesNotWaitOnHungPeer: a peer that accepts connections
// but never answers must not hold a drain hostage. The mirror post and
// the anti-entropy round in flight against it are cancelled, so a
// Shutdown bounded at 2s returns within it.
func TestShutdownDoesNotWaitOnHungPeer(t *testing.T) {
	var hang atomic.Bool
	var mirrorHung, digestHung atomic.Int32
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !hang.Load() {
			writeJSON(w, http.StatusOK, map[string]any{}) // an empty digest map: nothing to warm
			return
		}
		if r.URL.Path == cluster.DigestPath {
			digestHung.Add(1)
		} else {
			mirrorHung.Add(1)
		}
		<-release
	}))
	defer peer.Close()
	defer close(release)

	srv := mustNew(t, Config{StateDir: t.TempDir(), PeerURLs: []string{peer.URL}, AntiEntropyInterval: 10 * time.Millisecond})
	h := srv.Handler()
	hang.Store(true)
	if rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 10, 4))); rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for mirrorHung.Load() == 0 || digestHung.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("peer never held a mirror post (%d) and a digest fetch (%d)", mirrorHung.Load(), digestHung.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	srv.Shutdown(ctx)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Shutdown took %v with a hung peer, want under 2s", took)
	}
}

// TestRetryableAnswersCarryRetryAfter pins the cluster-wide contract
// the router and clients rely on: EVERY retryable 429/503 — not-durable
// registration 503s included — carries the jittered fractional-seconds
// Retry-After.
func TestRetryableAnswersCarryRetryAfter(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNew(t, Config{StateDir: t.TempDir()})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)

	assertRetryAfter := func(rec *httptest.ResponseRecorder, what string) {
		t.Helper()
		ra := rec.Header().Get("Retry-After")
		if ra == "" {
			t.Fatalf("%s (%d) carries no Retry-After", what, rec.Code)
		}
		v, err := strconv.ParseFloat(ra, 64)
		if err != nil || v < 0.80 || v > 1.20 {
			t.Fatalf("%s Retry-After %q outside the 1s±20%% fractional-seconds contract", what, ra)
		}
	}

	// errNotDurable 503 on register.
	remove := faultinject.Set(faultinject.JournalWrite, faultinject.Error(errors.New("disk on fire")))
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 10, 5)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("register with failing journal: %d", rec.Code)
	}
	assertRetryAfter(rec, "not-durable register 503")
	remove()

	// errNotDurable 503 on PATCH.
	var reg registerResponse
	rec = do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 10, 6)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg)
	remove = faultinject.Set(faultinject.JournalWrite, faultinject.Error(errors.New("disk on fire")))
	rec = do(t, h, "PATCH", "/v1/deployments/"+reg.ID, patchBody(t, patchRequest{Remove: []int{0}}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("patch with failing journal: %d", rec.Code)
	}
	assertRetryAfter(rec, "not-durable patch 503")
	remove()

	// Starting 503 on /readyz during replay.
	gate := make(chan struct{})
	remove = faultinject.Set(faultinject.JournalReplay, func() error {
		<-gate
		return nil
	})
	srv2 := mustNew(t, Config{StateDir: srv.cfg.StateDir})
	rec = do(t, srv2.Handler(), "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during replay: %d", rec.Code)
	}
	assertRetryAfter(rec, "readyz starting 503")
	close(gate)
	remove()
	waitReadyz(t, srv2.Handler(), ReadyOK)
}

// TestRegisterKeyAgreesWithShard: the router's placement key and the
// shard's registration handler accept and refuse the same bodies, so no
// registration the router refuses would have been accepted by a shard,
// nor the other way round.
func TestRegisterKeyAgreesWithShard(t *testing.T) {
	srv := mustNew(t, Config{})
	h := srv.Handler()
	const valid = `{"profile":"` + testProfile + `","n":20,"seed":9}`
	for _, body := range []string{
		valid,
		valid + `}`,
		valid + `]`,
		valid + `}}`,
		valid + ` {}`,
		`{"profile":"` + testProfile + `","n":20,"seed":9,"nope":1}`,
		`{"Profile":"` + testProfile + `","N":20,"SEED":9}`,
		`null`,
		`{"cameras":null,"profile":"` + testProfile + `","n":20}`,
	} {
		key, err := DeploymentIDFromRequest([]byte(body))
		rec := do(t, h, "POST", "/v1/deployments", []byte(body))
		shardOK := rec.Code == http.StatusCreated || rec.Code == http.StatusOK
		if (err == nil) != shardOK {
			t.Errorf("%s: placement key error %v, shard answered %d %s", body, err, rec.Code, rec.Body.String())
			continue
		}
		if shardOK {
			var reg registerResponse
			decode(t, rec, &reg)
			if reg.ID != key {
				t.Errorf("%s: placement key %s, shard assigned %s", body, key, reg.ID)
			}
		}
	}
}

// TestDeploymentIDFromRequest: the router's placement key is the exact
// fingerprint the shard assigns, for both registration forms; garbage
// is rejected with the handler's strictness.
func TestDeploymentIDFromRequest(t *testing.T) {
	srv := mustNew(t, Config{})
	h := srv.Handler()

	for _, body := range [][]byte{
		camerasBody(t, testNetwork(t, 15, 2)),
		[]byte(`{"profile":"` + testProfile + `","n":20,"seed":9}`),
	} {
		key, err := DeploymentIDFromRequest(body)
		if err != nil {
			t.Fatalf("DeploymentIDFromRequest: %v", err)
		}
		var reg registerResponse
		rec := do(t, h, "POST", "/v1/deployments", body)
		if rec.Code != http.StatusCreated {
			t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
		}
		decode(t, rec, &reg)
		if reg.ID != key {
			t.Fatalf("placement key %s, shard assigned %s", key, reg.ID)
		}
	}

	for _, bad := range []string{
		`{"nope":1}`,
		`{"cameras":[]} trailing`,
		`{"profile":"not-a-profile","n":5}`,
		// Journal-only record fields are not part of the wire form.
		`{"profile":"` + testProfile + `","n":20,"folded":true}`,
		`{"id":"deadbeef","profile":"` + testProfile + `","n":20}`,
	} {
		if _, err := DeploymentIDFromRequest([]byte(bad)); err == nil {
			t.Errorf("DeploymentIDFromRequest accepted %s", bad)
		}
	}
}
