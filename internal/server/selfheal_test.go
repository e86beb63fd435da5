package server

// Self-healing chaos suite: drives the anti-entropy reconciler and the
// router's failover reads against real faults — sustained mirror loss
// injected at 100%, then a partitioned owner — and holds the cluster
// to the bit-identical-with-oracle standard throughout. Deterministic
// on purpose: mirror loss comes from the faultinject.MirrorDrop point,
// repair from explicitly driven AntiEntropyRound calls (no timing
// races on a background loop).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fullview/internal/cluster"
	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
)

// flushAll drains every replica's mirror queues.
func flushAll(t *testing.T, reps []*replica) {
	t.Helper()
	for _, r := range reps {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := r.srv.FlushMirror(ctx); err != nil {
			t.Fatalf("FlushMirror on %s: %v", r.name, err)
		}
		cancel()
	}
}

// digestBody fetches a replica's raw digest-endpoint answer for
// byte-level comparison (Go's map marshalling sorts keys, so two
// replicas holding the same state answer identical bytes).
func digestBody(t *testing.T, url string) []byte {
	t.Helper()
	code, data, _ := httpDo(t, "GET", url+cluster.DigestPath, nil)
	if code != http.StatusOK {
		t.Fatalf("digest from %s: %d %s", url, code, data)
	}
	return data
}

// metricValue sums a metric's series values in a /metrics dump.
func urlMetricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	_, metrics, _ := httpDo(t, "GET", url+"/metrics", nil)
	total := 0.0
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, name) {
			var v float64
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%f", &v)
			total += v
		}
	}
	return total
}

// TestClusterSelfHealsAfterSustainedMirrorLoss is the anti-entropy
// half of the acceptance contract: with MirrorDrop injected at 100%,
// registrations and mutations journal only on the replica that took
// them — every mirror batch exhausts its retries and drops. After the
// fault heals, two anti-entropy rounds converge all three replicas to
// byte-identical digest maps, and every replica answers queries for
// the repaired deployments bit-identically to a single-node oracle.
func TestClusterSelfHealsAfterSustainedMirrorLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-replica TCP cluster")
	}
	defer faultinject.Reset()
	reps, _ := startCluster(t, 3)
	for _, r := range reps {
		waitURLReadyz(t, r.url, ReadyOK)
	}
	oracleSrv := mustNew(t, Config{StateDir: t.TempDir()})
	oracle := httptest.NewServer(oracleSrv.Handler())
	defer oracle.Close()

	// 100% mirror loss: every post attempt fails before reaching the
	// wire, exactly like a severed network.
	undo := faultinject.Set(faultinject.MirrorDrop, faultinject.Error(errors.New("chaos: mirror severed")))

	patch := patchBody(t, patchRequest{
		Reaim:  []reaimJSON{{Index: 0, Orient: 2.4}},
		Remove: []int{3},
		Add:    []depjournal.Camera{{X: 0.8, Y: 0.2, Orient: 1, Radius: 0.15, Aperture: 0.9}},
	})
	var ids []string
	for seed := uint64(1); seed <= 2; seed++ {
		body := camerasBody(t, testNetwork(t, 12, seed))
		code, data, _ := httpDo(t, "POST", reps[0].url+"/v1/deployments", body)
		if code != http.StatusCreated {
			t.Fatalf("register on r0: %d %s", code, data)
		}
		var reg registerResponse
		if err := json.Unmarshal(data, &reg); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, reg.ID)
		if code, data, _ := httpDo(t, "PATCH", reps[0].url+"/v1/deployments/"+reg.ID, patch); code != http.StatusOK {
			t.Fatalf("patch on r0: %d %s", code, data)
		}
		if code, _, _ := httpDo(t, "POST", oracle.URL+"/v1/deployments", body); code != http.StatusCreated {
			t.Fatalf("oracle register: %d", code)
		}
		if code, _, _ := httpDo(t, "PATCH", oracle.URL+"/v1/deployments/"+ids[len(ids)-1], patch); code != http.StatusOK {
			t.Fatalf("oracle patch: %d", code)
		}
	}

	// Drain the queues while the fault is still armed, so every batch
	// exhausts its bounded retries and is counted dropped — none may
	// linger and deliver late after the heal.
	flushAll(t, reps)
	undo()

	if retries := urlMetricValue(t, reps[0].url, "fvcd_mirror_retries_total"); retries == 0 {
		t.Error("mirror retries counter never moved under sustained loss")
	}
	if dropped := urlMetricValue(t, reps[0].url, "fvcd_cluster_mirror_dropped_total"); dropped == 0 {
		t.Error("mirror drop counter never moved under sustained loss")
	}
	if bytes.Equal(digestBody(t, reps[0].url), digestBody(t, reps[1].url)) {
		t.Fatal("test premise broken: replicas agree despite 100% mirror loss")
	}

	// Heal within two anti-entropy rounds per replica.
	for round := 0; round < 2; round++ {
		for _, r := range reps {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			r.srv.AntiEntropyRound(ctx)
			cancel()
		}
	}
	want := digestBody(t, reps[0].url)
	for _, r := range reps[1:] {
		if got := digestBody(t, r.url); !bytes.Equal(got, want) {
			t.Fatalf("digests diverged after two anti-entropy rounds:\n%s: %s\n%s: %s",
				reps[0].name, want, r.name, got)
		}
	}

	// The repaired copies must not just hash alike — they must answer
	// alike. Every replica, every deployment, bit-identical to the
	// oracle.
	queryBody := []byte(`{"thetasPi":[0.2,0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9},{"x":0.33,"y":0.81}]}`)
	for _, id := range ids {
		_, want, _ := httpDo(t, "POST", oracle.URL+"/v1/deployments/"+id+"/query", queryBody)
		for _, r := range reps {
			code, got, _ := httpDo(t, "POST", r.url+"/v1/deployments/"+id+"/query", queryBody)
			if code != http.StatusOK {
				t.Fatalf("query %s on %s after repair: %d %s", id, r.name, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("query %s on %s diverged from the oracle after repair:\n%s\nvs\n%s", id, r.name, got, want)
			}
		}
	}
}

// TestClusterFailoverReadsDuringOwnerDowntime is the failover half of
// the acceptance contract: with the owning replica partitioned away,
// reads through the router are served by a ring successor from its
// mirrored copy — bit-identical to the single-node oracle — while a
// write to the same deployment answers 503 + Retry-After (writes stay
// owner-only), and the router exports its breaker states.
func TestClusterFailoverReadsDuringOwnerDowntime(t *testing.T) {
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

	body := camerasBody(t, testNetwork(t, 12, 7))
	code, data, _ := httpDo(t, "POST", router.URL+"/v1/deployments", body)
	if code != http.StatusCreated {
		t.Fatalf("register via router: %d %s", code, data)
	}
	var reg registerResponse
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	patch := patchBody(t, patchRequest{Reaim: []reaimJSON{{Index: 1, Orient: 0.9}}})
	if code, data, _ := httpDo(t, "PATCH", router.URL+"/v1/deployments/"+reg.ID, patch); code != http.StatusOK {
		t.Fatalf("patch via router: %d %s", code, data)
	}
	httpDo(t, "POST", oracle.URL+"/v1/deployments", body)
	if code, _, _ := httpDo(t, "PATCH", oracle.URL+"/v1/deployments/"+reg.ID, patch); code != http.StatusOK {
		t.Fatalf("oracle patch: %d", code)
	}
	// Every survivor needs the mirrored copy before the owner dies.
	flushAll(t, reps)

	// Partition the owner: listener gone, no replacement this time.
	for _, r := range reps {
		if r.name == ring.Owner(reg.ID) {
			r.ln.Close()
		}
	}

	queryBody := []byte(`{"thetasPi":[0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.2,"y":0.7}]}`)
	surveyBody := []byte(`{"thetaPi":0.25,"grid":16}`)
	_, want, _ := httpDo(t, "POST", oracle.URL+"/v1/deployments/"+reg.ID+"/query", queryBody)
	code, got, _ := httpDo(t, "POST", router.URL+"/v1/deployments/"+reg.ID+"/query", queryBody)
	if code != http.StatusOK {
		t.Fatalf("query with dead owner: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("failover query diverged from the oracle:\n%s\nvs\n%s", got, want)
	}
	code, got, _ = httpDo(t, "POST", router.URL+"/v1/deployments/"+reg.ID+"/survey", surveyBody)
	_, owant, _ := httpDo(t, "POST", oracle.URL+"/v1/deployments/"+reg.ID+"/survey", surveyBody)
	if code != http.StatusOK {
		t.Fatalf("survey with dead owner: %d %s", code, got)
	}
	if g, w := stripElapsed(t, got), stripElapsed(t, owant); !bytes.Equal(g, w) {
		t.Errorf("failover survey diverged from the oracle:\n%s\nvs\n%s", g, w)
	}

	// Writes do not fail over: owner-only, shed with Retry-After.
	code, data, hdr := httpDo(t, "PATCH", router.URL+"/v1/deployments/"+reg.ID, patch)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("write with dead owner answered %d %s, want 503", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("write-rejection 503 carries no Retry-After")
	}

	// The dashboards see both mechanisms: failed-over reads counted,
	// breaker states exported.
	_, metrics, _ := httpDo(t, "GET", router.URL+"/metrics", nil)
	for _, series := range []string{"fvcd_cluster_failover_reads_total", "fvcd_breaker_state"} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("router /metrics lacks %s", series)
		}
	}
	if v := urlMetricValue(t, router.URL, "fvcd_cluster_failover_reads_total"); v < 2 {
		t.Errorf("failover reads counter %v, want >= 2 (query + survey)", v)
	}
}
