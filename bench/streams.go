package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"fullview/internal/depcache"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// profileD is the heterogeneity profile of every deployment the
// benchmark registers: three camera groups whose radii span 3.3×. At
// n = 2000 (the D2000 recipe) its full-view fraction at θ = π/4 is about
// one half, so both verdicts and the evaluators' early exits occur.
const profileD = "0.5:0.06:0.5,0.3:0.1:0.33,0.2:0.2:0.25"

// Stream ids passed to rng.New alongside the run seed: one independent
// random sequence per input the benchmark generates.
const (
	streamDeploySeeds = 101 + iota
	streamQuerySmall
	streamQueryBulk
	streamReads
	streamWrites
)

// recipe is the registration body of a seeded uniform deployment.
type recipe struct {
	Profile string `json:"profile"`
	N       int    `json:"n"`
	Seed    uint64 `json:"seed"`
}

// deployment is one registered network as the benchmark knows it: the
// registration body it sends and the oracle network the same recipe
// builds in-process, whose fingerprint must equal the id the service
// answers.
type deployment struct {
	recipe recipe
	body   []byte
	net    *sensor.Network
	id     string
}

// newDeployment builds the oracle network of a recipe exactly as the
// service's registration path does: deploy.Uniform on the unit torus
// with rng.New(seed, 0).
func newDeployment(rc recipe) (*deployment, error) {
	body, err := json.Marshal(rc)
	if err != nil {
		return nil, err
	}
	net, err := buildNetwork(rc)
	if err != nil {
		return nil, err
	}
	return &deployment{recipe: rc, body: body, net: net, id: depcache.Fingerprint(net)}, nil
}

// buildNetwork materialises a recipe through the library.
func buildNetwork(rc recipe) (*sensor.Network, error) {
	t, err := geom.NewTorus(1)
	if err != nil {
		return nil, err
	}
	profile, err := sensor.ParseProfile(rc.Profile)
	if err != nil {
		return nil, err
	}
	return deploy.Uniform(t, profile, rc.N, rng.New(rc.Seed, 0))
}

// deploymentSeeds draws count recipe seeds for one workload from the run
// seed; tag separates the workloads' deployments from each other.
func deploymentSeeds(seed uint64, tag, count int) []uint64 {
	g := rng.New(seed, uint64(streamDeploySeeds*100+tag))
	out := make([]uint64, count)
	for i := range out {
		// Keep seeds non-zero (0 means "default 1" to the service) and
		// below 2^53 so any JSON reader holds them exactly.
		out[i] = g.Uint64()>>11 + 1
	}
	return out
}

// Wire forms of the request bodies: the service's fields the benchmark
// sends.
type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type queryRequest struct {
	ThetasPi []float64   `json:"thetasPi"`
	Points   []pointJSON `json:"points"`
}

type surveyRequest struct {
	ThetaPi float64 `json:"thetaPi"`
}

type jobSubmitRequest struct {
	Kind       string  `json:"kind"`
	Deployment string  `json:"deployment"`
	ThetaPi    float64 `json:"thetaPi,omitempty"`
}

type reaimJSON struct {
	Index  int     `json:"index"`
	Orient float64 `json:"orient"`
}

type cameraJSON struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Orient   float64 `json:"orient"`
	Radius   float64 `json:"radius"`
	Aperture float64 `json:"aperture"`
	Group    int     `json:"group,omitempty"`
}

type patchRequest struct {
	Reaim  []reaimJSON  `json:"reaim,omitempty"`
	Remove []int        `json:"remove,omitempty"`
	Add    []cameraJSON `json:"add,omitempty"`
}

// request classes: the routes a workload sends.
const (
	classQuery = iota
	classSurvey
	classJob
	classPatch
	numClasses
)

var classNames = [numClasses]string{"query", "survey", "job", "patch"}

// op is one pre-generated request: everything the sender needs, plus
// what the checks and replays need to interpret the answer.
type op struct {
	class  int
	method string
	path   string
	body   []byte
	dep    int // index into the workload's deployments
	points int // sample points the request evaluates
	// query holds the decoded body of a /query request (for the oracle
	// and the layer replays); patch that of a PATCH.
	query *queryRequest
	patch *patchRequest
}

// queryOp builds a /query request.
func queryOp(deps []*deployment, dep int, thetasPi []float64, pts []pointJSON) (op, error) {
	q := &queryRequest{ThetasPi: thetasPi, Points: pts}
	body, err := json.Marshal(q)
	if err != nil {
		return op{}, err
	}
	return op{class: classQuery, method: "POST", path: "/v1/deployments/" + deps[dep].id + "/query",
		body: body, dep: dep, points: len(pts), query: q}, nil
}

// uniformPoints draws k points uniformly on the unit torus.
func uniformPoints(g *rng.PCG, k int) []pointJSON {
	pts := make([]pointJSON, k)
	for i := range pts {
		pts[i] = pointJSON{X: g.Float64(), Y: g.Float64()}
	}
	return pts
}

// zipf samples ranks 0..n-1 with probability ∝ (rank+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(g *rng.PCG) int {
	u := g.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// querySmallPool generates the query-small request pool: 1–16 uniform
// points at θ ∈ {π/4, π/2}, each aimed at a deployment drawn by
// Zipf(1.1) rank.
func querySmallPool(seed uint64, deps []*deployment, size, maxPoints int) ([]op, error) {
	g := rng.New(seed, streamQuerySmall)
	z := newZipf(len(deps), 1.1)
	pool := make([]op, size)
	for i := range pool {
		dep := z.draw(g)
		k := 1 + g.Intn(maxPoints)
		o, err := queryOp(deps, dep, []float64{0.25, 0.5}, uniformPoints(g, k))
		if err != nil {
			return nil, err
		}
		pool[i] = o
	}
	return pool, nil
}

// bulkThetasPi is query-bulk's θ-list, as fractions of π.
var bulkThetasPi = []float64{0.125, 0.25, 0.375, 0.5}

// queryBulkPool generates query-bulk's pool of large batches against
// one deployment.
func queryBulkPool(seed uint64, deps []*deployment, size, points int) ([]op, error) {
	g := rng.New(seed, streamQueryBulk)
	pool := make([]op, size)
	for i := range pool {
		o, err := queryOp(deps, 0, bulkThetasPi, uniformPoints(g, points))
		if err != nil {
			return nil, err
		}
		pool[i] = o
	}
	return pool, nil
}

// readPool generates cluster-churn's reads: 16 points at θ = π/4 over
// the churned deployments, chosen uniformly.
func readPool(seed uint64, deps []*deployment, churned, size, points int) ([]op, error) {
	g := rng.New(seed, streamReads)
	pool := make([]op, size)
	for i := range pool {
		o, err := queryOp(deps, g.Intn(churned), []float64{0.25}, uniformPoints(g, points))
		if err != nil {
			return nil, err
		}
		pool[i] = o
	}
	return pool, nil
}

// writePool generates cluster-churn's PATCH stream. Every write re-aims
// 4 distinct cameras; write j with j%10 == 5 also removes 2 and adds 2,
// so every deployment keeps its camera count and every index in the
// stream stays valid whatever order concurrent patches apply in. Write
// j with j%10 == 0 goes to the probe deployment (the last one in deps),
// whose versions measure replication lag.
func writePool(seed uint64, deps []*deployment, churned, size int) ([]op, error) {
	g := rng.New(seed, streamWrites)
	profile, err := sensor.ParseProfile(profileD)
	if err != nil {
		return nil, err
	}
	groups := profile.Groups()
	probe := len(deps) - 1
	pool := make([]op, size)
	for j := range pool {
		dep := probe
		if j%10 != 0 {
			dep = g.Intn(churned)
		}
		n := deps[dep].recipe.N
		p := &patchRequest{}
		for _, i := range distinct(g, n, 4) {
			p.Reaim = append(p.Reaim, reaimJSON{Index: i, Orient: g.Angle()})
		}
		if j%10 == 5 {
			p.Remove = distinct(g, n, 2)
			for a := 0; a < 2; a++ {
				p.Add = append(p.Add, randomCamera(g, groups))
			}
		}
		body, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		pool[j] = op{class: classPatch, method: "PATCH", path: "/v1/deployments/" + deps[dep].id,
			body: body, dep: dep, patch: p}
	}
	return pool, nil
}

// distinct draws k distinct integers from [0, n).
func distinct(g *rng.PCG, n, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		v := g.Intn(n)
		dup := false
		for _, w := range out {
			dup = dup || w == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// randomCamera draws one camera of the profile: group by fraction,
// uniform position and orientation.
func randomCamera(g *rng.PCG, groups []sensor.GroupSpec) cameraJSON {
	u := g.Float64()
	gi := len(groups) - 1
	acc := 0.0
	for i, gs := range groups {
		acc += gs.Fraction
		if u < acc {
			gi = i
			break
		}
	}
	return cameraJSON{X: g.Float64(), Y: g.Float64(), Orient: g.Angle(),
		Radius: groups[gi].Radius, Aperture: groups[gi].Aperture, Group: gi}
}

// surveyOps returns the survey workload's two alternating requests: an
// inline dense-grid /survey and a kind:survey job over the same grid.
func surveyOps(dep *deployment) (survey, job op, err error) {
	sb, err := json.Marshal(surveyRequest{ThetaPi: 0.25})
	if err != nil {
		return op{}, op{}, err
	}
	jb, err := json.Marshal(jobSubmitRequest{Kind: "survey", Deployment: dep.id, ThetaPi: 0.25})
	if err != nil {
		return op{}, op{}, err
	}
	k, err := deploy.DenseGridSide(dep.recipe.N)
	if err != nil {
		return op{}, op{}, err
	}
	survey = op{class: classSurvey, method: "POST", path: "/v1/deployments/" + dep.id + "/survey",
		body: sb, points: k * k}
	job = op{class: classJob, method: "POST", path: "/v1/jobs", body: jb, points: k * k}
	return survey, job, nil
}

// describe is a one-line summary of an op for error messages.
func (o op) describe() string {
	return fmt.Sprintf("%s %s (%d points)", o.method, o.path, o.points)
}
