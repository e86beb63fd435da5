// Package fullview is a library for analysing and simulating *full-view
// coverage* in camera sensor networks, reproducing "Achieving Full View
// Coverage with Randomly-Deployed Heterogeneous Camera Sensors" (Wu &
// Wang, ICDCS 2012).
//
// A point P is full-view covered with effective angle θ if, whatever
// direction an object at P faces, some camera covers P from within θ of
// the frontal viewpoint — guaranteeing a face capture. The library
// provides:
//
//   - the binary-sector camera model with heterogeneous groups
//     (Camera, GroupSpec, Profile, Network);
//   - random uniform, Poisson, and lattice deployments on the unit torus
//     (DeployUniform, DeployPoisson, SquareLattice, TriangularLattice);
//   - exact coverage checkers for full-view coverage and the paper's
//     geometric necessary / sufficient conditions (Checker);
//   - the paper's closed-form results: critical sensing areas
//     (CSANecessary, CSASufficient), per-point condition probabilities
//     (UniformNecessaryFailure, …), and Poisson-deployment probabilities
//     (PoissonPN, PoissonPS);
//   - extensions: full-view barrier coverage (Barrier) and probabilistic
//     sensing (SensingModel, ExpDecayModel).
//
// # Quickstart
//
//	profile, _ := fullview.Homogeneous(0.25, math.Pi/2) // r, φ
//	net, _ := fullview.DeployUniform(fullview.UnitTorus, profile, 800, fullview.NewRNG(1, 0))
//	checker, _ := fullview.NewChecker(net, math.Pi/4)   // θ
//	grid, _ := fullview.DenseGrid(fullview.UnitTorus, 800)
//	stats := checker.SurveyRegion(grid)
//	fmt.Printf("full-view covered fraction: %.3f\n", stats.FullViewFraction())
//
// All geometry lives on a torus so results are free of boundary effects,
// exactly as in the paper's model.
//
// # Concurrency
//
// Every point sweep runs through a shared parallel sweep engine with
// deterministic chunked scheduling: Checker.SurveyRegionParallel and
// Checker.SurveyRegionContext spread a region survey over a worker pool
// (workers ≤ 0 selects GOMAXPROCS) and return statistics bit-identical
// to the sequential Checker.SurveyRegion; SurveyBarrierContext and
// FindHolesContext do the same for barrier sweeps and hole detection.
// A Checker is a one-θ MultiChecker: both run the same per-point
// evaluator, so a Checker's verdicts are those of a MultiChecker at its
// θ. Neither is safe for concurrent use — derive per-goroutine checkers
// with Clone, which shares the immutable spatial index and sector
// partitions and allocates only scratch buffers.
package fullview

import (
	"context"
	"net"
	"time"

	"fullview/internal/analytic"
	"fullview/internal/barrier"
	"fullview/internal/cluster"
	"fullview/internal/core"
	"fullview/internal/depcache"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/probsense"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/server"
)

// Geometry types.
type (
	// Vec is a point or displacement in the plane.
	Vec = geom.Vec
	// Torus is the operational region: a flat square torus.
	Torus = geom.Torus
	// Sector is a closed angular sector on the circle of directions.
	Sector = geom.Sector
)

// Sensing-model types.
type (
	// Camera is a binary-sector camera sensor.
	Camera = sensor.Camera
	// GroupSpec describes one heterogeneity group (fraction, radius,
	// aperture).
	GroupSpec = sensor.GroupSpec
	// Profile is a validated heterogeneity profile.
	Profile = sensor.Profile
	// Network is a deployed camera network.
	Network = sensor.Network
)

// Coverage types.
type (
	// Checker evaluates full-view coverage and the paper's geometric
	// conditions for one network and effective angle.
	Checker = core.Checker
	// MultiChecker evaluates the per-point diagnosis for a whole list of
	// effective angles from a single candidate gather per point.
	MultiChecker = core.MultiChecker
	// PointReport is the coverage diagnosis of a single point.
	PointReport = core.PointReport
	// MultiReport is MultiChecker's per-point diagnosis: θ-independent
	// quantities once, plus one ThetaReport per effective angle.
	MultiReport = core.MultiReport
	// ThetaReport is one effective angle's verdict inside a MultiReport.
	ThetaReport = core.ThetaReport
	// RegionStats aggregates coverage over a set of sample points.
	RegionStats = core.RegionStats
)

// Extension types.
type (
	// Barrier is a polyline for full-view barrier coverage.
	Barrier = barrier.Barrier
	// BarrierStats summarizes coverage along a barrier.
	BarrierStats = barrier.Stats
	// SensingModel maps camera and distance to detection probability.
	SensingModel = probsense.Model
	// ExpDecayModel is the exponential-decay probabilistic sensing model.
	ExpDecayModel = probsense.ExpDecay
	// BinarySensing is the paper's binary sector model as a SensingModel.
	BinarySensing = probsense.Binary
	// ProbEvaluator computes probabilistic full-view coverage.
	ProbEvaluator = probsense.Evaluator
	// ProbPointProfile is the probabilistic diagnosis of a point.
	ProbPointProfile = probsense.PointProfile
)

// RNG is the library's deterministic random generator (PCG-XSH-RR).
type RNG = rng.PCG

// UnitTorus is the paper's unit-square operational region.
var UnitTorus = geom.UnitTorus

// V constructs a Vec.
func V(x, y float64) Vec { return geom.V(x, y) }

// NewTorus returns a flat square torus with the given side length.
func NewTorus(side float64) (Torus, error) { return geom.NewTorus(side) }

// NewRNG returns a deterministic generator for (seed, stream); equal
// arguments reproduce identical sequences on every platform.
func NewRNG(seed, stream uint64) *RNG { return rng.New(seed, stream) }

// NewProfile validates group specifications (fractions must sum to 1)
// and returns a heterogeneity profile.
func NewProfile(groups ...GroupSpec) (Profile, error) { return sensor.NewProfile(groups...) }

// Homogeneous returns the single-group profile with the given sensing
// radius and aperture.
func Homogeneous(radius, aperture float64) (Profile, error) {
	return sensor.Homogeneous(radius, aperture)
}

// ParseProfile parses the compact textual profile form
// "fraction:radius:aperturePi[,…]" (aperture as a fraction of π), e.g.
// "0.3:0.2:0.33,0.7:0.1:0.5".
func ParseProfile(s string) (Profile, error) { return sensor.ParseProfile(s) }

// FormatProfile renders a profile in the ParseProfile syntax.
func FormatProfile(p Profile) string { return sensor.FormatProfile(p) }

// NewNetwork assembles a network from explicitly placed cameras.
func NewNetwork(t Torus, cameras []Camera) (*Network, error) {
	return sensor.NewNetwork(t, cameras)
}

// DeployUniform places exactly n sensors i.i.d. uniformly on the torus
// with uniformly random orientations (the paper's uniform deployment).
func DeployUniform(t Torus, profile Profile, n int, r *RNG) (*Network, error) {
	return deploy.Uniform(t, profile, n, r)
}

// DeployPoisson deploys sensors by a 2-D Poisson point process with the
// given density (expected sensors per unit area; the paper's λ = n on
// the unit square).
func DeployPoisson(t Torus, profile Profile, density float64, r *RNG) (*Network, error) {
	return deploy.Poisson(t, profile, density, r)
}

// SquareLattice deploys cameras on a k×k grid with random orientations.
func SquareLattice(t Torus, profile Profile, k int, r *RNG) (*Network, error) {
	return deploy.SquareLattice(t, profile, k, r)
}

// TriangularLattice deploys cameras on a triangular lattice with the
// given spacing (the deployment pattern of Wang & Cao compared in
// Section VII-C).
func TriangularLattice(t Torus, profile Profile, spacing float64, r *RNG) (*Network, error) {
	return deploy.TriangularLattice(t, profile, spacing, r)
}

// GridPoints returns the k×k grid of cell-centre sample points.
func GridPoints(t Torus, k int) ([]Vec, error) { return deploy.GridPoints(t, k) }

// DenseGrid returns the paper's √(n·ln n)-per-side dense grid, whose
// coverage stands in for coverage of the whole region.
func DenseGrid(t Torus, n int) ([]Vec, error) { return deploy.DenseGrid(t, n) }

// NewChecker builds a coverage checker for the network with effective
// angle theta ∈ (0, π]. Checkers are not safe for concurrent use; derive
// one per goroutine with Checker.Clone (parallel survey methods do this
// internally).
func NewChecker(net *Network, theta float64) (*Checker, error) {
	return core.NewChecker(net, theta)
}

// NewMultiChecker builds a fused multi-θ checker for the network: each
// Evaluate call gathers the point's covering cameras once and reports
// full-view coverage plus the necessary and sufficient conditions for
// every effective angle of the list (each in (0, π]). Use it for
// θ-sweeps, where a Checker per θ would repeat the spatial query and
// gather per angle. Like Checker, a MultiChecker is not safe for
// concurrent use; derive one per goroutine with MultiChecker.Clone.
func NewMultiChecker(net *Network, thetas []float64) (*MultiChecker, error) {
	return core.NewMultiChecker(net, thetas)
}

// CSANecessary returns the critical sensing area for the necessary
// condition of full-view coverage under uniform deployment (Theorem 1).
func CSANecessary(n int, theta float64) (float64, error) {
	return analytic.CSANecessary(n, theta)
}

// CSASufficient returns the critical sensing area for the sufficient
// condition of full-view coverage under uniform deployment (Theorem 2).
func CSASufficient(n int, theta float64) (float64, error) {
	return analytic.CSASufficient(n, theta)
}

// UniformNecessaryFailure returns P(F_N,P), the probability that a point
// fails the necessary condition under uniform deployment (Equation 2).
func UniformNecessaryFailure(profile Profile, n int, theta float64) (float64, error) {
	return analytic.UniformNecessaryFailure(profile, n, theta)
}

// UniformSufficientFailure returns P(F_S,P), the probability that a
// point fails the sufficient condition under uniform deployment
// (Equation 13).
func UniformSufficientFailure(profile Profile, n int, theta float64) (float64, error) {
	return analytic.UniformSufficientFailure(profile, n, theta)
}

// PoissonPN returns P_N, the probability that a point meets the
// necessary condition under Poisson deployment (Theorem 3).
func PoissonPN(profile Profile, density, theta float64) (float64, error) {
	return analytic.PoissonPN(profile, density, theta)
}

// PoissonPS returns P_S, the probability that a point meets the
// sufficient condition under Poisson deployment (Theorem 4).
func PoissonPS(profile Profile, density, theta float64) (float64, error) {
	return analytic.PoissonPS(profile, density, theta)
}

// OneCoverageCSA returns the 1-coverage critical sensing area
// (ln n + ln ln n)/n, the θ = π degeneration of CSANecessary
// (Section VII-A).
func OneCoverageCSA(n int) (float64, error) { return analytic.OneCoverageCSA(n) }

// KCoverageSufficientArea returns s_K(n) = (ln n + k·ln ln n)/n, the
// sensing area sufficient for k-coverage (Section VII-B baseline).
func KCoverageSufficientArea(n, k int) (float64, error) {
	return analytic.KCoverageSufficientArea(n, k)
}

// ExpectedCoverageCount returns n·s_c, the expected number of cameras
// covering an arbitrary point under uniform deployment.
func ExpectedCoverageCount(profile Profile, n int) float64 {
	return analytic.ExpectedCoverageCount(profile, n)
}

// KNecessary returns ⌈π/θ⌉, the necessary-condition sector count.
func KNecessary(theta float64) int { return analytic.KNecessary(theta) }

// KSufficient returns ⌈2π/θ⌉, the sufficient-condition sector count.
func KSufficient(theta float64) int { return analytic.KSufficient(theta) }

// NewBarrier builds a barrier polyline from at least two waypoints.
func NewBarrier(waypoints ...Vec) (Barrier, error) { return barrier.New(waypoints...) }

// HorizontalBarrier returns the straight barrier crossing the unit torus
// at height y.
func HorizontalBarrier(y float64) Barrier { return barrier.Horizontal(y) }

// SurveyBarrier evaluates full-view coverage along a barrier with the
// given sample spacing.
func SurveyBarrier(checker *Checker, b Barrier, spacing float64) (BarrierStats, error) {
	return barrier.Survey(checker, b, spacing)
}

// SurveyBarrierContext is SurveyBarrier with context cancellation and a
// worker count (GOMAXPROCS when workers ≤ 0). Results are bit-identical
// to SurveyBarrier at any worker count.
func SurveyBarrierContext(ctx context.Context, checker *Checker, b Barrier, spacing float64, workers int) (BarrierStats, error) {
	return barrier.SurveyContext(ctx, checker, b, spacing, workers)
}

// NewProbEvaluator builds a probabilistic full-view evaluator over the
// network with the given sensing model and effective angle.
func NewProbEvaluator(net *Network, model SensingModel, theta float64) (*ProbEvaluator, error) {
	return probsense.NewEvaluator(net, model, theta)
}

// Service types.
type (
	// Service is the fvcd coverage query service: an HTTP handler that
	// registers camera deployments, keeps their spatial indexes warm in
	// an LRU cache, and answers point queries and region surveys against
	// them, with admission control, Prometheus-format metrics, and
	// graceful drain. See cmd/fvcd for the standalone daemon.
	Service = server.Server
	// ServiceConfig parameterises a Service; the zero value selects the
	// documented defaults.
	ServiceConfig = server.Config
)

// NewService builds the coverage query service. Drive it with
// Service.Serve / Service.Shutdown on your own listener, or mount
// Service.Handler into an existing HTTP server. The only error path is
// an unusable ServiceConfig.StateDir (the durable deployment journal
// could not be opened or replayed).
func NewService(cfg ServiceConfig) (*Service, error) { return server.New(cfg) }

// Cluster types, for clients that place requests themselves (zero-hop
// routing) and for embedding the router.
type (
	// ClusterPeers is an fvcd cluster membership, normally loaded from
	// a peers file with LoadClusterPeers.
	ClusterPeers = cluster.Peers
	// ClusterMember is one replica in a ClusterPeers membership.
	ClusterMember = cluster.Member
	// HashRing is the consistent-hash ring that places deployment ids
	// on cluster members. Every replica, router, and ring-aware client
	// that builds it from the same membership derives the same
	// placement.
	HashRing = cluster.Ring
)

// LoadClusterPeers reads and validates a cluster peers file.
func LoadClusterPeers(path string) (*ClusterPeers, error) { return cluster.LoadPeers(path) }

// NewHashRing builds a consistent-hash ring over member names
// (virtualNodes 0 selects the default).
func NewHashRing(members []string, virtualNodes int) (*HashRing, error) {
	return cluster.NewRing(members, virtualNodes)
}

// NetworkFingerprint returns the content fingerprint the service uses
// as a network's deployment id — and the cluster uses as its shard
// key. Ring-aware clients fingerprint locally, call
// HashRing.Owner(fingerprint), and talk straight to the owning replica
// with no router hop.
func NetworkFingerprint(net *Network) string { return depcache.Fingerprint(net) }

// Serve runs the coverage query service on addr until ctx is
// cancelled, then drains gracefully: in-flight requests run to
// completion (up to 30s) before Serve returns. It is the library form
// of the fvcd daemon.
func Serve(ctx context.Context, addr string, cfg ServiceConfig) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		case <-done:
		}
	}()
	return srv.Serve(ln)
}
