package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"fullview/internal/depjournal"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/retry"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// registerRequest registers a deployment either from an explicit camera
// list or from a sensor profile plus a deterministic deployment recipe
// (scheme, count/density, seed). Exactly one of the two forms must be
// used.
type registerRequest struct {
	// Torus is the operational region's side length (default 1, the
	// paper's unit torus).
	Torus float64 `json:"torus,omitempty"`

	// Cameras places each camera explicitly, in the journal's camera
	// form. Angles are radians here — unlike the profile string, whose
	// third field is a fraction of π by the ParseProfile format's
	// definition.
	Cameras []depjournal.Camera `json:"cameras,omitempty"`

	// Profile is the heterogeneity profile in ParseProfile form
	// ("fraction:radius:aperturePi,…"), used with N or Density.
	Profile string `json:"profile,omitempty"`
	// N deploys exactly N cameras uniformly (scheme "uniform").
	N int `json:"n,omitempty"`
	// Density is the Poisson intensity (scheme "poisson").
	Density float64 `json:"density,omitempty"`
	// Deploy selects the scheme: "uniform" (default) or "poisson".
	Deploy string `json:"deploy,omitempty"`
	// Seed is the deterministic RNG seed (default 1). Equal recipes give
	// equal networks — and therefore equal deployment ids.
	Seed uint64 `json:"seed,omitempty"`
}

// registerResponse names the registered deployment. ID is the content
// fingerprint of the network: re-registering the same network returns
// the same id with cached=true. Cameras and Version describe the LIVE
// state — a re-registration of an id that was mutated since reports the
// mutated deployment, not the base registration.
type registerResponse struct {
	ID        string  `json:"id"`
	Cameras   int     `json:"cameras"`
	Torus     float64 `json:"torus"`
	Cached    bool    `json:"cached"`
	MaxRadius float64 `json:"maxRadius"`
	Version   uint64  `json:"version"`
}

// inspectResponse describes a registered deployment's live state.
// Version counts applied mutation batches (monotonic across restarts);
// Overlay is the current delta-overlay size — removed plus added
// cameras not yet folded into the CSR base — so operators can watch
// overlay growth per deployment without scraping /metrics.
type inspectResponse struct {
	ID               string  `json:"id"`
	Cameras          int     `json:"cameras"`
	Torus            float64 `json:"torus"`
	MaxRadius        float64 `json:"maxRadius"`
	TotalSensingArea float64 `json:"totalSensingArea"`
	Version          uint64  `json:"version"`
	Overlay          int     `json:"overlay"`
}

// reaimJSON re-points one live camera.
type reaimJSON struct {
	// Index addresses the camera in the live list: registration order,
	// as already modified by earlier patches (removed cameras are gone,
	// added ones appended).
	Index int `json:"index"`
	// Orient is the new facing direction in radians.
	Orient float64 `json:"orient"`
}

// patchRequest mutates a registered deployment in place. The three
// groups apply in a fixed order — reaim, then remove, then add — and
// all indices address the live list as it stood BEFORE the patch
// (reaiming does not renumber, so reaim and remove share one index
// space). At least one group must be non-empty.
type patchRequest struct {
	Reaim  []reaimJSON         `json:"reaim,omitempty"`
	Remove []int               `json:"remove,omitempty"`
	Add    []depjournal.Camera `json:"add,omitempty"`
}

// patchResponse reports the deployment state after the patch.
type patchResponse struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	Cameras int    `json:"cameras"`
	Overlay int    `json:"overlay"`
	Reaimed int    `json:"reaimed"`
	Removed int    `json:"removed"`
	Added   int    `json:"added"`
}

// pointJSON is one sample point.
type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// queryRequest asks for the full per-point diagnosis of a point batch
// across a θ-list. Effective angles are given as fractions of π,
// matching the CLI convention (thetasPi 0.25 ⇒ θ = π/4).
type queryRequest struct {
	ThetasPi []float64   `json:"thetasPi"`
	Points   []pointJSON `json:"points"`
}

// thetaVerdictJSON is one effective angle's verdict for one point.
type thetaVerdictJSON struct {
	ThetaPi    float64 `json:"thetaPi"`
	FullView   bool    `json:"fullView"`
	Necessary  bool    `json:"necessary"`
	Sufficient bool    `json:"sufficient"`
}

// pointResultJSON is the diagnosis of one point: the θ-independent
// quantities once, plus one verdict per requested angle.
type pointResultJSON struct {
	Point       pointJSON          `json:"point"`
	NumCovering int                `json:"numCovering"`
	MaxGap      float64            `json:"maxGap"`
	PerTheta    []thetaVerdictJSON `json:"perTheta"`
}

// queryResponse is the batch answer, in request point order. Version
// names the deployment version the whole batch was evaluated against
// (one pinned snapshot; concurrent patches do not tear a batch).
type queryResponse struct {
	ID      string            `json:"id"`
	Version uint64            `json:"version"`
	Results []pointResultJSON `json:"results"`
}

// surveyRequest asks for a region sweep. Grid > 0 surveys the k×k grid
// of cell centres; Grid == 0 surveys the paper's dense grid sized for
// the deployment's camera count. Workers caps the sweep's parallelism
// below the server default (0 keeps the default).
type surveyRequest struct {
	ThetaPi float64 `json:"thetaPi"`
	Grid    int     `json:"grid,omitempty"`
	Workers int     `json:"workers,omitempty"`
}

// surveyResponse reports the region statistics of a sweep. Version is
// the pinned deployment version the sweep ran against.
type surveyResponse struct {
	ID                 string  `json:"id"`
	Version            uint64  `json:"version"`
	ThetaPi            float64 `json:"thetaPi"`
	Points             int     `json:"points"`
	FullView           int     `json:"fullView"`
	Necessary          int     `json:"necessary"`
	Sufficient         int     `json:"sufficient"`
	MinCovering        int     `json:"minCovering"`
	MeanCovering       float64 `json:"meanCovering"`
	FullViewFraction   float64 `json:"fullViewFraction"`
	NecessaryFraction  float64 `json:"necessaryFraction"`
	SufficientFraction float64 `json:"sufficientFraction"`
	ElapsedNS          int64   `json:"elapsedNs"`
}

// errorResponse is the uniform error body. RetryAsJob and Jobs appear
// only on an inline-survey 504: a machine-readable hint that the same
// work should be resubmitted through the async job API at Jobs.
type errorResponse struct {
	Error      string `json:"error"`
	RetryAsJob bool   `json:"retry_as_job,omitempty"`
	Jobs       string `json:"jobs,omitempty"`
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// writeRetryable writes a retryable rejection — 429 admission
// shedding, or a transient 503 (journal not durable, job queue
// closing, cluster mirror failing) — with the uniform jittered
// fractional-seconds Retry-After. Every retryable 429/5xx the service
// emits goes through here, so clients can rely on the header being
// present whenever retrying is the right move.
func writeRetryable(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Retry-After", retry.After())
	writeError(w, code, msg)
}

// writeDecodeError maps a decodeBody failure to its status: a body
// tripping the MaxBytesReader cap is 413 Request Entity Too Large (the
// client must shrink the payload, not fix its JSON); everything else is
// a plain 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte cap", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "malformed body: "+err.Error())
}

// decodeBody strictly decodes a JSON request body into dst: unknown
// fields (almost always a misspelt parameter) and trailing garbage are
// rejected so a malformed request fails loudly instead of running with
// defaults.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// buildNetwork materialises the network a journal record describes —
// the one build path behind registration, revival, compaction folding,
// and the router's placement key. maxCameras caps the deployment size.
func buildNetwork(rec *depjournal.Record, maxCameras int) (*sensor.Network, error) {
	side := rec.Torus
	if side == 0 {
		side = 1
	}
	t, err := geom.NewTorus(side)
	if err != nil {
		return nil, err
	}

	explicit := len(rec.Cameras) > 0
	recipe := rec.Profile != "" || rec.N != 0 || rec.Density != 0
	if explicit && recipe {
		return nil, errors.New("give either cameras or a profile deployment recipe, not both")
	}

	if explicit {
		if len(rec.Cameras) > maxCameras {
			return nil, fmt.Errorf("deployment has %d cameras, cap is %d", len(rec.Cameras), maxCameras)
		}
		cams := make([]sensor.Camera, len(rec.Cameras))
		for i, c := range rec.Cameras {
			cams[i] = sensorCamera(c)
		}
		return sensor.NewNetwork(t, cams)
	}

	if rec.Profile == "" {
		return nil, errors.New("registration needs cameras or a profile")
	}
	profile, err := sensor.ParseProfile(rec.Profile)
	if err != nil {
		return nil, err
	}
	seed := rec.Seed
	if seed == 0 {
		seed = 1
	}
	gen := rng.New(seed, 0)
	switch rec.Deploy {
	case "", "uniform":
		if rec.Density != 0 {
			return nil, errors.New("density is a poisson parameter; uniform deployments take n")
		}
		if rec.N <= 0 {
			return nil, errors.New("uniform deployment needs n > 0")
		}
		if rec.N > maxCameras {
			return nil, fmt.Errorf("deployment has %d cameras, cap is %d", rec.N, maxCameras)
		}
		return deploy.Uniform(t, profile, rec.N, gen)
	case "poisson":
		if rec.N != 0 {
			return nil, errors.New("n is a uniform parameter; poisson deployments take density")
		}
		if !(rec.Density > 0) || math.IsInf(rec.Density, 0) {
			return nil, errors.New("poisson deployment needs a positive finite density")
		}
		if expected := rec.Density * t.Area(); expected > float64(maxCameras) {
			return nil, fmt.Errorf("expected %g cameras exceeds cap %d", expected, maxCameras)
		}
		return deploy.Poisson(t, profile, rec.Density, gen)
	default:
		return nil, fmt.Errorf("unknown deployment scheme %q (uniform or poisson)", rec.Deploy)
	}
}

// sensorCamera is the one conversion from the journal's (and the
// wire's) camera form to the library's.
func sensorCamera(c depjournal.Camera) sensor.Camera {
	return sensor.Camera{
		Pos:      geom.V(c.X, c.Y),
		Orient:   c.Orient,
		Radius:   c.Radius,
		Aperture: c.Aperture,
		Group:    c.Group,
	}
}

// thetasFromPi validates a θ-list given as fractions of π and converts
// it to radians; the (0, π] range check itself is left to the core
// constructors so the service accepts exactly what the library accepts.
func thetasFromPi(thetasPi []float64, maxLen int) ([]float64, error) {
	if len(thetasPi) == 0 {
		return nil, errors.New("thetasPi must list at least one effective angle")
	}
	if len(thetasPi) > maxLen {
		return nil, fmt.Errorf("%d effective angles exceeds cap %d", len(thetasPi), maxLen)
	}
	thetas := make([]float64, len(thetasPi))
	for i, t := range thetasPi {
		thetas[i] = t * math.Pi
	}
	return thetas, nil
}
