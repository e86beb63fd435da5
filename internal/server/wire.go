package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"fullview/internal/core"
	"fullview/internal/depjournal"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/jsonlog"
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

// The /query body is appended by hand rather than through
// encoding/json: no reflection, and no per-point verdict slice. The
// functions below write exactly the bytes json.Marshal writes for the
// queryResponse, pointResultJSON and thetaVerdictJSON structs above,
// which stay the schema clients decode into; FuzzQueryEncoding pins the
// byte-identity.

// queryTail closes the results array and the response object; the
// trailing newline is the one json.Encoder.Encode writes.
const queryTail = "]}\n"

// appendQueryHead appends the response object's opening up to and
// including the results array's '['.
func appendQueryHead(dst []byte, id string, version uint64) []byte {
	quoted, _ := json.Marshal(id)
	dst = append(dst, `{"id":`...)
	dst = append(dst, quoted...)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, version, 10)
	return append(dst, `,"results":[`...)
}

// appendThetaHeads formats each requested θ once per request: the
// verdict object's opening up to its "fullView" value. The heads share
// one buffer sized for the longest float (24 bytes).
func appendThetaHeads(thetasPi []float64) [][]byte {
	heads := make([][]byte, len(thetasPi))
	buf := make([]byte, 0, 48*len(thetasPi))
	for j, tp := range thetasPi {
		start := len(buf)
		buf = append(buf, `{"thetaPi":`...)
		buf = appendJSONFloat(buf, tp)
		buf = append(buf, `,"fullView":`...)
		heads[j] = buf[start:]
	}
	return heads
}

// perPointBytes sizes one point's result JSON with k verdicts: with
// 17-digit floats the point object is about 110 bytes and a verdict
// about 72. A longer result only costs the buffer a growth.
func perPointBytes(k int) int { return 128 + 80*k }

// appendPointResult appends one point's result object: the point as
// requested, the θ-independent quantities, and one verdict per θ of
// heads (from appendThetaHeads, in the same order as rep.PerTheta).
func appendPointResult(dst []byte, p pointJSON, rep core.MultiReport, heads [][]byte) []byte {
	dst = append(dst, `{"point":{"x":`...)
	dst = appendJSONFloat(dst, p.X)
	dst = append(dst, `,"y":`...)
	dst = appendJSONFloat(dst, p.Y)
	dst = append(dst, `},"numCovering":`...)
	dst = strconv.AppendInt(dst, int64(rep.NumCovering), 10)
	dst = append(dst, `,"maxGap":`...)
	dst = appendJSONFloat(dst, rep.MaxGap)
	dst = append(dst, `,"perTheta":[`...)
	for j, v := range rep.PerTheta {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, heads[j]...)
		dst = strconv.AppendBool(dst, v.FullView)
		dst = append(dst, `,"necessary":`...)
		dst = strconv.AppendBool(dst, v.Necessary)
		dst = append(dst, `,"sufficient":`...)
		dst = strconv.AppendBool(dst, v.Sufficient)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendJSONFloat appends a finite float64 the way encoding/json does:
// the shortest round-tripping decimal, in 'f' form except below 1e-6
// or at or above 1e21 (in magnitude), where it is 'e' form with a
// two-digit negative exponent trimmed to one digit (e-09 → e-9).
// NaN and ±Inf never reach it: the request decoder refuses them and the
// kernel's outputs are finite.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
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

// decodeBody reads the capped request body and strictly decodes it
// into dst with jsonlog.Decode, the rule the router's placement key
// also applies: unknown fields (almost always a misspelt parameter) and
// anything but whitespace after the document are refused, so a
// malformed request fails loudly instead of running with defaults.
func (s *Server) decodeBody(r *http.Request, dst any) error {
	body, err := s.readBody(r)
	if err != nil {
		return err
	}
	return jsonlog.Decode(body, dst)
}

// readBody reads the whole request body, which the caller has capped
// with http.MaxBytesReader at MaxBodyBytes. The buffer is sized from
// Content-Length when that is within the cap, so a request of declared
// length is read into one allocation.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	size := 512
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBodyBytes {
		size = int(n) + 1 // the extra byte reads io.EOF without growing
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
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
