package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"fullview/internal/jsonlog"
	"fullview/internal/rng"
)

// bulkQueryBody is a query-bulk-shaped /query body: n uniform points
// and a 4-entry θ-list, as json.Marshal renders them.
func bulkQueryBody(tb testing.TB, n int) []byte {
	tb.Helper()
	g := rng.New(1, 0)
	req := queryRequest{ThetasPi: []float64{0.125, 0.25, 0.375, 0.5}, Points: make([]pointJSON, n)}
	for i := range req.Points {
		req.Points[i] = pointJSON{X: g.Float64(), Y: g.Float64()}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sameFloats reports whether a and b hold bit-identical values (so −0
// differs from 0) and are both nil or both non-nil.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samePoints is sameFloats for point lists.
func samePoints(a, b []pointJSON) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameFloats([]float64{a[i].X, a[i].Y}, []float64{b[i].X, b[i].Y}) {
			return false
		}
	}
	return true
}

// queryDecodeCap is the body cap of FuzzQueryDecode's servers, small
// enough for a seed to pass it.
const queryDecodeCap = 2048

// FuzzQueryDecode pins the /query scanner to its fallback: for any
// bytes, scanQuery either declines or jsonlog.Decode accepts them too
// and yields bit-identical thetasPi and points; and the /query handler
// answers every input with the status and body of the fallback-only
// path.
func FuzzQueryDecode(f *testing.F) {
	const valid = `{"thetasPi":[0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9}]}`
	for _, seed := range []string{
		valid,
		`{"points":[{"y":0.5,"x":0.25}],"thetasPi":[0.25]}`,
		`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}],"extra":1}`,
		`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5,"z":1}]}`,
		valid + `}`,
		valid + `]`,
		`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]}]]]garbage`,
		valid + ` {}`,
		`null`,
		`{"thetasPi":null,"points":null}`,
		`{"thetasPi":[0.25],"points":[null]}`,
		`{"thetasPi":[0.25],"points":[{"x":null,"y":0.5}]}`,
		`{}`,
		`{"thetasPi":[],"points":[]}`,
		`{"thetasPi":[0.25],"points":[{}]}`,
		`{"thetasPi":[0.25],"points":[{"x":1e400,"y":0.5}]}`,
		`{"thetasPi":[0.25],"points":[{"x":1e-400,"y":-0}]}`,
		`{"thetasPi":[-0,0.25],"points":[{"x":-0.0,"y":0E0}]}`,
		`{"thetasPi":[0.25],"thetasPi":[0.5],"points":[{"x":0.5,"y":0.5}]}`,
		`{"thetasPi":[0.25],"points":[{"x":0.5,"x":0.25,"y":0.5}]}`,
		`{"thetasPi":[0.25],"points":[{"x":1,"y":2}],"points":[{"y":5}]}`,
		`{"thetasPi":[0.25],"points":[{"X":0.5,"Y":0.5}]}`,
		`{"thetaſPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`,
		`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`,
		`{"thetasPi":[0.25],"points":[{"x":"0.5","y":0.5}]}`,
		`{"thetasPi":[0.25],"points":[{"x":01,"y":.5}]}`,
		`{"thetasPi":[1.],"points":[{"x":1e,"y":+1}]}`,
		"\n{\n  \"thetasPi\": [\n    0.25\n  ],\n  \"points\": [\n    {\n      \"x\": 0.5,\n      \"y\": 0.5\n    }\n  ]\n}\n",
		"\t{ \"thetasPi\" : [ 0.25 , 0.5 ] ,\r\n \"points\" : [ { \"x\" : 0.5 , \"y\" : 0.5 } ] }  ",
		`{"thetasPi":[0.25],"points":[` + strings.Repeat(`{"x":0.5,"y":0.5},`, queryDecodeCap/18) + `{"x":0.5,"y":0.5}]}`,
		valid + strings.Repeat(" ", queryDecodeCap),
	} {
		f.Add([]byte(seed))
	}

	newServer := func(noScan bool) (http.Handler, string) {
		srv := mustNew(f, Config{MaxBodyBytes: queryDecodeCap})
		srv.testNoQueryScan = noScan
		h := srv.Handler()
		rec := do(f, h, "POST", "/v1/deployments", []byte(`{"profile":"`+testProfile+`","n":40,"seed":3}`))
		var reg registerResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil || reg.ID == "" {
			f.Fatalf("register: %d %s", rec.Code, rec.Body.String())
		}
		return h, "/v1/deployments/" + reg.ID + "/query"
	}
	scan, path := newServer(false)
	fallback, _ := newServer(true)

	f.Fuzz(func(t *testing.T, data []byte) {
		if got, ok := scanQuery(data); ok {
			var want queryRequest
			if err := jsonlog.Decode(data, &want); err != nil {
				t.Fatalf("scanner accepted %q, jsonlog.Decode refused it: %v", data, err)
			}
			if !sameFloats(got.ThetasPi, want.ThetasPi) || !samePoints(got.Points, want.Points) {
				t.Fatalf("%q: scanner %+v, jsonlog.Decode %+v", data, got, want)
			}
		}
		got, want := do(t, scan, "POST", path, data), do(t, fallback, "POST", path, data)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%q: handler answered %d %s, fallback-only %d %s",
				data, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	})
}

// TestQueryScanAccepts pins which bodies take the scanner's path: a
// bench-shaped body, pretty-printed and reordered bodies are scanned,
// and each quirk encoding/json has an answer for is declined.
func TestQueryScanAccepts(t *testing.T) {
	for body, want := range map[string]bool{
		string(bulkQueryBody(t, 8)): true,
		"{\n \"points\": [ {\"y\": -0, \"x\": 1E-3} ],\n \"thetasPi\": [0.25]\n}\n": true,
		`{"thetasPi":[0.25],"points":[{}]}`:                                         true,
		`{"thetaſPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`:                          false,
		`{"thetasPi":[0.25],"points":[null]}`:                                       false,
		`{"thetasPi":[0.25],"points":[{"x":1,"y":2}],"points":[{"y":5}]}`:           false,
		`{"thetasPi":[0.25],"points":[{"X":0.5,"y":0.5}]}`:                          false,
		`{"thetasPi":[0.25],"points":[{"x":1e400,"y":0.5}]}`:                        false,
		`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]} x`:                        false,
	} {
		if _, ok := scanQuery([]byte(body)); ok != want {
			t.Errorf("scanQuery(%s) accepted = %v, want %v", body, ok, want)
		}
	}
}

// TestQueryDecodeAllocs pins the scanner's allocations: a decode
// allocates its cursor once plus the growth of its thetasPi and points
// slices, and nothing per point or per number — at 1024 points as at
// 256.
func TestQueryDecodeAllocs(t *testing.T) {
	const perRequest = 1 // the cursor, which escapes through scanList's elem call
	for _, n := range []int{256, 1024} {
		body := bulkQueryBody(t, n)
		growth := testing.AllocsPerRun(10, func() {
			var thetas []float64
			for i := 0; i < 4; i++ {
				thetas = append(thetas, 0)
			}
			var points []pointJSON
			for i := 0; i < n; i++ {
				points = append(points, pointJSON{})
			}
		})
		allocs := testing.AllocsPerRun(10, func() {
			if _, ok := scanQuery(body); !ok {
				t.Fatal("scanner declined a bench-shaped body")
			}
		})
		if allocs > growth+perRequest {
			t.Errorf("%d-point scan allocates %.0f; slice growth is %.0f, plus %d per request",
				n, allocs, growth, perRequest)
		}
	}
}

// BenchmarkQueryDecode times the /query decode of a query-bulk-shaped
// body (1024 points × 4 θ, about 50 KB) through the scanner and through
// the jsonlog.Decode fallback.
func BenchmarkQueryDecode(b *testing.B) {
	body := bulkQueryBody(b, 1024)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := scanQuery(body); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("fallback", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req queryRequest
			if err := jsonlog.Decode(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
