package retry

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"
	"time"
)

func TestBackoff(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		base, limit time.Duration
		attempt     int
		want        time.Duration
	}{
		{10 * ms, 50 * ms, 0, 10 * ms},
		{10 * ms, 50 * ms, 1, 20 * ms},
		{10 * ms, 50 * ms, 2, 40 * ms},
		{10 * ms, 50 * ms, 3, 50 * ms}, // capped
		{10 * ms, 50 * ms, 4, 50 * ms},
		{10 * ms, 50 * ms, 1000, 50 * ms},
		{100 * ms, 400 * ms, 2, 400 * ms},
		{0, 50 * ms, 3, 0},
		{-ms, 50 * ms, 3, 0},
		{time.Second, 0, 10, 1024 * time.Second}, // uncapped
		{time.Second, -1, 10, 1024 * time.Second},
		{time.Second, 0, 200, math.MaxInt64}, // saturates, never negative
	} {
		if got := Backoff(tc.base, tc.limit, tc.attempt); got != tc.want {
			t.Errorf("Backoff(%s, %s, %d) = %s, want %s", tc.base, tc.limit, tc.attempt, got, tc.want)
		}
	}
}

func TestJitter(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		frac float64
	}{
		{100 * time.Millisecond, 0.5}, // the router: [d/2, 3d/2)
		{400 * time.Millisecond, 0.5},
		{25 * time.Millisecond, 0.2}, // job bands: ±20%
		{250 * time.Millisecond, 0.2},
	} {
		lo := time.Duration(float64(tc.d) * (1 - tc.frac))
		hi := time.Duration(float64(tc.d) * (1 + tc.frac))
		seen := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			got := Jitter(tc.d, tc.frac)
			if got < lo || got >= hi {
				t.Fatalf("Jitter(%s, %v) = %s outside [%s, %s)", tc.d, tc.frac, got, lo, hi)
			}
			seen[got] = true
		}
		if len(seen) < 2 {
			t.Fatalf("Jitter(%s, %v) never varied", tc.d, tc.frac)
		}
	}
	for _, d := range []time.Duration{0, -time.Second, 1} {
		if got := Jitter(d, 0.2); got != d {
			t.Errorf("Jitter(%s, 0.2) = %s, want it unchanged", d, got)
		}
	}
}

// TestAfter pins the Retry-After contract shared by every retryable
// rejection: a 1-second base jittered ±20%, emitted as parseable
// fractional seconds.
func TestAfter(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		s := After()
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("After() = %q is not a number: %v", s, err)
		}
		if v < 0.80 || v > 1.20 {
			t.Fatalf("After() = %q outside the ±20%% band around 1s", s)
		}
		if d, ok := ParseAfter(s); !ok || d != time.Duration(v*float64(time.Second)) {
			t.Fatalf("ParseAfter(%q) = %s, %v", s, d, ok)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatal("After() never varied across 200 draws; jitter missing")
	}
}

func TestParseAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"0.25", 250 * time.Millisecond},
		{"2", 2 * time.Second},
		{" 0.5\t", 500 * time.Millisecond},
		{"0", 0},
	} {
		if got, ok := ParseAfter(tc.in); !ok || got != tc.want {
			t.Errorf("ParseAfter(%q) = %s, %v; want %s", tc.in, got, ok, tc.want)
		}
	}
	for _, garbage := range []string{"", "soon", "-1", "1h", "NaN", "Inf", "1e300"} {
		if got, ok := ParseAfter(garbage); ok {
			t.Errorf("ParseAfter(%q) = %s, want the fallback", garbage, got)
		}
	}
}

func TestSleep(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a cancelled context = %v", err)
	}
	if err := Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep(0) on a cancelled context = %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("cancelled Sleep took %s", el)
	}
}
