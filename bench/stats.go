package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a tail metric may report, lowest
// first.
var tailCandidates = []float64{0.90, 0.95, 0.99, 0.999}

// tailBeyond is how many samples must lie beyond a percentile for it to
// count as measured rather than read off a handful of outliers.
const tailBeyond = 10

// tailPercentile returns the highest candidate percentile that leaves at
// least tailBeyond of n samples beyond it, or 0 when even p90 does not.
// Each workload's tail percentile is this rule applied once at its
// calibrated sample count and then frozen (workload.tail), so a run with
// a few samples more or less still reports the same percentile.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailCandidates {
		if n-nearestRank(n, q) >= tailBeyond {
			best = q
		}
	}
	return best
}

// nearestRank is the 1-based rank of the q-quantile of n samples: the
// smallest rank with at least q·n samples at or below it. The epsilon
// keeps q·n from rounding up past an exact integer (0.9·100 is
// 90.00000000000001 in floating point).
func nearestRank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of sorted values: the
// smallest value with at least q·n values at or below it. Failed
// requests enter the slice as +Inf, so they count as missing any
// latency limit. An empty slice yields NaN.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := nearestRank(n, q) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// sortedCopy returns values sorted ascending, leaving values untouched.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// median is the middle of values (mean of the two middles for an even
// count), or NaN when values is empty.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean is the arithmetic mean of values, or NaN when values is empty.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles returns the first and third quartile of values by the
// exclusive method of Python's statistics.quantiles(values, n=4) — the
// rule the benchmark's acceptance spread is defined with, so the spread
// -repeat prints is the one that is judged.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j·(n+1)/4 in 1-based ranks, clamped to the data.
		m := float64(n + 1)
		pos := float64(j) * m / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// selfTime returns a span's duration minus the time its child spans
// cover: a layer's own time once the layers it called are removed.
// Children that overlap each other (retries, concurrent attempts) count
// their union once. Children are not clipped to the parent, so a child
// recorded as sticking out of its parent — a span boundary placed on the
// wrong side of a call — shows up as a negative self time instead of
// being hidden.
func selfTime(start, end int64, children [][2]int64) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		if c[1] > c[0] {
			ivs = append(ivs, c)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			covered += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return end - start - covered
}
