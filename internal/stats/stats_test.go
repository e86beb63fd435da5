package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Variance != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 || s.Variance != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Σ(x−5)² = 32; unbiased variance = 32/7.
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance, 32.0/7)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeStability(t *testing.T) {
	// Large offset with tiny variance: naive two-pass Σx² would lose
	// everything; Welford must not.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1e9 + float64(i%2) // alternates 1e9, 1e9+1
	}
	s := Summarize(xs)
	if math.Abs(s.Variance-0.25025) > 1e-3 {
		t.Errorf("Variance = %v, want ≈ 0.2503", s.Variance)
	}
}

func TestSummaryMinMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		s := Summarize(clean)
		if s.N != len(clean) {
			return false
		}
		for _, x := range clean {
			if x < s.Min || x > s.Max {
				return false
			}
		}
		return len(clean) == 0 || (s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProportion(t *testing.T) {
	if got := Proportion(3, 4); got != 0.75 {
		t.Errorf("Proportion = %v", got)
	}
	if got := Proportion(0, 0); got != 0 {
		t.Errorf("Proportion(0,0) = %v", got)
	}
}

func TestWilsonIntervalKnownValue(t *testing.T) {
	// 8/10 successes at 95%: Wilson interval ≈ [0.490, 0.943].
	lo, hi, err := WilsonInterval(8, 10, Z95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-0.4901) > 0.005 || math.Abs(hi-0.9433) > 0.005 {
		t.Errorf("Wilson(8/10) = [%v, %v], want ≈ [0.490, 0.943]", lo, hi)
	}
}

func TestWilsonIntervalEdges(t *testing.T) {
	// All failures: lower bound exactly 0, upper bound strictly above 0.
	lo, hi, err := WilsonInterval(0, 20, Z95)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi <= 0 || hi > 0.3 {
		t.Errorf("Wilson(0/20) = [%v, %v]", lo, hi)
	}
	// All successes: upper bound 1 (after clamping center+half), lower < 1.
	lo, hi, err = WilsonInterval(20, 20, Z95)
	if err != nil {
		t.Fatal(err)
	}
	if hi > 1 || lo >= 1 || lo < 0.7 {
		t.Errorf("Wilson(20/20) = [%v, %v]", lo, hi)
	}
	// Empty sample: the non-informative [0, 1].
	lo, hi, err = WilsonInterval(0, 0, Z95)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != 1 {
		t.Errorf("Wilson(0/0) = [%v, %v]", lo, hi)
	}
}

func TestWilsonIntervalClampsSuccesses(t *testing.T) {
	lo, hi, err := WilsonInterval(25, 20, Z95)
	if err != nil {
		t.Fatal(err)
	}
	lo2, hi2, err := WilsonInterval(20, 20, Z95)
	if err != nil {
		t.Fatal(err)
	}
	if lo != lo2 || hi != hi2 {
		t.Error("overflowing successes should clamp to n")
	}
}

func TestWilsonIntervalInvalidZ(t *testing.T) {
	for _, z := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, _, err := WilsonInterval(1, 2, z); !errors.Is(err, ErrBadZ) {
			t.Errorf("z=%v: error = %v, want ErrBadZ", z, err)
		}
	}
}

func TestWilsonIntervalContainsProportionProperty(t *testing.T) {
	f := func(rawS, rawN uint16) bool {
		n := int(rawN%1000) + 1
		s := int(rawS) % (n + 1)
		lo, hi, err := WilsonInterval(s, n, Z95)
		if err != nil {
			return false
		}
		p := float64(s) / float64(n)
		return lo <= p+1e-12 && hi >= p-1e-12 && lo >= 0 && hi <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 10; i++ {
		c.Add(i < 7)
	}
	if c.Successes() != 7 || c.total != 10 {
		t.Errorf("counter = %d/%d", c.Successes(), c.total)
	}
	if c.Fraction() != 0.7 {
		t.Errorf("Fraction = %v", c.Fraction())
	}
	lo, hi := c.Wilson95()
	if lo >= 0.7 || hi <= 0.7 {
		t.Errorf("Wilson95 = [%v, %v] excludes 0.7", lo, hi)
	}
	c.AddN(3, 5)
	if c.Successes() != 10 || c.total != 15 {
		t.Errorf("after AddN: %d/%d", c.Successes(), c.total)
	}
	if c.String() == "" {
		t.Error("String empty")
	}
}
