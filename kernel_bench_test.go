// Micro-benchmarks of the per-point coverage kernel, shared with the
// standalone harness (`fvcbench -kernelbench`) through
// internal/kernelbench so that `go test -bench` numbers and the
// committed BENCH_*.json trajectory measure the same code. One
// iteration evaluates one point, so ns/op etc. read as per-point costs.
//
// Run with:
//
//	go test -run NONE -bench 'BenchmarkFullView|BenchmarkSectorOccupancy|BenchmarkCountCovering' -benchmem
package fullview_test

import (
	"testing"

	"fullview/internal/kernelbench"
)

func benchKernelCase(b *testing.B, name string) {
	b.Helper()
	for _, c := range kernelbench.Cases() {
		if c.Name != name {
			continue
		}
		fn, err := c.Setup()
		if err != nil {
			b.Fatal(err)
		}
		fn(0) // reach buffer steady state before measuring
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn(i)
		}
		// Batch cases evaluate PointsPerOp points per iteration; report
		// the per-point cost explicitly so they read on the same scale
		// as their point-at-a-time twins.
		if pts := c.PointsPerOp(); pts > 1 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(pts)), "ns/point")
		}
		return
	}
	b.Fatalf("kernelbench: no case named %q", name)
}

func BenchmarkFullViewHomog1000(b *testing.B)  { benchKernelCase(b, "FullViewHomog1000") }
func BenchmarkFullViewHet1000(b *testing.B)    { benchKernelCase(b, "FullViewHet1000") }
func BenchmarkFullViewReport1000(b *testing.B) { benchKernelCase(b, "FullViewReport1000") }
func BenchmarkFullViewMultiTheta1000(b *testing.B) {
	benchKernelCase(b, "FullViewMultiTheta1000")
}
func BenchmarkSectorOccupancy1000(b *testing.B)  { benchKernelCase(b, "SectorOccupancy1000") }
func BenchmarkCountCoveringHet1000(b *testing.B) { benchKernelCase(b, "CountCoveringHet1000") }

func BenchmarkFullViewMultiTheta1000Batch(b *testing.B) {
	benchKernelCase(b, "FullViewMultiTheta1000Batch")
}
func BenchmarkSectorOccupancy1000Batch(b *testing.B) {
	benchKernelCase(b, "SectorOccupancy1000Batch")
}
func BenchmarkSurveyHet1000Batch(b *testing.B) { benchKernelCase(b, "SurveyHet1000Batch") }
