package jobs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// TestSweepJobEqualsWholeGridSurveys holds a multi-θ sweep job, run in
// fused row groups, to the whole-grid surveys it replaces, bit for bit:
// one one-θ Checker.SurveyRegion per θ, and one MultiChecker survey of
// the whole grid as a single row. It covers worker counts 1, 2 and 3,
// grids that are not a multiple of the group size (7 = 4+3 rows; 200 =
// 82+82+36 rows), and a resume from a journal holding only part of the
// first group, written with one-θ row surveys.
func TestSweepJobEqualsWholeGridSurveys(t *testing.T) {
	net := testNet(t, 200, 41)
	thetasPi := []float64{0.2, 0.25, 0.5}
	for _, grid := range []int{7, 200} {
		points, err := deploy.GridPoints(geom.UnitTorus, grid)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]core.RegionStats, len(thetasPi))
		thetas := make([]float64, len(thetasPi))
		for i, tp := range thetasPi {
			thetas[i] = tp * math.Pi
			c, err := core.NewChecker(net, thetas[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = c.SurveyRegion(points)
		}
		mc, err := core.NewMultiChecker(net, thetas)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := mc.SurveyRowsContext(context.Background(), points, len(points), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if whole[i] != want[i] {
				t.Fatalf("grid %d slot %d: MultiChecker whole grid %+v != Checker %+v", grid, i, whole[i], want[i])
			}
		}

		for _, workers := range []int{1, 2, 3} {
			spec := Spec{Kind: KindSweep, Deployment: "dep", ThetasPi: thetasPi, Grid: grid, Workers: workers}
			t.Run(fmt.Sprintf("grid%d/workers%d/fresh", grid, workers), func(t *testing.T) {
				m := newManager(t, Config{}, realExec(t, net))
				m.Start()
				snap, err := m.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				final := waitTerminal(t, m, snap.ID)
				checkSweepResult(t, final, want)
				if m.BandsDone() != int64(spec.Bands()) {
					t.Fatalf("computed %d bands, want %d", m.BandsDone(), spec.Bands())
				}
			})
			t.Run(fmt.Sprintf("grid%d/workers%d/resumed", grid, workers), func(t *testing.T) {
				dir := t.TempDir()
				// Part of the first group, across every slot: rows 0 and
				// 2 of slot 0, row 1 of slot 1, row 3 of slot 2.
				journaled := []int{0, 2, grid + 1, 2*grid + 3}
				writePartialJournal(t, dir, "job-partial", net, spec, points, journaled)
				m := newManager(t, Config{Dir: dir}, realExec(t, net))
				m.Start()
				final := waitTerminal(t, m, "job-partial")
				if !final.Resumed {
					t.Fatal("job did not resume from its journal")
				}
				checkSweepResult(t, final, want)
				if got, wantN := m.BandsDone(), int64(spec.Bands()-len(journaled)); got != wantN {
					t.Fatalf("resumed job computed %d bands, want only the %d missing ones", got, wantN)
				}
			})
		}
	}
}

func checkSweepResult(t *testing.T, final Snapshot, want []core.RegionStats) {
	t.Helper()
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Err)
	}
	if final.BandsDone != final.Bands {
		t.Fatalf("done job reports %d of %d bands", final.BandsDone, final.Bands)
	}
	for i := range want {
		if final.Result.Stats[i] != want[i] {
			t.Fatalf("slot %d: job %+v != whole-grid survey %+v", i, final.Result.Stats[i], want[i])
		}
	}
}

// writePartialJournal writes the journal an interrupted earlier run
// would leave: the header and the given bands, each a one-θ
// Checker.SurveyRegion of its row alone.
func writePartialJournal(t *testing.T, dir, id string, net *sensor.Network, spec Spec, points []geom.Vec, bands []int) {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(mustLine(t, header{Version: Version, Kind: FileKind, ID: id, CreatedNS: time.Now().UnixNano(), Spec: spec}))
	for _, band := range bands {
		c, err := core.NewChecker(net, spec.ThetasPi[spec.Slot(band)]*math.Pi)
		if err != nil {
			t.Fatal(err)
		}
		row := spec.Row(band)
		stats := c.SurveyRegion(points[row*spec.Grid : (row+1)*spec.Grid])
		buf.Write(mustLine(t, record{Band: intp(band), Stats: &stats}))
	}
	if err := os.WriteFile(filepath.Join(dir, id+fileSuffix), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
