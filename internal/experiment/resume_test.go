package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"fullview/internal/checkpoint"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/sweep"
)

func resumeWorkerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// syntheticTrial is a cheap deterministic trial: a few RNG draws folded
// into floats, JSON-round-trippable, distinct per trial.
type syntheticTrial struct {
	Trial int       `json:"trial"`
	Sum   float64   `json:"sum"`
	Draws []float64 `json:"draws"`
}

func syntheticFn(trial int, r *rng.PCG) (syntheticTrial, error) {
	out := syntheticTrial{Trial: trial}
	for k := 0; k < 5; k++ {
		d := r.Float64()
		out.Draws = append(out.Draws, d)
		out.Sum += d * math.Pi
	}
	return out, nil
}

func TestRunResumableKillAndResume(t *testing.T) {
	const (
		seed   = uint64(77)
		trials = 40
		killAt = 13
	)
	for _, workers := range resumeWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			baseline, err := Run(seed, trials, workers, syntheticFn)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.jsonl")
			header := checkpoint.Header{Kind: "test/synthetic", Seed: seed, Trials: trials}

			// Phase 1: "kill" the run by cancelling the context once
			// killAt trials have completed.
			journal, err := checkpoint.Open(path, header)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var completed atomic.Int64
			_, err = RunResumable(ctx, journal, seed, trials, workers,
				func(trial int, r *rng.PCG) (syntheticTrial, error) {
					out, err := syntheticFn(trial, r)
					if completed.Add(1) >= killAt {
						cancel()
					}
					return out, err
				})
			if err == nil {
				t.Fatal("interrupted run returned no error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run error = %v", err)
			}
			journal.Close()

			// The journal on disk must be parseable and resumable
			// (cancellation mid-checkpoint leaves intact state).
			resumedJournal, err := checkpoint.Open(path, header)
			if err != nil {
				t.Fatalf("reopen journal after kill: %v", err)
			}
			done := resumedJournal.Len()
			if done == 0 || done >= trials {
				t.Fatalf("journal holds %d of %d trials after kill", done, trials)
			}

			// Phase 2: resume. Only the missing trials may execute.
			var reexecuted atomic.Int64
			results, err := RunResumable(context.Background(), resumedJournal, seed, trials, workers,
				func(trial int, r *rng.PCG) (syntheticTrial, error) {
					reexecuted.Add(1)
					if resumedJournal.Done(trial) {
						t.Errorf("trial %d re-executed despite journal entry", trial)
					}
					return syntheticFn(trial, r)
				})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := int(reexecuted.Load()), trials-done; got != want {
				t.Errorf("resumed run executed %d trials, want %d", got, want)
			}
			if !reflect.DeepEqual(results, baseline) {
				t.Error("resumed results differ from uninterrupted run")
			}
			if !resumedJournal.Complete() {
				t.Error("journal incomplete after successful resume")
			}
		})
	}
}

func TestRunResumableJournalTrialsMismatch(t *testing.T) {
	journal, err := checkpoint.Open(filepath.Join(t.TempDir(), "run.jsonl"),
		checkpoint.Header{Kind: "test", Seed: 1, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunResumable(context.Background(), journal, 1, 6, 1, syntheticFn)
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

func testConfig() Config {
	profile, err := sensor.Homogeneous(0.22, math.Pi/2)
	if err != nil {
		panic(err)
	}
	return Config{N: 60, Theta: math.Pi / 3, Profile: profile}
}

func TestRunGridCheckpointBitIdentical(t *testing.T) {
	const (
		seed     = uint64(2012)
		trials   = 6
		gridSide = 12
	)
	cfg := testConfig()
	for _, workers := range resumeWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			baseline, err := RunGrid(cfg, gridSide, trials, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "grid.jsonl")

			// Simulate a killed run deterministically: journal a strict
			// subset of trials exactly as a partial run would have, using
			// the same per-trial (seed, i) streams.
			prepCfg, points, side, err := gridPrep(cfg, gridSide)
			if err != nil {
				t.Fatal(err)
			}
			partial, err := checkpoint.Open(path, checkpoint.Header{
				Kind:   "experiment/grid",
				Seed:   seed,
				Trials: trials,
				Params: fmt.Sprintf("%s grid=%d", prepCfg.fingerprint(), side),
			})
			if err != nil {
				t.Fatal(err)
			}
			fn := gridTrial(prepCfg, points, trials, workers)
			for _, i := range []int{0, 2, 4} {
				res, err := fn(i, rng.New(seed, uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				if err := partial.Record(i, res); err != nil {
					t.Fatal(err)
				}
			}
			partial.Close()

			// Resume: only trials 1, 3, 5 run; the outcome must match the
			// uninterrupted baseline bit for bit.
			out, err := RunGridCheckpoint(context.Background(), path, cfg, gridSide, trials, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out, baseline) {
				t.Errorf("checkpointed outcome differs from RunGrid:\n got %+v\nwant %+v", out, baseline)
			}

			// Re-running over the complete journal recomputes nothing and
			// still reproduces the outcome.
			again, err := RunGridCheckpoint(context.Background(), path, cfg, gridSide, trials, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, baseline) {
				t.Error("outcome from fully-journaled run differs")
			}
		})
	}
}

func TestRunGridCheckpointMismatchRefused(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	if _, err := RunGridCheckpoint(context.Background(), path, cfg, 8, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Different seed, N, and grid side must all refuse the journal.
	if _, err := RunGridCheckpoint(context.Background(), path, cfg, 8, 2, 1, 2); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("seed change: %v", err)
	}
	cfg2 := cfg
	cfg2.N = 61
	if _, err := RunGridCheckpoint(context.Background(), path, cfg2, 8, 2, 1, 1); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("config change: %v", err)
	}
	if _, err := RunGridCheckpoint(context.Background(), path, cfg, 9, 2, 1, 1); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("grid change: %v", err)
	}
}

func TestRunPointsCheckpointBitIdentical(t *testing.T) {
	const (
		seed           = uint64(9)
		trials         = 5
		pointsPerTrial = 50
	)
	cfg := testConfig()
	for _, workers := range resumeWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			one := []float64{cfg.Theta}
			outs, err := RunPointsThetas(cfg, one, pointsPerTrial, trials, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			baseline := outs[0]
			path := filepath.Join(t.TempDir(), "points.jsonl")
			outs, err = RunPointsThetasCheckpoint(context.Background(), path, cfg, one, pointsPerTrial, trials, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(outs[0], baseline) {
				t.Errorf("checkpointed outcome differs from the one-θ run:\n got %+v\nwant %+v", outs[0], baseline)
			}
			// Resume over the full journal: no recomputation, same result.
			again, err := RunPointsThetasCheckpoint(context.Background(), path, cfg, one, pointsPerTrial, trials, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again[0], baseline) {
				t.Error("outcome from fully-journaled run differs")
			}

			// The 3-angle row: the fused runner checkpoints bit-identically
			// too, fresh and fully journaled, and its cfg.Theta outcome is
			// the one-θ baseline.
			thetas := []float64{math.Pi / 4, cfg.Theta, math.Pi / 2}
			multi, err := RunPointsThetas(cfg, thetas, pointsPerTrial, trials, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(multi[1], baseline) {
				t.Errorf("3-angle outcome at cfg.Theta differs from the one-θ run:\n got %+v\nwant %+v", multi[1], baseline)
			}
			multiPath := filepath.Join(t.TempDir(), "points-thetas.jsonl")
			for _, pass := range []string{"fresh", "fully journaled"} {
				got, err := RunPointsThetasCheckpoint(context.Background(), multiPath, cfg, thetas,
					pointsPerTrial, trials, workers, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, multi) {
					t.Errorf("%s 3-angle checkpointed outcome differs from RunPointsThetas", pass)
				}
			}
		})
	}
}

// TestRunPointsCheckpointRefusesSingleThetaJournal: the one-θ
// RunPointsThetasCheckpoint journals as "experiment/point-thetas", so a
// journal of the older "experiment/point" kind (the fixture, a complete
// run of the golden uniform cell) is refused with ErrMismatch and left
// byte-identical rather than resumed or rewritten.
func TestRunPointsCheckpointRefusesSingleThetaJournal(t *testing.T) {
	fixture, err := os.ReadFile("testdata/point_single_theta_journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fixture, []byte(`"kind":"experiment/point"`)) {
		t.Fatal("fixture is not an experiment/point journal")
	}
	path := filepath.Join(t.TempDir(), "points.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := goldenPointConfigs(t)["uniform"]
	_, err = RunPointsThetasCheckpoint(context.Background(), path, cfg, []float64{cfg.Theta},
		goldenPointsPerTrial, goldenTrials, 1, goldenSeed)
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("error = %v, want checkpoint.ErrMismatch", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, fixture) {
		t.Error("refused journal was modified")
	}
}

// TestTrialPanicSurfacesAsPanicError is the experiment-level guarantee:
// a panicking trial aborts the run with a structured *sweep.PanicError
// carrying the trial index — the process does not crash — at every
// tested worker count.
func TestTrialPanicSurfacesAsPanicError(t *testing.T) {
	const badTrial = 3
	for _, workers := range resumeWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, err := Run(42, 8, workers, func(trial int, r *rng.PCG) (int, error) {
				if trial == badTrial {
					panic("injected trial panic")
				}
				return trial, nil
			})
			var pe *sweep.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("want *sweep.PanicError, got %v", err)
			}
			if pe.Item != badTrial {
				t.Errorf("PanicError.Item = %d, want %d", pe.Item, badTrial)
			}
			if len(pe.Stack) == 0 {
				t.Error("PanicError.Stack empty")
			}
		})
	}
}
