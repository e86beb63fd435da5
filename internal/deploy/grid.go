package deploy

import (
	"fmt"
	"math"

	"fullview/internal/geom"
)

// GridPoints returns the k×k square lattice of points on torus t, cell
// centres at ((i+½)·side/k, (j+½)·side/k) (geom.Torus.GridCoord), row
// by row: point i·k+j is (GridCoord(k, i), GridCoord(k, j)). Centre
// alignment keeps all points interior so no point coincides with its
// wrapped image.
func GridPoints(t geom.Torus, k int) ([]geom.Vec, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadGridSide, k)
	}
	points := make([]geom.Vec, 0, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			points = append(points, geom.V(t.GridCoord(k, i), t.GridCoord(k, j)))
		}
	}
	return points, nil
}

// DenseGridSide returns the side k of the smallest k×k grid with at
// least m = n·ln n points — the paper's dense grid M (Section III-A,
// following Kumar et al. [6]: m ≥ n log n grid points suffice to carry
// area coverage over to the whole square).
func DenseGridSide(n int) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("%w: got n = %d", ErrSmallPopulation, n)
	}
	m := float64(n) * math.Log(float64(n))
	return int(math.Ceil(math.Sqrt(m))), nil
}

// DenseGrid returns the paper's √m×√m dense grid for a deployment of n
// sensors on torus t.
func DenseGrid(t geom.Torus, n int) ([]geom.Vec, error) {
	k, err := DenseGridSide(n)
	if err != nil {
		return nil, err
	}
	return GridPoints(t, k)
}
