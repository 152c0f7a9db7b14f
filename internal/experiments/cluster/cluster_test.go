package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistanceProperties(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		p := Point{0: int(a1), 1: int(a2)}
		q := Point{0: int(b1), 1: int(b2)}
		if Distance(p, p) != 0 || Distance(q, q) != 0 {
			return false
		}
		return Distance(p, q) == Distance(q, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceCounts(t *testing.T) {
	a := Point{0: 1, 1: 2, 2: 3}
	b := Point{0: 1, 1: 9, 2: 8}
	if got := Distance(a, b); got != 2 {
		t.Errorf("Distance = %d, want 2", got)
	}
	c := Point{0: 1}
	if got := Distance(a, c); got != 2 {
		t.Errorf("missing-key distance = %d, want 2", got)
	}
}

// synthetic builds three well-separated clusters of points.
func synthetic(rng *rand.Rand) []Point {
	var pts []Point
	centers := []Point{
		{0: 0, 1: 0, 2: 0, 3: 0, 4: 0},
		{0: 9, 1: 9, 2: 9, 3: 9, 4: 9},
		{0: 5, 1: 5, 2: 5, 3: 5, 4: 5},
	}
	for _, c := range centers {
		for i := 0; i < 20; i++ {
			p := Point{}
			for k, v := range c {
				p[k] = v
			}
			// Perturb one coordinate occasionally.
			if rng.Intn(2) == 0 {
				p[rng.Intn(5)] += 100 + rng.Intn(3)
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func TestKMedoidsFindsClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := synthetic(rng)
	dist := DistanceMatrix(pts)
	res, err := Best(dist, 3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// With 3 medoids on 3 clusters where half the points differ from their
	// center in one coordinate, total distance ≤ n (60).
	if res.TotalDistance > int64(len(pts)) {
		t.Errorf("k=3 total distance = %d, want ≤ %d", res.TotalDistance, len(pts))
	}
}

func TestKMedoidsMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := synthetic(rng)
	dist := DistanceMatrix(pts)
	prev := int64(1) << 62
	for _, k := range []int{1, 3, 10, 30, len(pts)} {
		res, err := Best(dist, k, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalDistance > prev {
			t.Errorf("k=%d distance %d exceeds smaller-k distance %d",
				k, res.TotalDistance, prev)
		}
		prev = res.TotalDistance
	}
}

func TestKEqualsNIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := synthetic(rng)
	dist := DistanceMatrix(pts)
	res, err := KMedoids(dist, len(pts), rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDistance != 0 {
		t.Errorf("k=n distance = %d, want 0", res.TotalDistance)
	}
}

func TestKMedoidsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := KMedoids(nil, 1, rng, 0); err == nil {
		t.Error("empty point set accepted")
	}
	dist := DistanceMatrix([]Point{{0: 1}, {0: 2}})
	if _, err := KMedoids(dist, 0, rng, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMedoids(dist, 3, rng, 0); err == nil {
		t.Error("k>n accepted")
	}
}

func TestDistanceMatrixSymmetricZeroDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := synthetic(rng)[:10]
	m := DistanceMatrix(pts)
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("diagonal (%d) = %d", i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}
