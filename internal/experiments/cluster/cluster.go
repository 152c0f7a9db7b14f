// Package cluster implements the k-medoids analysis of the paper's §4.1
// limit study (Fig. 6): measuring how well k representative executions
// cover a set of observed memory-access interleavings, where the distance
// between two executions is the number of differing reads-from
// relationships. The study motivates MTraceCheck's design: finding truly
// closest graphs is computationally prohibitive, so the tool instead sorts
// signatures and diffs adjacent ones.
package cluster

import (
	"fmt"
	"math/rand"
)

// Point is one execution's reads-from fingerprint: load op ID → store op ID
// (-1 for the initial value). All points of one study share the same key
// set (the program's loads).
type Point map[int]int

// Distance counts differing reads-from relationships between two
// executions of the same program.
func Distance(a, b Point) int {
	d := 0
	for k, va := range a {
		if vb, ok := b[k]; !ok || vb != va {
			d++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			d++
		}
	}
	return d
}

// DistanceMatrix precomputes all pairwise distances.
func DistanceMatrix(points []Point) [][]int32 {
	n := len(points)
	m := make([][]int32, n)
	for i := range m {
		m[i] = make([]int32, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := int32(Distance(points[i], points[j]))
			m[i][j] = d
			m[j][i] = d
		}
	}
	return m
}

// Result of one clustering run.
type Result struct {
	Medoids []int // indices of the k medoid points
	// TotalDistance sums each point's distance to its closest medoid — the
	// y-axis of the paper's Fig. 6.
	TotalDistance int64
	Iterations    int
}

// KMedoids clusters the points whose pairwise distances are given by dist
// using the alternating (Voronoi) k-medoids heuristic with random
// initialization: assign each point to its closest medoid, then move each
// medoid to its cluster's minimizer; repeat to a fixed point. Optimal
// k-medoids is prohibitive (as the paper notes), so this is a heuristic;
// use restarts for tighter results.
func KMedoids(dist [][]int32, k int, rng *rand.Rand, maxIters int) (Result, error) {
	n := len(dist)
	switch {
	case n == 0:
		return Result{}, fmt.Errorf("cluster: no points")
	case k < 1 || k > n:
		return Result{}, fmt.Errorf("cluster: k=%d outside [1,%d]", k, n)
	}
	if maxIters <= 0 {
		maxIters = 50
	}
	medoids := rng.Perm(n)[:k]
	assign := make([]int, n) // point -> medoid slot
	var iters int
	for iters = 0; iters < maxIters; iters++ {
		// Assignment step.
		for i := 0; i < n; i++ {
			best, bestD := 0, dist[i][medoids[0]]
			for s := 1; s < k; s++ {
				if d := dist[i][medoids[s]]; d < bestD {
					best, bestD = s, d
				}
			}
			assign[i] = best
		}
		// Update step: each medoid moves to its cluster's 1-median.
		changed := false
		for s := 0; s < k; s++ {
			var members []int
			for i := 0; i < n; i++ {
				if assign[i] == s {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			best, bestSum := medoids[s], int64(1)<<62
			for _, cand := range members {
				var sum int64
				for _, m := range members {
					sum += int64(dist[cand][m])
				}
				if sum < bestSum {
					best, bestSum = cand, sum
				}
			}
			if best != medoids[s] {
				medoids[s] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	var total int64
	for i := 0; i < n; i++ {
		bestD := dist[i][medoids[0]]
		for s := 1; s < k; s++ {
			if d := dist[i][medoids[s]]; d < bestD {
				bestD = d
			}
		}
		total += int64(bestD)
	}
	return Result{Medoids: medoids, TotalDistance: total, Iterations: iters + 1}, nil
}

// Best runs KMedoids with the given number of random restarts and returns
// the tightest clustering found.
func Best(dist [][]int32, k, restarts int, rng *rand.Rand) (Result, error) {
	if restarts < 1 {
		restarts = 1
	}
	var best Result
	for r := 0; r < restarts; r++ {
		res, err := KMedoids(dist, k, rng, 0)
		if err != nil {
			return Result{}, err
		}
		if r == 0 || res.TotalDistance < best.TotalDistance {
			best = res
		}
	}
	return best, nil
}
