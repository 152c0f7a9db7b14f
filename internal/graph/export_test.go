package graph

import "fmt"

// TopoSort returns a topological order of the graph (Kahn's algorithm) and
// whether one exists; ok == false means the graph is cyclic — an MCM
// violation.
func (g *Graph) TopoSort() (order []int32, ok bool) {
	indeg := make([]int32, g.N)
	for u := int32(0); u < int32(g.N); u++ {
		g.Out(u, func(v int32) { indeg[v]++ })
	}
	queue := make([]int32, 0, g.N)
	for v := int32(0); v < int32(g.N); v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order = make([]int32, 0, g.N)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		g.Out(u, func(v int32) {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		})
	}
	return order, len(order) == g.N
}

// VerifyOrder checks that order is a valid topological sort of g: a
// permutation of all vertices with every edge pointing forward.
func (g *Graph) VerifyOrder(order []int32) error {
	if len(order) != g.N {
		return fmt.Errorf("graph: order has %d vertices, want %d", len(order), g.N)
	}
	pos := make([]int32, g.N)
	seen := make([]bool, g.N)
	for i, v := range order {
		if v < 0 || int(v) >= g.N || seen[v] {
			return fmt.Errorf("graph: order is not a permutation (vertex %d)", v)
		}
		seen[v] = true
		pos[v] = int32(i)
	}
	var bad error
	for u := int32(0); u < int32(g.N); u++ {
		g.Out(u, func(v int32) {
			if bad == nil && pos[u] >= pos[v] {
				bad = fmt.Errorf("graph: edge %d->%d not forward in order", u, v)
			}
		})
	}
	return bad
}
