package graph

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
