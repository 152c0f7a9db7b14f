package check

import (
	"math/rand"
	"testing"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
)

// refBucketQueue is the queue the checkers used before the bitmap hierarchy,
// kept as the reference model for pop order: one growable FIFO per class, a
// cursor that pop advances one empty class at a time and push moves back, and
// a reset that clears every class. steps counts the classes its loops visit.
type refBucketQueue struct {
	buckets [][]int32
	heads   []int
	cur     int
	size    int
	steps   int64
}

func newRefBucketQueue(classes int) *refBucketQueue {
	return &refBucketQueue{buckets: make([][]int32, classes), heads: make([]int, classes), cur: classes}
}

func (q *refBucketQueue) reset() {
	for c := range q.buckets {
		q.buckets[c] = q.buckets[c][:0]
		q.heads[c] = 0
		q.steps++
	}
	q.cur = len(q.buckets)
	q.size = 0
}

func (q *refBucketQueue) push(class int, v int32) {
	q.buckets[class] = append(q.buckets[class], v)
	if class < q.cur {
		q.cur = class
	}
	q.size++
}

func (q *refBucketQueue) pop() int32 {
	for q.heads[q.cur] >= len(q.buckets[q.cur]) {
		q.cur++
		q.steps++
	}
	v := q.buckets[q.cur][q.heads[q.cur]]
	q.heads[q.cur]++
	q.size--
	return v
}

func newTestBucketQueue(classOf []int32, classes int) *bucketQueue {
	q := &bucketQueue{}
	q.init(classOf, classes, make([]int32, bucketQueueInts(len(classOf), classes)))
	return q
}

// TestBucketQueueMatchesReference drives both queues through the same sorts —
// every vertex pushed at most once per sort, pushes and pops interleaved at
// random, the queue drained at the end as both sorts do — over class counts
// on either side of each bitmap-level boundary. Pop order must be identical,
// and a drained queue must be clean for the next sort without a reset.
func TestBucketQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, classes := range []int{1, 2, 17, 63, 64, 65, 129, 4096, 4097, 70000} {
		n := min(4*classes, 3000)
		classOf := make([]int32, n)
		for v := range classOf {
			classOf[v] = int32(rng.Intn(classes))
			if rng.Intn(4) == 0 { // crowd a few classes
				classOf[v] = int32(rng.Intn(min(classes, 3)))
			}
		}
		q, ref := newTestBucketQueue(classOf, classes), newRefBucketQueue(classes)
		for sort := 0; sort < 5; sort++ {
			ref.reset()
			pending := rng.Perm(n)[:1+rng.Intn(n)] // a window sort pushes a subset
			for len(pending) > 0 || ref.size > 0 {
				if len(pending) > 0 && (ref.size == 0 || rng.Intn(3) > 0) {
					v := int32(pending[0])
					pending = pending[1:]
					q.push(int(classOf[v]), v)
					ref.push(int(classOf[v]), v)
					continue
				}
				if got, want := q.pop(), ref.pop(); got != want {
					t.Fatalf("%d classes, sort %d: popped %d, reference %d", classes, sort, got, want)
				}
			}
			if q.size != 0 {
				t.Fatalf("%d classes, sort %d: size %d after the reference drained", classes, sort, q.size)
			}
			for l, level := range q.levels {
				for i, word := range level {
					if word != 0 {
						t.Fatalf("%d classes, sort %d: drained queue has level %d word %d = %#x", classes, sort, l, i, word)
					}
				}
			}
		}
		// An abandoned queue is emptied by reset.
		q.push(int(classOf[0]), 0)
		q.reset()
		q.push(int(classOf[1]), 1)
		if got := q.pop(); got != 1 || q.size != 0 {
			t.Fatalf("%d classes: after reset popped %d, size %d", classes, got, q.size)
		}
	}
}

// TestSortWorkLinearInOneAddressPerOp: on a single-thread trace whose every
// op has its own address each priority class holds one vertex, and program
// order makes the classes ready in an order unrelated to their numbers. The
// reference queue then walks its cursor back and forth over empty classes —
// quadratic in the trace length; the bitmap hierarchy's work per vertex is
// bounded by its depth. Counted, not timed: bitmap words touched per vertex.
func TestSortWorkLinearInOneAddressPerOp(t *testing.T) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		rng := rand.New(rand.NewSource(int64(n)))
		words := rng.Perm(n)
		pb := prog.NewBuilder("one-address-per-op", n, prog.DefaultLayout()).Thread()
		for _, word := range words {
			if rng.Intn(2) == 0 {
				pb.Store(word)
			} else {
				pb.Load(word)
			}
		}
		b := graph.NewBuilder(pb.MustBuild(), mcm.TSO, graph.Options{Forwarding: true})
		rf := make([]int32, n)
		for i := range rf {
			rf[i] = -1 // every load reads the initial value: nothing else wrote its word
		}

		w := newWorkspace(b)
		if _, err := w.install(rowItem(b, sig.Signature{}, rf)); err != nil {
			t.Fatal(err)
		}
		order, ok := w.fullSort(true)
		if !ok {
			t.Fatalf("%d ops: a sequential execution is cyclic", n)
		}

		// The same prioritized Kahn pass over the reference queue.
		g, err := w.graphOf(rowItem(b, sig.Signature{}, rf))
		if err != nil {
			t.Fatal(err)
		}
		classOf, classes := b.WordClass()
		ref := newRefBucketQueue(classes)
		ref.reset()
		indeg := make([]int32, n)
		for u := range indeg {
			g.Out(int32(u), func(v int32) { indeg[v]++ })
		}
		for v, d := range indeg {
			if d == 0 {
				ref.push(int(classOf[v]), int32(v))
			}
		}
		for k := 0; ref.size > 0; k++ {
			u := ref.pop()
			if u != order[k] {
				t.Fatalf("%d ops: position %d holds %d, the reference queue pops %d", n, k, order[k], u)
			}
			g.Out(u, func(v int32) {
				if indeg[v]--; indeg[v] == 0 {
					ref.push(int(classOf[v]), v)
				}
			})
		}

		perVertex := float64(w.bq.steps) / float64(n)
		t.Logf("%d ops: %.1f bitmap words per vertex (%d levels); reference queue %.0f class visits per vertex",
			n, perVertex, len(w.bq.levels), float64(ref.steps)/float64(n))
		if limit := float64(3 * len(w.bq.levels)); perVertex > limit {
			t.Errorf("%d ops: %.1f bitmap words per vertex, want at most %.0f (3 per level)", n, perVertex, limit)
		}
	}
}
