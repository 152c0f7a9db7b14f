package check

import "math/bits"

// bucketQueue pops ready vertices in ascending priority-class order — a
// counting-sort replacement for a heap, valid because the word-major
// priorities form a static set of classes. Within a class, pops are FIFO.
//
// A class's FIFO is a fixed region of one array, sized by the number of
// vertices the class has: a sort pushes a vertex at most once, so a region
// cannot overflow. A cursor holds the lowest non-empty class, so the common
// push and pop touch one FIFO and nothing else. When a class fills or drains,
// a hierarchy of bitmaps is updated and — on a drain — searched for the next
// non-empty class: level 0 has one bit per class, level k one bit per word of
// level k-1, the top level is a single word, so either costs O(log64 classes)
// whatever order the classes become ready in, and a drained queue is clean
// without a reset pass. Both sorts drain the queue they fill.
type bucketQueue struct {
	store      []int32 // class c's FIFO is store[off[c]:off[c+1]]
	off        []int32
	head, tail []int32    // per class: the live entries are store[head:tail]
	levels     [][]uint64 // levels[0] bit c: class c is non-empty
	cur        int        // the lowest non-empty class; the class count when empty
	size       int
	// steps counts the bitmap words touched: the queue's own work beyond
	// moving vertices, which tests pin linear in the pushes.
	steps int64
}

// init shapes the queue for a class table (vertex -> class). The int32
// tables are carved from tab, which must hold bucketQueueInts(len(classOf),
// classes) zeroed entries; the rest of tab is returned.
func (q *bucketQueue) init(classOf []int32, classes int, tab []int32) []int32 {
	n := len(classOf)
	q.store, tab = tab[:n:n], tab[n:]
	q.off, tab = tab[:classes+1:classes+1], tab[classes+1:]
	q.head, tab = tab[:classes:classes], tab[classes:]
	q.tail, tab = tab[:classes:classes], tab[classes:]
	for _, c := range classOf {
		q.off[c+1]++
	}
	for c := 0; c < classes; c++ {
		q.off[c+1] += q.off[c]
	}
	copy(q.head, q.off)
	copy(q.tail, q.off)
	q.cur = classes
	words, levels := 0, 0
	for w := classes; ; {
		w = (w + 63) / 64
		words += w
		levels++
		if w == 1 {
			break
		}
	}
	bitmap := make([]uint64, words)
	q.levels = make([][]uint64, levels)
	for l, w := 0, classes; l < levels; l++ {
		w = (w + 63) / 64
		q.levels[l], bitmap = bitmap[:w:w], bitmap[w:]
	}
	return tab
}

// bucketQueueInts is the number of int32 entries init carves.
func bucketQueueInts(n, classes int) int { return n + 3*classes + 1 }

// reset empties a queue that was abandoned before it drained.
func (q *bucketQueue) reset() {
	if q.size == 0 {
		return
	}
	copy(q.head, q.off)
	copy(q.tail, q.off)
	for _, level := range q.levels {
		clear(level)
	}
	q.cur, q.size = len(q.head), 0
}

func (q *bucketQueue) push(class int, v int32) {
	t := q.tail[class]
	if t == q.head[class] { // the class becomes non-empty
		q.mark(class)
		if class < q.cur {
			q.cur = class
		}
	}
	q.store[t] = v
	q.tail[class] = t + 1
	q.size++
}

// pop returns the lowest-class ready vertex; call only when size > 0.
func (q *bucketQueue) pop() int32 {
	c := q.cur
	h := q.head[c]
	v := q.store[h]
	q.size--
	if h+1 < q.tail[c] {
		q.head[c] = h + 1
		return v
	}
	// The class drained: rewind its FIFO and find the next non-empty one.
	q.head[c], q.tail[c] = q.off[c], q.off[c]
	q.unmark(c)
	q.cur = q.lowest()
	return v
}

// mark sets class i's bit, and the bit of each word that thereby becomes
// non-zero in the level above it.
func (q *bucketQueue) mark(i int) {
	for _, level := range q.levels {
		w := &level[i>>6]
		q.steps++
		was := *w
		*w = was | 1<<(uint(i)&63)
		if was != 0 {
			break // the levels above already know this word is non-empty
		}
		i >>= 6
	}
}

// unmark clears class i's bit, and the bit of each word that thereby becomes
// zero in the level above it.
func (q *bucketQueue) unmark(i int) {
	for _, level := range q.levels {
		w := &level[i>>6]
		q.steps++
		*w &^= 1 << (uint(i) & 63)
		if *w != 0 {
			break
		}
		i >>= 6
	}
}

// lowest returns the lowest marked class, or the class count when none is.
func (q *bucketQueue) lowest() int {
	if q.size == 0 {
		return len(q.head)
	}
	c := 0
	for l := len(q.levels) - 1; l >= 0; l-- {
		c = c<<6 | bits.TrailingZeros64(q.levels[l][c])
		q.steps++
	}
	return c
}
