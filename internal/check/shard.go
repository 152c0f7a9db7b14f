package check

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mtracecheck/internal/graph"
)

// ShardFunc is notified as each checking shard completes, with the shard's
// index and the total shard count actually run, its item range, its
// (shard-local) result, and its wall-clock span. Shards complete
// concurrently, so implementations must be safe for concurrent use. A nil
// ShardFunc is never called. part is nil when the shard failed
// (cancellation or an internal error).
type ShardFunc func(shard, shards, start, count int, part *Result, began time.Time, took time.Duration)

// ShardedBackend runs a backend across shards contiguous ranges of the sorted
// items concurrently, then merges the per-range results with violation
// indices rebased to global positions. The context reaches every per-range
// check, and the call joins its goroutines before returning ctx.Err().
//
// Disjoint signature ranges are independent checking runs for every row: the
// per-graph backends share no state between items, and the order-maintaining
// ones (Pearce–Kelly's repairs, the collective checker's §4.2 windows) only
// ever relate a graph to the maintained order of its predecessor in sorted
// order — at the cost of one honest KindComplete sort per shard, whose first
// graph has no predecessor. Verdicts are identical for every shard count; only
// the effort accounting (PerGraph, SortedVertices) carries the boundary
// overhead. Items must ascend by signature for every backend, so that the
// outcome cannot depend on the shard count even for backends whose Check
// takes any order.
func ShardedBackend(ctx context.Context, be *Backend, b *graph.Builder, items []Item, shards int, onShard ShardFunc) (*Result, error) {
	for i := 1; i < len(items); i++ {
		if items[i-1].Sig.Compare(items[i].Sig) > 0 {
			return nil, fmt.Errorf("check: items not in ascending signature order at %d", i)
		}
	}
	shards = min(shards, len(items))
	if shards <= 1 {
		began := time.Now()
		res, err := be.Check(ctx, b, items)
		if onShard != nil {
			onShard(0, 1, 0, len(items), res, began, time.Since(began))
		}
		return res, err
	}
	offsets := shardOffsets(len(items), shards)
	parts := make([]*Result, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := offsets[s], offsets[s+1]
		wg.Add(1)
		// shards goes in as an argument: a parameter the function assigns
		// would be captured by reference and moved to the heap on every call.
		go func(s, shards, lo, hi int) {
			defer wg.Done()
			began := time.Now()
			parts[s], errs[s] = be.Check(ctx, b, items[lo:hi])
			if onShard != nil {
				onShard(s, shards, lo, hi-lo, parts[s], began, time.Since(began))
			}
		}(s, shards, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeResults(offsets[:shards], parts), nil
}

// shardOffsets splits n items into shards contiguous ranges of near-equal
// size (the first n%shards ranges are one longer), returning the shards+1
// boundary offsets.
func shardOffsets(n, shards int) []int {
	base, rem := n/shards, n%shards
	offsets := make([]int, shards+1)
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		offsets[s+1] = offsets[s] + size
	}
	return offsets
}

// mergeResults combines per-shard results of contiguous item ranges into
// one global result: violation Index values are rebased by each shard's
// starting offset, PerGraph stats are concatenated in shard order (so entry
// i still describes item i), and the counters are summed. Nil parts are
// skipped.
func mergeResults(offsets []int, parts []*Result) *Result {
	out := &Result{}
	for s, part := range parts {
		if part == nil {
			continue
		}
		out.Total += part.Total
		out.SortedVertices += part.SortedVertices
		out.BackwardEdges += part.BackwardEdges
		out.ClockUpdates += part.ClockUpdates
		out.Propagations += part.Propagations
		if part.MaxWindow > out.MaxWindow {
			out.MaxWindow = part.MaxWindow
		}
		out.PerGraph = append(out.PerGraph, part.PerGraph...)
		for _, v := range part.Violations {
			v.Index += offsets[s]
			out.Violations = append(out.Violations, v)
		}
	}
	return out
}
