package check

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/testgen"
)

// shardedCollective is ShardedBackend over the collective backend.
func shardedCollective(ctx context.Context, b *graph.Builder, items []Item, shards int) (*Result, error) {
	be, err := ForName("collective")
	if err != nil {
		return nil, err
	}
	return ShardedBackend(ctx, be, b, items, shards, nil)
}

// TestShardedMatchesSerial: sharding an order-maintaining row must deliver
// exactly its unsharded verdicts for every shard count, with violation indices
// rebased to global positions; the only permitted divergence is effort
// accounting — one extra KindComplete per shard, plus drift downstream of each
// boundary (a full sort installs a different maintained order than the serial
// chain had at that point, so later windows and repairs differ in size).
func TestShardedMatchesSerial(t *testing.T) {
	for _, name := range []string{"incremental", "collective"} {
		be, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []mcm.Model{mcm.TSO, mcm.RMO} {
			for seed := int64(1); seed <= 3; seed++ {
				p := testgen.MustGenerate(testgen.Config{
					Threads: 3, OpsPerThread: 20, Words: 4, Seed: seed,
				})
				meta, err := instrument.Analyze(p, 64, nil)
				if err != nil {
					t.Fatal(err)
				}
				b := graph.NewBuilder(p, model, graph.Options{Forwarding: true})
				rng := rand.New(rand.NewSource(seed * 31))
				items := fabricate(t, p, b, meta, 150, rng)
				serial, err := run(name, b, items)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 3, 7, len(items), len(items) + 5} {
					sharded, err := ShardedBackend(context.Background(), be, b, items, shards, nil)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s %v seed %d shards %d", name, model, seed, shards)
					if sharded.Total != serial.Total {
						t.Fatalf("%s: total %d, want %d", at, sharded.Total, serial.Total)
					}
					si, vi := violIndices(sharded), violIndices(serial)
					if !slices.Equal(si, vi) {
						t.Fatalf("%s: rebased indices %v, serial %v", at, si, vi)
					}
					for k := range si {
						if !sharded.Violations[k].Sig.Equal(serial.Violations[k].Sig) {
							t.Fatalf("%s: violation %d signature mismatch", at, k)
						}
					}
					if len(sharded.PerGraph) != len(items) {
						t.Fatalf("%s: PerGraph has %d entries, want %d", at, len(sharded.PerGraph), len(items))
					}
					// Effort accounting modulo shard overhead: bound the
					// divergence by the boundary sorts plus a drift allowance
					// proportional to the serial effort.
					eff := min(shards, len(items))
					slack := int64(eff+len(vi))*int64(b.NumOps()) + serial.SortedVertices/4
					if diff := sharded.SortedVertices - serial.SortedVertices; diff < -slack || diff > slack {
						t.Fatalf("%s: SortedVertices %d vs serial %d exceeds slack %d",
							at, sharded.SortedVertices, serial.SortedVertices, slack)
					}
				}
			}
		}
	}
}

func TestShardedDegenerate(t *testing.T) {
	p := testgen.MustGenerate(testgen.Config{Threads: 2, OpsPerThread: 10, Words: 4, Seed: 2})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	res, err := shardedCollective(context.Background(), b, nil, 4)
	if err != nil || res.Total != 0 {
		t.Fatalf("empty items: res %+v err %v", res, err)
	}
	items := scItems(t, p, b, meta, 30, rand.New(rand.NewSource(5)))
	one, err := shardedCollective(context.Background(), b, items[:1], 8)
	if err != nil || one.Total != 1 {
		t.Fatalf("single item: total %d err %v", one.Total, err)
	}
}

func TestShardedRejectsUnsortedItems(t *testing.T) {
	p := testgen.MustGenerate(testgen.Config{Threads: 2, OpsPerThread: 10, Words: 4, Seed: 2})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	items := scItems(t, p, b, meta, 60, rand.New(rand.NewSource(5)))
	if len(items) < 4 {
		t.Skip("not enough unique items")
	}
	items[0], items[len(items)-1] = items[len(items)-1], items[0]
	if _, err := shardedCollective(context.Background(), b, items, 2); err == nil {
		t.Error("unsorted items accepted")
	}
}

// TestShardedCancelled: a cancelled context must stop both the serial and
// the sharded checker with ctx.Err() instead of a partial verdict.
func TestShardedCancelled(t *testing.T) {
	p := testgen.MustGenerate(testgen.Config{Threads: 3, OpsPerThread: 20, Words: 4, Seed: 1})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	items := fabricate(t, p, b, meta, 50, rand.New(rand.NewSource(3)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shards := range []int{1, 4} {
		res, err := shardedCollective(ctx, b, items, shards)
		if err != context.Canceled {
			t.Errorf("shards=%d: err = %v, want context.Canceled", shards, err)
		}
		if res != nil {
			t.Errorf("shards=%d: partial result returned alongside cancellation", shards)
		}
	}
}

func TestMergeResultsRebasesIndices(t *testing.T) {
	s := sig.New([]uint64{1})
	parts := []*Result{
		{Total: 3, SortedVertices: 10, Violations: []Violation{{Index: 2, Sig: s}},
			PerGraph: []GraphStat{{Kind: KindComplete, Affected: 5}, {}, {}}},
		nil,
		{Total: 2, SortedVertices: 4, Violations: []Violation{{Index: 0, Sig: s}, {Index: 1, Sig: s}},
			PerGraph: []GraphStat{{Kind: KindComplete, Affected: 5}, {Kind: KindNoResort}}},
	}
	merged := mergeResults([]int{0, 3, 3}, parts)
	if merged.Total != 5 || merged.SortedVertices != 14 {
		t.Fatalf("merged totals: %+v", merged)
	}
	want := []int{2, 3, 4}
	got := violIndices(merged)
	if len(got) != len(want) {
		t.Fatalf("violations %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("violations %v, want %v", got, want)
		}
	}
	if len(merged.PerGraph) != 5 {
		t.Errorf("PerGraph has %d entries, want 5", len(merged.PerGraph))
	}
}

func TestShardOffsets(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []int
	}{
		{10, 3, []int{0, 4, 7, 10}},
		{6, 3, []int{0, 2, 4, 6}},
		{5, 5, []int{0, 1, 2, 3, 4, 5}},
		{1, 1, []int{0, 1}},
	}
	for _, c := range cases {
		got := shardOffsets(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("shardOffsets(%d,%d) = %v, want %v", c.n, c.shards, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("shardOffsets(%d,%d) = %v, want %v", c.n, c.shards, got, c.want)
			}
		}
	}
}
