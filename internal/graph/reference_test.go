package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/testgen"
)

// The reference model of the static program-order edges: the predicate asked
// of the model pair by pair, and the reduction with its witness found by
// looking at every k between i and j. Cubic per thread, obviously the
// definition; Builder's tables and threadPO must produce the same adjacency,
// list order included.

// refOrdered reports whether program order between ops a (earlier) and c
// (later) of one thread is preserved: by the model's kind matrix, by
// same-address coherence, or by fence semantics. Same-address store→load
// pairs are excluded on forwarding platforms.
func refOrdered(model mcm.Model, opts Options, a, c prog.Op) bool {
	if a.Kind == prog.Fence || c.Kind == prog.Fence {
		return true
	}
	if a.Word == c.Word {
		return !(opts.Forwarding && a.Kind == prog.Store && c.Kind == prog.Load)
	}
	return model.Ordered(a.Kind, c.Kind)
}

// refStatic is the static adjacency by the definition: an edge (i,j) for
// every ordered pair of one thread with no k between them ordered after i
// and before j.
func refStatic(p *prog.Program, model mcm.Model, opts Options) [][]int32 {
	static := make([][]int32, p.NumOps())
	for _, th := range p.Threads {
		ops := th.Ops
		for i := range ops {
			for j := i + 1; j < len(ops); j++ {
				if !refOrdered(model, opts, ops[i], ops[j]) {
					continue
				}
				implied := false
				for k := i + 1; k < j; k++ {
					if refOrdered(model, opts, ops[i], ops[k]) && refOrdered(model, opts, ops[k], ops[j]) {
						implied = true
						break
					}
				}
				if !implied {
					static[ops[i].ID] = append(static[ops[i].ID], int32(ops[j].ID))
				}
			}
		}
	}
	return static
}

// checkAgainstReference compares the builder's static adjacency and edge
// count with the reference model's.
func checkAgainstReference(t *testing.T, p *prog.Program, model mcm.Model, opts Options) {
	t.Helper()
	b := NewBuilder(p, model, opts)
	want := refStatic(p, model, opts)
	if !reflect.DeepEqual(b.static, want) {
		for u := range want {
			if !reflect.DeepEqual(b.static[u], want[u]) {
				t.Fatalf("%v %+v: static[%d] = %v, reference %v\n%v", model, opts, u, b.static[u], want[u], p)
			}
		}
		t.Fatalf("%v %+v: static adjacency differs from the reference in shape", model, opts)
	}
	count := 0
	for _, out := range want {
		count += len(out)
	}
	if b.StaticEdgeCount() != count {
		t.Fatalf("%v %+v: StaticEdgeCount = %d, reference has %d edges", model, opts, b.StaticEdgeCount(), count)
	}
}

func TestThreadPOMatchesReference(t *testing.T) {
	for _, fenceProb := range []float64{0, 0.1, 0.5} {
		for seed := int64(1); seed <= 8; seed++ {
			// Few words make same-address pairs common, many make them rare;
			// load-heavy and store-heavy mixes reach both saturation orders.
			cfg := testgen.Config{
				Threads: 3, OpsPerThread: 40, Words: []int{1, 3, 16, 64}[seed%4],
				LoadRatio: []float64{0.5, 0.2, 0.8}[seed%3], FenceProb: fenceProb, Seed: seed,
			}
			p := mustGenerate(cfg)
			for _, model := range mcm.Models {
				for _, forwarding := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/fwd=%v/fence=%v/seed=%d", model, forwarding, fenceProb, seed), func(t *testing.T) {
						checkAgainstReference(t, p, model, Options{Forwarding: forwarding})
					})
				}
			}
		}
	}
}

// TestThreadPOFenceRuns covers what the generator rarely emits: leading,
// trailing and back-to-back fences, and threads of fences only.
func TestThreadPOFenceRuns(t *testing.T) {
	p := prog.NewBuilder("fences", 2, prog.DefaultLayout()).
		Thread().Fence().Fence().Store(0).Load(1).Fence().
		Thread().Fence().
		Thread().Load(0).Fence().Fence().Fence().Store(0).Store(1).Load(0).
		Thread().Fence().Fence().
		MustBuild()
	for _, model := range mcm.Models {
		for _, forwarding := range []bool{false, true} {
			checkAgainstReference(t, p, model, Options{Forwarding: forwarding})
		}
	}
}

// FuzzThreadPO drives one thread from bytes: the two low bits of each byte
// pick the kind (two of four values a fence, so runs of fences are common
// under mutation), the rest the word; the first byte picks the model and
// whether the platform forwards.
func FuzzThreadPO(f *testing.F) {
	f.Add([]byte{0, 0x04, 0x05, 0x08, 0x09})
	f.Add([]byte{3, 0x05, 0x04, 0x02, 0x04, 0x05})
	f.Add([]byte{7, 0x01, 0x05, 0x09, 0x0d, 0x00, 0x04, 0x08})
	f.Add([]byte{5, 0x02, 0x02, 0x01, 0x03, 0x00})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 200)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		if len(in) > 257 {
			in = in[:257] // the reference is cubic
		}
		const words = 8
		model := mcm.Models[int(in[0])%len(mcm.Models)]
		opts := Options{Forwarding: in[0]&4 != 0}
		pb := prog.NewBuilder("fuzz", words, prog.DefaultLayout()).Thread()
		for _, c := range in[1:] {
			switch word := int(c>>2) % words; c & 3 {
			case 0:
				pb.Load(word)
			case 1:
				pb.Store(word)
			default:
				pb.Fence()
			}
		}
		checkAgainstReference(t, pb.MustBuild(), model, opts)
	})
}
