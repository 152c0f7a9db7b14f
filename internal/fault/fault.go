// Package fault is a deterministic device-side fault injector for the
// validation pipeline. The paper's deployment target is real silicon, where
// the device half of the flow is the unreliable half: signatures accumulate
// in registers and are stored to a result memory region that can be
// corrupted, and campaigns of tens of thousands of iterations can stall or
// die mid-run (paper §4–5; TSOtool-lineage checkers likewise treat observed
// executions as untrusted input). This package models that unreliability so
// the host-side tolerance machinery — quarantine, retry, partial results —
// can be proven against a reproducible fault stream.
//
// Two fault families are injected at the two places real faults strike:
//
//   - Signature corruption (bit flips, truncated/duplicated result-memory
//     entries, out-of-range words) is applied to the merged unique signature
//     set between execution and decoding — the point where the host reads
//     the device's result memory. Every per-entry decision is keyed by
//     (Seed, signature bytes), so the outcome is a pure function of the
//     collected set: identical for every worker count and iteration order.
//   - Execution faults (shard stalls and panics) are injected through a
//     sim.Source wrapper around the shard's runner. They trigger only on a
//     shard's first attempt — they model transient failures, so a retry of
//     the same iteration block succeeds and the campaign's final results
//     stay worker-invariant whenever retries are enabled.
package fault

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// Kind identifies one injected fault class.
type Kind uint8

const (
	// KindNone means no fault.
	KindNone Kind = iota
	// KindBitFlip flips one random bit of one signature word.
	KindBitFlip
	// KindTruncate drops a result-memory entry entirely.
	KindTruncate
	// KindDuplicate stores a result-memory entry twice.
	KindDuplicate
	// KindOutOfRange overwrites one signature word with an impossible value.
	KindOutOfRange
	// KindStall blocks a shard mid-run (exceeding any shard deadline).
	KindStall
	// KindPanic panics a shard mid-run.
	KindPanic
	// KindWireCorrupt flips one bit of a chunk upload in flight.
	KindWireCorrupt
	// KindWireDrop loses a chunk upload in flight (the lease expires).
	KindWireDrop
	// KindWireDelay holds a chunk upload past its send time.
	KindWireDelay
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindBitFlip:
		return "bit-flip"
	case KindTruncate:
		return "truncate"
	case KindDuplicate:
		return "duplicate"
	case KindOutOfRange:
		return "out-of-range"
	case KindStall:
		return "stall"
	case KindPanic:
		return "panic"
	case KindWireCorrupt:
		return "wire-corrupt"
	case KindWireDrop:
		return "wire-drop"
	case KindWireDelay:
		return "wire-delay"
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// Config sets per-kind fault rates. The zero value injects nothing. All
// rates are probabilities in [0, 1]: the signature rates apply per unique
// set entry, the shard rates per shard (first attempt only).
type Config struct {
	// Seed drives every injection decision; independent of the run seed so
	// the same campaign can be replayed under different fault streams.
	Seed int64
	// BitFlip is the per-entry probability of flipping one random bit.
	BitFlip float64
	// Truncate is the per-entry probability of dropping the entry.
	Truncate float64
	// Duplicate is the per-entry probability of storing the entry twice.
	Duplicate float64
	// OutOfRange is the per-entry probability of overwriting one word with
	// an undecodable value.
	OutOfRange float64
	// ShardStall is the per-shard probability of a mid-run stall.
	ShardStall float64
	// ShardPanic is the per-shard probability of a mid-run panic.
	ShardPanic float64
	// StallFor is how long a stalled shard blocks before resuming
	// (interruptible by the shard's context); 0 selects 250ms.
	StallFor time.Duration
}

// Enabled reports whether any fault rate is set.
func (c Config) Enabled() bool {
	return c.corruption() || c.execution()
}

func (c Config) corruption() bool {
	return c.BitFlip > 0 || c.Truncate > 0 || c.Duplicate > 0 || c.OutOfRange > 0
}

func (c Config) execution() bool {
	return c.ShardStall > 0 || c.ShardPanic > 0
}

// Validate rejects rates outside [0, 1] and negative stall durations.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{
		{"BitFlip", c.BitFlip}, {"Truncate", c.Truncate},
		{"Duplicate", c.Duplicate}, {"OutOfRange", c.OutOfRange},
		{"ShardStall", c.ShardStall}, {"ShardPanic", c.ShardPanic},
	} {
		if r.rate < 0 || r.rate > 1 {
			return fmt.Errorf("fault: %s rate %v outside [0, 1]", r.name, r.rate)
		}
	}
	if c.StallFor < 0 {
		return fmt.Errorf("fault: negative StallFor %v", c.StallFor)
	}
	return nil
}

// Injector applies a Config's fault stream deterministically.
type Injector struct {
	cfg Config
}

// NewInjector validates the config and returns an injector for it.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// entryRNG derives the decision stream for one signature: a pure function
// of (Seed, signature bytes), so corruption is independent of worker count
// and collection order.
func (in *Injector) entryRNG(s sig.Signature) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(in.cfg.Seed))
	h.Write(b[:])
	h.Write(s.AppendBinary(nil))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Corrupt applies the signature-level faults to a sorted unique set — the
// host reading the device's result memory — and returns the re-sorted,
// re-deduplicated corrupted set plus the count of injections per kind.
// A duplicated entry that survives unmodified merges back during
// re-deduplication with a doubled observation count (benign corruption the
// pipeline absorbs); flips and out-of-range writes produce entries the
// decoder must quarantine or, when the flip lands on another valid
// encoding, silently mimic.
func (in *Injector) Corrupt(uniques []sig.Unique) ([]sig.Unique, map[Kind]int) {
	if !in.cfg.corruption() {
		return uniques, nil
	}
	injected := make(map[Kind]int)
	out := make([]sig.Unique, 0, len(uniques))
	for _, u := range uniques {
		rng := in.entryRNG(u.Sig)
		// Fixed draw order keeps the stream stable as rates change one at
		// a time.
		if rng.Float64() < in.cfg.Truncate {
			injected[KindTruncate]++
			continue
		}
		if rng.Float64() < in.cfg.Duplicate {
			injected[KindDuplicate]++
			out = append(out, u)
		}
		cu := u
		if rng.Float64() < in.cfg.BitFlip {
			injected[KindBitFlip]++
			words := cu.Sig.Words()
			words[rng.Intn(len(words))] ^= 1 << uint(rng.Intn(64))
			cu.Sig = sig.New(words)
		}
		if rng.Float64() < in.cfg.OutOfRange {
			injected[KindOutOfRange]++
			words := cu.Sig.Words()
			words[rng.Intn(len(words))] = ^uint64(0)
			cu.Sig = sig.New(words)
		}
		out = append(out, cu)
	}
	// Host-side normalization: whatever the device handed over is sorted
	// and de-duplicated before decoding, as in the paper's flow.
	sort.Slice(out, func(i, j int) bool { return out[i].Sig.Compare(out[j].Sig) < 0 })
	merged := out[:0]
	for _, u := range out {
		if n := len(merged); n > 0 && merged[n-1].Sig.Equal(u.Sig) {
			merged[n-1].Count += u.Count
		} else {
			merged = append(merged, u)
		}
	}
	if len(injected) == 0 {
		injected = nil
	}
	return merged, injected
}

// ShardFault is one planned execution fault within a shard's iteration
// block; Kind is KindNone when the shard runs clean.
type ShardFault struct {
	Kind      Kind
	Iteration int // block-relative iteration at which the fault triggers
}

// ShardPlan decides the execution fault for one shard attempt, keyed by the
// shard's global iteration block. Faults are transient: only attempt 0 can
// fault, so a retried shard completes and the campaign's results stay
// worker-invariant.
func (in *Injector) ShardPlan(start, count, attempt int) ShardFault {
	if attempt > 0 || count <= 0 || !in.cfg.execution() {
		return ShardFault{}
	}
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(in.cfg.Seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(start))
	binary.LittleEndian.PutUint64(b[16:], uint64(count))
	h.Write(b[:])
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	if rng.Float64() < in.cfg.ShardPanic {
		return ShardFault{Kind: KindPanic, Iteration: rng.Intn(count)}
	}
	if rng.Float64() < in.cfg.ShardStall {
		return ShardFault{Kind: KindStall, Iteration: rng.Intn(count)}
	}
	return ShardFault{}
}

// WrapShard returns the execution source for one shard attempt: the inner
// runner as-is when no fault is planned, or wrapped to trigger the planned
// stall or panic.
func (in *Injector) WrapShard(ctx context.Context, inner sim.Source, start, count, attempt int) sim.Source {
	f := in.ShardPlan(start, count, attempt)
	if f.Kind == KindNone {
		return inner
	}
	stall := in.cfg.StallFor
	if stall == 0 {
		stall = 250 * time.Millisecond
	}
	return &Runner{inner: inner, ctx: ctx, fault: f, stallFor: stall}
}

// Runner wraps a sim.Source, injecting one planned stall or panic at a
// fixed block-relative iteration. Like the runner it wraps, it is owned by
// a single goroutine.
type Runner struct {
	inner    sim.Source
	ctx      context.Context
	fault    ShardFault
	stallFor time.Duration
	i        int
}

// Run delegates to the wrapped source, first triggering the planned fault
// when its iteration is reached: a panic unwinds into the shard's recover
// handler; a stall blocks until StallFor elapses or the shard's context is
// done (the per-shard deadline path).
func (r *Runner) Run() (*sim.Execution, error) {
	i := r.i
	r.i++
	if r.fault.Kind != KindNone && i == r.fault.Iteration {
		switch r.fault.Kind {
		case KindPanic:
			panic(fmt.Sprintf("fault: injected shard panic at block iteration %d", i))
		case KindStall:
			select {
			case <-r.ctx.Done():
				return nil, r.ctx.Err()
			case <-time.After(r.stallFor):
			}
		}
	}
	return r.inner.Run()
}

// QuarantineKind classifies why the host quarantined a signature.
type QuarantineKind uint8

const (
	// QuarantineDecode marks a signature the Algorithm 1 decoder rejected
	// (out-of-range index, nonzero residue, wrong word count).
	QuarantineDecode QuarantineKind = iota
	// QuarantineEdges marks a signature that decoded but whose reads-from
	// relation failed constraint-edge construction.
	QuarantineEdges
)

func (k QuarantineKind) String() string {
	switch k {
	case QuarantineDecode:
		return "decode"
	case QuarantineEdges:
		return "edge-build"
	}
	return fmt.Sprintf("fault.QuarantineKind(%d)", uint8(k))
}

// Quarantined is one corrupted signature held out of checking instead of
// aborting the run.
type Quarantined struct {
	Sig   sig.Signature
	Count int // observations the entry claimed
	Kind  QuarantineKind
	Err   error // the decode or edge-build failure
}

// CountByKind tallies quarantined signatures per kind; nil for an empty
// quarantine.
func CountByKind(q []Quarantined) map[QuarantineKind]int {
	if len(q) == 0 {
		return nil
	}
	out := make(map[QuarantineKind]int)
	for _, e := range q {
		out[e.Kind]++
	}
	return out
}
