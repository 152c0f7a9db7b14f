// Package fault is a deterministic fault injector for the validation
// pipeline. The paper's deployment target is real silicon, where the device
// half of the flow is the unreliable half: signatures accumulate in registers
// and are stored to a result memory region that can be corrupted, campaigns
// can stall or die mid-run, and results cross a network to the host (paper
// §4–5; TSOtool-lineage checkers likewise treat observed executions as
// untrusted input). This package models that unreliability so the host-side
// tolerance machinery — quarantine, retry, partial results, the dist server's
// upload validation — can be proven against a reproducible fault stream.
//
// A fault plan is one Config: a seed, one rate per Kind and one hold. Each
// family of kinds has one planner, applied where such faults strike:
// Corrupt (corruption) to the merged unique set where the host reads the
// device's result memory; WrapShard (execution: stalls and panics) to a
// shard's first attempt only — transient faults, so a retried block succeeds
// and results stay worker-invariant; MangleUpload (wire) by a dist worker to
// its own chunk uploads, which the server never trusts. Every decision is
// drawn, in a fixed order per planner, from a stream keyed by the seed and
// the bytes of what is decided about (a signature, an iteration block, one
// send of an upload), so outcomes are independent of worker count and
// collection order and stable as rates change one at a time.
package fault

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// Kind identifies one injected fault class.
type Kind uint8

// The kinds, each named and put in its family by the kinds table.
const (
	KindNone        Kind = iota // no fault
	KindBitFlip                 // flips one random bit of one signature word
	KindTruncate                // drops a result-memory entry entirely
	KindDuplicate               // stores a result-memory entry twice
	KindOutOfRange              // overwrites one signature word with an impossible value
	KindStall                   // blocks a shard mid-run
	KindPanic                   // panics a shard mid-run
	KindWireCorrupt             // flips one bit of a chunk upload in flight
	KindWireDrop                // loses a chunk upload in flight (the lease expires)
	KindWireDelay               // holds a chunk upload past its send time
	numKinds
)

// Family is a set of kind families: the kinds one planner injects, or the
// families a door takes (Config.Validate).
type Family uint8

const (
	// Corruption is the family Corrupt applies to the merged signature set.
	Corruption Family = 1 << iota
	// Execution is the family WrapShard applies to a shard's first attempt.
	Execution
	// Wire is the family MangleUpload applies to a worker's chunk uploads.
	Wire

	anyFamily = Corruption | Execution | Wire
)

// kinds is the one list of fault kinds: each kind's name — its String and
// its key in the text form — and its family.
var kinds = [numKinds]struct {
	name   string
	family Family
}{
	KindNone:        {"none", 0},
	KindBitFlip:     {"bit-flip", Corruption},
	KindTruncate:    {"truncate", Corruption},
	KindDuplicate:   {"duplicate", Corruption},
	KindOutOfRange:  {"out-of-range", Corruption},
	KindStall:       {"stall", Execution},
	KindPanic:       {"panic", Execution},
	KindWireCorrupt: {"wire-corrupt", Wire},
	KindWireDrop:    {"wire-drop", Wire},
	KindWireDelay:   {"wire-delay", Wire},
}

func (k Kind) String() string {
	if k < numKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// String lists the names of the family's kinds, comma-separated.
func (f Family) String() string {
	var names []string
	for k := KindBitFlip; k < numKinds; k++ {
		if kinds[k].family&f != 0 {
			names = append(names, kinds[k].name)
		}
	}
	return strings.Join(names, ", ")
}

// Rates holds one injection probability in [0, 1] per Kind, indexed by it
// (KindNone's entry is unused): corruption rates apply per unique-set entry,
// execution rates per shard (first attempt only), wire rates per upload send.
type Rates [numKinds]float64

// Config is a fault plan. The zero value injects nothing. Its text form —
// what the -fault flags and JobSpec's JSON carry — is comma-separated
// key=value pairs, a kind's name keying its rate:
// "bit-flip=0.01,panic=0.5,seed=3,hold=300ms".
type Config struct {
	// Seed drives every injection decision; independent of the run seed so
	// the same campaign can be replayed under different fault streams.
	Seed int64
	// Rate is each kind's injection probability.
	Rate Rates
	// Hold is how long an injected stall blocks a shard (interruptible by
	// its context) and an injected delay holds an upload; 0 selects
	// defaultHold.
	Hold time.Duration
}

const defaultHold = 250 * time.Millisecond

func (c Config) hold() time.Duration {
	if c.Hold == 0 {
		return defaultHold
	}
	return c.Hold
}

// Enabled reports whether any fault rate is set.
func (c Config) Enabled() bool {
	return c.sets(anyFamily)
}

// sets reports whether a rate of family f is set.
func (c Config) sets(f Family) bool {
	for k := KindBitFlip; k < numKinds; k++ {
		if c.Rate[k] > 0 && kinds[k].family&f != 0 {
			return true
		}
	}
	return false
}

// Validate refuses a rate that is NaN or outside [0, 1] and a negative
// Hold, naming the value, and a rate set for a kind outside the families f,
// naming the kind: each door injects its own families and refuses the
// others'.
func (c Config) Validate(f Family) error {
	for k := KindBitFlip; k < numKinds; k++ {
		switch r := c.Rate[k]; {
		case !(r >= 0 && r <= 1):
			return fmt.Errorf("fault: %v rate %v outside [0, 1]", k, r)
		case r != 0 && kinds[k].family&f == 0:
			return fmt.Errorf("fault: %v is not injected here (this door injects %v)", k, f)
		}
	}
	if c.Hold < 0 {
		return fmt.Errorf("fault: negative hold %v", c.Hold)
	}
	return nil
}

// MarshalText writes the text form: the kinds with a nonzero rate in Kind
// order, then the seed and the hold when nonzero. The zero Config is "".
func (c Config) MarshalText() ([]byte, error) {
	var b []byte
	add := func(key, value string) {
		if len(b) > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, key...), '='), value...)
	}
	for k := KindBitFlip; k < numKinds; k++ {
		if c.Rate[k] != 0 {
			add(kinds[k].name, strconv.FormatFloat(c.Rate[k], 'g', -1, 64))
		}
	}
	if c.Seed != 0 {
		add("seed", strconv.FormatInt(c.Seed, 10))
	}
	if c.Hold != 0 {
		add("hold", c.Hold.String())
	}
	return b, nil
}

// UnmarshalText parses the text form onto c: a kind's name sets its rate,
// "seed" the seed and "hold" the hold (a time.ParseDuration string). What the
// text does not name keeps its value, so a flag's default seed survives
// "-fault panic=1". An item that is not key=value, an unknown or repeated
// key and a value Validate refuses are errors that leave c unchanged; which
// kinds a door takes is the door's to check.
func (c *Config) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		return nil
	}
	next := *c
	seen := make(map[string]bool)
	for _, item := range strings.Split(string(text), ",") {
		key, value, ok := strings.Cut(item, "=")
		switch {
		case !ok:
			return fmt.Errorf("fault: %q is not key=value", item)
		case seen[key]:
			return fmt.Errorf("fault: %s given twice", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			next.Seed, err = strconv.ParseInt(value, 10, 64)
		case "hold":
			next.Hold, err = time.ParseDuration(value)
		default:
			k := KindBitFlip
			for k < numKinds && kinds[k].name != key {
				k++
			}
			if k == numKinds {
				return fmt.Errorf("fault: unknown key %q (valid: %v, seed, hold)", key, anyFamily)
			}
			next.Rate[k], err = strconv.ParseFloat(value, 64)
		}
		if err != nil {
			return fmt.Errorf("fault: %s: %w", key, err)
		}
	}
	if err := next.Validate(anyFamily); err != nil {
		return err
	}
	*c = next
	return nil
}

// Injector applies a Config's fault stream deterministically. A nil
// *Injector injects nothing.
type Injector struct {
	cfg Config
}

// NewInjector validates the config for a door that injects the families f
// and returns its injector: nil when the config sets no rate, so a
// fault-free campaign pays nothing.
func NewInjector(cfg Config, f Family) (*Injector, error) {
	if err := cfg.Validate(f); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	return &Injector{cfg: cfg}, nil
}

// stream is the decision stream keyed by key: FNV-64a over the seed's eight
// little-endian bytes followed by key.
func (in *Injector) stream(key []byte) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(in.cfg.Seed))
	h.Write(b[:])
	h.Write(key)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Decision is one planned injection; Kind is KindNone when nothing is
// injected. Iteration is the block-relative iteration an execution fault
// strikes at, Bit the payload bit a wire corruption flips (modulo the
// payload's length, which the planner does not know), and Hold how long a
// stall or an upload delay waits.
type Decision struct {
	Kind      Kind
	Iteration int
	Bit       uint64
	Hold      time.Duration
}

// Corrupt applies the corruption family to a sorted unique set — the host
// reading the device's result memory — and returns the re-sorted,
// re-deduplicated corrupted set plus the count of injections per kind. Each
// entry's stream is keyed by its signature bytes, so corruption is a pure
// function of the collected set, and draws truncate, duplicate, bit-flip,
// out-of-range in that order. A duplicated entry that survives unmodified
// merges back during re-deduplication with a doubled observation count
// (benign corruption the pipeline absorbs); flips and out-of-range writes
// produce entries the decoder must quarantine or, when the flip lands on
// another valid encoding, silently mimic.
func (in *Injector) Corrupt(uniques []sig.Unique) ([]sig.Unique, map[Kind]int) {
	if in == nil || !in.cfg.sets(Corruption) {
		return uniques, nil
	}
	injected := make(map[Kind]int)
	out := make([]sig.Unique, 0, len(uniques))
	for _, u := range uniques {
		rng := in.stream(u.Sig.AppendBinary(nil))
		if rng.Float64() < in.cfg.Rate[KindTruncate] {
			injected[KindTruncate]++
			continue
		}
		if rng.Float64() < in.cfg.Rate[KindDuplicate] {
			injected[KindDuplicate]++
			out = append(out, u)
		}
		cu := u
		if rng.Float64() < in.cfg.Rate[KindBitFlip] {
			injected[KindBitFlip]++
			words := cu.Sig.Words()
			words[rng.Intn(len(words))] ^= 1 << uint(rng.Intn(64))
			cu.Sig = sig.New(words)
		}
		if rng.Float64() < in.cfg.Rate[KindOutOfRange] {
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

// shardPlan decides the execution fault for one shard attempt, its stream
// keyed by the shard's global iteration block (start, count) and drawing
// panic, then stall. Faults are transient: only attempt 0 can fault, so a
// retried shard completes and the campaign's results stay worker-invariant.
func (in *Injector) shardPlan(start, count, attempt int) Decision {
	if in == nil || attempt > 0 || count <= 0 || !in.cfg.sets(Execution) {
		return Decision{}
	}
	var key [16]byte
	binary.LittleEndian.PutUint64(key[0:], uint64(start))
	binary.LittleEndian.PutUint64(key[8:], uint64(count))
	rng := in.stream(key[:])
	if rng.Float64() < in.cfg.Rate[KindPanic] {
		return Decision{Kind: KindPanic, Iteration: rng.Intn(count)}
	}
	if rng.Float64() < in.cfg.Rate[KindStall] {
		return Decision{Kind: KindStall, Iteration: rng.Intn(count), Hold: in.cfg.hold()}
	}
	return Decision{}
}

// WrapShard returns the execution source for one shard attempt: the inner
// runner as-is when no fault is planned, or wrapped to trigger the planned
// stall or panic.
func (in *Injector) WrapShard(ctx context.Context, inner sim.Source, start, count, attempt int) sim.Source {
	d := in.shardPlan(start, count, attempt)
	if d.Kind == KindNone {
		return inner
	}
	return &shardRunner{inner: inner, ctx: ctx, d: d}
}

// shardRunner wraps a sim.Source, injecting one planned stall or panic at a
// fixed block-relative iteration. Like the runner it wraps, it is owned by a
// single goroutine.
type shardRunner struct {
	inner sim.Source
	ctx   context.Context
	d     Decision
	i     int
}

// RunSeeded delegates to the wrapped source, first triggering the planned
// fault when its iteration is reached: a panic unwinds into the shard's
// recover handler; a stall blocks until its hold elapses or the shard's
// context is done (the campaign was cancelled).
func (r *shardRunner) RunSeeded(seed int64) (*sim.Execution, error) {
	i := r.i
	r.i++
	if i == r.d.Iteration {
		switch r.d.Kind {
		case KindPanic:
			panic(fmt.Sprintf("fault: injected shard panic at block iteration %d", i))
		case KindStall:
			select {
			case <-r.ctx.Done():
				return nil, r.ctx.Err()
			case <-time.After(r.d.Hold):
			}
		}
	}
	return r.inner.RunSeeded(seed)
}

// Quarantined is one corrupted signature held out of checking instead of
// aborting the run: the Algorithm 1 decoder rejected it (out-of-range index,
// nonzero residue, wrong word count).
type Quarantined struct {
	Sig   sig.Signature
	Count int   // observations the entry claimed
	Err   error // the decode failure
}
