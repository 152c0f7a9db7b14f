package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	mtc "mtracecheck"
	"mtracecheck/internal/eventq"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/sig"
)

// micro measures the layers a campaign reaches only through the simulator or
// not at all — the event queue, one coherence transaction of each kind, the
// signature set and file format, the corpus — by driving their dense entry
// points directly.
func (t *traced) micro(root int) error {
	parent := t.rec.begin("micro", root)
	defer t.rec.end(parent)
	for _, step := range []func(parent int) error{t.eventQueue, t.memSystem, t.sigLayer, t.corpusLayer} {
		if err := step(parent); err != nil {
			return err
		}
	}
	return nil
}

// eventQueue times one typed Push plus one Step at a steady queue depth.
// Delays are small bounded integers, as the engine's are.
func (t *traced) eventQueue(parent int) error {
	rng := rand.New(rand.NewSource(1))
	delays := make([]eventq.Time, 4096)
	for i := range delays {
		delays[i] = eventq.Time(1 + rng.Intn(64))
	}
	pairs := 200_000 / t.cfg.scale
	for _, depth := range []struct {
		n      int
		metric string
	}{{32, "eventq.push_pop_ns_d32"}, {512, "eventq.push_pop_ns_d512"}} {
		var samples []float64
		for round := 0; round < 5; round++ {
			q := eventq.New()
			q.SetHandler(func(eventq.Event) {})
			for i := 0; i < depth.n; i++ {
				q.PushAfter(delays[i%len(delays)], eventq.Event{Kind: 1})
			}
			d, _ := t.span("eventq.push_pop", parent, func() error {
				for i := 0; i < pairs; i++ {
					q.Step()
					q.PushAfter(delays[i%len(delays)], eventq.Event{Kind: 1})
				}
				return nil
			})
			samples = append(samples, ns(d)/float64(pairs))
		}
		t.out.put(depth.metric, samples...)
	}
	return nil
}

// memSystem drives a standalone mem.System, one operation in flight at a
// time, through the four transactions the campaign workloads are made of.
// Each round touches 256 lines that map to distinct L1 sets, so nothing is
// evicted; the phase before the timed one puts the lines in the state the
// transaction needs.
func (t *traced) memSystem(parent int) error {
	const lines = 256
	rounds := max(20/t.cfg.scale, 2)
	q := eventq.New()
	s, err := mem.NewSystem(q, mtc.PlatformX86().Mem, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	q.SetHandler(s.Dispatch)
	s.SetCompleteHook(func(int64, uint32) {})
	s.SetInvalHook(func(int, uint64) {})
	addr := func(line int) uint64 { return 0x10000 + uint64(line)*64 }
	events := 0
	drain := func() {
		for q.Step() {
			events++
		}
	}
	each := func(f func(line int)) {
		for line := 0; line < lines; line++ {
			f(line)
			drain()
		}
	}
	read := func(core int) func(int) { return func(line int) { s.Read(core, addr(line), 0) } }
	write := func(core int) func(int) { return func(line int) { s.Write(core, addr(line), 1, 0) } }
	timed := func(name string, op func(int)) float64 {
		d, _ := t.span(name, parent, func() error { each(op); return nil })
		return ns(d) / lines
	}
	var miss, hit, c2c, upgrade []float64
	missEvents := 0
	for round := 0; round < rounds; round++ {
		if err := s.Reset(); err != nil {
			return err
		}
		events = 0
		miss = append(miss, timed("mem.read_miss", read(0)))
		missEvents += events
		hit = append(hit, timed("mem.read_hit", read(0)))

		if err := s.Reset(); err != nil {
			return err
		}
		each(write(0)) // core 0 holds every line Modified
		c2c = append(c2c, timed("mem.c2c_transfer", read(1)))

		if err := s.Reset(); err != nil {
			return err
		}
		each(read(0))
		each(read(1)) // both cores hold every line Shared
		upgrade = append(upgrade, timed("mem.upgrade", write(0)))
	}
	t.out.put("mem.read_miss_ns", miss...)
	t.out.put("mem.read_hit_ns", hit...)
	t.out.put("mem.c2c_transfer_ns", c2c...)
	t.out.put("mem.upgrade_ns", upgrade...)
	t.out.put("mem.events_per_miss", float64(missEvents)/float64(lines*rounds))
	return nil
}

// sigLayer times the signature set's two insertion paths, the k-way merge
// of per-chunk sets, and the set file format, all on the replayed uniques.
func (t *traced) sigLayer(parent int) error {
	rp := t.rp
	n := float64(len(rp.sorted))
	var missNs, hitNs, mergeNs, writeNs, readNs []float64
	const hitPasses = 4
	for round := 0; round < 5; round++ {
		set := sig.NewSet()
		d, _ := t.span("sig.add_miss", parent, func() error {
			for _, u := range rp.sorted {
				set.AddWords(u.Sig.Words())
			}
			return nil
		})
		missNs = append(missNs, ns(d)/n)
		d, _ = t.span("sig.add_hit", parent, func() error {
			for pass := 0; pass < hitPasses; pass++ {
				for _, u := range rp.sorted {
					set.AddWords(u.Sig.Words())
				}
			}
			return nil
		})
		hitNs = append(hitNs, ns(d)/(n*hitPasses))

		d, _ = t.span("sig.merge", parent, func() error {
			sig.MergeSets(rp.chunks...)
			return nil
		})
		mergeNs = append(mergeNs, ns(d)/n)

		var file bytes.Buffer
		meta := sig.FileMeta{ProgHash: mtc.ProgramHash(t.in.prog), Seed: t.cfg.seed, Platform: t.in.opts.Platform.Name}
		d, err := t.span("sig.write", parent, func() error { return sig.WriteSetMeta(&file, meta, rp.sorted) })
		if err != nil {
			return err
		}
		writeNs = append(writeNs, ns(d)/n)
		d, err = t.span("sig.read", parent, func() error {
			_, _, err := sig.ReadSetMeta(bytes.NewReader(file.Bytes()))
			return err
		})
		if err != nil {
			return err
		}
		readNs = append(readNs, ns(d)/n)
	}
	t.out.put("sig.add_miss_ns", missNs...)
	t.out.put("sig.add_hit_ns", hitNs...)
	t.out.put("sig.merge_ns_per_unique", mergeNs...)
	t.out.put("sig.write_ns_per_unique", writeNs...)
	t.out.put("sig.read_ns_per_unique", readNs...)
	return nil
}

// corpusLayer times the corpus store's operations on the replayed uniques
// and the one thing the corpus is for: a warm Check against a cold one.
func (t *traced) corpusLayer(parent int) error {
	rp, p, plat := t.rp, t.in.prog, t.in.opts.Platform
	n := float64(len(rp.sorted))
	path := filepath.Join(t.cfg.outDir, t.w.Name+".corpus.tmp")
	checkPath := filepath.Join(t.cfg.outDir, t.w.Name+".corpus-check.tmp")
	os.Remove(path)
	os.Remove(checkPath)
	defer os.Remove(path)
	defer os.Remove(checkPath)

	key := mtc.CorpusKey{ProgHash: mtc.ProgramHash(p), Platform: plat.Name, MCM: mtc.ModelName(plat)}
	store, err := mtc.OpenCorpus(path)
	if err != nil {
		return err
	}
	d, _ := t.span("corpus.add", parent, func() error {
		for _, u := range rp.sorted {
			store.Add(key, u.Sig, t.cfg.seed)
		}
		return nil
	})
	t.out.put("corpus.add_ns", ns(d)/n)
	if d, err = t.span("corpus.flush", parent, func() error { _, err := store.Flush(); return err }); err != nil {
		return err
	}
	t.out.put("corpus.flush_ms", ms(d))
	var opens []float64
	for i := 0; i < 3; i++ {
		if d, err = t.span("corpus.open", parent, func() (err error) { store, err = mtc.OpenCorpus(path); return }); err != nil {
			return err
		}
		opens = append(opens, ms(d))
	}
	t.out.put("corpus.open_ms", opens...)
	keys := make([][]byte, len(rp.sorted))
	for i, u := range rp.sorted {
		keys[i] = u.Sig.AppendBinary(nil)
	}
	known := 0
	d, _ = t.span("corpus.contains", parent, func() error {
		for _, k := range keys {
			if store.Contains(key, k) {
				known++
			}
		}
		return nil
	})
	if known != len(keys) {
		t.fail("corpus: %d of %d flushed signatures found after reopening", known, len(keys))
	}
	t.out.put("corpus.contains_ns", ns(d)/n)

	// Cold: empty corpus, every unique decoded, checked, appended, flushed.
	// Warm: the corpus the cold run left, every unique a hit.
	check := func(name string) (time.Duration, *mtc.Report, error) {
		store, err := mtc.OpenCorpus(checkPath)
		if err != nil {
			return 0, nil, err
		}
		o := t.in.opts
		o.Workers, o.Corpus = 1, store
		c, err := mtc.NewCampaign(p, o)
		if err != nil {
			return 0, nil, err
		}
		var report *mtc.Report
		d, err := t.span(name, parent, func() (err error) { report, err = c.Check(t.ctx, rp.sorted); return })
		return d, report, err
	}
	cold, _, err := check("campaign.check_cold")
	if err != nil {
		return err
	}
	warm, report, err := check("campaign.check_warm")
	if err != nil {
		return err
	}
	if report.CorpusHits != len(rp.sorted) || report.Failed() {
		t.fail("corpus: warm check hit %d of %d uniques (failed=%v)", report.CorpusHits, len(rp.sorted), report.Failed())
	}
	t.out.put("corpus.warm_check_speedup", cold.Seconds()/warm.Seconds())
	return nil
}
