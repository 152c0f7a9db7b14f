package fault

import (
	"bytes"
	"testing"
	"time"
)

func TestWireConfigValidate(t *testing.T) {
	if err := (Config{Rate: Rates{KindWireCorrupt: 1.5}}).Validate(anyFamily); err == nil {
		t.Error("rate > 1 accepted")
	}
	if err := (Config{Rate: Rates{KindWireDrop: -0.1}}).Validate(anyFamily); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Config{Hold: -time.Second}).Validate(anyFamily); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := NewInjector(Config{Rate: Rates{KindWireCorrupt: 0.5, KindWireDrop: 0.1}}, anyFamily); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if (Config{}).Enabled() {
		t.Error("zero config claims enabled")
	}
}

func TestWirePlanDeterministic(t *testing.T) {
	in, err := NewInjector(Config{Seed: 7, Rate: Rates{KindWireCorrupt: 0.5, KindWireDrop: 0.2, KindWireDelay: 0.2}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	for chunk := 0; chunk < 50; chunk++ {
		a := in.planUpload("job-1", chunk, 0)
		b := in.planUpload("job-1", chunk, 0)
		if a != b {
			t.Fatalf("chunk %d: plan not deterministic: %+v vs %+v", chunk, a, b)
		}
	}
	// Attempts draw independent decisions.
	diff := false
	for chunk := 0; chunk < 50 && !diff; chunk++ {
		diff = in.planUpload("job-1", chunk, 0) != in.planUpload("job-1", chunk, 1)
	}
	if !diff {
		t.Error("attempt number never changed the plan across 50 chunks")
	}
}

func TestWireMangleUpload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAA}, 64)

	corrupt, _ := NewInjector(Config{Seed: 1, Rate: Rates{KindWireCorrupt: 1}}, anyFamily)
	out, f := corrupt.MangleUpload(payload, "j", 0, 0)
	if f.Kind != KindWireCorrupt {
		t.Fatalf("fault %v, want wire-corrupt", f.Kind)
	}
	if bytes.Equal(out, payload) {
		t.Error("corrupt left the payload unchanged")
	}
	nFlipped := 0
	for i := range out {
		if out[i] != payload[i] {
			nFlipped++
		}
	}
	if nFlipped != 1 {
		t.Errorf("%d bytes changed, want exactly 1", nFlipped)
	}
	if payload[0] != 0xAA {
		t.Error("corrupt mutated the caller's payload")
	}

	drop, _ := NewInjector(Config{Seed: 1, Rate: Rates{KindWireDrop: 1}}, anyFamily)
	if out, f := drop.MangleUpload(payload, "j", 0, 0); out != nil || f.Kind != KindWireDrop {
		t.Errorf("drop: payload %v fault %v", out != nil, f.Kind)
	}

	delay, _ := NewInjector(Config{Seed: 1, Rate: Rates{KindWireDelay: 1}, Hold: time.Millisecond}, anyFamily)
	if out, f := delay.MangleUpload(payload, "j", 0, 0); !bytes.Equal(out, payload) ||
		f.Kind != KindWireDelay || f.Hold != time.Millisecond {
		t.Errorf("delay: fault %+v", f)
	}

	clean, _ := NewInjector(Config{}, anyFamily)
	if out, f := clean.MangleUpload(payload, "j", 0, 0); !bytes.Equal(out, payload) || f.Kind != KindNone {
		t.Errorf("clean: fault %v", f.Kind)
	}
}
