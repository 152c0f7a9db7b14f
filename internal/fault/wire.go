package fault

import "encoding/binary"

// planUpload decides the wire fault for one send of a chunk upload, its
// stream keyed by (job, chunk, send) and drawing drop, corrupt, delay in
// that order. The caller numbers its own sends of each chunk, so a retried
// upload draws a fresh decision and a test fleet's behavior replays
// bit-for-bit.
func (in *Injector) planUpload(job string, chunk, send int) Decision {
	if in == nil || !in.cfg.sets(Wire) {
		return Decision{}
	}
	key := binary.LittleEndian.AppendUint64([]byte(job), uint64(chunk))
	rng := in.stream(binary.LittleEndian.AppendUint64(key, uint64(send)))
	if rng.Float64() < in.cfg.Rate[KindWireDrop] {
		return Decision{Kind: KindWireDrop}
	}
	if rng.Float64() < in.cfg.Rate[KindWireCorrupt] {
		return Decision{Kind: KindWireCorrupt, Bit: rng.Uint64()}
	}
	if rng.Float64() < in.cfg.Rate[KindWireDelay] {
		return Decision{Kind: KindWireDelay, Hold: in.cfg.hold()}
	}
	return Decision{}
}

// MangleUpload applies the wire family to one send of an encoded chunk
// upload: a corrupt flips one bit (in a copy) and returns it, a drop returns
// nil (the caller skips the send and lets the lease expire), and a delay
// returns the payload unchanged with the hold to wait before sending. The
// returned Decision reports what was applied.
func (in *Injector) MangleUpload(payload []byte, job string, chunk, send int) ([]byte, Decision) {
	d := in.planUpload(job, chunk, send)
	switch d.Kind {
	case KindWireDrop:
		return nil, d
	case KindWireCorrupt:
		if len(payload) == 0 {
			return payload, Decision{}
		}
		out := make([]byte, len(payload))
		copy(out, payload)
		bit := d.Bit % uint64(len(out)*8)
		out[bit/8] ^= 1 << (bit % 8)
		return out, d
	}
	return payload, d
}
