package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Fingerprint returns a canonical SHA-256 digest of a simulation request:
// the normalized instance (jobs sorted by (Release, ID)), the policy name
// and the result-affecting options. Two calls fingerprint equal iff they
// describe the same simulation, independent of the caller's job order —
// this is the cache key rrserve uses to dedupe and memoize results.
//
// Engine is part of the key on purpose: the engines agree within the
// differential harness's tolerances, not bit-for-bit, and cached responses
// are served byte-identical to what that engine would produce.
func Fingerprint(in *Instance, policyName string, opts Options) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(f float64) { u64(math.Float64bits(f)) }

	h.Write([]byte("rrnorm/fp/v1\x00"))
	h.Write([]byte(policyName))
	h.Write([]byte{0})
	u64(uint64(int64(opts.Machines)))
	f64(opts.Speed)
	u64(uint64(int64(opts.Engine)))
	// This word held a segment-recording flag, since removed; writing the
	// zero it read when unset keeps every key byte-identical.
	u64(0)
	// Machine-model bits are appended only for non-default models, so every
	// fingerprint ever computed for the paper's setting is unchanged (cached
	// entries and goldens survive the model's introduction). Speeds hash in
	// canonical (descending) order: two requests differing only in machine
	// order describe the same simulation and share a cache entry. A marker
	// strictly larger than any job count keeps the block unambiguous against
	// the job stream that follows.
	if mm := &opts.MachineModel; !mm.Default() {
		h.Write([]byte("machmodel\x00"))
		sp := mm.CanonSpeeds()
		u64(uint64(len(sp)))
		for _, s := range sp {
			f64(s)
		}
		f64(mm.PreemptCost)
	}

	cl := in.Clone()
	cl.Normalize()
	u64(uint64(cl.N()))
	for _, j := range cl.Jobs {
		u64(uint64(int64(j.ID)))
		f64(j.Release)
		f64(j.Size)
		f64(j.Weight)
	}
	return hex.EncodeToString(h.Sum(nil))
}
