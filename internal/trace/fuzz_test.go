package trace_test

import (
	"bytes"
	"errors"
	"testing"

	"rrnorm/internal/check"
	"rrnorm/internal/core"
	"rrnorm/internal/trace"
)

// FuzzTraceDecode pins the decoder's two contracts:
//
//  1. Totality: arbitrary bytes never panic and never yield an invalid
//     job — every non-nil error is a structured DecodeError (positive
//     line, wraps core.ErrBadSource) and a successful drain yields only
//     jobs Instance.Validate would accept, in release order (unless Sort,
//     which must yield (Release, ID) order).
//  2. Round-trip identity: encode(RandomInstance) decodes back bit for
//     bit, in both formats.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte(`{"id":0,"release":0,"size":1}`+"\n"), uint8(0), false, uint64(1))
	f.Add([]byte("id,release,size\n0,0,1\n1,2,0.5\n"), uint8(1), false, uint64(2))
	f.Add([]byte(`{"id":0,"release":5,"size":1}`+"\n"+`{"id":1,"release":2,"size":1}`+"\n"), uint8(0), true, uint64(3))
	f.Add([]byte("id,release\n"), uint8(1), false, uint64(4))
	f.Add([]byte("#\n\nnot json at all"), uint8(0), false, uint64(5))
	// NDJSON keys and values outside the grammar, each a DecodeError.
	f.Add([]byte(`{"ID":0,"release":0,"size":1}`+"\n"), uint8(0), false, uint64(6))
	f.Add([]byte(`{"\u0069d":0,"release":0,"size":1}`+"\n"), uint8(0), false, uint64(7))
	f.Add([]byte(`{"id":0,"release":0,"size":1,"size":5}`+"\n"), uint8(0), false, uint64(8))
	f.Add([]byte(`{"id":0,"release":0,"size":1,"weight":null}`+"\n"), uint8(0), false, uint64(9))
	f.Fuzz(func(t *testing.T, data []byte, format uint8, sortOpt bool, seed uint64) {
		opts := trace.DecodeOptions{Format: trace.Format(format % 2), Sort: sortOpt}
		d := trace.NewDecoder(bytes.NewReader(data), opts)
		var jobs []core.Job
		for {
			j, ok, err := d.Next()
			if err != nil {
				var de *trace.DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("non-structured decode error %T: %v", err, err)
				}
				if de.Line <= 0 {
					t.Fatalf("DecodeError with non-positive line %d: %v", de.Line, err)
				}
				if !errors.Is(err, core.ErrBadSource) {
					t.Fatalf("DecodeError does not wrap core.ErrBadSource: %v", err)
				}
				// Latched: the same error again, no further jobs.
				if _, ok2, err2 := d.Next(); ok2 || err2 != err {
					t.Fatalf("error not latched: ok=%v err=%v", ok2, err2)
				}
				return
			}
			if !ok {
				break
			}
			jobs = append(jobs, j)
		}
		// A successful drain yields a valid, release-ordered instance.
		ids := make(map[int]bool, len(jobs))
		for i, j := range jobs {
			if ids[j.ID] {
				t.Fatalf("job %d: duplicate id %d survived decoding", i, j.ID)
			}
			ids[j.ID] = true
			if i > 0 && j.Release < jobs[i-1].Release {
				t.Fatalf("job %d: release %v after %v despite clean decode", i, j.Release, jobs[i-1].Release)
			}
			if sortOpt && i > 0 && j.Release == jobs[i-1].Release && j.ID < jobs[i-1].ID {
				t.Fatalf("job %d: sorted trace violates the (Release, ID) tie-break", i)
			}
		}
		if len(jobs) > 0 {
			if err := (&core.Instance{Jobs: jobs}).Validate(); err != nil {
				t.Fatalf("decoded jobs fail Instance.Validate: %v", err)
			}
		}

		// Round-trip identity on a random valid instance.
		in := check.RandomInstance(seed % 4096)
		var buf bytes.Buffer
		if err := trace.Encode(&buf, in.Jobs, opts.Format); err != nil {
			t.Fatalf("encode RandomInstance: %v", err)
		}
		rt := trace.NewDecoder(&buf, trace.DecodeOptions{Format: opts.Format})
		var got []core.Job
		for {
			j, ok, err := rt.Next()
			if err != nil {
				t.Fatalf("round-trip decode: %v", err)
			}
			if !ok {
				break
			}
			got = append(got, j)
		}
		if len(got) != len(in.Jobs) {
			t.Fatalf("round-trip: %d jobs, want %d", len(got), len(in.Jobs))
		}
		for i := range got {
			if got[i] != in.Jobs[i] {
				t.Fatalf("round-trip job %d: %+v, want %+v", i, got[i], in.Jobs[i])
			}
		}
	})
}
