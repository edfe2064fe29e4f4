package workload

import (
	"bytes"
	"strings"
	"testing"

	"rrnorm/internal/trace"
)

// FuzzReadCSV ensures a CSV job trace read through trace:path= never
// panics, and that anything it accepts is a valid instance that comes
// back bit for bit after trace.Encode.
func FuzzReadCSV(f *testing.F) {
	f.Add("id,release,size\n1,0,1\n")
	f.Add("id,release,size,weight\n1,0,1,2\n2,3,0.5,0\n")
	f.Add("id,release,size\n1,0,-1\n")
	f.Add("")
	f.Add("id,release,size\n1,NaN,1\n")
	f.Fuzz(func(t *testing.T, data string) {
		in, err := fromCSVTrace(t, data)
		if err != nil {
			return
		}
		if vErr := in.Validate(); vErr != nil {
			t.Fatalf("accepted invalid instance: %v", vErr)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, in.Jobs, trace.FormatCSV); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := fromCSVTrace(t, buf.String())
		if err != nil {
			t.Fatalf("round-trip failed: %v", err)
		}
		requireJobs(t, back.Jobs, in.Jobs)
	})
}

// FuzzFromSpec ensures the spec parser never panics and that accepted
// specs yield valid instances.
func FuzzFromSpec(f *testing.F) {
	f.Add("poisson:n=10,load=0.5")
	f.Add("cascade:levels=3,theta=0.8")
	f.Add("batch:n=3,dist=pareto,alpha=2,xm=1")
	f.Add("rrstream:groups=4,m=2")
	f.Add("nope:zzz")
	f.Add(":::::")
	f.Fuzz(func(t *testing.T, spec string) {
		// Guard against pathological sizes from fuzzed n values.
		if len(spec) > 200 {
			return
		}
		in, err := FromSpec(spec, 1)
		if err != nil {
			return
		}
		if in.N() > 1_000_000 {
			return // generator size is attacker-controlled; skip validation cost
		}
		if vErr := in.Validate(); vErr != nil {
			t.Fatalf("spec %q accepted but invalid: %v", spec, vErr)
		}
	})
}

// FuzzReadSWF ensures the SWF parser never panics on arbitrary input.
func FuzzReadSWF(f *testing.F) {
	f.Add("; comment\n1 0 2 100 4\n")
	f.Add("1 0 2 -1 4\n")
	f.Add("garbage\n")
	f.Fuzz(func(t *testing.T, data string) {
		in, err := ReadSWF(strings.NewReader(data), SWFOptions{MaxJobs: 1000})
		if err != nil {
			return
		}
		if vErr := in.Validate(); vErr != nil {
			t.Fatalf("accepted invalid SWF instance: %v", vErr)
		}
	})
}
