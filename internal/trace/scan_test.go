package trace

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"testing"
)

// FuzzNDJSONLine holds the in-place NDJSON scanner to encoding/json:
// whenever scanNDJSON accepts a line, decodeJSON must accept it too and
// yield the same job bit for bit. Lines the scanner declines are
// decodeJSON's alone, so the target asserts nothing about them. The seeds
// include every line of the committed replay fixture, each of which must
// take the in-place path.
func FuzzNDJSONLine(f *testing.F) {
	for _, s := range []string{
		`{"id":0,"release":0,"size":1}`,
		`{"size":2,"weight":0.5,"id":-3,"release":1e-3}`,
		// Keys encoding/json alone judges.
		`{"ID":0,"release":0,"size":1}`,
		`{"\u0069d":0,"release":0,"size":1}`,
		`{"id":0,"id":1,"release":0,"size":1}`,
		// Values.
		`{"id":null,"release":0,"size":1}`,
		`{"id":1.0,"release":0,"size":1}`,
		`{"id":1e2,"release":0,"size":1}`,
		`{"id":99999999999999999999,"release":0,"size":1}`,
		`{"id":0,"release":1e400,"size":1}`,
		`{"id":-0,"release":-0,"size":1}`,
		`{"id":01,"release":0,"size":1}`,
		`{"id":0,"release":.5,"size":1}`,
		`{"id":+1,"release":0,"size":1}`,
		// Layout.
		"{\t\"id\"\t:\r0\r,\"release\" : 0 ,\"size\":1\t}",
		`{"id":0,"release":0,"size":1,}`,
		`{"id":0,"release":0,"size":1} {"id":1}`,
		`{"id":0,"release":0,"size":1}}`,
		`{"id":1,"release":0,"size":1}]`,
	} {
		f.Add([]byte(s))
	}
	fixture, err := os.Open("../../testdata/replay/fixture.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	defer fixture.Close()
	sc := bufio.NewScanner(fixture)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if _, ok := scanNDJSON(line); !ok {
			f.Fatalf("fixture line %d %q does not take the in-place path", n, line)
		}
		f.Add(bytes.Clone(line))
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := scanNDJSON(line)
		if !ok {
			return
		}
		want, err := (&Decoder{line: 1}).decodeJSON(line)
		if err != nil {
			t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", line, err)
		}
		if got.ID != want.ID ||
			math.Float64bits(got.Release) != math.Float64bits(want.Release) ||
			math.Float64bits(got.Size) != math.Float64bits(want.Size) ||
			math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
			t.Fatalf("line %q: scanner %+v, encoding/json %+v", line, got, want)
		}
	})
}
