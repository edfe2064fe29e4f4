package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"rrnorm/internal/core"
)

// FuzzNDJSONLine fuzzes scanNDJSON, the only NDJSON line parser, for
// three properties:
//
//  1. Totality: no line panics, and a rejected line is a *DecodeError on
//     the decoder's line with a reason.
//  2. A test-only oracle: whenever the parser accepts a line, a strict
//     encoding/json decode (unknown fields disallowed, id, release and
//     size required, nothing after the object) accepts it too and yields
//     the same job bit for bit. Lines encoding/json would take and the
//     grammar does not ("ID", escaped or duplicate keys, null) assert
//     nothing here; TestDecodeMalformed pins their errors.
//  3. Round trip: Encode writes the accepted job as a line that parses
//     back to the same bits. Encode omits a zero weight, so a weight of
//     -0 comes back as 0; weights are compared by value.
//
// The seeds include every line of the committed replay fixture, each of
// which must decode.
func FuzzNDJSONLine(f *testing.F) {
	for _, s := range []string{
		`{"id":0,"release":0,"size":1}`,
		`{"size":2,"weight":0.5,"id":-3,"release":1e-3}`,
		// Keys outside the grammar.
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
		// More keys and values outside the grammar, and bare layouts.
		`{"id":0,"release":0,"size":1,"size":5}`,
		`{"id":0,"release":0,"size":1,"weight":null}`,
		`{"id":0,"release":0,"size":1,"weight":-0}`,
		`{"a\"b":0}`,
		`{"id":0 "release":0,"size":1}`,
		`{}`,
		`{"id"`,
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
		if _, err := (&Decoder{line: n}).scanNDJSON(line); err != nil {
			f.Fatalf("fixture line %d %q: %v", n, line, err)
		}
		f.Add(bytes.Clone(line))
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := (&Decoder{line: 1}).scanNDJSON(line)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) || de.Line != 1 || de.Reason == "" {
				t.Fatalf("line %q: error %#v, want a DecodeError on line 1 with a reason", line, err)
			}
			return
		}
		want, err := strictJSON(line)
		if err != nil {
			t.Fatalf("parser accepted %q, encoding/json rejects it: %v", line, err)
		}
		if !sameBits(got, want) || math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
			t.Fatalf("line %q: parser %+v, encoding/json %+v", line, got, want)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, []core.Job{got}, FormatNDJSON); err != nil {
			t.Fatal(err)
		}
		enc := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		back, err := (&Decoder{line: 1}).scanNDJSON(enc)
		if err != nil {
			t.Fatalf("line %q: Encode wrote %q, which does not parse: %v", line, enc, err)
		}
		if !sameBits(back, got) || back.Weight != got.Weight {
			t.Fatalf("line %q: round trip through %q gave %+v, want %+v", line, enc, back, got)
		}
	})
}

// sameBits reports whether a and b have the same id and the same release
// and size bits.
func sameBits(a, b core.Job) bool {
	return a.ID == b.ID &&
		math.Float64bits(a.Release) == math.Float64bits(b.Release) &&
		math.Float64bits(a.Size) == math.Float64bits(b.Size)
}

// strictJSON decodes one NDJSON line with encoding/json as strictly as it
// allows: unknown fields are errors, id, release and size are required,
// and nothing may follow the object.
func strictJSON(line []byte) (core.Job, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var rec struct {
		ID      *int     `json:"id"`
		Release *float64 `json:"release"`
		Size    *float64 `json:"size"`
		Weight  *float64 `json:"weight"`
	}
	if err := dec.Decode(&rec); err != nil {
		return core.Job{}, err
	}
	if dec.InputOffset() != int64(len(line)) {
		return core.Job{}, errors.New("data after the object")
	}
	if rec.ID == nil || rec.Release == nil || rec.Size == nil {
		return core.Job{}, errors.New("missing required field")
	}
	j := core.Job{ID: *rec.ID, Release: *rec.Release, Size: *rec.Size}
	if rec.Weight != nil {
		j.Weight = *rec.Weight
	}
	return j, nil
}
