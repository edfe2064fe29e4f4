package trace_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"rrnorm/internal/core"
	"rrnorm/internal/trace"
)

func drain(t *testing.T, d *trace.Decoder) ([]core.Job, error) {
	t.Helper()
	var jobs []core.Job
	for {
		j, ok, err := d.Next()
		if err != nil {
			return jobs, err
		}
		if !ok {
			return jobs, nil
		}
		jobs = append(jobs, j)
	}
}

func TestDecodeNDJSON(t *testing.T) {
	in := `
# a comment and the blank line above are skipped
{"id":0,"release":0,"size":2}
{"id":1,"release":0.5,"size":1.25,"weight":3}

{"id":2,"release":0.5,"size":0}
{"id":3,"release":0.5000000000000000000000000001,"size":1e-400}
{"id":4,"release":0.5,"size":9007199254740993}
{"id":5,"release":0.5,"size":1.00000000000000011102230246251565404236316680908203125}
`
	jobs, err := drain(t, trace.NewDecoder(strings.NewReader(in), trace.DecodeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.5, Size: 1.25, Weight: 3},
		{ID: 2, Release: 0.5, Size: 0},
		// The numbers the Eisel–Lemire path hands to strconv: more than 19
		// digits, an exponent past the power table, exact halfway cases.
		{ID: 3, Release: 0.5, Size: 0},
		{ID: 4, Release: 0.5, Size: 9007199254740992},
		{ID: 5, Release: 0.5, Size: 1},
	}
	if len(jobs) != len(want) {
		t.Fatalf("decoded %d jobs, want %d", len(jobs), len(want))
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Fatalf("job %d: %+v, want %+v", i, jobs[i], want[i])
		}
	}
}

func TestDecodeCSV(t *testing.T) {
	in := "size, id ,release\n" + // permuted header with spaces
		"2,0,0\n" +
		"# mid-trace comment\n" +
		"\u00a03\u00a0,2,0.25\n" + // U+00A0 padding
		"1e1,-3,2.5E-1\n" + // exponents and a negative id, as JSON writes them
		"1.25, 1, 0.5\n" +
		"1,4,0.5000000000000000000000000001\n" + // more than 19 digits
		"1e-400,5,0.5\n" + // exponent below the power table: size 0
		"9007199254740993,6,0.5\n" + // halfway: ties to even
		"1.00000000000000011102230246251565404236316680908203125,7,0.5\n" // halfway, 55 digits
	jobs, err := drain(t, trace.NewDecoder(strings.NewReader(in), trace.DecodeOptions{Format: trace.FormatCSV}))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Job{{ID: 0, Release: 0, Size: 2}, {ID: 2, Release: 0.25, Size: 3}, {ID: -3, Release: 0.25, Size: 10}, {ID: 1, Release: 0.5, Size: 1.25}}
	want = append(want, core.Job{ID: 4, Release: 0.5, Size: 1}, core.Job{ID: 5, Release: 0.5, Size: 0},
		core.Job{ID: 6, Release: 0.5, Size: 9007199254740992}, core.Job{ID: 7, Release: 0.5, Size: 1})
	if !slices.Equal(jobs, want) {
		t.Fatalf("decoded %+v, want %+v", jobs, want)
	}
}

// TestDecodeMalformed is the malformed-trace table: every structural and
// semantic violation must surface as a DecodeError naming the offending
// line and field — never a silent skip, never a panic — and must unwrap to
// core.ErrBadSource.
func TestDecodeMalformed(t *testing.T) {
	cases := []struct {
		name  string
		opts  trace.DecodeOptions
		in    string
		line  int
		field string
		frag  string
	}{
		{
			name: "negative size",
			in:   `{"id":0,"release":0,"size":-1}`,
			line: 1, field: "size", frag: "negative or non-finite size",
		},
		{
			name: "infinite size csv",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0,0,Inf\n",
			line: 2, field: "size", frag: `invalid number "Inf"`,
		},
		{
			name: "NaN release csv",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0,NaN,1\n",
			line: 2, field: "release", frag: `invalid number "NaN"`,
		},
		{
			name: "csv signed id",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n+2,0,1\n",
			line: 2, field: "id", frag: `invalid integer "+2"`,
		},
		{
			name: "csv fractional id",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n1e2,0,1\n",
			line: 2, field: "id", frag: `invalid integer "1e2"`,
		},
		{
			name: "csv leading-zero id",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n07,0,1\n",
			line: 2, field: "id", frag: `invalid integer "07"`,
		},
		{
			name: "csv hex-float release",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0,0x1p-2,1\n",
			line: 2, field: "release", frag: `invalid number "0x1p-2"`,
		},
		{
			name: "csv digit separator size",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0,0,1_0\n",
			line: 2, field: "size", frag: `invalid number "1_0"`,
		},
		{
			name: "negative release",
			in:   `{"id":0,"release":-2,"size":1}`,
			line: 1, field: "release", frag: "invalid release",
		},
		{
			name: "negative weight",
			in:   `{"id":0,"release":0,"size":1,"weight":-1}`,
			line: 1, field: "weight", frag: "invalid weight",
		},
		{
			name: "duplicate id",
			in: `{"id":7,"release":0,"size":1}
{"id":7,"release":1,"size":1}`,
			line: 2, field: "id", frag: "duplicate job id 7",
		},
		{
			name: "duplicate sparse id",
			in: `{"id":-3,"release":0,"size":1}
{"id":-3,"release":1,"size":1}`,
			line: 2, field: "id", frag: "duplicate job id -3",
		},
		{
			name: "non-monotone release",
			in: `{"id":0,"release":5,"size":1}
{"id":1,"release":2,"size":1}`,
			line: 2, field: "release", frag: "earlier than release 5 on line 1",
		},
		{
			name: "missing field",
			in:   `{"id":0,"size":1}`,
			line: 1, field: "release", frag: "missing required field",
		},
		{
			name: "unknown field",
			in:   `{"id":0,"release":0,"size":1,"deadline":9}`,
			line: 1, field: "deadline", frag: "unknown key",
		},
		{
			name: "case-variant key",
			in:   `{"ID":0,"release":0,"size":1}`,
			line: 1, field: "ID", frag: "unknown key",
		},
		{
			name: "escaped key",
			in:   `{"\u0069d":0,"release":0,"size":1}`,
			line: 1, field: `\u0069d`, frag: "unknown key",
		},
		{
			name: "duplicate key",
			in:   `{"id":0,"release":0,"size":1,"size":5}`,
			line: 1, field: "size", frag: "duplicate key",
		},
		{
			name: "null weight",
			in:   `{"id":0,"release":0,"size":1,"weight":null}`,
			line: 1, field: "weight", frag: `invalid number "null"`,
		},
		{
			name: "null id",
			in:   `{"id":null,"release":0,"size":1}`,
			line: 1, field: "id", frag: `invalid integer "null"`,
		},
		{
			name: "leading-zero id",
			in:   `{"id":01,"release":0,"size":1}`,
			line: 1, field: "id", frag: `invalid integer "01"`,
		},
		{
			name: "missing comma",
			in:   `{"id":0 "release":0,"size":1}`,
			line: 1, field: "id", frag: `invalid JSON: found "\"", want ',' or '}'`,
		},
		{
			name: "trailing comma",
			in:   `{"id":0,"release":0,"size":1,}`,
			line: 1, frag: `invalid JSON: found "}", want '"' opening a key`,
		},
		{
			name: "unterminated key",
			in:   `{"id":0,"rel`,
			line: 1, frag: `invalid JSON: line ends, want '"' closing a key`,
		},
		{
			name: "empty object",
			in:   `{}`,
			line: 1, field: "id", frag: "missing required field",
		},
		{
			name: "trailing garbage",
			in:   `{"id":0,"release":0,"size":1} {"id":1}`,
			line: 1, frag: "trailing data",
		},
		{
			name: "stray closing brace",
			in:   `{"id":0,"release":0,"size":1}}`,
			line: 1, frag: "trailing data",
		},
		{
			name: "stray closing bracket",
			in: `{"id":0,"release":0,"size":1}
{"id":1,"release":0,"size":1}]`,
			line: 2, frag: "trailing data",
		},
		{
			name: "not json",
			in:   "hello world",
			line: 1, frag: "invalid JSON",
		},
		{
			name: "csv unknown column",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size,deadline\n",
			line: 1, field: "deadline", frag: "unknown column",
		},
		{
			name: "csv missing column",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release\n",
			line: 1, field: "size", frag: "missing required column",
		},
		{
			name: "csv field count",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n1,2\n",
			line: 2, frag: "2 fields, header has 3",
		},
		{
			name: "csv bad number",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0,zero,1\n",
			line: 2, field: "release", frag: "invalid number",
		},
		{
			name: "csv extra field",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0,0,1,2\n",
			line: 2, frag: "4 fields, header has 3 columns",
		},
		{
			name: "csv empty field",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0, ,1\n",
			line: 2, field: "release", frag: `invalid number ""`,
		},
		{
			name: "csv overflowing size",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0,0,1e400\n",
			line: 2, field: "size", frag: `invalid number "1e400"`,
		},
		{
			name: "overflowing size",
			in:   `{"id":0,"release":0,"size":1e400}`,
			line: 1, field: "size", frag: `invalid number "1e400"`,
		},
		{
			name: "csv lowercase inf size",
			opts: trace.DecodeOptions{Format: trace.FormatCSV},
			in:   "id,release,size\n0,0,inf\n",
			line: 2, field: "size", frag: `invalid number "inf"`,
		},
		{
			name: "sorted still rejects dup ids",
			opts: trace.DecodeOptions{Sort: true},
			in: `{"id":4,"release":3,"size":1}
{"id":4,"release":0,"size":1}`,
			line: 2, field: "id", frag: "duplicate job id 4",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := drain(t, trace.NewDecoder(strings.NewReader(tc.in), tc.opts))
			if err == nil {
				t.Fatal("decode succeeded, want DecodeError")
			}
			var de *trace.DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %T %q is not a DecodeError", err, err)
			}
			if !errors.Is(err, core.ErrBadSource) {
				t.Fatalf("DecodeError does not unwrap to core.ErrBadSource: %v", err)
			}
			if de.Line != tc.line {
				t.Fatalf("error on line %d, want %d: %v", de.Line, tc.line, err)
			}
			if de.Field != tc.field {
				t.Fatalf("error names field %q, want %q: %v", de.Field, tc.field, err)
			}
			if !strings.Contains(de.Reason, tc.frag) {
				t.Fatalf("error reason %q does not mention %q", de.Reason, tc.frag)
			}
		})
	}
}

// TestDecodeSortOptIn: with Sort the same out-of-order trace decodes,
// served in (Release, ID) order.
func TestDecodeSortOptIn(t *testing.T) {
	in := `{"id":0,"release":5,"size":1}
{"id":1,"release":2,"size":1}
{"id":2,"release":2,"size":1}`
	jobs, err := drain(t, trace.NewDecoder(strings.NewReader(in), trace.DecodeOptions{Sort: true}))
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []int{1, 2, 0}
	if len(jobs) != 3 {
		t.Fatalf("decoded %d jobs, want 3", len(jobs))
	}
	for i, id := range wantIDs {
		if jobs[i].ID != id {
			t.Fatalf("sorted job %d has id %d, want %d", i, jobs[i].ID, id)
		}
	}
}

// TestDecodeErrorLatches: after the first error the decoder keeps
// returning it, per the JobSource contract.
func TestDecodeErrorLatches(t *testing.T) {
	d := trace.NewDecoder(strings.NewReader(`{"id":0,"release":0,"size":-1}`), trace.DecodeOptions{})
	_, _, err1 := d.Next()
	_, _, err2 := d.Next()
	if err1 == nil || err2 == nil || err1 != err2 {
		t.Fatalf("errors not latched: first %v, second %v", err1, err2)
	}
}

// TestDecodeReadFailure: a read that fails in the middle of a line is
// reported as itself — DecodeError{Reason: "read failed: …"} on that line —
// not parsed as a short line, which could decode as a plausible wrong job;
// every line completed before the failure still decodes.
func TestDecodeReadFailure(t *testing.T) {
	const dir = "../../testdata/replay/"
	// gzipCut returns the gzip stream zb cut at n bytes, read through
	// MaybeGunzip, and the bytes compress/gzip delivers from it before its
	// error.
	gzipCut := func(t *testing.T, zb []byte, n int) (io.Reader, []byte) {
		t.Helper()
		zr, err := gzip.NewReader(bytes.NewReader(zb[:n]))
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := io.ReadAll(zr)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("compress/gzip on the cut stream: %v, want unexpected EOF", err)
		}
		r, err := trace.MaybeGunzip(bytes.NewReader(zb[:n]))
		if err != nil {
			t.Fatal(err)
		}
		return r, prefix
	}

	t.Run("truncated ndjson gzip fixture", func(t *testing.T) {
		zb, err := os.ReadFile(dir + "fixture.ndjson.gz")
		if err != nil {
			t.Fatal(err)
		}
		r, prefix := gzipCut(t, zb, 5000)
		checkReadFailure(t, r, prefix, trace.FormatNDJSON, io.ErrUnexpectedEOF.Error())
	})

	t.Run("csv gzip cut mid-line", func(t *testing.T) {
		raw, err := os.ReadFile(dir + "fixture.csv")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		zb := buf.Bytes()
		for n := len(zb) / 2; n < len(zb)-8; n++ {
			if r, prefix := gzipCut(t, zb, n); len(prefix) > 0 && prefix[len(prefix)-1] != '\n' {
				checkReadFailure(t, r, prefix, trace.FormatCSV, io.ErrUnexpectedEOF.Error())
				return
			}
		}
		t.Fatal("no cut of the gzip stream ends its output mid-line")
	})

	// One Read returns the last bytes together with the error. Cut from
	// "1,1,17", the CSV line "1,1,1" would decode as a wrong job.
	boom := errors.New("connection reset")
	for _, tc := range []struct {
		name string
		f    trace.Format
		data string
	}{
		{"ndjson mid-line", trace.FormatNDJSON, `{"id":0,"release":0,"size":1}` + "\n" + `{"id":1,"release":1,"size":17}` + "\n" + `{"id":2,"rel`},
		{"csv valid-looking prefix", trace.FormatCSV, "id,release,size\n0,0,1\n1,1,1"},
		{"at a line boundary", trace.FormatNDJSON, `{"id":0,"release":0,"size":1}` + "\n"},
	} {
		t.Run("data and error in one read: "+tc.name, func(t *testing.T) {
			r := iotest.DataErrReader(io.MultiReader(strings.NewReader(tc.data), iotest.ErrReader(boom)))
			checkReadFailure(t, r, []byte(tc.data), tc.f, boom.Error())
		})
	}

	t.Run("unterminated last line at a clean EOF", func(t *testing.T) {
		jobs, err := drain(t, trace.NewDecoder(strings.NewReader("id,release,size\n0,0,1\n1,1,17"), trace.DecodeOptions{Format: trace.FormatCSV}))
		if err != nil || len(jobs) != 2 || jobs[1].Size != 17 {
			t.Fatalf("got %+v, %v; want 2 jobs, the last of size 17", jobs, err)
		}
	})
}

// checkReadFailure decodes r, which delivers prefix and then fails with a
// read error whose text is reason. The decoder must yield exactly the jobs
// of prefix's complete lines, then a DecodeError on the line after them.
func checkReadFailure(t *testing.T, r io.Reader, prefix []byte, f trace.Format, reason string) {
	t.Helper()
	opts := trace.DecodeOptions{Format: f}
	whole := prefix[:bytes.LastIndexByte(prefix, '\n')+1]
	want, err := drain(t, trace.NewDecoder(bytes.NewReader(whole), opts))
	if err != nil {
		t.Fatalf("decoding the complete lines: %v", err)
	}
	got, err := drain(t, trace.NewDecoder(r, opts))
	var derr *trace.DecodeError
	if !errors.As(err, &derr) {
		t.Fatalf("error %v, want a *DecodeError", err)
	}
	line := bytes.Count(prefix, []byte("\n")) + 1
	if derr.Line != line || derr.Field != "" || derr.Reason != "read failed: "+reason {
		t.Errorf("error %q, want line %d: read failed: %s", derr, line, reason)
	}
	if !slices.Equal(got, want) {
		t.Errorf("decoded %d jobs before the failure, want the %d complete lines' jobs", len(got), len(want))
	}
}

// TestEncodeDecodeRoundTrip: decode(encode(jobs)) is the identity, bit for
// bit, in both formats — the property FuzzTraceDecode hammers on random
// instances.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	jobs := []core.Job{
		{ID: 0, Release: 0, Size: 1.0 / 3.0},
		{ID: 1, Release: 0.1 + 0.2, Size: 1e-16, Weight: 2.5},
		{ID: 2, Release: 0.30000000000000004, Size: 7},
	}
	for _, f := range []trace.Format{trace.FormatNDJSON, trace.FormatCSV} {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, jobs, f); err != nil {
			t.Fatalf("%v: encode: %v", f, err)
		}
		got, err := drain(t, trace.NewDecoder(&buf, trace.DecodeOptions{Format: f}))
		if err != nil {
			t.Fatalf("%v: decode: %v", f, err)
		}
		if len(got) != len(jobs) {
			t.Fatalf("%v: round-tripped %d jobs, want %d", f, len(got), len(jobs))
		}
		for i := range jobs {
			if got[i] != jobs[i] {
				t.Fatalf("%v: job %d: %+v, want %+v", f, i, got[i], jobs[i])
			}
		}
	}
}

func TestParseFormat(t *testing.T) {
	for name, want := range map[string]trace.Format{
		"ndjson": trace.FormatNDJSON, "jsonl": trace.FormatNDJSON,
		"csv": trace.FormatCSV, " CSV ": trace.FormatCSV,
	} {
		got, err := trace.ParseFormat(name)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := trace.ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat(xml) succeeded")
	}
}
