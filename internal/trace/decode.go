package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"rrnorm/internal/core"
)

// This file is the input half of the package: where Observer serializes a
// simulation's event stream, Decoder deserializes a job trace — one job per
// line, NDJSON or CSV — into a core.JobSource both engines consume
// natively. Decoding is strictly incremental (one line of lookahead), so a
// 1e8-job trace replays in memory bounded by the schedule's alive set, and
// strictly validated: every malformed line is rejected with a DecodeError
// naming the line, the field and the reason rather than a best-effort skip.

// Format selects a job-trace wire format.
type Format uint8

const (
	// FormatNDJSON is newline-delimited JSON: one object per line with
	// the keys "id" (integer, required), "release" (number, required),
	// "size" (number, required) and "weight" (number, optional; 0 or
	// absent means the default weight 1), in any order. Keys are
	// lowercase and unescaped, each appears at most once, and any other
	// key is an error, as is anything after the object (DESIGN §15).
	FormatNDJSON Format = iota
	// FormatCSV is comma-separated with a mandatory header row naming a
	// permutation of id,release,size[,weight]; fields are trimmed of
	// surrounding spaces.
	FormatCSV
)

// String returns the canonical format name ("ndjson", "csv").
func (f Format) String() string {
	if f == FormatCSV {
		return "csv"
	}
	return "ndjson"
}

// ParseFormat resolves a format name as accepted by rrsim -format:
// "ndjson" (alias "jsonl") or "csv".
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "ndjson", "jsonl":
		return FormatNDJSON, nil
	case "csv":
		return FormatCSV, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (want ndjson or csv)", name)
}

// DecodeError is a structured trace-decoding failure: the 1-based line it
// occurred on, the offending field ("" when the whole line is at fault) and
// a human-readable reason. It unwraps to core.ErrBadSource, so engine
// callers can classify decode failures with a single errors.Is.
type DecodeError struct {
	Line   int
	Field  string
	Reason string
}

func (e *DecodeError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("trace: line %d: %s", e.Line, e.Reason)
	}
	return fmt.Sprintf("trace: line %d: field %q: %s", e.Line, e.Field, e.Reason)
}

// Unwrap makes errors.Is(err, core.ErrBadSource) true for every DecodeError.
func (e *DecodeError) Unwrap() error { return core.ErrBadSource }

// DecodeOptions configures a Decoder.
type DecodeOptions struct {
	// Format selects the wire format; the zero value is NDJSON.
	Format Format
	// Sort opts into buffering the entire trace and sorting it by
	// (Release, ID) before serving, making out-of-order releases legal at
	// the cost of streaming: memory becomes O(n) instead of O(1). Without
	// it a non-monotone release is a DecodeError naming the offending
	// line, because silently reordering would change which schedule the
	// engines simulate.
	Sort bool
}

// maxBitsetID bounds the dense duplicate-ID bitset: ids in [0, maxBitsetID)
// cost one bit each (2 MiB at the cap — sequential ids, the common case,
// stay cheap at any scale), ids outside it fall back to a sparse map whose
// size tracks how many such ids the trace actually uses.
const maxBitsetID = 1 << 24

// Decoder reads a job trace line by line, implementing core.JobSource. It
// enforces the full JobSource contract at the source: scalar validity
// (Instance.Validate's rules), unique ids, and release monotonicity (or
// Sort). Errors are latched — after the first failure Next returns it
// forever.
type Decoder struct {
	opts DecodeOptions
	in   readErr
	sc   *bufio.Scanner
	line int // 1-based number of the last line read

	cols   []string // CSV: column names in header order
	seen   []uint64 // dense id bitset for ids in [0, maxBitsetID)
	sparse map[int]bool

	prevRelease float64
	prevLine    int
	any         bool

	sorted   []core.Job // Sort mode: the buffered, sorted trace
	sortedAt int
	buffered bool

	err  error
	done bool
}

// NewDecoder returns a Decoder reading a job trace from r. The returned
// decoder is a core.JobSource; hand it to core.RunStream / fast.RunStream
// (or SimulateStream) to replay the trace.
func NewDecoder(r io.Reader, opts DecodeOptions) *Decoder {
	d := &Decoder{opts: opts, in: readErr{r: r}}
	d.sc = bufio.NewScanner(&d.in)
	d.sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	d.sc.Split(d.splitLines)
	return d
}

// readErr passes reads through and keeps the first error other than
// io.EOF, so splitLines can tell a line that a read failure cut short from
// an unterminated last line at a clean EOF.
type readErr struct {
	r   io.Reader
	err error
}

func (e *readErr) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// splitLines is bufio.ScanLines, except that once the reader has failed the
// unterminated rest of the input is not a line: the scan stops there with
// the read error, which next reports on that line. Lines completed before
// the failure still decode.
func (d *Decoder) splitLines(data []byte, atEOF bool) (int, []byte, error) {
	if atEOF && d.in.err != nil && bytes.IndexByte(data, '\n') < 0 {
		return 0, nil, d.in.err
	}
	return bufio.ScanLines(data, atEOF)
}

// Next implements core.JobSource.
func (d *Decoder) Next() (core.Job, bool, error) {
	if d.err != nil || d.done {
		return core.Job{}, false, d.err
	}
	if d.opts.Sort {
		if !d.buffered {
			if err := d.bufferAll(); err != nil {
				d.err = err
				return core.Job{}, false, err
			}
		}
		if d.sortedAt >= len(d.sorted) {
			d.done = true
			return core.Job{}, false, nil
		}
		j := d.sorted[d.sortedAt]
		d.sortedAt++
		return j, true, nil
	}
	j, ok, err := d.next()
	if err != nil {
		d.err = err
		return core.Job{}, false, err
	}
	if !ok {
		d.done = true
		return core.Job{}, false, nil
	}
	if d.any && j.Release < d.prevRelease {
		d.err = &DecodeError{Line: d.line, Field: "release", Reason: fmt.Sprintf(
			"release %v is earlier than release %v on line %d (trace must be release-ordered; opt into buffering with Sort / rrsim -sort)",
			j.Release, d.prevRelease, d.prevLine)}
		return core.Job{}, false, d.err
	}
	d.any, d.prevRelease, d.prevLine = true, j.Release, d.line
	return j, true, nil
}

// bufferAll reads and validates the whole trace, then sorts it by
// (Release, ID) — the Sort opt-in path.
func (d *Decoder) bufferAll() error {
	for {
		j, ok, err := d.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		d.sorted = append(d.sorted, j)
	}
	sort.Slice(d.sorted, func(a, b int) bool {
		ja, jb := d.sorted[a], d.sorted[b]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		return ja.ID < jb.ID
	})
	d.buffered = true
	return nil
}

// next reads the next non-blank, non-comment line and decodes one job,
// checking everything except release order (the caller's concern, because
// Sort legitimizes disorder).
func (d *Decoder) next() (core.Job, bool, error) {
	for {
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				return core.Job{}, false, &DecodeError{Line: d.line + 1, Reason: "read failed: " + err.Error()}
			}
			return core.Job{}, false, nil
		}
		d.line++
		raw := bytes.TrimSpace(d.sc.Bytes())
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		if d.opts.Format == FormatCSV && d.cols == nil {
			if err := d.parseHeader(string(raw)); err != nil {
				return core.Job{}, false, err
			}
			continue
		}
		var j core.Job
		var err error
		if d.opts.Format == FormatCSV {
			j, err = d.parseCSV(raw)
		} else {
			j, err = d.scanNDJSON(raw)
		}
		if err != nil {
			return core.Job{}, false, err
		}
		if derr := d.checkJob(j); derr != nil {
			return core.Job{}, false, derr
		}
		return j, true, nil
	}
}

// checkJob applies Instance.Validate's scalar rules plus the unique-id
// rule, pinned to the current line.
func (d *Decoder) checkJob(j core.Job) *DecodeError {
	if !(j.Size >= 0) || math.IsInf(j.Size, 0) {
		return &DecodeError{Line: d.line, Field: "size", Reason: fmt.Sprintf("negative or non-finite size %v", j.Size)}
	}
	if j.Release < 0 || math.IsInf(j.Release, 0) || math.IsNaN(j.Release) {
		return &DecodeError{Line: d.line, Field: "release", Reason: fmt.Sprintf("invalid release %v", j.Release)}
	}
	if j.Weight < 0 || math.IsInf(j.Weight, 0) || math.IsNaN(j.Weight) {
		return &DecodeError{Line: d.line, Field: "weight", Reason: fmt.Sprintf("invalid weight %v", j.Weight)}
	}
	if d.markID(j.ID) {
		return &DecodeError{Line: d.line, Field: "id", Reason: fmt.Sprintf("duplicate job id %d", j.ID)}
	}
	return nil
}

// markID records id as seen and reports whether it already was. Dense
// non-negative ids use the bitset; outliers use the sparse map.
func (d *Decoder) markID(id int) bool {
	if id >= 0 && id < maxBitsetID {
		w, b := id/64, uint(id%64)
		for len(d.seen) <= w {
			d.seen = append(d.seen, 0)
		}
		if d.seen[w]&(1<<b) != 0 {
			return true
		}
		d.seen[w] |= 1 << b
		return false
	}
	if d.sparse == nil {
		d.sparse = make(map[int]bool)
	}
	if d.sparse[id] {
		return true
	}
	d.sparse[id] = true
	return false
}

// NDJSON keys as bits of the set scanNDJSON has seen on a line, named by
// keyNames in bit order.
const (
	keyID = 1 << iota
	keyRelease
	keySize
	keyWeight

	keysRequired = keyID | keyRelease | keySize
)

var keyNames = [...]string{"id", "release", "size", "weight"}

// scanNDJSON decodes one NDJSON line in place, allocating nothing unless
// the line is malformed. The grammar (DESIGN §15) is one object whose keys
// are "id", "release", "size" and optionally "weight" — lowercase,
// unescaped, each at most once, in any order — with one JSON number as
// each value (an integer for the id), JSON whitespace between tokens and
// nothing after the object: the lines Encode writes. Any other line is a
// DecodeError naming the key at fault, or else the byte. Each value is
// checked and converted in one walk (parseInt, parseFloat), bit-identical
// to strconv.
func (d *Decoder) scanNDJSON(b []byte) (core.Job, error) {
	var j core.Job
	if len(b) == 0 || b[0] != '{' {
		return j, d.syntaxError(b, 0, "", "'{'")
	}
	var seen uint8
	i := skipJSONSpace(b, 1)
	// "{}" skips the loop: it has no pair, and its keys are missing below.
	for seen != 0 || i == len(b) || b[i] != '}' {
		if i == len(b) || b[i] != '"' {
			return j, d.syntaxError(b, i, "", "'\"' opening a key")
		}
		// Only the four literal names are accepted, and none contains a
		// quote or backslash, so the first quote ends any key worth
		// reading; an escaped key is an unknown one.
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return j, d.syntaxError(b, len(b), "", "'\"' closing a key")
		}
		key := b[i+1 : i+1+n]
		i = skipJSONSpace(b, i+n+2)
		if i == len(b) || b[i] != ':' {
			return j, d.syntaxError(b, i, string(key), "':'")
		}
		i = skipJSONSpace(b, i+1)
		var bit uint8
		var ok bool
		switch string(key) {
		case "id":
			bit = keyID
			j.ID, n, ok = parseInt(b[i:])
		case "release":
			bit = keyRelease
			j.Release, n, ok = parseFloat(b[i:])
		case "size":
			bit = keySize
			j.Size, n, ok = parseFloat(b[i:])
		case "weight":
			bit = keyWeight
			j.Weight, n, ok = parseFloat(b[i:])
		default:
			return j, &DecodeError{Line: d.line, Field: string(key), Reason: "unknown key (want id, release, size or weight, lowercase and unescaped)"}
		}
		if seen&bit != 0 {
			return j, &DecodeError{Line: d.line, Field: string(key), Reason: "duplicate key"}
		}
		seen |= bit
		if !ok {
			return j, d.valueError(b[i:], string(key))
		}
		v := i
		i = skipJSONSpace(b, i+n)
		if i < len(b) && b[i] == '}' {
			break
		}
		if i == len(b) || b[i] != ',' {
			if i == v+n && i < len(b) { // a byte glued to the number: one bad value
				return j, d.valueError(b[v:], string(key))
			}
			return j, d.syntaxError(b, i, string(key), "',' or '}'")
		}
		i = skipJSONSpace(b, i+1)
	}
	// The caller trimmed the line, so the object must end it.
	if i != len(b)-1 {
		return j, &DecodeError{Line: d.line, Reason: "trailing data after JSON object"}
	}
	if missing := keysRequired &^ seen; missing != 0 {
		return j, &DecodeError{Line: d.line, Field: keyNames[bits.TrailingZeros8(missing)], Reason: "missing required field"}
	}
	return j, nil
}

// skipJSONSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// syntaxError reports that b[i], or the end of the line when i == len(b),
// is not the want that the grammar allows there. field is the key whose
// pair the error falls in, "" before any key.
func (d *Decoder) syntaxError(b []byte, i int, field, want string) *DecodeError {
	if i == len(b) {
		return &DecodeError{Line: d.line, Field: field, Reason: "invalid JSON: line ends, want " + want}
	}
	return &DecodeError{Line: d.line, Field: field, Reason: fmt.Sprintf("invalid JSON: found %q, want %s", b[i:i+1], want)}
}

// valueError reports that the value of key, which b starts with, is not one
// number (an integer for the id), quoting it up to the next delimiter.
func (d *Decoder) valueError(b []byte, key string) *DecodeError {
	if n := bytes.IndexAny(b, ",} \t\r\n"); n >= 0 {
		b = b[:n]
	}
	kind := "number"
	if key == "id" {
		kind = "integer"
	}
	return &DecodeError{Line: d.line, Field: key, Reason: fmt.Sprintf("invalid %s %q", kind, b)}
}

// parseHeader validates the CSV header: a permutation of id,release,size
// with weight optional, no duplicates, no unknown columns.
func (d *Decoder) parseHeader(line string) error {
	cols := strings.Split(line, ",")
	need := map[string]bool{"id": false, "release": false, "size": false}
	for i := range cols {
		c := strings.ToLower(strings.TrimSpace(cols[i]))
		cols[i] = c
		switch c {
		case "id", "release", "size", "weight":
		default:
			return &DecodeError{Line: d.line, Field: c, Reason: "unknown column (want id,release,size[,weight])"}
		}
		for k := 0; k < i; k++ {
			if cols[k] == c {
				return &DecodeError{Line: d.line, Field: c, Reason: "duplicate column"}
			}
		}
		if _, req := need[c]; req {
			need[c] = true
		}
	}
	for _, c := range []string{"id", "release", "size"} {
		if !need[c] {
			return &DecodeError{Line: d.line, Field: c, Reason: "missing required column"}
		}
	}
	d.cols = cols
	return nil
}

// parseCSV decodes one data row in place: the row is split once with
// bytes.IndexByte and each field trimmed with bytes.TrimSpace (the Unicode
// spaces strings.TrimSpace trims), so no string copy or []string is built.
// A wrong field count is reported before any field error. Each field must
// be exactly one JSON number (parseFloat), and the id an integer literal
// (parseInt), so a CSV field means what the same value means in NDJSON: Go
// literal forms such as "+2", "007", "0x1p-2", "1_0" or "inf" are errors,
// not other numbers.
func (d *Decoder) parseCSV(line []byte) (core.Job, error) {
	var fields [4][]byte // parseHeader admits at most four columns
	nf := 0
	for rest := line; ; {
		k := bytes.IndexByte(rest, ',')
		v := rest
		if k >= 0 {
			v = rest[:k]
		}
		if nf < len(fields) {
			fields[nf] = v
		}
		nf++
		if k < 0 {
			break
		}
		rest = rest[k+1:]
	}
	if nf != len(d.cols) {
		return core.Job{}, &DecodeError{Line: d.line, Reason: fmt.Sprintf("%d fields, header has %d columns", nf, len(d.cols))}
	}
	var j core.Job
	for c, col := range d.cols {
		v := bytes.TrimSpace(fields[c])
		if col == "id" {
			id, n, ok := parseInt(v)
			if !ok || n != len(v) {
				return core.Job{}, &DecodeError{Line: d.line, Field: "id", Reason: fmt.Sprintf("invalid integer %q", v)}
			}
			j.ID = id
			continue
		}
		f, n, ok := parseFloat(v)
		if !ok || n != len(v) {
			return core.Job{}, &DecodeError{Line: d.line, Field: col, Reason: fmt.Sprintf("invalid number %q", v)}
		}
		switch col {
		case "release":
			j.Release = f
		case "size":
			j.Size = f
		case "weight":
			j.Weight = f
		}
	}
	return j, nil
}

// ReadInstance reads a whole job trace in format f into an instance whose
// jobs are in (Release, ID) order: it drains a Decoder with Sort, so the
// trace may list its jobs in any order, and memory is O(n). A trace that
// holds no job is an error.
func ReadInstance(r io.Reader, f Format) (*core.Instance, error) {
	d := NewDecoder(r, DecodeOptions{Format: f, Sort: true})
	if err := d.bufferAll(); err != nil {
		return nil, err
	}
	if len(d.sorted) == 0 {
		return nil, errors.New("trace: no jobs in the trace")
	}
	return &core.Instance{Jobs: d.sorted}, nil
}

// Encode writes jobs as a job trace in the given format — the inverse of
// Decoder, used to export instances as replayable fixtures. Floats are
// written in shortest round-trip form, so decode(encode(jobs)) yields jobs
// bit for bit (the round-trip identity FuzzTraceDecode pins). Jobs are
// written in the order given; encode a normalized instance to produce a
// release-ordered trace.
func Encode(w io.Writer, jobs []core.Job, f Format) error {
	bw := bufio.NewWriter(w)
	if f == FormatCSV {
		if _, err := bw.WriteString("id,release,size,weight\n"); err != nil {
			return err
		}
		for _, j := range jobs {
			bw.WriteString(strconv.Itoa(j.ID))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(j.Release, 'g', -1, 64))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(j.Size, 'g', -1, 64))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(j.Weight, 'g', -1, 64))
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		return bw.Flush()
	}
	enc := json.NewEncoder(bw)
	for _, j := range jobs {
		rec := struct {
			ID      int     `json:"id"`
			Release float64 `json:"release"`
			Size    float64 `json:"size"`
			Weight  float64 `json:"weight,omitempty"`
		}{j.ID, j.Release, j.Size, j.Weight}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
