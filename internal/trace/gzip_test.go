package trace

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
	"testing/iotest"

	"rrnorm/internal/core"
)

// TestMaybeGunzipRoundTrip: a gzipped trace decodes through MaybeGunzip to
// the same jobs as the plain bytes.
func TestMaybeGunzipRoundTrip(t *testing.T) {
	jobs := []core.Job{
		{ID: 0, Release: 0, Size: 3},
		{ID: 1, Release: 0.5, Size: 1.25},
		{ID: 2, Release: 2, Size: 0.75},
	}
	var plain bytes.Buffer
	if err := Encode(&plain, jobs, FormatNDJSON); err != nil {
		t.Fatalf("encode: %v", err)
	}

	decode := func(raw []byte) []core.Job {
		r, err := MaybeGunzip(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("MaybeGunzip: %v", err)
		}
		dec := NewDecoder(r, DecodeOptions{Format: FormatNDJSON})
		var got []core.Job
		for {
			j, ok, err := dec.Next()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !ok {
				return got
			}
			got = append(got, j)
		}
	}

	want := decode(plain.Bytes())
	got := decode(gzipLevel(t, plain.Bytes(), gzip.DefaultCompression, gzip.Header{}))
	if len(got) != len(want) {
		t.Fatalf("gzip path decoded %d jobs, plain %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d: gzip %+v != plain %+v", i, got[i], want[i])
		}
	}
}

// TestMaybeGunzipPassthrough: plain bytes — including the peeked prefix —
// come back verbatim, and streams shorter than the two-byte magic are not
// an error.
func TestMaybeGunzipPassthrough(t *testing.T) {
	for _, in := range []string{"", "x", `{"id":0,"release":0,"size":1}` + "\n"} {
		r, err := MaybeGunzip(strings.NewReader(in))
		if err != nil {
			t.Fatalf("MaybeGunzip(%q): %v", in, err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("read (%q): %v", in, err)
		}
		if string(out) != in {
			t.Fatalf("passthrough mangled %q into %q", in, out)
		}
	}
}

// TestMaybeGunzipBadHeader: the magic bytes followed by garbage fail at
// MaybeGunzip itself (header parse), not later in the stream.
func TestMaybeGunzipBadHeader(t *testing.T) {
	if _, err := MaybeGunzip(strings.NewReader("\x1f\x8bnot really gzip")); err == nil {
		t.Fatal("corrupt gzip header: want error, got nil")
	}
}

// TestMaybeGunzipTruncated: corruption past the header surfaces through the
// returned reader — the layer the Decoder wraps into *DecodeError.
func TestMaybeGunzipTruncated(t *testing.T) {
	full := gzipLevel(t, []byte(strings.Repeat(`{"id":0,"release":0,"size":1}`+"\n", 200)), gzip.DefaultCompression, gzip.Header{})
	r, err := MaybeGunzip(bytes.NewReader(full[:len(full)/2]))
	if err != nil {
		t.Fatalf("MaybeGunzip: %v", err)
	}
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("truncated gzip stream: want read error, got nil")
	}
}

// --- GzipReader against compress/gzip ----------------------------------------

// gunzipAll reads a gzip stream to its end through the reader open builds
// over src, readSize bytes per Read, and returns the bytes delivered before
// the first error and that error (nil for a clean end).
func gunzipAll(src io.Reader, readSize int, open func(io.Reader) (io.Reader, error)) ([]byte, error) {
	r, err := open(src)
	if err != nil {
		return nil, err
	}
	var out []byte
	p := make([]byte, readSize)
	for {
		n, err := r.Read(p)
		out = append(out, p[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

func openStdlib(r io.Reader) (io.Reader, error) { return gzip.NewReader(r) }
func openOurs(r io.Reader) (io.Reader, error)   { return NewGzipReader(r) }

// gzipErrClass names an error's class: compress/gzip's ErrHeader and
// ErrChecksum share theirs with ErrGzipHeader and ErrGzipChecksum, every
// flate.CorruptInputError is one class whatever its offset, and any other
// error is its own text.
func gzipErrClass(err error) string {
	var ce flate.CorruptInputError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, gzip.ErrHeader), errors.Is(err, ErrGzipHeader):
		return "header"
	case errors.Is(err, gzip.ErrChecksum), errors.Is(err, ErrGzipChecksum):
		return "checksum"
	case errors.As(err, &ce):
		return "corrupt"
	}
	return err.Error()
}

// checkGunzip holds GzipReader to compress/gzip on one input: the same
// bytes before the first error, and an error of the same class. src
// wraps the input for each reader (nil reads it from a bytes.Reader).
func checkGunzip(t testing.TB, name string, data []byte, readSize int, src func([]byte) io.Reader) {
	t.Helper()
	if src == nil {
		src = func(b []byte) io.Reader { return bytes.NewReader(b) }
	}
	want, wantErr := gunzipAll(src(data), readSize, openStdlib)
	got, gotErr := gunzipAll(src(data), readSize, openOurs)
	if gzipErrClass(gotErr) != gzipErrClass(wantErr) {
		t.Fatalf("%s (read size %d): error %v, compress/gzip %v", name, readSize, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s (read size %d): %d bytes before %v, compress/gzip %d; first difference at byte %d",
			name, readSize, len(got), gotErr, len(want), i)
	}
}

// gzipLevel compresses b with compress/gzip at level under header h.
func gzipLevel(t testing.TB, b []byte, level int, h gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Header = h
	if _, err := zw.Write(b); err != nil {
		t.Fatalf("gzip write: %v", err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}
	return buf.Bytes()
}

// gzipLevels are compress/gzip's Huffman-only, stored, fastest, default
// and best levels.
var gzipLevels = []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, 6, gzip.BestCompression}

// gunzipPayloads are the plain streams the table test compresses: an
// NDJSON trace past two windows long, incompressible bytes, runs that
// make overlapping matches at distances 1 to 7, a short line, and nothing.
func gunzipPayloads(t testing.TB, jobs int) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	trace := make([]core.Job, jobs)
	release := 0.0
	for i := range trace {
		release += rng.ExpFloat64()
		trace[i] = core.Job{ID: i, Release: release, Size: rng.ExpFloat64()}
	}
	var nd bytes.Buffer
	if err := Encode(&nd, trace, FormatNDJSON); err != nil {
		t.Fatal(err)
	}
	noise := make([]byte, 3*jobs)
	for i := range noise {
		noise[i] = byte(rng.Uint32())
	}
	var runs bytes.Buffer
	for d := 1; d < 8; d++ {
		runs.Write(bytes.Repeat(noise[:d], 40+d*300))
		runs.Write(noise[d*10 : d*10+50])
	}
	return map[string][]byte{
		"ndjson": nd.Bytes(),
		"noise":  noise,
		"runs":   runs.Bytes(),
		"line":   []byte(`{"id":0,"release":0,"size":1}` + "\n"),
		"empty":  nil,
	}
}

// withHeaderCRC sets FHCRC on a compress/gzip stream whose header carries
// the fields of h, and inserts the header's CRC-16, plus delta.
func withHeaderCRC(b []byte, h gzip.Header, delta uint16) []byte {
	end := 10
	if h.Extra != nil {
		end += 2 + len(h.Extra)
	}
	if h.Name != "" {
		end += len(h.Name) + 1
	}
	if h.Comment != "" {
		end += len(h.Comment) + 1
	}
	out := append([]byte(nil), b[:end]...)
	out[3] |= flagHdrCrc
	crc := uint16(crc32.ChecksumIEEE(out)) + delta
	out = binary.LittleEndian.AppendUint16(out, crc)
	return append(out, b[end:]...)
}

// gzipMemberDict builds a gzip member of b whose deflate stream starts
// from a preset dictionary, which gzip has no field for: its first matches
// reach back before the member's start, so a reader must reject it even
// when the member before it decoded to dict.
func gzipMemberDict(t testing.TB, b, dict []byte) []byte {
	t.Helper()
	out := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}
	var buf bytes.Buffer
	fw, err := flate.NewWriterDict(&buf, 6, dict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	out = append(out, buf.Bytes()...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(b))
	return binary.LittleEndian.AppendUint32(out, uint32(len(b)))
}

// gunzipStreams returns named valid gzip streams of the payloads: every
// level, two-member streams, every header field, and the fixture GNU
// gzip -9n wrote.
func gunzipStreams(t testing.TB, jobs int) map[string][]byte {
	t.Helper()
	payloads := gunzipPayloads(t, jobs)
	streams := map[string][]byte{}
	for name, p := range payloads {
		for _, level := range gzipLevels {
			streams[fmt.Sprintf("%s/level%d", name, level)] = gzipLevel(t, p, level, gzip.Header{})
		}
	}
	nd, line := payloads["ndjson"], payloads["line"]
	streams["two-members"] = append(gzipLevel(t, nd, 6, gzip.Header{}), gzipLevel(t, line, 1, gzip.Header{})...)
	streams["empty-member-first"] = append(gzipLevel(t, nil, 6, gzip.Header{}), gzipLevel(t, line, 9, gzip.Header{})...)
	h := gzip.Header{Name: "trace.ndjson", Comment: "a comment", Extra: []byte("xy\x00z"), OS: 3}
	streams["fields"] = gzipLevel(t, nd, 6, h)
	streams["fields+fhcrc"] = withHeaderCRC(streams["fields"], h, 0)
	streams["fhcrc"] = withHeaderCRC(gzipLevel(t, line, 6, gzip.Header{}), gzip.Header{}, 0)
	long := gzip.Header{Name: strings.Repeat("n", maxString-1), Comment: strings.Repeat("c", maxString-1), Extra: make([]byte, 1<<16-1)}
	streams["longest-fields"] = gzipLevel(t, line, 6, long)
	reserved := gzipLevel(t, line, 6, gzip.Header{})
	reserved = append([]byte(nil), reserved...)
	reserved[3] |= 0xe1 // FTEXT and the reserved bits: compress/gzip ignores them
	streams["reserved-flags"] = reserved
	gnu, err := os.ReadFile("../../testdata/replay/fixture.ndjson.gz")
	if err != nil {
		t.Fatal(err)
	}
	streams["gnu-gzip-9n"] = gnu
	return streams
}

// gunzipBroken returns named malformed variants of a valid stream b:
// every truncation (or a spread of them for a long stream) and single bit
// flips spread over it.
func gunzipBroken(b []byte, cuts, flips int) map[string][]byte {
	out := map[string][]byte{}
	step := max(1, len(b)/cuts)
	for n := 0; n < len(b); n += step {
		out[fmt.Sprintf("cut%d", n)] = b[:n]
	}
	out[fmt.Sprintf("cut%d", len(b)-1)] = b[:len(b)-1]
	step = max(1, len(b)/flips)
	for i := 0; i < len(b); i += step {
		f := append([]byte(nil), b...)
		f[i] ^= 1 << (i % 8)
		out[fmt.Sprintf("flip%d.%d", i, i%8)] = f
	}
	return out
}

// TestGzipReaderMatchesStdlib holds GzipReader to compress/gzip on valid
// streams — every level, two members, every header flag, GNU gzip's block
// layout — at Read sizes from 1 byte to 64 KiB, on sources that deliver a
// byte at a time or fail with their own error, and on truncated, bit-flipped
// and header-damaged streams.
func TestGzipReaderMatchesStdlib(t *testing.T) {
	streams := gunzipStreams(t, 1500)
	for name, b := range streams {
		for _, size := range []int{1, 7, 100, 4096, 64 << 10} {
			checkGunzip(t, name, b, size, nil)
		}
	}

	gnu := streams["gnu-gzip-9n"]
	oneByte := func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }
	checkGunzip(t, "gnu-gzip-9n/one-byte-source", gnu, 4096, oneByte)
	checkGunzip(t, "gnu-gzip-9n/half-source", gnu, 4096, func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) })
	checkGunzip(t, "gnu-gzip-9n/data-err-source", gnu, 4096, func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) })
	errSource := errors.New("source failed")
	for _, n := range []int{0, 5, 10, 11, len(gnu) / 2, len(gnu) - 3, len(gnu)} {
		checkGunzip(t, fmt.Sprintf("gnu-gzip-9n/source-error-at-%d", n), gnu, 4096, func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b[:n]), iotest.ErrReader(errSource))
		})
	}

	// Malformed streams: small streams cut at every byte, and bit flips
	// through every kind of stream.
	small := gunzipStreams(t, 40)
	for _, name := range []string{"ndjson/level1", "ndjson/level0", "ndjson/level-2", "fields+fhcrc", "two-members", "runs/level6"} {
		for bname, b := range gunzipBroken(small[name], len(small[name]), 300) {
			checkGunzip(t, name+"/"+bname, b, 4096, nil)
		}
	}
	for _, name := range []string{"ndjson/level6", "ndjson/level-2", "noise/level0", "gnu-gzip-9n"} {
		for bname, b := range gunzipBroken(streams[name], 50, 100) {
			checkGunzip(t, name+"/"+bname, b, 4096, nil)
		}
	}

	line := streams["line/level6"]
	trailer := len(line) - 8
	nd := gunzipPayloads(t, 40)["ndjson"]
	malformed := map[string][]byte{
		"match-before-member": append(gzipLevel(t, nd, 6, gzip.Header{}), gzipMemberDict(t, nd, nd)...),
		"crc-mismatch":        flipByte(line, trailer),
		"isize-mismatch":      flipByte(line, trailer+4),
		"fhcrc-mismatch":      withHeaderCRC(line, gzip.Header{}, 1),
		"garbage-after":       append(append([]byte(nil), line...), "not another gzip member"...),
		"short-garbage":       append(append([]byte(nil), line...), "junk"...),
		"nul-padding":         append(append([]byte(nil), line...), make([]byte, 16)...),
		"name-too-long":       gzipLevel(t, nil, 6, gzip.Header{Name: strings.Repeat("n", maxString)}),
		"bad-method":          flipByte(line, 2),
		"magic-only":          line[:2],
		"empty":               nil,
	}
	for name, b := range malformed {
		for _, size := range []int{1, 4096} {
			checkGunzip(t, name, b, size, nil)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// FuzzGunzip holds GzipReader to compress/gzip on arbitrary input: the
// same bytes before the first error and an error of the same class. The
// seeds are compress/gzip streams at each level, GNU gzip's fixture,
// two-member streams, every header field, and broken variants, one of them
// a second member whose matches reach into the first.
func FuzzGunzip(f *testing.F) {
	streams := gunzipStreams(f, 40)
	for _, name := range []string{
		"ndjson/level-2", "ndjson/level0", "ndjson/level1", "ndjson/level6", "ndjson/level9",
		"runs/level1", "two-members", "empty-member-first", "fields+fhcrc", "reserved-flags", "gnu-gzip-9n",
	} {
		f.Add(streams[name], uint16(4096))
	}
	line := streams["line/level6"]
	f.Add(line[:len(line)/2], uint16(1))
	f.Add(flipByte(line, len(line)-8), uint16(7))
	f.Add(flipByte(line, 12), uint16(100))
	f.Add(withHeaderCRC(line, gzip.Header{}, 1), uint16(4096))
	nd := gunzipPayloads(f, 40)["ndjson"]
	f.Add(append(gzipLevel(f, nd, 6, gzip.Header{}), gzipMemberDict(f, nd, nd)...), uint16(4096))
	f.Fuzz(func(t *testing.T, data []byte, readSize uint16) {
		checkGunzip(t, "fuzz", data, 1+int(readSize), nil)
	})
}
