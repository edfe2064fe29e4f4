package serve

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"net/http"
	"strings"
	"testing"
)

func gzipBody(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatalf("gzip write: %v", err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}
	return buf.Bytes()
}

// postReplayEnc is postReplay with a Content-Encoding header.
func postReplayEnc(t *testing.T, url, query string, body []byte, digest, encoding string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/replay?"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if digest != "" {
		req.Header.Set("X-Replay-Digest", digest)
	}
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/replay: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// TestReplayGzipRoundTrip: a gzip-compressed body with Content-Encoding:
// gzip produces the byte-identical response of the plain body, and the
// asserted digest names the wire (compressed) bytes.
func TestReplayGzipRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := replayTrace(t, 300)
	const query = "policy=RR&machines=2&norms=1,2,3"

	_, plain := postReplay(t, ts.URL, query, tr, "")

	zb := gzipBody(t, tr)
	sum := sha256.Sum256(zb)
	digest := hex.EncodeToString(sum[:])
	resp, gz := postReplayEnc(t, ts.URL, query, zb, digest, "gzip")
	if resp.StatusCode != 200 {
		t.Fatalf("gzip body: status %d, body %s", resp.StatusCode, gz)
	}
	if !bytes.Equal(gz, plain) {
		t.Fatalf("gzip response differs from plain response:\n%s\nvs\n%s", gz, plain)
	}

	// Re-sending the same compressed bytes with the same digest must hit
	// the cache — the gzip flag is part of the key, not a bypass of it.
	resp, gz2 := postReplayEnc(t, ts.URL, query, zb, digest, "gzip")
	if resp.StatusCode != 200 {
		t.Fatalf("gzip repeat: status %d, body %s", resp.StatusCode, gz2)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("gzip repeat: X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(gz2, plain) {
		t.Fatalf("cached gzip response differs from plain response")
	}

	// Two gzip members decompress to their concatenation: a body split at
	// a line boundary and compressed in two parts replays as the whole.
	cut := bytes.IndexByte(tr[len(tr)/2:], '\n') + len(tr)/2 + 1
	two := append(gzipBody(t, tr[:cut]), gzipBody(t, tr[cut:])...)
	resp, twoBody := postReplayEnc(t, ts.URL, query, two, "", "gzip")
	if resp.StatusCode != 200 {
		t.Fatalf("two-member gzip: status %d, body %s", resp.StatusCode, twoBody)
	}
	if !bytes.Equal(twoBody, plain) {
		t.Fatalf("two-member gzip response differs from plain response:\n%s\nvs\n%s", twoBody, plain)
	}

	// An "identity" declaration is the plain path.
	resp, idb := postReplayEnc(t, ts.URL, query, tr, "", "identity")
	if resp.StatusCode != 200 {
		t.Fatalf("identity: status %d, body %s", resp.StatusCode, idb)
	}
	if !bytes.Equal(idb, plain) {
		t.Fatalf("identity response differs from plain response")
	}
}

// TestReplayGzipMalformed: bodies that declare gzip but do not decompress
// are 400s — a bad header fails at reader construction, mid-stream
// corruption surfaces through the decoder as a read failure.
func TestReplayGzipMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := replayTrace(t, 200)
	const query = "policy=SRPT&machines=2"

	resp, body := postReplayEnc(t, ts.URL, query, []byte("this is not gzip"), "", "gzip")
	if resp.StatusCode != 400 {
		t.Fatalf("garbage body: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "gzip") {
		t.Errorf("garbage body: error %q does not mention gzip", body)
	}

	zb := gzipBody(t, tr)
	resp, body = postReplayEnc(t, ts.URL, query, zb[:len(zb)/2], "", "gzip")
	if resp.StatusCode != 400 {
		t.Fatalf("truncated gzip: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "read failed") {
		t.Errorf("truncated gzip: error %q is not reported as a read failure", body)
	}

	// Damage that only the trailer, the bytes after it or the header's own
	// CRC-16 can show: every byte of the trace decompresses, yet the body
	// is rejected.
	flip := func(i int) []byte {
		b := append([]byte(nil), zb...)
		b[i] ^= 0x01
		return b
	}
	// A header with FHCRC set and its CRC-16 off by one.
	hdr := append([]byte(nil), zb[:10]...)
	hdr[3] |= 1 << 1
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(crc32.ChecksumIEEE(hdr))+1)
	for name, b := range map[string][]byte{
		"crc-32 mismatch":                 flip(len(zb) - 8),
		"isize mismatch":                  flip(len(zb) - 4),
		"garbage after a complete member": append(append([]byte(nil), zb...), "this is not a gzip member"...),
		"fhcrc mismatch":                  append(hdr, zb[10:]...),
	} {
		resp, body := postReplayEnc(t, ts.URL, query, b, "", "gzip")
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(string(body), "gzip") {
			t.Errorf("%s: error %q does not mention gzip", name, body)
		}
	}
}

// TestReplayUnsupportedEncoding: any Content-Encoding other than gzip or
// identity is rejected up front.
func TestReplayUnsupportedEncoding(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := replayTrace(t, 50)
	resp, body := postReplayEnc(t, ts.URL, "policy=RR&machines=1", tr, "", "br")
	if resp.StatusCode != 400 {
		t.Fatalf("Content-Encoding br: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unsupported Content-Encoding") {
		t.Errorf("br: error %q does not name the unsupported encoding", body)
	}
}
