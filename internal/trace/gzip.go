package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
)

// gzipMagic is the two-byte gzip member header (RFC 1952 §2.3.1).
var gzipMagic = [2]byte{0x1f, 0x8b}

// MaybeGunzip wraps r so a gzip-compressed trace decompresses
// transparently: it peeks at the first two bytes and layers a GzipReader
// on the magic 0x1f 0x8b, passing everything else (including the peeked
// prefix and streams shorter than two bytes) through untouched. The
// sniffing cannot misfire on the supported trace formats — NDJSON and CSV
// are line-oriented text and no valid first line starts with those bytes.
// rrsim -replay uses it so `rrsim -replay huge.ndjson.gz` works without a
// gzip -dc pipe; the HTTP replay endpoint instead keys off an explicit
// Content-Encoding header (a body's digest must name its exact bytes).
//
// A gzip header error is returned immediately; corruption later in the
// stream surfaces through the returned reader's Read, which the Decoder
// wraps into a *DecodeError like any other read failure.
func MaybeGunzip(r io.Reader) (io.Reader, error) {
	// bufio's smallest buffer is enough to peek at the magic; every read
	// of at least 16 bytes after it goes straight to r.
	br := bufio.NewReaderSize(r, 16)
	magic, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(magic) == 2 && magic[0] == gzipMagic[0] && magic[1] == gzipMagic[1] {
		zr, err := NewGzipReader(br)
		if err != nil {
			return nil, err
		}
		return zr, nil
	}
	return br, nil
}

// ErrGzipHeader and ErrGzipChecksum report a malformed gzip stream; their
// texts are those of compress/gzip's ErrHeader and ErrChecksum.
var (
	ErrGzipHeader   = errors.New("gzip: invalid header")
	ErrGzipChecksum = errors.New("gzip: invalid checksum")
)

// GzipReader decompresses a gzip stream (RFC 1952 members holding RFC 1951
// deflate data). It behaves as compress/gzip's Reader does on every input:
// the same bytes before the first error and the same error — ErrGzipHeader,
// ErrGzipChecksum, io.ErrUnexpectedEOF, a flate.CorruptInputError (at its
// own offset) or the source's own error — with each member's CRC-32 and
// size checked, concatenated members read as one stream, and header fields
// accepted as compress/gzip accepts them.
//
// It reads its source in bulk into its own buffer and decodes from a 64-bit
// bit buffer refilled eight bytes at a time. Each literal/length and each
// distance takes one lookup in a 10-bit or 8-bit primary table, which
// carries the symbol's base value and extra-bit count; longer codes
// continue in subtables. Matches are copied eight bytes at a time. All its
// memory is allocated when it is constructed.
type GzipReader struct {
	// The pointer fields come first, so the garbage collector scans only
	// the head of this large object.
	r    io.Reader
	rerr error // r's error, latched; it surfaces once in is drained
	err  error // the first error; Read returns it once win[rp:wp] is out

	lt      *[litTableSize]uint32 // the current block's literal/length table
	dt      *[distTableSize]uint32
	litMin  uint // bits compress/flate holds before decoding a literal/length
	distMin uint // bits it holds before decoding a distance

	in     [inSize]byte
	ip, ie int   // in[ip:ie] is read from r but not yet consumed
	off    int64 // offset of in[0] in the source, for CorruptInputError

	// The unconsumed input bits, least significant first. The bit buffer
	// holds the nb bits that precede in[ip]; the bits above nb are zero or
	// a copy of in[ip]'s low bits.
	bits uint64
	nb   uint

	// win[:wp] is decoded output (the last maxDist bytes of it are the
	// match history), win[rp:wp] the part Read has not returned yet, and
	// mstart the position where the current member's output begins.
	win    [winSize]byte
	rp, wp int
	mstart int

	state  int  // what fill decodes next
	final  bool // the current block is the member's last
	stored int  // stored-block bytes still to copy

	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	clen [1 << clenRoot]uint32
	hdr  [10]byte // header, stored-length and trailer scratch

	crc, size uint32 // CRC-32 and length (mod 2³²) of the member's output so far
}

const (
	inSize   = 8 << 10
	maxDist  = 32 << 10 // deflate's window: how far back a match reaches
	maxMatch = 258
	// Each fill decodes up to maxDist bytes past the history. Past
	// winLimit, two literals and a longest match, with the eight-byte copy's
	// overrun, might not fit.
	winSize  = 2*maxDist + maxMatch + 16
	winLimit = winSize - 16 - maxMatch

	maxLitSyms  = 286 // literal/length symbols a dynamic block may code
	maxDistSyms = 30
	litRoot     = 10
	distRoot    = 8
	clenRoot    = 7 // code-length codes are at most 7 bits: no subtables

	// Subtable space past the primary table. For a complete canonical code
	// of at most 15 bits whose n symbols include L longer than root bits,
	// the subtables hold at most L + 2^(15-root) - 1 - (15-root) entries:
	// 286 + 26 for literal/lengths, 30 + 120 for distances.
	litTableSize  = 1<<litRoot + maxLitSyms + 26
	distTableSize = 1<<distRoot + maxDistSyms + 120

	// maxString is how many bytes of a header name or comment, NUL
	// included, compress/gzip reads before it rejects the header.
	maxString = 512

	// maxEmptyReads bounds consecutive (0, nil) reads, as bufio does.
	maxEmptyReads = 100
)

// Header flags (RFC 1952 §2.3.1). compress/gzip ignores FTEXT and the
// reserved bits, and so does GzipReader.
const (
	flagHdrCrc  = 1 << 1
	flagExtra   = 1 << 2
	flagName    = 1 << 3
	flagComment = 1 << 4
)

// fill states.
const (
	stBlock   = iota // at a block header
	stHuffman        // inside a Huffman-coded block
	stStored         // inside a stored block
	stTrailer        // past the member's last block
)

// A table entry packs, from the low bits up: the code length (for a link,
// the subtable's index width), the extra-bit count, four kind flags, and a
// 16-bit value — a literal byte, a length or distance base, a code-length
// symbol, or a link's subtable offset. A zero entry is a bit pattern no
// code word starts (the tables of an empty or single-code code have them);
// decoding one is corrupt input, as in compress/flate.
const (
	eLenMask    = 0xff
	eExtraShift = 8
	eLit        = 1 << 12
	eEOB        = 1 << 13
	eBad        = 1 << 14 // literal/length 286–287 or distance 30–31: corrupt when decoded
	eLink       = 1 << 15
	eValShift   = 16
)

var (
	// litSyms, distSyms and clenSyms are each symbol's entry less its
	// code length.
	litSyms, distSyms, clenSyms = symbolEntries()
	// fixedLit and fixedDist decode RFC 1951 §3.2.6's fixed codes.
	fixedLit, fixedDist = fixedTables()
)

func symbolEntries() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := range 256 {
		lit[s] = uint32(s)<<eValShift | eLit
	}
	lit[256] = eEOB
	for s, base := 257, 3; s < 285; s++ {
		extra := 0
		if s >= 265 {
			extra = (s - 261) / 4
		}
		lit[s] = uint32(base)<<eValShift | uint32(extra)<<eExtraShift
		base += 1 << extra
	}
	lit[285] = maxMatch << eValShift
	lit[286], lit[287] = eBad, eBad
	for c, base := 0, 1; c < maxDistSyms; c++ {
		extra := 0
		if c >= 4 {
			extra = (c - 2) / 2
		}
		dist[c] = uint32(base)<<eValShift | uint32(extra)<<eExtraShift
		base += 1 << extra
	}
	dist[30], dist[31] = eBad, eBad
	for s := range clen {
		clen[s] = uint32(s) << eValShift
	}
	return lit, dist, clen
}

func fixedTables() (lit [litTableSize]uint32, dist [distTableSize]uint32) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	buildTable(lit[:], litRoot, lens[:], litSyms[:])
	for s := range 32 {
		lens[s] = 5
	}
	buildTable(dist[:], distRoot, lens[:32], distSyms[:])
	return lit, dist
}

// buildTable fills t with the decoding table of the canonical prefix code
// that lens describe (symbol s has a code of lens[s] bits, none when 0) and
// returns its shortest code length. t[:1<<root] is indexed by the next root
// input bits; codes longer than that continue in subtables placed after
// it. sym[s] is symbol s's entry less its length. It reports false for the
// lengths compress/flate rejects: an over- or under-full code, except a
// lone code of length 1. An empty code fills t with zero entries.
func buildTable(t []uint32, root uint, lens []uint8, sym []uint32) (minLen uint, ok bool) {
	var count [16]uint32
	var maxLen uint
	for _, n := range lens {
		if n == 0 {
			continue
		}
		count[n]++
		if minLen == 0 || uint(n) < minLen {
			minLen = uint(n)
		}
		maxLen = max(maxLen, uint(n))
	}
	primary := t[:1<<root]
	clear(primary)
	if maxLen == 0 {
		return 0, true
	}
	var next [16]uint32
	code := uint32(0)
	for n := minLen; n <= maxLen; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return 0, false
	}

	if maxLen > root {
		// Size each subtable by the longest code under its prefix.
		var depth [1 << litRoot]uint8
		nc := next
		for _, n := range lens {
			if uint(n) <= root {
				continue
			}
			p := reverseBits(nc[n], n) & (1<<root - 1)
			nc[n]++
			depth[p] = max(depth[p], n-uint8(root))
		}
		off := uint32(1) << root
		for p := range primary {
			if d := depth[p]; d != 0 {
				primary[p] = off<<eValShift | eLink | uint32(d)
				off += 1 << d
			}
		}
	}
	for s, n := range lens {
		if n == 0 {
			continue
		}
		rev := reverseBits(next[n], n)
		next[n]++
		e := sym[s] | uint32(n)
		if uint(n) <= root {
			for i := rev; i < 1<<root; i += 1 << n {
				primary[i] = e
			}
			continue
		}
		link := primary[rev&(1<<root-1)]
		sub := t[link>>eValShift:][:1<<(link&eLenMask)]
		for i := rev >> root; i < uint32(len(sub)); i += 1 << (uint(n) - root) {
			sub[i] = e
		}
	}
	return minLen, true
}

// reverseBits returns the n-bit code c bit-reversed: deflate packs codes
// most significant bit first into a least-significant-first stream.
func reverseBits(c uint32, n uint8) uint32 {
	return uint32(bits.Reverse16(uint16(c)) >> (16 - n))
}

// NewGzipReader returns a GzipReader decompressing r. It reads the first
// member's header, and returns its error (io.EOF for an empty r) as
// compress/gzip's NewReader does.
func NewGzipReader(r io.Reader) (*GzipReader, error) {
	z := &GzipReader{r: r}
	if err := z.header(); err != nil {
		return nil, err
	}
	return z, nil
}

// Read implements io.Reader.
func (z *GzipReader) Read(p []byte) (int, error) {
	for z.rp == z.wp {
		if z.err != nil || len(p) == 0 {
			return 0, z.err
		}
		z.fill()
	}
	n := copy(p, z.win[z.rp:z.wp])
	z.rp += n
	return n, nil
}

// fill decodes into the window until it holds maxDist new bytes, the stream
// ends or an error stops it. Read calls it once win[rp:wp] is delivered.
func (z *GzipReader) fill() {
	if z.wp > winLimit {
		d := z.wp - maxDist
		copy(z.win[:maxDist], z.win[d:z.wp])
		z.wp, z.rp = maxDist, maxDist
		z.mstart = max(z.mstart-d, 0)
	}
	start := z.wp
	for z.err == nil && z.wp <= winLimit {
		switch z.state {
		case stBlock:
			z.err = z.block()
		case stHuffman:
			z.err = z.huffman()
		case stStored:
			z.err = z.storedData()
		case stTrailer:
			z.sum(start)
			start = z.wp
			z.err = z.trailer()
		}
	}
	z.sum(start)
}

// sum folds win[start:wp] into the member's CRC-32 and size.
func (z *GzipReader) sum(start int) {
	z.crc = crc32.Update(z.crc, crc32.IEEETable, z.win[start:z.wp])
	z.size += uint32(z.wp - start)
}

// fillIn reads more of r into in, keeping the eight bytes before in[ip]
// (align may return them to the input). It reports whether any arrived;
// when none did, rerr holds why.
func (z *GzipReader) fillIn() bool {
	if z.rerr != nil {
		return false
	}
	if drop := z.ip - 8; drop > 0 {
		copy(z.in[:], z.in[drop:z.ie])
		z.off += int64(drop)
		z.ip -= drop
		z.ie -= drop
	}
	for range maxEmptyReads {
		n, err := z.r.Read(z.in[z.ie:])
		z.ie += n
		if err != nil {
			z.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	z.rerr = io.ErrNoProgress
	return false
}

// need makes the bit buffer hold at least n bits, reading input a byte at
// a time, and fails as compress/flate does when the input ends first.
func (z *GzipReader) need(n uint) error {
	for z.nb < n {
		if z.ip == z.ie && !z.fillIn() {
			return noEOF(z.rerr)
		}
		z.bits |= uint64(z.in[z.ip]) << z.nb
		z.ip++
		z.nb += 8
	}
	return nil
}

// align drops the bits left in the current byte and returns the whole
// bytes the bit buffer holds to the input, so byte-aligned reads resume
// right after the deflate bits consumed so far.
func (z *GzipReader) align() {
	z.ip -= int(z.nb >> 3)
	z.bits, z.nb = 0, 0
}

// readFull fills p from the input as io.ReadFull would from the source.
func (z *GzipReader) readFull(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if z.ip == z.ie && !z.fillIn() {
			if z.rerr == io.EOF && n > 0 {
				return n, io.ErrUnexpectedEOF
			}
			return n, z.rerr
		}
		c := copy(p[n:], z.in[z.ip:z.ie])
		z.ip += c
		n += c
	}
	return n, nil
}

// noEOF returns io.ErrUnexpectedEOF for io.EOF and err otherwise.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (z *GzipReader) corrupt() error {
	return flate.CorruptInputError(z.off + int64(z.ip))
}

// header reads a member header (RFC 1952 §2.3), checks it as compress/gzip
// does, and starts the member. Its error is io.EOF when the input ends
// cleanly before it.
func (z *GzipReader) header() error {
	h := z.hdr[:10]
	if _, err := z.readFull(h); err != nil {
		return err
	}
	if h[0] != gzipMagic[0] || h[1] != gzipMagic[1] || h[2] != 8 {
		return ErrGzipHeader
	}
	flg := h[3]
	crc := crc32.ChecksumIEEE(h)
	if flg&flagExtra != 0 {
		x := z.hdr[:2]
		if _, err := z.readFull(x); err != nil {
			return noEOF(err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, x)
		for n := int(binary.LittleEndian.Uint16(x)); n > 0; {
			if z.ip == z.ie && !z.fillIn() {
				return noEOF(z.rerr)
			}
			c := min(n, z.ie-z.ip)
			crc = crc32.Update(crc, crc32.IEEETable, z.in[z.ip:z.ip+c])
			z.ip += c
			n -= c
		}
	}
	for _, f := range [...]byte{flagName, flagComment} {
		if flg&f == 0 {
			continue
		}
		var err error
		if crc, err = z.skipString(crc); err != nil {
			return err
		}
	}
	if flg&flagHdrCrc != 0 {
		x := z.hdr[:2]
		if _, err := z.readFull(x); err != nil {
			return noEOF(err)
		}
		if binary.LittleEndian.Uint16(x) != uint16(crc) {
			return ErrGzipHeader
		}
	}
	z.crc, z.size, z.mstart = 0, 0, z.wp
	z.state = stBlock
	return nil
}

// skipString consumes a NUL-terminated header string, folding it into crc.
func (z *GzipReader) skipString(crc uint32) (uint32, error) {
	for n := 0; ; {
		if z.ip == z.ie && !z.fillIn() {
			return crc, noEOF(z.rerr)
		}
		chunk := z.in[z.ip:min(z.ie, z.ip+maxString-n)]
		i := bytes.IndexByte(chunk, 0)
		if i >= 0 {
			chunk = chunk[:i+1]
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		z.ip += len(chunk)
		n += len(chunk)
		if i >= 0 {
			return crc, nil
		}
		if n == maxString {
			return crc, ErrGzipHeader
		}
	}
}

// trailer checks the member's CRC-32 and size, then reads the next
// member's header; io.EOF there ends the stream.
func (z *GzipReader) trailer() error {
	z.align()
	t := z.hdr[:8]
	if _, err := z.readFull(t); err != nil {
		return noEOF(err)
	}
	if binary.LittleEndian.Uint32(t[:4]) != z.crc || binary.LittleEndian.Uint32(t[4:]) != z.size {
		return ErrGzipChecksum
	}
	return z.header()
}

// block reads a block header (RFC 1951 §3.2.3) and, for a dynamic block,
// its code tables.
func (z *GzipReader) block() error {
	if err := z.need(3); err != nil {
		return err
	}
	z.final = z.bits&1 == 1
	typ := z.bits >> 1 & 3
	z.bits >>= 3
	z.nb -= 3
	switch typ {
	case 0:
		z.align()
		h := z.hdr[:4]
		if _, err := z.readFull(h); err != nil {
			return noEOF(err)
		}
		n := binary.LittleEndian.Uint16(h[:2])
		if binary.LittleEndian.Uint16(h[2:]) != ^n {
			return z.corrupt()
		}
		z.stored = int(n)
		z.state = stStored
		if n == 0 {
			z.endBlock()
		}
	case 1:
		z.lt, z.dt = &fixedLit, &fixedDist
		z.litMin, z.distMin = 7, 5
		z.state = stHuffman
	case 2:
		if err := z.readCodes(); err != nil {
			return err
		}
		z.lt, z.dt = &z.lit, &z.dist
		z.state = stHuffman
	default:
		return z.corrupt()
	}
	return nil
}

func (z *GzipReader) endBlock() {
	if z.final {
		z.state = stTrailer
	} else {
		z.state = stBlock
	}
}

// codeOrder is the order of the code-length code's lengths (RFC 1951 §3.2.7).
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// readCodes reads a dynamic block's code lengths and builds its tables,
// with compress/flate's checks in compress/flate's order.
func (z *GzipReader) readCodes() error {
	if err := z.need(14); err != nil {
		return err
	}
	nlit := int(z.bits&0x1f) + 257
	if nlit > maxLitSyms {
		return z.corrupt()
	}
	ndist := int(z.bits>>5&0x1f) + 1
	if ndist > maxDistSyms {
		return z.corrupt()
	}
	nclen := int(z.bits>>10&0xf) + 4
	z.bits >>= 14
	z.nb -= 14

	var clens [19]uint8
	for _, s := range codeOrder[:nclen] {
		if err := z.need(3); err != nil {
			return err
		}
		clens[s] = uint8(z.bits & 7)
		z.bits >>= 3
		z.nb -= 3
	}
	cmin, ok := buildTable(z.clen[:], clenRoot, clens[:], clenSyms[:])
	if !ok {
		return z.corrupt()
	}

	var all [maxLitSyms + maxDistSyms]uint8
	lens := all[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := z.slowSym(z.clen[:], clenRoot, cmin)
		if err != nil {
			return err
		}
		x := uint8(e >> eValShift)
		if x < 16 {
			lens[i] = x
			i++
			continue
		}
		var rep int
		var nb uint
		var v uint8
		switch x {
		case 16:
			if i == 0 {
				return z.corrupt()
			}
			rep, nb, v = 3, 2, lens[i-1]
		case 17:
			rep, nb = 3, 3
		default:
			rep, nb = 11, 7
		}
		if err := z.need(nb); err != nil {
			return err
		}
		rep += int(z.bits & (1<<nb - 1))
		z.bits >>= nb
		z.nb -= nb
		if i+rep > len(lens) {
			return z.corrupt()
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}

	litMin, ok := buildTable(z.lit[:], litRoot, lens[:nlit], litSyms[:])
	if !ok {
		return z.corrupt()
	}
	distMin, ok := buildTable(z.dist[:], distRoot, lens[nlit:], distSyms[:])
	if !ok {
		return z.corrupt()
	}
	// compress/flate holds as many bits as the end-of-block code before
	// it decodes a literal/length: every block ends with one.
	z.litMin, z.distMin = max(litMin, uint(lens[256])), distMin
	return nil
}

// slowSym decodes one symbol from table t the way compress/flate's huffSym
// does, reading input a byte at a time: it holds minBits bits before the
// lookup, then the code's full length, so a stream that ends early fails
// at the same symbol.
func (z *GzipReader) slowSym(t []uint32, root, minBits uint) (uint32, error) {
	n := minBits
	for {
		if err := z.need(n); err != nil {
			return 0, err
		}
		e := lookup(t, root, z.bits)
		n = uint(e & eLenMask)
		if n <= z.nb {
			if n == 0 {
				return 0, z.corrupt()
			}
			z.bits >>= n
			z.nb -= n
			return e, nil
		}
	}
}

// lookup returns the entry of table t that the low bits of b select.
func lookup(t []uint32, root uint, b uint64) uint32 {
	e := t[b&(1<<root-1)]
	if e&eLink != 0 {
		e = t[e>>eValShift+uint32(b>>root)&(1<<(e&eLenMask)-1)]
	}
	return e
}

// slowExtra reads the extra bits of a length or distance entry and
// returns the value they select.
func (z *GzipReader) slowExtra(e uint32) (int, error) {
	ex := uint(e >> eExtraShift & 0xf)
	if err := z.need(ex); err != nil {
		return 0, err
	}
	v := int(e>>eValShift) + int(z.bits&(1<<ex-1))
	z.bits >>= ex
	z.nb -= ex
	return v, nil
}

// slowSymbol decodes one literal, match or end of block with compress/flate's
// bit requirements, for the input's last bytes.
func (z *GzipReader) slowSymbol() (eob bool, err error) {
	e, err := z.slowSym(z.lt[:], litRoot, z.litMin)
	if err != nil {
		return false, err
	}
	switch {
	case e&eLit != 0:
		z.win[z.wp] = byte(e >> eValShift)
		z.wp++
		return false, nil
	case e&eEOB != 0:
		return true, nil
	case e&eBad != 0:
		return false, z.corrupt()
	}
	length, err := z.slowExtra(e)
	if err != nil {
		return false, err
	}
	if e, err = z.slowSym(z.dt[:], distRoot, z.distMin); err != nil {
		return false, err
	}
	if e&eBad != 0 {
		return false, z.corrupt()
	}
	dist, err := z.slowExtra(e)
	if err != nil {
		return false, err
	}
	if dist > z.wp-z.mstart {
		return false, z.corrupt()
	}
	for i := range length {
		z.win[z.wp+i] = z.win[z.wp-dist+i]
	}
	z.wp += length
	return false, nil
}

// huffman decodes the current Huffman block until it ends, the window has
// no room for a longest match, or the stream proves corrupt. While eight
// input bytes are at hand each symbol costs one eight-byte refill, which
// leaves at least 56 bits: enough for a length code, its extra bits, a
// distance code and its extra bits (15+5+15+13). Near the end of the input
// it decodes through slowSymbol instead.
func (z *GzipReader) huffman() error {
	lt, dt := z.lt, z.dt
	win := &z.win
	for z.wp <= winLimit {
		if z.ip+8 > z.ie {
			if z.fillIn() {
				continue
			}
			eob, err := z.slowSymbol()
			if err != nil {
				return err
			}
			if eob {
				z.endBlock()
				return nil
			}
			continue
		}
		bitv, nb := z.bits, z.nb
		ip, wp := z.ip, z.wp
		in := z.in[:z.ie]
		mstart := z.mstart
		for wp <= winLimit && ip+8 <= len(in) {
			bitv |= binary.LittleEndian.Uint64(in[ip:]) << nb
			ip += int(63-nb) >> 3
			nb |= 56
			e := lookup(lt[:], litRoot, bitv)
			if e&eLit != 0 {
				// Three literals fit in the bits one refill leaves.
				bitv >>= e & eLenMask
				nb -= uint(e & eLenMask)
				win[wp] = byte(e >> eValShift)
				wp++
				if e = lookup(lt[:], litRoot, bitv); e&eLit != 0 {
					bitv >>= e & eLenMask
					nb -= uint(e & eLenMask)
					win[wp] = byte(e >> eValShift)
					wp++
					if e = lookup(lt[:], litRoot, bitv); e&eLit != 0 {
						bitv >>= e & eLenMask
						nb -= uint(e & eLenMask)
						win[wp] = byte(e >> eValShift)
						wp++
						continue
					}
				}
				// A match needs up to 48 bits: refill under the entry,
				// which the refill leaves valid.
				if ip+8 > len(in) {
					break
				}
				bitv |= binary.LittleEndian.Uint64(in[ip:]) << nb
				ip += int(63-nb) >> 3
				nb |= 56
			}
			n := uint(e & eLenMask)
			if e&(eEOB|eBad) != 0 || n == 0 {
				if e&eEOB != 0 {
					z.bits, z.nb, z.ip, z.wp = bitv>>n, nb-n, ip, wp
					z.endBlock()
					return nil
				}
				z.bits, z.nb, z.ip, z.wp = bitv, nb, ip, wp
				return z.corrupt()
			}
			bitv >>= n
			nb -= n
			ex := uint(e >> eExtraShift & 0xf)
			length := int(e>>eValShift) + int(bitv&(1<<ex-1))
			bitv >>= ex
			nb -= ex

			e = lookup(dt[:], distRoot, bitv)
			n = uint(e & eLenMask)
			if e&eBad != 0 || n == 0 {
				z.bits, z.nb, z.ip, z.wp = bitv, nb, ip, wp
				return z.corrupt()
			}
			bitv >>= n
			nb -= n
			ex = uint(e >> eExtraShift & 0xf)
			dist := int(e>>eValShift) + int(bitv&(1<<ex-1))
			bitv >>= ex
			nb -= ex
			if dist > wp-mstart {
				z.bits, z.nb, z.ip, z.wp = bitv, nb, ip, wp
				return z.corrupt()
			}

			src := wp - dist
			if dist >= 8 {
				// Each eight-byte load reads only bytes already final; the
				// stores may run up to 13 bytes past the match.
				binary.LittleEndian.PutUint64(win[wp:], binary.LittleEndian.Uint64(win[src:]))
				binary.LittleEndian.PutUint64(win[wp+8:], binary.LittleEndian.Uint64(win[src+8:]))
				for i := 16; i < length; i += 8 {
					binary.LittleEndian.PutUint64(win[wp+i:], binary.LittleEndian.Uint64(win[src+i:]))
				}
			} else {
				for i := range length {
					win[wp+i] = win[src+i]
				}
			}
			wp += length
		}
		z.bits, z.nb, z.ip, z.wp = bitv, nb, ip, wp
	}
	return nil
}

// storedData copies a stored block's bytes into the window.
func (z *GzipReader) storedData() error {
	n := min(z.stored, winSize-z.wp)
	got, err := z.readFull(z.win[z.wp : z.wp+n])
	z.wp += got
	z.stored -= got
	if err != nil {
		return noEOF(err)
	}
	if z.stored == 0 {
		z.endBlock()
	}
	return nil
}
