package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The benchmark's reference host (2-vCPU KVM Xeon) shares its cores, L3
// and memory with other tenants. It flips between a fast and a slow state
// every second or few, and the share of time it spends slow changes from
// minute to minute, so the same op can take 1.3× to 1.8× longer from one
// run to the next. That is wider than the regressions the benchmark must
// catch. So a run also times short passes of a fixed reference kernel:
// between every two ops of a batch workload, in quiet windows of
// serve-open's schedule, and after each set-up. A pass's host index is its
// time over the same work's time on the reference host in its fast state.
// The batch workloads divide each op's time by the mean index of the
// passes just before and after it, serve-open each request's latency by
// the mean index of the windows around its send time, and setup_s each
// set-up by the passes around it; the per-layer metrics use the run's
// mean index. The raw timings and the indexes go into the provenance
// line.
//
// The kernel has three parts, one for each kind of work the workloads do:
// sifts of a binary heap with a random access into a 4 MiB array per pop,
// a sort, and gunzip plus JSON decoding. The slow state slows each kind of
// work by its own factor (decoding by far the most), so a workload's
// passes run the parts that match it: heap and sort for engine-sweep,
// decode for trace-replay, all three for serve-open; and they run on as
// many threads as the workload keeps busy: one for the batch workloads,
// two for serve-open, whose two workers run on both vCPUs. The kernel uses
// the standard library only and calls no program code, so a change to the
// program moves a workload's timings and never the kernel's. Its arrays
// live in anonymous mappings outside the Go heap, so they neither change
// when the collector runs for the program nor count in peak_rss_mb.

// The kernel's parts.
const (
	partHeap = iota
	partSort
	partDecode
	numParts
)

// refPartNs is each part's time on the reference host in its fast state.
var refPartNs = [numParts]float64{partHeap: 14e6, partSort: 4.5e6, partDecode: 14.5e6}

// heapItem is one entry of the kernel's heap.
type heapItem struct {
	key float64
	id  int32
}

// Sizes of the kernel's inputs.
const (
	kernelKeys  = 1 << 17        // heap pushes; half as many pops
	kernelRecs  = 2 * kernelKeys // 4 MiB of records; a pop touches one
	kernelSort  = 50_000         // floats sorted
	kernelLines = 8_000          // JSON lines decoded
)

// refKernel runs passes of the reference kernel and keeps their host
// indexes. A pass runs on as many threads as the workload keeps busy, each
// on its own copy of the inputs, so it sees every vCPU the workload runs
// on; its index is the mean over the threads.
type refKernel struct {
	parts     []int // the parts a pass runs
	threads   []*kernelThread
	samples   []float64           // host index of each pass
	partIdx   [numParts][]float64 // each part's own index, per pass
	buildTime time.Duration       // time newRefKernel took; setup_s leaves it out
}

// kernelThread is one thread's copy of the kernel's inputs.
type kernelThread struct {
	mapped  []byte // backs keys, heap, recs, sortSrc and sortBuf
	keys    []float64
	heap    []heapItem
	recs    [][2]float64
	sortSrc []float64
	sortBuf []float64
	gz      []byte
	sink    float64
}

// carve returns the first n elements of b as a []T and the rest of b. T
// must hold no pointers, and b must stay mapped while the slice is used.
func carve[T any](b []byte, n int) ([]T, []byte) {
	var z T
	size := int(unsafe.Sizeof(z)) * n
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), b[size:]
}

// kernelRecord is one line of the kernel's JSON input.
type kernelRecord struct {
	ID      int     `json:"id"`
	Release float64 `json:"release"`
	Size    float64 `json:"size"`
}

// newRefKernel builds the kernel's inputs for the given number of threads
// from a fixed seed, so every run of a workload times the same work; each
// pass runs the given parts. The caller must close it.
func newRefKernel(parts []int, threads int) (*refKernel, error) {
	k := &refKernel{parts: parts}
	for range threads {
		t, err := newKernelThread()
		if err != nil {
			k.close()
			return nil, err
		}
		k.threads = append(k.threads, t)
	}
	return k, nil
}

func newKernelThread() (*kernelThread, error) {
	size := kernelKeys*(8+16) + kernelRecs*16 + kernelSort*2*8
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes: %w", size, err)
	}
	k := &kernelThread{mapped: b}
	k.keys, b = carve[float64](b, kernelKeys)
	k.heap, b = carve[heapItem](b, kernelKeys)
	k.heap = k.heap[:0]
	k.recs, b = carve[[2]float64](b, kernelRecs)
	k.sortSrc, b = carve[float64](b, kernelSort)
	k.sortBuf, _ = carve[float64](b, kernelSort)
	// Touch every page, so the whole mapping is resident from here on.
	for i := 0; i < len(k.mapped); i += 4096 {
		k.mapped[i] = 0
	}
	r := rand.New(rand.NewPCG(0x6b65726e, 0x656c))
	for i := range k.keys {
		k.keys[i] = r.ExpFloat64()
	}
	for i := range k.sortSrc {
		k.sortSrc[i] = r.Float64()
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	w := bufio.NewWriter(zw)
	t := 0.0
	for i := range kernelLines {
		t += r.ExpFloat64()
		w.WriteString(`{"id":` + strconv.Itoa(i) + `,"release":` + strconv.FormatFloat(t, 'g', -1, 64) +
			`,"size":` + strconv.FormatFloat(r.ExpFloat64(), 'g', -1, 64) + "}\n")
	}
	if err := w.Flush(); err != nil {
		syscall.Munmap(k.mapped)
		return nil, err
	}
	if err := zw.Close(); err != nil {
		syscall.Munmap(k.mapped)
		return nil, err
	}
	k.gz = buf.Bytes()
	return k, nil
}

// close unmaps every thread's inputs.
func (k *refKernel) close() error {
	var first error
	for _, t := range k.threads {
		if err := syscall.Munmap(t.mapped); err != nil && first == nil {
			first = err
		}
	}
	k.threads = nil
	return first
}

// residentMiB is the size of the kernel's mappings in MiB; all of it is
// resident.
func (k *refKernel) residentMiB() float64 {
	n := 0
	for _, t := range k.threads {
		n += len(t.mapped)
	}
	return float64(n) / (1 << 20)
}

// pass runs the kernel's parts once on every thread at the same time and
// returns the pass's host index.
func (k *refKernel) pass() (float64, error) {
	took := make([][numParts]float64, len(k.threads))
	errs := make([]error, len(k.threads))
	if len(k.threads) == 1 {
		took[0], errs[0] = k.threads[0].pass(k.parts)
	} else {
		var wg sync.WaitGroup
		for i, t := range k.threads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				took[i], errs[i] = t.pass(k.parts)
			}()
		}
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var sum, ref float64
	for _, p := range k.parts {
		part := 0.0
		for _, t := range took {
			part += t[p]
		}
		part /= float64(len(took))
		k.partIdx[p] = append(k.partIdx[p], part/refPartNs[p])
		sum += part
		ref += refPartNs[p]
	}
	x := sum / ref
	k.samples = append(k.samples, x)
	return x, nil
}

// pass runs the given parts once on this thread's inputs and returns each
// part's time in ns.
func (k *kernelThread) pass(parts []int) ([numParts]float64, error) {
	var took [numParts]float64
	for _, p := range parts {
		t0 := time.Now()
		switch p {
		case partHeap:
			k.heapPass()
		case partSort:
			copy(k.sortBuf, k.sortSrc)
			slices.Sort(k.sortBuf)
			k.sink += k.sortBuf[len(k.sortBuf)/2]
		case partDecode:
			if err := k.decodePass(); err != nil {
				return took, err
			}
		}
		took[p] = float64(time.Since(t0).Nanoseconds())
	}
	return took, nil
}

// heapPass pushes every key and pops the minimum after every second push;
// each pop reads and writes the popped id's record.
func (k *kernelThread) heapPass() {
	h := k.heap[:0]
	for i, key := range k.keys {
		h = append(h, heapItem{key, int32(i)})
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p].key <= h[j].key {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		if i%2 == 0 {
			continue
		}
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for j := 0; ; {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].key < h[c].key {
				c++
			}
			if h[j].key <= h[c].key {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
		rec := &k.recs[2*int(top.id)]
		rec[0] += top.key
		k.sink += rec[1]
	}
	k.heap = h
}

// decodePass gunzips the JSON lines and decodes each one.
func (k *kernelThread) decodePass() error {
	zr, err := gzip.NewReader(bytes.NewReader(k.gz))
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		var rec kernelRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return err
		}
		k.sink += rec.Size
	}
	return sc.Err()
}

// index is the run's host index: the mean over its passes, which tracks
// the share of time the host spent in its slow state. It is 1 before the
// first pass.
func (k *refKernel) index() float64 {
	if len(k.samples) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range k.samples {
		sum += x
	}
	return sum / float64(len(k.samples))
}
