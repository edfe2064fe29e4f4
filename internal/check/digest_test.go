package check

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/hunt"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// The output-bit digests: a SHA-256 over every bit the fast engine emits,
// per input family and policy, committed in testdata/fast_digests.txt. A
// refactor of the fast engine's loops or heaps must leave every digest
// unchanged; a change that moves one is a change of results and says so in
// CHANGES.md when it regenerates the file with
//
//	go test ./internal/check -run TestFastEngineDigests -update-digests

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/fast_digests.txt")

const digestFile = "testdata/fast_digests.txt"

// digestInput is one instance with its base options.
type digestInput struct {
	in   *core.Instance
	opts core.Options
	pols []core.Policy // RR, SRPT, SJF, FCFS, PRIO
	seed uint64        // draws the RR-random-model machine model
}

// digestFamily is a named list of inputs hashed together.
type digestFamily struct {
	name   string
	inputs func(t *testing.T) []digestInput
}

// digestCases are the policy columns of the digest table: each policy of
// the input on its base options, plus RR on two machines of speeds 1 and 3
// and RR under RandomMachineModel(seed, m) (random speeds, sometimes a
// preemption cost).
var digestCases = []string{"RR", "RR-speeds1,3", "RR-random-model", "SRPT", "SJF", "FCFS", "PRIO"}

// caseOf resolves a digest case to its policy and options for one input.
func caseOf(name string, di digestInput) (core.Policy, core.Options) {
	opts := di.opts
	opts.Engine = core.EngineFast
	switch name {
	case "RR-speeds1,3":
		opts.Machines = 2
		opts.MachineModel = core.Machines{Speeds: []float64{1, 3}}
		return policy.NewRR(), opts
	case "RR-random-model":
		opts.MachineModel = RandomMachineModel(di.seed, opts.Machines)
		return policy.NewRR(), opts
	case "RR":
		return di.pols[0], opts
	case "SRPT":
		return di.pols[1], opts
	case "SJF":
		return di.pols[2], opts
	case "FCFS":
		return di.pols[3], opts
	default:
		return di.pols[4], opts
	}
}

func digestFamilies() []digestFamily {
	fams := []digestFamily{
		{"random", func(t *testing.T) []digestInput {
			var out []digestInput
			for seed := uint64(0); seed < 1200; seed++ {
				out = append(out, digestInput{RandomInstance(seed), RandomOptions(seed), Policies(seed), seed})
			}
			return out
		}},
		{"corpus", func(t *testing.T) []digestInput {
			entries, err := hunt.LoadCorpus(filepath.Join("..", "..", "testdata", "corpus"))
			if err != nil {
				t.Fatalf("loading corpus: %v", err)
			}
			if len(entries) == 0 {
				t.Fatal("no corpus entries found: the committed witnesses are missing")
			}
			var out []digestInput
			for _, e := range entries {
				out = append(out, digestInput{e.Instance(), core.Options{Machines: e.Machines, Speed: e.Speed}, Policies(e.Seed), e.Seed})
			}
			return out
		}},
	}
	const n = 100_000
	dists := []workload.SizeDist{workload.ExpSizes{M: 1}, workload.ParetoSizes{Alpha: 1.5, Xm: 1}}
	for di, dist := range dists {
		for _, m := range []int{1, 2, 8} {
			seed := uint64(100*di + m)
			fams = append(fams, digestFamily{fmt.Sprintf("poisson-%s-m%d", dist.Name(), m), func(t *testing.T) []digestInput {
				in := workload.PoissonLoad(stats.NewRNG(seed), n, m, 0.95, dist)
				pols := Policies(seed)
				pols[4] = policy.NewStaticPriority(coarsePriorities(seed, n))
				return []digestInput{{in, core.Options{Machines: m, Speed: 1}, pols, seed}}
			}})
		}
	}
	return fams
}

// coarsePriorities draws a priority in {0, …, 7} for every ID below n, so
// priority ties are frequent on large instances too.
func coarsePriorities(seed uint64, n int) map[int]float64 {
	rng := rand.New(rand.NewPCG(seed, 0xda942042e4dd58b5))
	prio := make(map[int]float64, n)
	for id := 0; id < n; id++ {
		prio[id] = float64(rng.IntN(8))
	}
	return prio
}

// bitHasher appends float bits and counts to a SHA-256 through one reused
// buffer.
type bitHasher struct {
	h   hash.Hash
	buf []byte
}

func (b *bitHasher) float(v float64) {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(v))
}
func (b *bitHasher) int(v int) { b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(v)) }

func (b *bitHasher) str(v string) {
	b.int(len(v))
	b.buf = append(b.buf, v...)
}

func (b *bitHasher) flush() {
	b.h.Write(b.buf)
	b.buf = b.buf[:0]
}

// spill flushes once the buffer passes 64 KiB, so an observer fed by a
// large run hashes in constant memory; where flushes fall does not change
// the digest.
func (b *bitHasher) spill() {
	if len(b.buf) >= 1<<16 {
		b.flush()
	}
}

func (b *bitHasher) sum() string { return hex.EncodeToString(b.h.Sum(nil)) }

// digestFamilyRow hashes one family under one case on both sinks:
// materialized (per-job completion and flow bits, then Events) and
// streaming with StreamNorm(1, 2, 3) attached (the three norms' bits,
// makespan and Events).
func digestFamilyRow(t *testing.T, fam string, inputs []digestInput, name string, ws *core.Workspace) (mat, str string) {
	t.Helper()
	hm := &bitHasher{h: sha256.New()}
	hs := &bitHasher{h: sha256.New()}
	sn := metrics.NewStreamNorm(1, 2, 3)
	for i, di := range inputs {
		p, opts := caseOf(name, di)
		res, err := fast.RunWS(di.in, p, opts, ws)
		if err != nil {
			t.Fatalf("%s/%s input %d: materialized run: %v", fam, name, i, err)
		}
		hm.int(len(res.Completion))
		for j := range res.Completion {
			hm.float(res.Completion[j])
			hm.float(res.Flow[j])
		}
		hm.int(res.Events)
		hm.flush()

		sn.Reset()
		so := opts
		so.Observer = sn
		sum, err := fast.RunStream(core.NewInstanceSource(di.in), p, so, ws)
		if err != nil {
			t.Fatalf("%s/%s input %d: streaming run: %v", fam, name, i, err)
		}
		for _, k := range []int{1, 2, 3} {
			hs.float(sn.Norm(k))
		}
		hs.float(sum.Makespan)
		hs.int(sum.Events)
		hs.flush()
	}
	return hm.sum(), hs.sum()
}

// digestObs hashes an observer's complete event stream: every arrival, every
// epoch field, every completion and the done header. It is not epoch-blind,
// so the fast engine delivers its exact per-event epochs to it.
type digestObs struct{ b *bitHasher }

func (o digestObs) ObserveArrival(t float64, job int, j core.Job) {
	o.b.float(t)
	o.b.int(job)
	o.b.float(j.Release)
	o.b.float(j.Size)
	o.b.spill()
}

func (o digestObs) ObserveEpoch(e *core.Epoch) {
	o.b.float(e.Start)
	o.b.float(e.End)
	o.b.int(e.Alive)
	o.b.float(e.RateSum)
	o.b.int(0) // where the retired Coarse flag was hashed; keeps the committed digests
	o.b.spill()
}

func (o digestObs) ObserveCompletion(t float64, job int, flow float64) {
	o.b.float(t)
	o.b.int(job)
	o.b.float(flow)
	o.b.spill()
}

func (o digestObs) ObserveDone(res *core.Result) {
	o.b.str(res.Policy)
	o.b.int(res.Events)
}

// digestObserverRow hashes what observers see of one family under one
// case. Materialized: the event stream digestObs records, then the
// StreamNorm(1, 2, 3) norm bits and Events of a second run with only the
// epoch-blind StreamNorm attached, which takes the drains' epoch-free
// branch. Streaming: the event stream digestObs records. (StreamNorm alone
// on the streaming sink is the plain row's streaming digest.)
func digestObserverRow(t *testing.T, fam string, inputs []digestInput, name string, ws *core.Workspace) (mat, str string) {
	t.Helper()
	hm := &bitHasher{h: sha256.New()}
	hs := &bitHasher{h: sha256.New()}
	sn := metrics.NewStreamNorm(1, 2, 3)
	for i, di := range inputs {
		p, opts := caseOf(name, di)
		mo := opts
		mo.Observer = digestObs{hm}
		if _, err := fast.RunWS(di.in, p, mo, ws); err != nil {
			t.Fatalf("%s/%s input %d: observed materialized run: %v", fam, name, i, err)
		}
		sn.Reset()
		co := opts
		co.Observer = sn
		res, err := fast.RunWS(di.in, p, co, ws)
		if err != nil {
			t.Fatalf("%s/%s input %d: epoch-blind materialized run: %v", fam, name, i, err)
		}
		for _, k := range []int{1, 2, 3} {
			hm.float(sn.Norm(k))
		}
		hm.int(res.Events)
		hm.flush()

		so := opts
		so.Observer = digestObs{hs}
		if _, err := fast.RunStream(core.NewInstanceSource(di.in), p, so, ws); err != nil {
			t.Fatalf("%s/%s input %d: observed streaming run: %v", fam, name, i, err)
		}
		hs.flush()
	}
	return hm.sum(), hs.sum()
}

// TestFastEngineDigests recomputes the fast engine's output-bit digests and
// compares them with the committed ones: RR, RR on speeds {1, 3}, RR under
// a random machine model, SRPT, SJF, FCFS and PRIO under EngineFast, over
// the 1200-seed random family, the hunted corpus and n = 10⁵ Poisson
// instances (load 0.95, exp(1) and Pareto(α = 1.5) sizes, m ∈ {1, 2, 8}).
// Each (family, case) has two rows: the plain outputs (digestFamilyRow) and,
// as case/observed, the observer-visible streams (digestObserverRow).
func TestFastEngineDigests(t *testing.T) {
	ws := core.NewWorkspace()
	var got []string
	for _, fam := range digestFamilies() {
		inputs := fam.inputs(t)
		for _, name := range digestCases {
			mat, str := digestFamilyRow(t, fam.name, inputs, name, ws)
			got = append(got, fmt.Sprintf("%s %s %s %s", fam.name, name, mat, str))
			mat, str = digestObserverRow(t, fam.name, inputs, name, ws)
			got = append(got, fmt.Sprintf("%s %s/observed %s %s", fam.name, name, mat, str))
		}
	}
	if *updateDigests {
		body := "# family policy materialized-sha256 streaming-sha256\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(digestFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	if len(want) != len(got) {
		t.Fatalf("%s holds %d rows, the test computes %d", digestFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest row %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func readDigests(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
