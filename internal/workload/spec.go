package workload

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"rrnorm/internal/core"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
)

// FromSpec builds an instance from a compact textual description, used by
// the CLI tools. The grammar is
//
//	kind[:key=value[,key=value...]]
//
// with kinds:
//
//	poisson    n, load, m, dist, mean, alpha, xm, lo, hi  (Poisson arrivals at machine load)
//	batch      n, dist, mean, ...                         (all jobs at t=0)
//	bursts     bursts, size, period, dist, ...            (periodic bursts)
//	diurnal    n, rate, amp, period, dist, ...            (sinusoidal-rate Poisson)
//	rrstream   groups, m, s                               (simultaneous-completion stream at RR speed s)
//	cascade    levels, theta                              (multi-scale lower-bound instance)
//	starvation big, n, small                              (one big job + unit stream)
//	staircase  n                                          (descending batch)
//	trace      path                                       (CSV job trace, trace.FormatCSV; rows in any order)
//	swf        path, max, scale                           (Standard Workload Format)
//	fitted     path, format, sort, n, cap                 (bootstrap from a fitted job trace)
//
// dist is one of exp (mean), pareto (alpha, xm), uniform (lo, hi), bimodal
// (small, large, plarge), fixed (mean). Unknown keys are rejected.
func FromSpec(spec string, seed uint64) (*core.Instance, error) {
	kind, args, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	switch kind {
	case "poisson":
		n := args.intOr("n", 100)
		m := args.intOr("m", 1)
		load := args.floatOr("load", 0.9)
		dist, err := args.dist()
		if err != nil {
			return nil, err
		}
		if err := args.unused(); err != nil {
			return nil, err
		}
		return PoissonLoad(rng, n, m, load, dist), nil
	case "batch":
		n := args.intOr("n", 100)
		dist, err := args.dist()
		if err != nil {
			return nil, err
		}
		if err := args.unused(); err != nil {
			return nil, err
		}
		return Batch(rng, n, dist), nil
	case "bursts":
		b := args.intOr("bursts", 5)
		sz := args.intOr("size", 10)
		period := args.floatOr("period", 10)
		dist, err := args.dist()
		if err != nil {
			return nil, err
		}
		if err := args.unused(); err != nil {
			return nil, err
		}
		return PeriodicBursts(rng, b, sz, period, dist), nil
	case "diurnal":
		n := args.intOr("n", 100)
		rate := args.floatOr("rate", 1)
		amp := args.floatOr("amp", 0.6)
		period := args.floatOr("period", 50)
		dist, err := args.dist()
		if err != nil {
			return nil, err
		}
		if err := args.unused(); err != nil {
			return nil, err
		}
		return Diurnal(rng, n, rate, amp, period, dist), nil
	case "rrstream":
		g := args.intOr("groups", 32)
		m := args.intOr("m", 1)
		s := args.floatOr("s", 1)
		if err := args.unused(); err != nil {
			return nil, err
		}
		return RRStreamS(g, m, s), nil
	case "cascade":
		l := args.intOr("levels", 8)
		theta := args.floatOr("theta", 0.8)
		if err := args.unused(); err != nil {
			return nil, err
		}
		return Cascade(l, theta), nil
	case "starvation":
		big := args.floatOr("big", 10)
		n := args.intOr("n", 100)
		small := args.floatOr("small", 1)
		if err := args.unused(); err != nil {
			return nil, err
		}
		return Starvation(big, n, small), nil
	case "staircase":
		n := args.intOr("n", 10)
		if err := args.unused(); err != nil {
			return nil, err
		}
		return Staircase(n), nil
	case "trace":
		path := args.strOr("path", "")
		if err := args.unused(); err != nil {
			return nil, err
		}
		if path == "" {
			return nil, fmt.Errorf("workload: trace spec needs path=")
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadInstance(f, trace.FormatCSV)
	case "swf":
		path := args.strOr("path", "")
		maxJobs := args.intOr("max", 0)
		scale := args.intOr("scale", 0)
		if err := args.unused(); err != nil {
			return nil, err
		}
		if path == "" {
			return nil, fmt.Errorf("workload: swf spec needs path=")
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadSWF(f, SWFOptions{MaxJobs: maxJobs, ScaleProcessors: scale != 0})
	case "fitted":
		path := args.strOr("path", "")
		formatName := args.strOr("format", "ndjson")
		sortOpt := args.intOr("sort", 0)
		n := args.intOr("n", 1000)
		sampleCap := args.intOr("cap", 0)
		if err := args.unused(); err != nil {
			return nil, err
		}
		if path == "" {
			return nil, fmt.Errorf("workload: fitted spec needs path=")
		}
		format, err := trace.ParseFormat(formatName)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		dec := trace.NewDecoder(f, trace.DecodeOptions{Format: format, Sort: sortOpt != 0})
		model, err := Fit(dec, sampleCap, seed)
		if err != nil {
			return nil, err
		}
		return model.Instance(rng, n), nil
	default:
		return nil, fmt.Errorf("workload: unknown kind %q (poisson|batch|bursts|diurnal|rrstream|cascade|starvation|staircase|trace|swf|fitted)", kind)
	}
}

// specArgs tracks key/value pairs and which were consumed.
type specArgs struct {
	vals map[string]string
	used map[string]bool
	errs []error
}

func parseSpec(spec string) (string, *specArgs, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	kind = strings.TrimSpace(strings.ToLower(kind))
	if kind == "" {
		return "", nil, fmt.Errorf("workload: empty spec")
	}
	a := &specArgs{vals: map[string]string{}, used: map[string]bool{}}
	if rest != "" {
		for _, pair := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				return "", nil, fmt.Errorf("workload: bad pair %q in %q", pair, spec)
			}
			a.vals[strings.TrimSpace(strings.ToLower(k))] = strings.TrimSpace(v)
		}
	}
	return kind, a, nil
}

func (a *specArgs) strOr(key, def string) string {
	if v, ok := a.vals[key]; ok {
		a.used[key] = true
		return v
	}
	return def
}

func (a *specArgs) intOr(key string, def int) int {
	v, ok := a.vals[key]
	if !ok {
		return def
	}
	a.used[key] = true
	n, err := strconv.Atoi(v)
	if err != nil {
		a.errs = append(a.errs, fmt.Errorf("workload: %s=%q: %w", key, v, err))
		return def
	}
	return n
}

func (a *specArgs) floatOr(key string, def float64) float64 {
	v, ok := a.vals[key]
	if !ok {
		return def
	}
	a.used[key] = true
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		a.errs = append(a.errs, fmt.Errorf("workload: %s=%q: %w", key, v, err))
		return def
	}
	return f
}

// dist builds the size distribution from the dist/mean/alpha/... keys.
func (a *specArgs) dist() (SizeDist, error) {
	name := a.strOr("dist", "exp")
	switch name {
	case "exp":
		return ExpSizes{M: a.floatOr("mean", 1)}, nil
	case "pareto":
		return ParetoSizes{Alpha: a.floatOr("alpha", 1.8), Xm: a.floatOr("xm", 1), Cap: a.floatOr("cap", 0)}, nil
	case "uniform":
		return UniformSizes{Lo: a.floatOr("lo", 0.5), Hi: a.floatOr("hi", 1.5)}, nil
	case "bimodal":
		return BimodalSizes{Small: a.floatOr("small", 1), Large: a.floatOr("large", 50), PLarge: a.floatOr("plarge", 0.05)}, nil
	case "fixed":
		return FixedSizes{V: a.floatOr("mean", 1)}, nil
	default:
		return nil, fmt.Errorf("workload: unknown dist %q", name)
	}
}

// unused errors out if any keys were not consumed or any parse failed.
func (a *specArgs) unused() error {
	if len(a.errs) > 0 {
		return a.errs[0]
	}
	for k := range a.vals {
		if !a.used[k] {
			return fmt.Errorf("workload: unknown key %q in spec", k)
		}
	}
	return nil
}
