package check

import (
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
)

// TestEpochBlindObservers pins the epoch-blind contract of
// core.CoarseEpochObserver on the fast engine, over both sinks: an observer
// answering CoarseEpochsOK() == true receives no epochs, and its arrivals,
// completions and done header match an exact recorder's bit for bit. Fanned
// out with an exact recorder through core.Multi, both members receive the
// exact epoch stream.
func TestEpochBlindObservers(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		opts.Engine = core.EngineFast
		for _, p := range Policies(seed) {
			if !fast.Eligible(p, opts) {
				continue
			}
			for _, sink := range []string{"materialized", "streaming"} {
				label := wallLabel(seed, p.Name(), core.EngineFast) + " " + sink
				run := func(obs core.Observer) {
					o := opts
					o.Observer = obs
					var err error
					if sink == "materialized" {
						_, err = fast.Run(in, p, o)
					} else {
						_, err = fast.RunStream(core.NewInstanceSource(in), p, o, nil)
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				exact, blind := &wallObs{}, &blindObs{}
				run(exact)
				run(blind)
				if len(blind.eps) != 0 {
					t.Fatalf("%s: epoch-blind observer received %d epochs, first %+v", label, len(blind.eps), blind.eps[0])
				}
				if d := eventsDiff(&blind.wallObs, exact); d != "" {
					t.Fatalf("%s: blind vs exact: %s", label, d)
				}

				fb, fe := &blindObs{}, &wallObs{}
				run(core.Multi(fb, fe))
				for _, got := range []*wallObs{&fb.wallObs, fe} {
					if d := eventsDiff(got, exact); d != "" {
						t.Fatalf("%s: fan-out vs exact: %s", label, d)
					}
					if d := epochsDiff(got, exact); d != "" {
						t.Fatalf("%s: fan-out vs exact: %s", label, d)
					}
				}
			}
		}
	}
}

// blindObs is a wallObs that declares itself epoch-blind.
type blindObs struct{ wallObs }

func (o *blindObs) CoarseEpochsOK() bool { return true }
