package dual

import (
	"math"

	"rrnorm/internal/core"
	"rrnorm/internal/metrics"
)

// BruteConstraintSweep is the dual-constraint check as a brute-force
// oracle: every job against every β breakpoint after its release, each
// looked up by binary search, with no early stop. It returns what
// finishCertificate derives from the sweep — JobSlack, MaxViolation,
// ViolatingJob and Feasible — for c, which must be res's certificate.
func BruteConstraintSweep(res *core.Result, c *Certificate) (slack []float64, maxViolation float64, violating int, feasible bool) {
	k := c.K
	beta := buildBetaSteps(res, k, 0.5-3*c.Eps, c.Delta)
	violating = -1
	slack = make([]float64, len(res.Jobs))
	worst := math.Inf(-1)
	for i, j := range res.Jobs {
		a := c.Alpha[i]
		if a < 0 {
			a = 0
		}
		pk := metrics.PowK(j.Size, k)
		jobWorst := math.Inf(-1)
		check := func(t float64) {
			if t < j.Release {
				t = j.Release
			}
			age := t - j.Release
			rhs := c.Gamma*(metrics.PowK(age, k)+pk) + j.Size*beta.at(t)
			v := (a - rhs) / (c.Gamma * pk)
			if v > jobWorst {
				jobWorst = v
			}
		}
		check(j.Release)
		for _, bp := range beta.times {
			if bp > j.Release {
				check(bp)
			}
		}
		slack[i] = jobWorst
		if jobWorst > worst {
			worst = jobWorst
			if jobWorst > 0 {
				violating = j.ID
			}
		}
	}
	return slack, worst, violating, worst <= 1e-9
}
