// Certificate: the paper's dual-fitting analysis (Sections 3.2–3.4) run as
// a program. We simulate Round Robin at the Theorem 1 speed η = 2k(1+10ε),
// build the α/β dual variables exactly as the paper sets them, verify
// Lemma 1, Lemma 2 and the dual constraints numerically, and print the
// per-instance competitive-ratio bound the feasible dual certifies. Then we
// rerun at speed 1 to watch the same construction fail — the speed
// augmentation is doing real work.
package main

import (
	"fmt"
	"log"

	"rrnorm"
	"rrnorm/internal/dual"
	"rrnorm/internal/policy"
)

func main() {
	const (
		k   = 2
		eps = 0.05
	)
	in := rrnorm.FromSpecMust("poisson:n=150,load=0.9,dist=exp,mean=1", 13)
	fmt.Printf("instance: %d jobs, k=%d, ε=%g, theorem speed η=%g\n\n", in.N(), k, eps, dual.Eta(k, eps))

	cert, err := rrnorm.Certify(in, 1, k, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- at the theorem speed ---")
	fmt.Println(cert)

	// The same dual construction on an unaugmented RR schedule, built from
	// its recorded rate timeline.
	var rec rrnorm.SegmentRecorder
	res, err := rrnorm.SimulateWith(in, policy.NewRR(),
		rrnorm.Options{Machines: 1, Speed: 1, Observer: &rec})
	if err != nil {
		log.Fatal(err)
	}
	slow, err := dual.Build(res, rec.Segments, k, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- at speed 1 (no augmentation) ---")
	fmt.Println(slow)
	if cert.Feasible && !slow.Feasible {
		fmt.Println("\nthe certificate holds exactly where Theorem 1 says it must.")
	}
}
