package core

import "testing"

// TestFingerprintKnownAnswers pins Fingerprint's digests. They are
// rrserve's cache keys and break ties in the hunt's candidate ranking, so
// any change to the bytes hashed (a word added, dropped or reordered) must
// fail here rather than silently re-key the cache or reorder a search. The
// reordered rows pin the canonicalization: neither the caller's job order
// nor its machine order reaches the digest.
func TestFingerprintKnownAnswers(t *testing.T) {
	j1 := Job{ID: 1, Release: 0, Size: 2, Weight: 3}
	j2 := Job{ID: 2, Release: 1, Size: 1}
	const (
		rr   = "5ec27ec7cc3b4626d2ed24175f49daedd5696684b0ec85aeb109924a7fc5782c"
		srpt = "e5915090ac82c6f05eead2b760ee12771068ca02a38a91913a790e7b2d591828"
	)
	hetero := func(speeds ...float64) Options {
		return Options{Machines: 2, Speed: 1, MachineModel: Machines{Speeds: speeds, PreemptCost: 0.25}}
	}
	for _, tc := range []struct {
		name   string
		jobs   []Job
		policy string
		opts   Options
		want   string
	}{
		{"RR", []Job{j2, j1}, "RR", Options{Machines: 2, Speed: 1.5}, rr},
		{"RR/sorted jobs", []Job{j1, j2}, "RR", Options{Machines: 2, Speed: 1.5}, rr},
		{"SRPT/speeds 1,3", []Job{j2, j1}, "SRPT", hetero(1, 3), srpt},
		{"SRPT/speeds 3,1", []Job{j2, j1}, "SRPT", hetero(3, 1), srpt},
	} {
		if got := Fingerprint(&Instance{Jobs: tc.jobs}, tc.policy, tc.opts); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
