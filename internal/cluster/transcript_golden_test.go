package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"paradigm/internal/fault"
)

// TestTranscriptGolden pins the byte-exact transcript of the loop: the
// SHA-256 of Outcome.String() for every fixture cluster_test.go runs
// (plus each router over the seeded fault plan), against digests recorded
// once. Placement, routing, health and shedding all print into the
// transcript, so a refactor of the pool bookkeeping that moves one
// decision, processor or timestamp fails here. Never re-record these to
// make a change pass: a moved transcript is a changed loop.
func TestTranscriptGolden(t *testing.T) {
	seeded := func(router string) ([]Spec, Options) {
		plan, err := fault.Rand(7, fault.RandOptions{Procs: 8, MakespanHint: 40, ProcFails: 2})
		if err != nil {
			t.Fatal(err)
		}
		specs := []Spec{
			job("a", 0, 4), job("b", 1, 4), job("c", 2, 2),
			{ID: "d", Class: "gold", Priority: 3, Arrive: 3, Procs: 8, MinProcs: 2},
		}
		return specs, Options{
			Procs: 8, Router: router, DetectLatency: 2,
			Faults: plan,
			Runner: &fakeRunner{
				dur: func(s Spec, k int) float64 { return 8 / float64(k) * 16 },
				phi: func(s Spec, k int) float64 { return 16 / float64(k) * (1 + float64(k)/8) },
			},
		}
	}
	fixed := func(d float64) *fakeRunner {
		return &fakeRunner{dur: func(Spec, int) float64 { return d }}
	}
	minTwo := job("a", 0, 8)
	minTwo.MinProcs = 2
	big := job("big", 20, 8)
	big.MinProcs = 2
	doomed := job("doomed", 10, 4)
	doomed.MinProcs = 3
	cases := []struct {
		name      string
		fixture   func() ([]Spec, Options)
		overrides map[string]int
		want      string
	}{
		{"round-robin", func() ([]Spec, Options) {
			return []Spec{job("a", 0, 2), job("b", 0, 2)}, Options{Procs: 8, Runner: &fakeRunner{}}
		}, nil,
			"89a011d4baf67e051a261d80efe53687c26b94b81fe42c199c5d166f5cc9b450"},
		{"least-loaded", func() ([]Spec, Options) {
			r := &fakeRunner{dur: func(s Spec, _ int) float64 {
				if s.ID == "long" {
					return 100
				}
				return 10
			}}
			return []Spec{job("long", 0, 2), job("short", 0, 2), job("late", 50, 2)},
				Options{Procs: 8, Router: RouterLeastLoaded, Runner: r}
		}, nil,
			"a2aacae78ee1dcff973f47b6314b6f10267777ecd0a26cefef9750b7df5c3a0b"},
		{"best-fit-flat", func() ([]Spec, Options) {
			r := &fakeRunner{phi: func(Spec, int) float64 { return 1 }}
			return []Spec{minTwo}, Options{Procs: 8, Router: RouterBestFit, Runner: r}
		}, nil,
			"3dcd42534e3ea497e87fba8aab1e975a6432f6180aacd81f78c524e535bcca53"},
		{"best-fit-perfect", func() ([]Spec, Options) {
			r := &fakeRunner{phi: func(_ Spec, k int) float64 { return 1 / float64(k) }}
			return []Spec{minTwo}, Options{Procs: 8, Router: RouterBestFit, Runner: r}
		}, nil,
			"10c32503464d45b8be77c85602135b7de0c94f379bd071bdc7ab85b87816027d"},
		{"best-fit-unknown", func() ([]Spec, Options) {
			return []Spec{minTwo}, Options{Procs: 8, Router: RouterBestFit, Runner: &fakeRunner{}}
		}, nil,
			"10c32503464d45b8be77c85602135b7de0c94f379bd071bdc7ab85b87816027d"},
		{"fault-translation", func() ([]Spec, Options) {
			return []Spec{job("a", 0, 4)}, Options{
				Procs:  4,
				Faults: &fault.Plan{ProcFails: []fault.ProcFail{{Proc: 2, At: 3}}},
				Runner: &fakeRunner{}, DetectLatency: 1}
		}, nil,
			"825a1bd8a1cb4fbeb5167ac34cfc80655df9b639a6e31870eef70c25274f909a"},
		{"suspect-window", func() ([]Spec, Options) {
			return []Spec{job("early", 0, 2), job("mid", 5, 4)}, Options{
				Procs: 4, DetectLatency: 10,
				Faults: &fault.Plan{ProcFails: []fault.ProcFail{{Proc: 1, At: 2}}},
				Runner: fixed(4),
			}
		}, nil,
			"4ae8380bf58f8e32b90cb7a43d5620d537d373f44569f388b2a4406436ab9a9c"},
		{"degrade", func() ([]Spec, Options) {
			return []Spec{big}, Options{
				Procs: 8, DetectLatency: 1,
				Faults: &fault.Plan{ProcFails: []fault.ProcFail{
					{Proc: 0, At: 1}, {Proc: 2, At: 1}, {Proc: 4, At: 2}, {Proc: 6, At: 2},
				}},
				Runner: &fakeRunner{},
			}
		}, nil,
			"99ef427d8d269674be23ce11eb43d6369cdd6e28baf1f6e010c02dd6f1a791a2"},
		{"evict", func() ([]Spec, Options) {
			return []Spec{doomed}, Options{
				Procs: 4,
				Faults: &fault.Plan{ProcFails: []fault.ProcFail{
					{Proc: 0, At: 1}, {Proc: 1, At: 1},
				}},
				Runner: &fakeRunner{},
			}
		}, nil,
			"12d495cf035a3c18a1c2ef6b9136c90b74ea1990ab03ab4f43b9412fbc28693c"},
		{"shed", func() ([]Spec, Options) {
			return []Spec{
				job("hog", 0, 4),
				{ID: "gold", Class: "gold", Priority: 3, Arrive: 1, Procs: 2},
				{ID: "silver", Class: "silver", Priority: 2, Arrive: 2, Procs: 2},
				{ID: "bronze1", Class: "bronze", Priority: 1, Arrive: 3, Procs: 2},
				{ID: "bronze2", Class: "bronze", Priority: 1, Arrive: 4, Procs: 2},
			}, Options{Procs: 4, MaxPending: 3, Runner: fixed(100)}
		}, nil,
			"dc740d690d643f5fde6e2e9e10438f0f3fda5b7531ba8e67c7230cd8730129cf"},
		{"priority", func() ([]Spec, Options) {
			return []Spec{
				job("hog", 0, 4),
				{ID: "low", Class: "bronze", Priority: 0, Arrive: 1, Procs: 4},
				{ID: "high", Class: "gold", Priority: 5, Arrive: 2, Procs: 4},
			}, Options{Procs: 4, Runner: fixed(10)}
		}, nil,
			"583b10e72c7f7f16dc9d06d038a11070aa593f8cc74589f75ea7a2c832be8b86"},
		{"utilization", func() ([]Spec, Options) {
			return []Spec{job("a", 0, 4)}, Options{Procs: 8, Runner: fixed(10)}
		}, nil,
			"63f430e778de780b19f691b730f3ca98e7c490d56a09734341b5e78c681190a5"},
		{"replay-base", func() ([]Spec, Options) { return seeded(RouterLeastLoaded) }, nil,
			"8abf0850bf22f5c30efee6cefae5bd9344975973e8e2a311a6ce9b42b81cba99"},
		{"replay-counterfactual", func() ([]Spec, Options) { return seeded(RouterLeastLoaded) },
			map[string]int{"a": 2},
			"a0eb0dce6eca9d016f3d47b0ddf0684c671ddda5df08a6e509aed92a8a95a005"},
		{"seeded-round-robin", func() ([]Spec, Options) { return seeded(RouterRoundRobin) }, nil,
			"c294c45d56effcf6cfad237800b34e83b5b8079afd731d5cceb1b6ef9ab800a2"},
		{"seeded-best-fit", func() ([]Spec, Options) { return seeded(RouterBestFit) }, nil,
			"4bdb93b4ecae0758fd10d480a17035dbc820d328d478fa389e7e0f153e32dee8"},
	}
	for _, tc := range cases {
		specs, o := tc.fixture()
		out, err := Replay(specs, o, tc.overrides)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256([]byte(out.String()))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: transcript digest %s, want %s\n%s", tc.name, got, tc.want, out)
		}
	}
}
