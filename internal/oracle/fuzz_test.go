package oracle

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/errs"
	"paradigm/internal/mdg"
	"paradigm/internal/sched"
)

// The fuzz targets feed arbitrary bytes through the total decoders in
// gen.go and then push every decoded instance through the production
// solvers with the invariant checkers as the oracle: a crash, a
// non-sentinel error, or a checker rejection is a finding. Seed corpora
// live in testdata/fuzz/<FuzzName>/ and run as ordinary subtests under
// plain `go test`; `make fuzz-smoke` runs each target for a few seconds
// of coverage-guided exploration.

// knownSentinel reports whether err wraps one of the repo's typed error
// sentinels — the only errors the solvers may return on fuzzed input.
func knownSentinel(err error) bool {
	for _, s := range []error{
		errs.ErrInfeasible, errs.ErrBadGraph, errs.ErrUnsupportedTransfer,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

func FuzzSolve(f *testing.F) {
	f.Add([]byte("\x00\x03\x80\x40"))
	f.Add([]byte("\x02\x01\x10\xf0\x80\x80\xe0\x20\x01\x00\x04\x01\x02\x07\x00\x03\x0c"))
	f.Add([]byte("\x05\x04\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c" +
		"\x01\x00\x05\x01\x01\x06\x00\x02\x07\x01\x03\x08\x01\x04\x09" +
		"\x01\x00\x0a\x01\x01\x0b\x00\x02\x0c\x01\x03\x0d\x01\x04\x0e"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, procs, ok := DecodeGraph(data)
		if !ok {
			t.Skip()
		}
		r, err := alloc.Solve(g, cm5Fit, procs, alloc.Options{})
		if err != nil {
			if !knownSentinel(err) {
				t.Fatalf("Solve returned a non-sentinel error on a decoded-valid graph: %v", err)
			}
			return
		}
		if err := CheckAllocation(g, cm5Fit, procs, r, Options{}); err != nil {
			t.Fatalf("Solve result failed the oracle: %v\ngraph: %d nodes, %d edges, procs %d",
				err, g.NumNodes(), len(g.Edges), procs)
		}
	})
}

func FuzzPSA(f *testing.F) {
	f.Add([]byte("\x00\x03\x80\x40"), []byte("\x01\x02\x03"))
	f.Add([]byte("\x02\x01\x10\xf0\x80\x80\xe0\x20\x01\x00\x04\x01\x02\x07\x00\x03\x0c"),
		[]byte("\x00\x01\x02\x03\x04\x05"))
	f.Add([]byte("\x03\x02\x20\x30\x40\x50\x60\x70\x80\x90\x01\x01\x05\x01\x02\x06\x00\x00\x07"),
		[]byte("\x07\x03\x01\x00\x02\x05\x04\x06"))
	f.Fuzz(func(t *testing.T, gdata, adata []byte) {
		g, procs, ok := DecodeGraph(gdata)
		if !ok {
			t.Skip()
		}
		if _, _, err := g.EnsureStartStop(); err != nil {
			t.Fatalf("EnsureStartStop rejected a decoded-valid graph: %v", err)
		}
		al, ok := DecodeAlloc(adata, g.NumNodes(), procs)
		if !ok {
			t.Skip()
		}
		s, err := sched.PSA(g, cm5Fit, al, procs, sched.LowestEST)
		if err != nil {
			if !knownSentinel(err) {
				t.Fatalf("PSA returned a non-sentinel error on a decoded-valid instance: %v", err)
			}
			return
		}
		if err := CheckSchedule(g, cm5Fit, s); err != nil {
			t.Fatalf("PSA schedule failed the oracle: %v\ngraph: %d nodes, procs %d, alloc %v",
				err, g.NumNodes(), procs, al)
		}
	})
}

func FuzzMDGParse(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3} {
		g := RandomGraph(seed, GenOptions{GridKinds: seed == 3})
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"a","alpha":0.5,"tau":1}],"edges":[{"from":0,"to":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g mdg.Graph
		if err := json.Unmarshal(data, &g); err != nil {
			t.Skip() // rejecting malformed input is the correct behavior
		}
		// An accepted graph must actually be valid...
		if err := g.Validate(); err != nil {
			t.Fatalf("UnmarshalJSON accepted an invalid graph: %v\ninput: %q", err, data)
		}
		// ...must re-serialize to a stable fixed point...
		out1, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var g2 mdg.Graph
		if err := json.Unmarshal(out1, &g2); err != nil {
			t.Fatalf("round trip rejected its own output: %v\n%s", err, out1)
		}
		out2, err := json.Marshal(&g2)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("marshal is not a fixed point:\n%s\n%s", out1, out2)
		}
		// ...and must evaluate without panicking under the oracle's
		// independent cost arithmetic.
		if g.NumNodes() > 0 {
			p := make([]float64, g.NumNodes())
			for i := range p {
				p[i] = 1
			}
			if _, _, _, ok := phiEval(&g, cm5Fit.Transfer, p, 4); !ok {
				t.Fatalf("validated graph failed oracle evaluation (cycle?): %q", data)
			}
		}
	})
}
