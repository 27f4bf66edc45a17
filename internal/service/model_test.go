// Model-based test of the job machine: seeded random interleavings of
// submits, polls, worker steps, drains and restarts, checked against a
// small reference model of what the service has acknowledged. The
// server runs no worker goroutines; a "step" pops one queued job and
// runs it exactly as a worker would, polling it meanwhile, so which job
// runs when is a function of the seed alone and a failure names the
// seed that reproduces it.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"paradigm"
)

// modelSpec is one job spec the interleavings draw from: small enough
// that a cold solve takes milliseconds, one of them faulted.
type modelSpec struct {
	program     string
	size, procs int
	recover     int
	faultSeed   uint64
}

var modelSpecs = []modelSpec{
	{program: "cmm", size: 16, procs: 2},
	{program: "cmm", size: 16, procs: 4},
	{program: "strassen", size: 16, procs: 4},
	{program: "cmm", size: 16, procs: 4, recover: 2, faultSeed: 7},
}

var modelTenants = []string{"a", "b", "c"}

func (sp modelSpec) body(tenant string) string {
	return fmt.Sprintf(`{"program":%q,"size":%d,"procs":%d,"recover":%d,"fault_seed":%d,"tenant":%q}`,
		sp.program, sp.size, sp.procs, sp.recover, sp.faultSeed, tenant)
}

// modelJob is the model's record of one acknowledged job.
type modelJob struct {
	tenant string
	spec   modelSpec
	leader string // id of the in-flight job it coalesced onto ("": none)
	status string // last terminal status observed ("": not terminal yet)
	digest string
}

// jobModel is the reference: every acknowledged id, the same-tenant
// same-spec leaders in flight since the last boot, and one digest per
// spec.
type jobModel struct {
	jobs     map[string]*modelJob
	order    []string
	inflight map[string]string // tenant|spec -> leader id
	digests  map[modelSpec]string
}

func inflightSlot(tenant string, sp modelSpec) string { return fmt.Sprintf("%s|%v", tenant, sp) }

// modelHarness drives one server incarnation after another over one
// checkpoint directory and checks each observation against the model.
type modelHarness struct {
	t       *testing.T
	seed    int64
	op      int
	dir     string
	cluster Config
	srv     *Server
	h       http.Handler
	m       jobModel
	refs    map[modelSpec]string // crash-free library digests, unfaulted specs
}

func (h *modelHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d, op %d: %s (rerun: go test ./internal/service -run '^%s$')",
		h.seed, h.op, fmt.Sprintf(format, args...), h.t.Name())
}

func (h *modelHarness) boot() {
	h.t.Helper()
	cfg := h.cluster
	cfg.CheckpointDir, cfg.QueueCap, cfg.WALRetain = h.dir, 256, retainFailed
	srv, err := New(testMachine(h.t), cfg)
	if err != nil {
		h.fatalf("boot: %v", err)
	}
	h.srv, h.h = srv, srv.Handler()
	// Recovered jobs are re-enqueued one by one: nothing is in flight to
	// coalesce onto after a boot, and no job runs as another's follower.
	h.m.inflight = map[string]string{}
	for _, mj := range h.m.jobs {
		mj.leader = ""
	}
}

func (h *modelHarness) view(id string) JobView {
	h.t.Helper()
	rec := httptest.NewRecorder()
	h.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil))
	var v JobView
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
		h.fatalf("GET /jobs/%s = %d %s", id, rec.Code, rec.Body)
	}
	return v
}

func (h *modelHarness) submit(tenant string, sp modelSpec) {
	h.t.Helper()
	rec := httptest.NewRecorder()
	h.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(sp.body(tenant))))
	var acc struct{ ID string }
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &acc) != nil {
		h.fatalf("submit %s = %d %s", sp.body(tenant), rec.Code, rec.Body)
	}
	if _, dup := h.m.jobs[acc.ID]; dup {
		h.fatalf("id %s acknowledged twice", acc.ID)
	}
	mj := &modelJob{tenant: tenant, spec: sp}
	slot := inflightSlot(tenant, sp)
	if h.cluster.ClusterProcs == 0 {
		mj.leader = h.m.inflight[slot]
	}
	if v := h.view(acc.ID); v.Coalesced != (mj.leader != "") || v.Tenant != tenant {
		h.fatalf("job %s: coalesced=%v tenant=%q, model leader %q tenant %q", acc.ID, v.Coalesced, v.Tenant, mj.leader, tenant)
	}
	if mj.leader == "" && h.cluster.ClusterProcs == 0 {
		h.m.inflight[slot] = acc.ID
	}
	h.m.jobs[acc.ID] = mj
	h.m.order = append(h.m.order, acc.ID)
}

// observe polls one job and folds what it shows into the model: a
// terminal state, once seen, never changes, and one spec has one digest.
func (h *modelHarness) observe(id string, wantTerminal bool) {
	h.t.Helper()
	mj, v := h.m.jobs[id], h.view(id)
	terminal := v.Status == "done" || v.Status == "failed"
	switch {
	case mj.status != "":
		if v.Status != mj.status || v.Digest != mj.digest {
			h.fatalf("job %s left terminal %s/%s for %s/%s", id, mj.status, mj.digest, v.Status, v.Digest)
		}
		return
	case !terminal:
		if wantTerminal {
			h.fatalf("job %s is %q, want terminal", id, v.Status)
		}
		return
	case v.Status != "done" || v.Digest == "":
		h.fatalf("job %s = %+v, want done with a digest", id, v)
	}
	mj.status, mj.digest = v.Status, v.Digest
	if h.cluster.ClusterProcs > 0 {
		// A cluster job's result depends on its placement (the granted
		// partition, an injected death), not on its spec alone.
		if v.Coalesced || v.Granted < 1 || v.Granted > mj.spec.procs {
			h.fatalf("cluster job %s: coalesced=%v granted=%d of %d", id, v.Coalesced, v.Granted, mj.spec.procs)
		}
		return
	}
	if want, ok := h.m.digests[mj.spec]; ok && want != v.Digest {
		h.fatalf("job %s of %v digest %s, another job of the spec %s", id, mj.spec, v.Digest, want)
	}
	h.m.digests[mj.spec] = v.Digest
	if want, ok := h.refs[mj.spec]; ok && want != v.Digest {
		h.fatalf("job %s of %v digest %s, direct RunContext %s", id, mj.spec, v.Digest, want)
	}
}

// step runs one queued job the way a worker does; the job and every
// job coalesced onto it must then be terminal.
func (h *modelHarness) step() {
	h.t.Helper()
	it, ok := h.srv.queue.TryPop()
	if !ok {
		return
	}
	j := it.Payload.(*job)
	id := j.ID
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		h.srv.runJob(j)
	}()
	// Poll the job while it runs: under -race this holds the handler to
	// the lock the worker finishes the job under.
	h.observe(id, false)
	<-ran
	for slot, leader := range h.m.inflight {
		if leader == id {
			delete(h.m.inflight, slot)
		}
	}
	for _, other := range h.m.order {
		if other == id || h.m.jobs[other].leader == id {
			h.observe(other, true)
		}
	}
}

func (h *modelHarness) observeAll(wantTerminal bool) {
	h.t.Helper()
	for _, id := range h.m.order {
		h.observe(id, wantTerminal)
	}
}

func (h *modelHarness) run(ops int) {
	h.t.Helper()
	rng := rand.New(rand.NewSource(h.seed))
	h.boot()
	for h.op = 0; h.op < ops; h.op++ {
		var prev *modelJob
		if len(h.m.order) > 0 {
			prev = h.m.jobs[h.m.order[rng.Intn(len(h.m.order))]]
		}
		switch r := rng.Intn(100); {
		case r < 25 || prev == nil: // submit
			h.submit(modelTenants[rng.Intn(len(modelTenants))], modelSpecs[rng.Intn(len(modelSpecs))])
		case r < 40: // duplicate same-tenant submit
			h.submit(prev.tenant, prev.spec)
		case r < 50: // identical cross-tenant submit
			h.submit(modelTenants[(slices.Index(modelTenants, prev.tenant)+1+rng.Intn(2))%len(modelTenants)], prev.spec)
		case r < 65: // poll
			h.observe(h.m.order[rng.Intn(len(h.m.order))], false)
		case r < 88: // worker step
			h.step()
		case r < 94: // drain, then reopen on the same directory
			h.srv.Drain()
			h.observeAll(true)
			h.boot()
			h.observeAll(true)
		default: // abandon a server whose workers never started, reopen
			h.boot()
			h.observeAll(false)
		}
	}
	h.srv.Drain()
	h.observeAll(true)
	h.boot()
	h.observeAll(true)
	if n := len(h.srv.jobs); n != len(h.m.jobs) {
		h.fatalf("restart registered %d jobs, model acknowledged %d", n, len(h.m.jobs))
	}
}

// modelReferenceDigests runs every unfaulted spec crash-free through the
// library.
func modelReferenceDigests(t *testing.T) map[modelSpec]string {
	t.Helper()
	cal, err := paradigm.Calibrate(paradigm.NewCM5(64))
	if err != nil {
		t.Fatal(err)
	}
	refs := map[modelSpec]string{}
	for _, sp := range modelSpecs {
		if sp.faultSeed != 0 {
			continue
		}
		build := paradigm.ComplexMatMul
		if sp.program == "strassen" {
			build = paradigm.Strassen
		}
		p, err := build(sp.size, cal)
		if err != nil {
			t.Fatal(err)
		}
		res, err := paradigm.RunContext(context.Background(), p, paradigm.NewCM5(sp.procs), cal, sp.procs)
		if err != nil {
			t.Fatal(err)
		}
		refs[sp] = res.Digest()
	}
	return refs
}

// TestServiceModel runs the interleavings on a plain server (exact
// coalescing, per-spec digests equal to the library's) and on a cluster
// server that kills a partition processor every other placement (no
// coalescing, grants within the request).
func TestServiceModel(t *testing.T) {
	refs := modelReferenceDigests(t)
	for _, c := range []struct {
		name    string
		cluster Config
		seeds   []int64
	}{
		{"plain", Config{}, []int64{1, 2, 3, 4}},
		{"cluster", Config{ClusterProcs: 8, ClusterFaults: 2}, []int64{5, 6, 7}},
	} {
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				h := &modelHarness{
					t: t, seed: seed, dir: t.TempDir(), cluster: c.cluster, refs: refs,
					m: jobModel{jobs: map[string]*modelJob{}, digests: map[modelSpec]string{}},
				}
				h.run(80)
			})
		}
	}
}
