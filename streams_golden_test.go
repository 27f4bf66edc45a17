package paradigm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"paradigm/internal/codegen"
	"paradigm/internal/fault"
	"paradigm/internal/obs"
	"paradigm/internal/sim"
)

// writeListing writes a canonical text listing of the generated MPMD
// program: every processor's stream, one line per instruction with its
// operation, peer, message tag, instance names, rectangles and node.
func writeListing(w io.Writer, s *codegen.Streams) {
	fmt.Fprintf(w, "procs %d\n", s.Procs)
	for pr, stream := range s.PerProc {
		fmt.Fprintf(w, "P%d %d\n", pr, len(stream))
		for _, in := range stream {
			switch in.Op {
			case codegen.Send:
				fmt.Fprintf(w, "send to=%d tag=%s src=%s payload=%v\n", in.Peer, s.Tag(in.Msg), s.InstanceName(in.Src), in.Payload)
			case codegen.Recv:
				fmt.Fprintf(w, "recv from=%d tag=%s dst=%s payload=%v block=%v\n", in.Peer, s.Tag(in.Msg), s.InstanceName(in.Dst), in.Payload, in.Block)
			case codegen.Move:
				fmt.Fprintf(w, "move src=%s dst=%s payload=%v block=%v\n", s.InstanceName(in.Src), s.InstanceName(in.Dst), in.Payload, in.Block)
			case codegen.Exec:
				fmt.Fprintf(w, "exec node=%d group=%v\n", in.Node, s.Groups[in.Node])
			}
		}
	}
}

// listingTagFault is the message the event golden's plan duplicates by
// tag: a remote transfer of Strassen-16 on 8 processors.
const listingTagFault = "A11@0->8#1"

// TestStreamsListingGolden pins the generated MPMD code and what the
// simulator makes of it, against digests recorded once. The first part
// hashes the listing of every stream of the eight programs of
// TestProgramDataGolden, planned on their processor counts. The second
// hashes the full event stream, and the halt it ends in, of Strassen-16
// on 8 processors under a seeded fault plan — a processor death with
// messages still in the network, delays by send sequence, a straggler —
// plus a duplicate addressed by tag. A change to how the program is
// represented must leave both unchanged.
func TestStreamsListingGolden(t *testing.T) {
	cal := testCal(t)
	listings := map[string]string{
		"cmm32":             "6267d31285fbf06aae80bfc8edaf6582082d10756f5c5c19fcc637d682b556d5",
		"cmm127":            "38eadb45b0585b7c375a2fa54a879ad1fa9c36c81aef3b1bcec63250c3f82e0c",
		"cmm256":            "a264b38511b6a4aeea77bcb2a9ad7f7e0b4234397ce9fb6730c9914c4ea9c3e4",
		"strassen16":        "d9ac03846a552feef900167f143df888923144bdd313113d808a4e196abed0f0",
		"strassen128":       "dd172a3ddbba64a99f6fd10ffce97bfd93e0cf747fefd808b32991c891869186",
		"strassen-rec32-d2": "4f8252d405062a3244378cefeb3c6cbc35b05906434b1909b0009ed5cd5fbd73",
		"cmm-grid48":        "9558ee9a55e14577398da52285167f8d683cff45923e5e6d6824eae4dbbab79f",
		"frontend-wave23":   "a02cd6397529d9e7872231da47c9198d5e6e45cf94b2a4596f952eb94d70cce6",
	}
	for _, c := range goldenPrograms(cal) {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunContext(context.Background(), p, NewCM5(c.procs), cal, c.procs)
			if err != nil {
				t.Fatal(err)
			}
			streams, err := codegen.Generate(p, res.Sched)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			writeListing(h, streams)
			if got := hex.EncodeToString(h.Sum(nil)); got != listings[c.name] {
				t.Errorf("listing digest %s, want %s", got, listings[c.name])
			}
		})
	}

	t.Run("strassen16-faults", func(t *testing.T) {
		p, err := Strassen(16, cal)
		if err != nil {
			t.Fatal(err)
		}
		m := NewCM5(8)
		res, err := RunContext(context.Background(), p, m, cal, 8)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := codegen.Generate(p, res.Sched)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.Rand(70, fault.RandOptions{
			Procs: 8, MakespanHint: res.Actual, ProcFails: 1, MsgDelays: 3, Stragglers: 2,
			Messages: res.Sim.Messages, Nodes: p.G.NumNodes(),
		})
		if err != nil {
			t.Fatal(err)
		}
		plan.MsgFaults = append(plan.MsgFaults, fault.MsgFault{Kind: fault.Duplicate, Tag: listingTagFault})
		rec := obs.NewRecorder()
		_, runErr := sim.RunCtx(context.Background(), p, streams, m, sim.Options{Observer: rec, Faults: plan})
		h := sha256.New()
		fmt.Fprintf(h, "%v\n", runErr)
		kinds := map[string]int{}
		tagged := false
		for _, e := range rec.Events() {
			fmt.Fprintf(h, "%T %+v\n", e, e)
			if f, ok := e.(obs.Fault); ok {
				kinds[f.FaultKind]++
				tagged = tagged || (f.FaultKind == "msg-duplicate" && f.Tag == listingTagFault)
			}
		}
		if !tagged {
			t.Errorf("no msg-duplicate event for %s", listingTagFault)
		}
		if kinds["msg-drop"] < 2 || kinds["proc-fail"] != 1 {
			t.Errorf("fault events %v, want a death that drops two or more messages", kinds)
		}
		const want = "758d8ffc08e6e7252d567d008a86266b929b2e30b1bdf619312183aa1438da64"
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("event digest %s, want %s", got, want)
		}
	})
}
