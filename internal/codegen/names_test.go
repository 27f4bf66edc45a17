package codegen

import (
	"fmt"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/machine"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
	"paradigm/internal/sched"
	"paradigm/internal/trainsets"
)

// TestNamesMatchFormat holds InstanceName and Tag, which append with
// strconv, to the fmt formula they replaced, on every instance and
// message of the paper's two programs as the pipeline generates them and
// on a few hand-built extremes.
func TestNamesMatchFormat(t *testing.T) {
	cal, err := trainsets.Calibrate(machine.CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	cmm, err := programs.ComplexMatMul(64, cal)
	if err != nil {
		t.Fatal(err)
	}
	strassen, err := programs.Strassen(64, cal)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		p     *prog.Program
		procs int
	}{{"cmm64-p16", cmm, 16}, {"cmm64-p64", cmm, 64}, {"strassen64-p64", strassen, 64}} {
		ar, err := alloc.Solve(tc.p.G, cm5Fit, tc.procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.Run(tc.p.G, cm5Fit, ar.P, tc.procs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		streams, err := Generate(tc.p, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(streams.Messages) == 0 {
			t.Fatalf("%s: no messages", tc.name)
		}
		requireFormattedNames(t, tc.name, streams)
	}
	requireFormattedNames(t, "extremes", &Streams{
		Instances: []Instance{{"", 0}, {"C_re·tmp", 1 << 30}, {"A", -7}},
		Messages:  []Message{{0, 0, 0}, {1, -3, 1<<31 - 1}, {2, 1 << 30, -1 << 31}},
	})
}

func requireFormattedNames(t *testing.T, name string, s *Streams) {
	t.Helper()
	old := func(in Instance) string { return fmt.Sprintf("%s@%d", in.Array, in.Node) }
	for id, in := range s.Instances {
		if got, want := s.InstanceName(int32(id)), old(in); got != want {
			t.Fatalf("%s: InstanceName(%d) = %q, want %q", name, id, got, want)
		}
	}
	for id, m := range s.Messages {
		want := fmt.Sprintf("%s->%d#%d", old(s.Instances[m.Src]), m.Consumer, m.Index)
		if got := s.Tag(int32(id)); got != want {
			t.Fatalf("%s: Tag(%d) = %q, want %q", name, id, got, want)
		}
	}
}
