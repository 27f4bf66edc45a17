package dist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paradigm/internal/mdg"
)

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 8: {2, 4}, 16: {4, 4},
		32: {4, 8}, 64: {8, 8}, 6: {2, 3}, 12: {3, 4}, 7: {1, 7}, 36: {6, 6},
	}
	for q, want := range cases {
		pr, pc := GridShape(q)
		if pr != want[0] || pc != want[1] {
			t.Fatalf("GridShape(%d) = %dx%d, want %dx%d", q, pr, pc, want[0], want[1])
		}
		if pr*pc != q || pr > pc {
			t.Fatalf("GridShape(%d) invalid: %dx%d", q, pr, pc)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q=0")
		}
	}()
	GridShape(0)
}

func TestNewGridBlocks(t *testing.T) {
	g, err := NewGrid(8, 12, []int{10, 11, 12, 13})
	if err != nil {
		t.Fatal(err)
	}
	if g.PR != 2 || g.PC != 2 {
		t.Fatalf("grid %dx%d", g.PR, g.PC)
	}
	r0, r1, c0, c1 := g.BlockRect(1, 0)
	if r0 != 4 || r1 != 8 || c0 != 0 || c1 != 6 {
		t.Fatalf("block(1,0) = [%d:%d,%d:%d)", r0, r1, c0, c1)
	}
	pl := g.Placement()
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(pl.Blocks) != 4 || pl.Blocks[3].Proc != 13 {
		t.Fatalf("placement = %+v", pl)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 4, []int{0}); err == nil {
		t.Fatal("want shape error")
	}
	if _, err := NewGrid(4, 4, nil); err == nil {
		t.Fatal("want empty group error")
	}
	if _, err := NewGrid(4, 4, []int{0, 0}); err == nil {
		t.Fatal("want duplicate error")
	}
	if _, err := NewGrid(4, 4, []int{-1}); err == nil {
		t.Fatal("want negative id error")
	}
}

func TestPlacementValidateCatchesGaps(t *testing.T) {
	bad := Placement{Rows: 2, Cols: 2, Blocks: []PlacedRect{
		{Proc: 0, R0: 0, R1: 1, C0: 0, C1: 2},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("want coverage error")
	}
	dup := Placement{Rows: 2, Cols: 2, Blocks: []PlacedRect{
		{Proc: 0, R0: 0, R1: 2, C0: 0, C1: 2},
		{Proc: 0, R0: 0, R1: 0, C0: 0, C1: 0},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("want duplicate-proc error")
	}
}

// TestMessagesBetweenExactCoverage extends the exact-tiling property to
// arbitrary placement pairs, including grids.
func TestMessagesBetweenExactCoverage(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		mk := func() Placement {
			q := 1 + rng.Intn(9)
			procs := rng.Perm(32)[:q]
			switch rng.Intn(3) {
			case 0:
				d, _ := New(rows, cols, ByRow, procs)
				return d.Placement()
			case 1:
				d, _ := New(rows, cols, ByCol, procs)
				return d.Placement()
			default:
				g, _ := NewGrid(rows, cols, procs)
				return g.Placement()
			}
		}
		src, dst := mk(), mk()
		msgs, err := AppendMessagesBetween(nil, src, dst)
		if err != nil {
			return false
		}
		count := make([]int, rows*cols)
		total := 0
		for _, m := range msgs {
			for r := m.R0; r < m.R1; r++ {
				for c := m.C0; c < m.C1; c++ {
					count[r*cols+c]++
				}
			}
			total += m.Bytes()
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return total == rows*cols*ElemBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKindBetween(t *testing.T) {
	cases := []struct {
		src, dst Axis
		want     mdg.TransferKind
	}{
		{ByRow, ByRow, mdg.Transfer1D},
		{ByCol, ByCol, mdg.Transfer1D},
		{ByRow, ByCol, mdg.Transfer2D},
		{ByCol, ByRow, mdg.Transfer2D},
		{ByGrid, ByRow, mdg.TransferG2L},
		{ByGrid, ByCol, mdg.TransferG2L},
		{ByRow, ByGrid, mdg.TransferL2G},
		{ByGrid, ByGrid, mdg.TransferG2G},
	}
	for _, c := range cases {
		if got := KindBetween(c.src, c.dst); got != c.want {
			t.Fatalf("KindBetween(%v,%v) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

// TestGridMessageCountsVsLinear: grid-to-grid redistribution produces far
// fewer messages than the 2D all-to-all at the same sizes — the
// structural reason the extension pays off.
func TestGridMessageCountsVsLinear(t *testing.T) {
	procsA := make([]int, 16)
	procsB := make([]int, 16)
	for i := range procsA {
		procsA[i] = i
		procsB[i] = 100 + i
	}
	gA, _ := NewGrid(64, 64, procsA)
	gB, _ := NewGrid(64, 64, procsB)
	g2g, err := AppendMessagesBetween(nil, gA.Placement(), gB.Placement())
	if err != nil {
		t.Fatal(err)
	}
	dA, _ := New(64, 64, ByRow, procsA)
	dB, _ := New(64, 64, ByCol, procsB)
	allToAll, err := AppendMessagesBetween(nil, dA.Placement(), dB.Placement())
	if err != nil {
		t.Fatal(err)
	}
	if len(g2g) >= len(allToAll) {
		t.Fatalf("aligned grid-to-grid (%d msgs) should beat row-to-col all-to-all (%d msgs)",
			len(g2g), len(allToAll))
	}
	// Aligned grids exchange exactly one message per block.
	if len(g2g) != 16 {
		t.Fatalf("aligned 4x4 grids: %d messages, want 16", len(g2g))
	}
}
