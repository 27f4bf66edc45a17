package dist

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"paradigm/internal/mdg"
)

func TestBlockRangesEvenSplit(t *testing.T) {
	d, err := New(10, 4, ByRow, []int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := d.BlockRange(0); lo != 0 || hi != 5 {
		t.Fatalf("block 0 = [%d,%d)", lo, hi)
	}
	if lo, hi := d.BlockRange(1); lo != 5 || hi != 10 {
		t.Fatalf("block 1 = [%d,%d)", lo, hi)
	}
	if d.OwnerProc(4) != 3 || d.OwnerProc(5) != 7 {
		t.Fatal("owner wrong")
	}
	if d.TotalBytes() != 10*4*8 {
		t.Fatalf("TotalBytes = %d", d.TotalBytes())
	}
}

func TestBlockRangesUnevenAndEmpty(t *testing.T) {
	// 10 rows over 4 procs: blocks of 3 -> [0,3) [3,6) [6,9) [9,10).
	d, _ := New(10, 2, ByRow, []int{0, 1, 2, 3})
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	for b, w := range want {
		if lo, hi := d.BlockRange(b); lo != w[0] || hi != w[1] {
			t.Fatalf("block %d = [%d,%d), want %v", b, lo, hi, w)
		}
	}
	// 2 rows over 4 procs: blocks of 1 -> two procs empty.
	d2, _ := New(2, 2, ByRow, []int{0, 1, 2, 3})
	if lo, hi := d2.BlockRange(2); lo != hi {
		t.Fatalf("block 2 should be empty, got [%d,%d)", lo, hi)
	}
}

func TestBlockRectByCol(t *testing.T) {
	d, _ := New(6, 8, ByCol, []int{0, 1})
	r0, r1, c0, c1 := d.BlockRect(1)
	if r0 != 0 || r1 != 6 || c0 != 4 || c1 != 8 {
		t.Fatalf("rect = [%d:%d,%d:%d)", r0, r1, c0, c1)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 2, ByRow, []int{0}); err == nil {
		t.Fatal("want shape error")
	}
	if _, err := New(2, 2, ByRow, nil); err == nil {
		t.Fatal("want empty group error")
	}
	if _, err := New(2, 2, ByRow, []int{0, 0}); err == nil {
		t.Fatal("want duplicate proc error")
	}
	if _, err := New(2, 2, ByRow, []int{-1}); err == nil {
		t.Fatal("want negative proc error")
	}
	if _, err := New(2, 2, Axis(5), []int{0}); err == nil {
		t.Fatal("want axis error")
	}
}

func TestKind(t *testing.T) {
	a, _ := New(4, 4, ByRow, []int{0})
	b, _ := New(4, 4, ByCol, []int{1})
	if Kind(a, a) != mdg.Transfer1D || Kind(b, b) != mdg.Transfer1D {
		t.Fatal("same axis should be 1D")
	}
	if Kind(a, b) != mdg.Transfer2D || Kind(b, a) != mdg.Transfer2D {
		t.Fatal("cross axis should be 2D")
	}
}

func TestMessagesRow2RowEqualGroups(t *testing.T) {
	src, _ := New(8, 4, ByRow, []int{0, 1})
	dst, _ := New(8, 4, ByRow, []int{2, 3})
	msgs, err := Messages(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Identical block boundaries: one message per block pair.
	if len(msgs) != 2 {
		t.Fatalf("msgs = %v", msgs)
	}
	if msgs[0].From != 0 || msgs[0].To != 2 || msgs[0].Bytes() != 4*4*8 {
		t.Fatalf("msg0 = %+v", msgs[0])
	}
}

func TestMessagesRow2RowDifferentCounts(t *testing.T) {
	// 2 senders -> 4 receivers: each sender's half splits in two.
	src, _ := New(8, 4, ByRow, []int{0, 1})
	dst, _ := New(8, 4, ByRow, []int{4, 5, 6, 7})
	msgs, err := Messages(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 {
		t.Fatalf("want 4 messages, got %v", msgs)
	}
}

func TestMessagesRow2ColAllToAll(t *testing.T) {
	src, _ := New(8, 8, ByRow, []int{0, 1})
	dst, _ := New(8, 8, ByCol, []int{2, 3, 4})
	msgs, err := Messages(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// All-to-all: 2 × 3 rectangles.
	if len(msgs) != 6 {
		t.Fatalf("want 6 messages, got %d: %v", len(msgs), msgs)
	}
}

func TestMessagesLocalMove(t *testing.T) {
	// Same proc in both groups: local move message with From == To.
	src, _ := New(8, 4, ByRow, []int{0, 1})
	dst, _ := New(8, 4, ByRow, []int{0, 1})
	msgs, err := Messages(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m.From != m.To {
			t.Fatalf("expected local moves only, got %+v", m)
		}
	}
}

func TestMessagesShapeMismatch(t *testing.T) {
	a, _ := New(8, 4, ByRow, []int{0})
	b, _ := New(4, 8, ByRow, []int{1})
	if _, err := Messages(a, b); err == nil {
		t.Fatal("want shape error")
	}
}

func TestPanics(t *testing.T) {
	d, _ := New(4, 4, ByRow, []int{0, 1})
	for name, fn := range map[string]func(){
		"block range": func() { d.BlockRange(2) },
		"owner range": func() { d.OwnerProc(4) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// randomDist builds a random distribution of a fixed shape.
func randomDist(rng *rand.Rand, rows, cols int) Dist {
	axis := ByRow
	if rng.Intn(2) == 1 {
		axis = ByCol
	}
	q := 1 + rng.Intn(8)
	procs := rng.Perm(32)[:q]
	d, err := New(rows, cols, axis, procs)
	if err != nil {
		panic(err)
	}
	return d
}

// TestMessagesExactCoverage: for random src/dst distributions, the
// messages tile the matrix exactly — every element is carried exactly
// once, never duplicated, never dropped.
func TestMessagesExactCoverage(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		src := randomDist(rng, rows, cols)
		dst := randomDist(rng, rows, cols)
		msgs, err := Messages(src, dst)
		if err != nil {
			return false
		}
		count := make([]int, rows*cols)
		for _, m := range msgs {
			// Sender must own the rectangle; receiver must own it too.
			for r := m.R0; r < m.R1; r++ {
				for c := m.C0; c < m.C1; c++ {
					count[r*cols+c]++
					srcIdx, dstIdx := r, r
					if src.Axis == ByCol {
						srcIdx = c
					}
					if dst.Axis == ByCol {
						dstIdx = c
					}
					if src.OwnerProc(srcIdx) != m.From || dst.OwnerProc(dstIdx) != m.To {
						return false
					}
				}
			}
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestMessagesByteConservation: total message bytes equal the array size.
func TestMessagesByteConservation(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		rows := 1 + rng.Intn(50)
		cols := 1 + rng.Intn(50)
		src := randomDist(rng, rows, cols)
		dst := randomDist(rng, rows, cols)
		msgs, err := Messages(src, dst)
		if err != nil {
			return false
		}
		total := 0
		for _, m := range msgs {
			if m.Bytes() <= 0 {
				return false
			}
			total += m.Bytes()
		}
		return total == src.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestMessageCount1DLinearIn2DQuadratic: the structural difference behind
// Equations 2 vs 3 — same-axis redistribution produces O(max(pi,pj))
// messages, cross-axis produces pi·pj (when blocks are non-empty).
func TestMessageCount1DLinearIn2DQuadratic(t *testing.T) {
	mk := func(axis Axis, procs ...int) Dist {
		d, err := New(64, 64, axis, procs)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seq := func(n, base int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = base + i
		}
		return out
	}
	m1, _ := Messages(mk(ByRow, seq(4, 0)...), mk(ByRow, seq(8, 100)...))
	if len(m1) != 8 {
		t.Fatalf("1D message count = %d, want 8", len(m1))
	}
	m2, _ := Messages(mk(ByRow, seq(4, 0)...), mk(ByCol, seq(8, 100)...))
	if len(m2) != 32 {
		t.Fatalf("2D message count = %d, want 32", len(m2))
	}
}

// TestGroupChecksMatchAMap: the map-free duplicate check of Dist, Grid
// and Placement rejects exactly the groups a map-based check rejected,
// with the same text. Ids are drawn around both ends of procSet's bitset
// (negative, near 0, across 1024) so every path meets repeats, and runs
// of consecutive ids fill whole words of it.
func TestGroupChecksMatchAMap(t *testing.T) {
	// groupErr is the check Dist and Grid made with a map.
	groupErr := func(procs []int) string {
		seen := map[int]bool{}
		for _, p := range procs {
			if p < 0 {
				return fmt.Sprintf("dist: negative processor id %d", p)
			}
			if seen[p] {
				return fmt.Sprintf("dist: duplicate processor id %d", p)
			}
			seen[p] = true
		}
		return ""
	}
	// placementErr is Placement's, which allows negative ids.
	placementErr := func(procs []int) string {
		seen := map[int]bool{}
		for _, p := range procs {
			if seen[p] {
				return fmt.Sprintf("dist: processor %d owns two blocks", p)
			}
			seen[p] = true
		}
		return ""
	}
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	rng := rand.New(rand.NewSource(1))
	rejected := 0
	for trial := 0; trial < 5000; trial++ {
		var procs []int
		if trial%3 == 0 {
			// A run of consecutive ids, shuffled, repeating one of
			// them every other time.
			base := []int{0, 960, 1 << 20}[rng.Intn(3)]
			procs = rng.Perm(1 + rng.Intn(130))
			for i := range procs {
				procs[i] += base
			}
			if trial%2 == 0 {
				procs = append(procs, procs[rng.Intn(len(procs))])
			}
		} else {
			procs = make([]int, 1+rng.Intn(40))
			for i := range procs {
				switch rng.Intn(4) {
				case 0:
					procs[i] = rng.Intn(48)
				case 1:
					procs[i] = 1000 + rng.Intn(48)
				case 2:
					procs[i] = 1 << 20
				default:
					procs[i] = -1 - rng.Intn(2)
					if trial%2 == 0 {
						procs[i] = rng.Intn(2000)
					}
				}
			}
		}
		want := groupErr(procs)
		if want != "" {
			rejected++
		}
		d := Dist{Rows: 4, Cols: 4, Axis: ByRow, Procs: procs}
		g := Grid{Rows: 4, Cols: 4, PR: 1, PC: len(procs), Procs: procs}
		pl := Placement{Rows: len(procs), Cols: 1}
		for i, p := range procs {
			pl.Blocks = append(pl.Blocks, PlacedRect{Proc: p, R0: i, R1: i + 1, C0: 0, C1: 1})
		}
		if got := text(d.Validate()); got != want {
			t.Fatalf("Dist over %v: %q, want %q", procs, got, want)
		}
		if got := text(g.Validate()); got != want {
			t.Fatalf("Grid over %v: %q, want %q", procs, got, want)
		}
		if got, want := text(pl.Validate()), placementErr(procs); got != want {
			t.Fatalf("Placement over %v: %q, want %q", procs, got, want)
		}
	}
	if rejected == 0 || rejected == 5000 {
		t.Fatalf("%d of 5000 groups rejected: the draw misses a case", rejected)
	}
}
