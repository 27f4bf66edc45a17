package dist

import (
	"fmt"

	"paradigm/internal/mdg"
)

// This file implements the paper's stated extension ("for other programs
// more general distributions may be needed for optimal performance ...
// we are in the process of extending our cost functions"): blocked
// two-dimensional (grid) distributions, where a matrix is partitioned in
// both dimensions over a pr×pc processor grid. Grid distributions make
// the data-parallel multiply scale better (panel gathers over √q peers
// instead of a full operand all-gather), at the price of more complex
// redistribution patterns — both captured by the extended cost functions
// in internal/costmodel.

// PlacedRect is one block of a distribution: the rectangle rows [R0,R1) ×
// cols [C0,C1) resident on processor Proc. Empty rectangles are valid
// (more processors than blocks).
type PlacedRect struct {
	Proc           int
	R0, R1, C0, C1 int
}

// Empty reports whether the block holds no elements.
func (p PlacedRect) Empty() bool { return p.R0 >= p.R1 || p.C0 >= p.C1 }

// Placement is a full block map: every element of the matrix appears in
// exactly one rectangle.
type Placement struct {
	Rows, Cols int
	Blocks     []PlacedRect
}

// Validate checks the exact-tiling invariant.
func (pl Placement) Validate() error {
	if pl.Rows <= 0 || pl.Cols <= 0 {
		return fmt.Errorf("dist: invalid placement shape %dx%d", pl.Rows, pl.Cols)
	}
	area := 0
	var seen procSet
	for _, b := range pl.Blocks {
		if b.R0 < 0 || b.R1 > pl.Rows || b.C0 < 0 || b.C1 > pl.Cols || b.R0 > b.R1 || b.C0 > b.C1 {
			return fmt.Errorf("dist: block %+v outside %dx%d", b, pl.Rows, pl.Cols)
		}
		if !seen.add(b.Proc) {
			return fmt.Errorf("dist: processor %d owns two blocks", b.Proc)
		}
		area += (b.R1 - b.R0) * (b.C1 - b.C0)
	}
	if area != pl.Rows*pl.Cols {
		return fmt.Errorf("dist: blocks cover %d of %d elements", area, pl.Rows*pl.Cols)
	}
	return nil
}

// PlacementOf returns the block map of a 1D distribution.
func (d Dist) Placement() Placement {
	pl := Placement{Rows: d.Rows, Cols: d.Cols, Blocks: make([]PlacedRect, 0, len(d.Procs))}
	for b := range d.Procs {
		r0, r1, c0, c1 := d.BlockRect(b)
		pl.Blocks = append(pl.Blocks, PlacedRect{Proc: d.Procs[b], R0: r0, R1: r1, C0: c0, C1: c1})
	}
	return pl
}

// GridShape returns the near-square factorization pr×pc = q with pr <= pc
// and pr the largest divisor of q not exceeding √q. Powers of two always
// split evenly (e.g. 8 → 2×4, 16 → 4×4).
func GridShape(q int) (pr, pc int) {
	if q < 1 {
		panic(fmt.Sprintf("dist: grid of %d processors", q))
	}
	pr = 1
	for d := 1; d*d <= q; d++ {
		if q%d == 0 {
			pr = d
		}
	}
	return pr, q / pr
}

// Grid is a blocked 2D distribution of an R×C matrix over a pr×pc
// processor grid in row-major order: grid position (i, j) holds block
// (i, j) on Procs[i*pc+j].
type Grid struct {
	Rows, Cols int
	PR, PC     int
	Procs      []int
}

// NewGrid builds a grid distribution over the ordered processor list,
// using the near-square GridShape factorization of its size.
func NewGrid(rows, cols int, procs []int) (Grid, error) {
	g := Grid{Rows: rows, Cols: cols, Procs: procs}
	g.PR, g.PC = 0, 0
	if len(procs) > 0 {
		g.PR, g.PC = GridShape(len(procs))
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// Validate checks the grid invariants.
func (g Grid) Validate() error {
	if g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("dist: invalid grid shape %dx%d", g.Rows, g.Cols)
	}
	if g.PR < 1 || g.PC < 1 || g.PR*g.PC != len(g.Procs) {
		return fmt.Errorf("dist: grid %dx%d does not match %d processors", g.PR, g.PC, len(g.Procs))
	}
	return validateGroup(g.Procs)
}

// blockRange splits extent over n blocks with ceil-sized blocks.
func blockRange(extent, n, i int) (lo, hi int) {
	bs := (extent + n - 1) / n
	lo = i * bs
	hi = lo + bs
	if hi > extent {
		hi = extent
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// BlockRect returns the rectangle of grid position (i, j).
func (g Grid) BlockRect(i, j int) (r0, r1, c0, c1 int) {
	if i < 0 || i >= g.PR || j < 0 || j >= g.PC {
		panic(fmt.Sprintf("dist: grid position (%d,%d) outside %dx%d", i, j, g.PR, g.PC))
	}
	r0, r1 = blockRange(g.Rows, g.PR, i)
	c0, c1 = blockRange(g.Cols, g.PC, j)
	return
}

// Placement returns the grid's block map.
func (g Grid) Placement() Placement {
	pl := Placement{Rows: g.Rows, Cols: g.Cols, Blocks: make([]PlacedRect, 0, len(g.Procs))}
	for i := 0; i < g.PR; i++ {
		for j := 0; j < g.PC; j++ {
			r0, r1, c0, c1 := g.BlockRect(i, j)
			pl.Blocks = append(pl.Blocks, PlacedRect{
				Proc: g.Procs[i*g.PC+j], R0: r0, R1: r1, C0: c0, C1: c1,
			})
		}
	}
	return pl
}

// AppendMessagesBetween appends to out the exact redistribution message
// list between two arbitrary placements of the same matrix: one message
// per non-empty pairwise block intersection, in source-block then
// destination-block order.
func AppendMessagesBetween(out []Msg, src, dst Placement) ([]Msg, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := dst.Validate(); err != nil {
		return nil, err
	}
	if src.Rows != dst.Rows || src.Cols != dst.Cols {
		return nil, fmt.Errorf("dist: shape mismatch %dx%d vs %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols)
	}
	for _, sb := range src.Blocks {
		if sb.Empty() {
			continue
		}
		for _, db := range dst.Blocks {
			r0, r1 := max(sb.R0, db.R0), min(sb.R1, db.R1)
			c0, c1 := max(sb.C0, db.C0), min(sb.C1, db.C1)
			if r0 >= r1 || c0 >= c1 {
				continue
			}
			out = append(out, Msg{From: sb.Proc, To: db.Proc, R0: r0, R1: r1, C0: c0, C1: c1})
		}
	}
	return out, nil
}

// KindBetween classifies a redistribution between two layouts for the
// extended cost model: the original 1D/2D kinds for linear-linear pairs,
// and the grid kinds of the extension otherwise.
func KindBetween(srcAxis, dstAxis Axis) mdg.TransferKind {
	srcGrid := srcAxis == ByGrid
	dstGrid := dstAxis == ByGrid
	switch {
	case srcGrid && dstGrid:
		return mdg.TransferG2G
	case srcGrid:
		return mdg.TransferG2L
	case dstGrid:
		return mdg.TransferL2G
	case srcAxis == dstAxis:
		return mdg.Transfer1D
	default:
		return mdg.Transfer2D
	}
}
