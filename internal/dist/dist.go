// Package dist implements blocked one-dimensional data distributions and
// exact redistribution message generation — the machinery behind the
// paper's Figure 4 transfer patterns.
//
// A matrix is distributed across an ordered group of processors along one
// dimension (rows or columns) in contiguous blocks of ceil(extent/q)
// indices. Moving an array between two nodes of the MDG is a
// redistribution from the producer's distribution to the consumer's:
//
//   - same axis on both sides: the ROW2ROW / COL2COL ("1D") pattern —
//     each processor exchanges with the few peers whose index ranges
//     overlap its own;
//   - different axes: the ROW2COL / COL2ROW ("2D") pattern — every
//     sender intersects every receiver, an all-to-all of sub-rectangles.
//
// Messages carries the exact rectangle geometry, so the simulator moves
// the true bytes and verification can check that every element arrives
// exactly once.
package dist

import (
	"fmt"
	"slices"

	"paradigm/internal/mdg"
)

// ElemBytes is the size of one matrix element (float64).
const ElemBytes = 8

// Axis selects the distributed dimension.
type Axis uint8

const (
	// ByRow distributes contiguous row blocks.
	ByRow Axis = iota
	// ByCol distributes contiguous column blocks.
	ByCol
	// ByGrid distributes blocks over a near-square processor grid in
	// both dimensions (the paper's general-distribution extension; see
	// grid.go). A node axis only: 1D Dist values never carry it.
	ByGrid
)

// String renders the axis.
func (a Axis) String() string {
	switch a {
	case ByRow:
		return "row"
	case ByCol:
		return "col"
	case ByGrid:
		return "grid"
	default:
		return fmt.Sprintf("Axis(%d)", uint8(a))
	}
}

// Dist is a blocked distribution of an R×C matrix over an ordered
// processor group along Axis. Block b lives on Procs[b].
type Dist struct {
	Rows, Cols int
	Axis       Axis
	Procs      []int
}

// New builds a distribution, validating its shape.
func New(rows, cols int, axis Axis, procs []int) (Dist, error) {
	d := Dist{Rows: rows, Cols: cols, Axis: axis, Procs: procs}
	if err := d.Validate(); err != nil {
		return Dist{}, err
	}
	return d, nil
}

// Validate checks the distribution invariants.
func (d Dist) Validate() error {
	if d.Rows <= 0 || d.Cols <= 0 {
		return fmt.Errorf("dist: invalid shape %dx%d", d.Rows, d.Cols)
	}
	if len(d.Procs) == 0 {
		return fmt.Errorf("dist: empty processor group")
	}
	if d.Axis != ByRow && d.Axis != ByCol {
		return fmt.Errorf("dist: unknown axis %d", d.Axis)
	}
	return validateGroup(d.Procs)
}

// validateGroup rejects a processor group with a negative or repeated
// id, naming the first such entry.
func validateGroup(procs []int) error {
	var seen procSet
	for _, p := range procs {
		if p < 0 {
			return fmt.Errorf("dist: negative processor id %d", p)
		}
		if !seen.add(p) {
			return fmt.Errorf("dist: duplicate processor id %d", p)
		}
	}
	return nil
}

// procSet is a set of processor ids that needs no map: ids in [0, 1024)
// live in a bitset on the caller's stack, any other id in a slice that is
// searched linearly.
type procSet struct {
	small [16]uint64
	other []int
}

// add inserts p and reports whether it was absent.
func (s *procSet) add(p int) bool {
	if p >= 0 && p < 64*len(s.small) {
		w, bit := p/64, uint64(1)<<(p%64)
		if s.small[w]&bit != 0 {
			return false
		}
		s.small[w] |= bit
		return true
	}
	if slices.Contains(s.other, p) {
		return false
	}
	s.other = append(s.other, p)
	return true
}

// extent returns the length of the distributed dimension.
func (d Dist) extent() int {
	if d.Axis == ByRow {
		return d.Rows
	}
	return d.Cols
}

// BlockSize returns ceil(extent/q), the nominal block length.
func (d Dist) BlockSize() int {
	q := len(d.Procs)
	return (d.extent() + q - 1) / q
}

// BlockRange returns the half-open index range [lo, hi) of block b along
// the distributed axis. Trailing blocks may be short or empty when the
// extent does not divide evenly.
func (d Dist) BlockRange(b int) (lo, hi int) {
	if b < 0 || b >= len(d.Procs) {
		panic(fmt.Sprintf("dist: block %d outside [0,%d)", b, len(d.Procs)))
	}
	bs := d.BlockSize()
	lo = b * bs
	hi = lo + bs
	if ext := d.extent(); hi > ext {
		hi = ext
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// BlockRect returns block b as a full rectangle rows [r0,r1) × cols [c0,c1).
func (d Dist) BlockRect(b int) (r0, r1, c0, c1 int) {
	lo, hi := d.BlockRange(b)
	if d.Axis == ByRow {
		return lo, hi, 0, d.Cols
	}
	return 0, d.Rows, lo, hi
}

// OwnerProc returns the processor holding index i of the distributed axis.
func (d Dist) OwnerProc(i int) int {
	ext := d.extent()
	if i < 0 || i >= ext {
		panic(fmt.Sprintf("dist: index %d outside [0,%d)", i, ext))
	}
	b := i / d.BlockSize()
	return d.Procs[b]
}

// TotalBytes is the array size L in bytes.
func (d Dist) TotalBytes() int { return d.Rows * d.Cols * ElemBytes }

// Kind classifies the redistribution src -> dst per Figure 4: 1D when the
// axes match, 2D when they differ.
func Kind(src, dst Dist) mdg.TransferKind {
	if src.Axis == dst.Axis {
		return mdg.Transfer1D
	}
	return mdg.Transfer2D
}

// Msg is one point-to-point message of a redistribution: the rectangle
// rows [R0,R1) × cols [C0,C1) moving from processor From to processor To.
// From == To denotes a processor-local move (no network involvement).
type Msg struct {
	From, To       int
	R0, R1, C0, C1 int
}

// Bytes returns the payload size.
func (m Msg) Bytes() int { return (m.R1 - m.R0) * (m.C1 - m.C0) * ElemBytes }

// Messages computes the exact message list redistributing an array from
// src to dst. Both must describe the same matrix shape. Every element of
// the matrix appears in exactly one message; empty intersections produce
// no message.
func Messages(src, dst Dist) ([]Msg, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := dst.Validate(); err != nil {
		return nil, err
	}
	if src.Rows != dst.Rows || src.Cols != dst.Cols {
		return nil, fmt.Errorf("dist: shape mismatch %dx%d vs %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols)
	}
	var out []Msg
	for sb := range src.Procs {
		sr0, sr1, sc0, sc1 := src.BlockRect(sb)
		if sr0 == sr1 || sc0 == sc1 {
			continue
		}
		for db := range dst.Procs {
			dr0, dr1, dc0, dc1 := dst.BlockRect(db)
			r0, r1 := max(sr0, dr0), min(sr1, dr1)
			c0, c1 := max(sc0, dc0), min(sc1, dc1)
			if r0 >= r1 || c0 >= c1 {
				continue
			}
			out = append(out, Msg{
				From: src.Procs[sb], To: dst.Procs[db],
				R0: r0, R1: r1, C0: c0, C1: c1,
			})
		}
	}
	return out, nil
}
