package mdg

// ColorClasses is the partition color refinement proposes, numbered like
// Orbits (by smallest member): what Orbits starts from before checking.
func (g *Graph) ColorClasses() []int {
	r := newRefiner(g)
	sig := make([]uint64, len(g.Nodes))
	r.initial(g, sig)
	r.refine(sig)
	classes := make([]int, len(sig))
	first := map[uint64]int{}
	for i, s := range sig {
		c, ok := first[s]
		if !ok {
			c = len(first)
			first[s] = c
		}
		classes[i] = c
	}
	return classes
}

// ForgetOrbits drops the Orbits memo, so the next call computes cold.
func (g *Graph) ForgetOrbits() { g.orbs.Store(nil) }
