package programs

import (
	"testing"

	"paradigm/internal/prog"
)

// TestStrassenIsRecursiveDepthOne pins the paper's Strassen MDG (Figure 6
// right, the program behind Tables 1–3) by its canonical hash, recorded
// from the paper builder, and holds the recursive builder's depth 1 to
// it: 35 nodes, the same α/τ in the same canonical places, the same
// edges and transfers.
func TestStrassenIsRecursiveDepthOne(t *testing.T) {
	cal := calibration(t)
	for _, c := range []struct {
		n    int
		hash string
	}{
		{16, "e573779a7506f1dc8f3afacb30db7b483c67973e5f8625586c413caed3e4d486"},
		{128, "9acaf3cacab45b590e0c1eb78312f85db81462f110a546af296f93211cf80d7f"},
	} {
		for _, b := range []struct {
			name  string
			build func() (*prog.Program, error)
		}{
			{"Strassen", func() (*prog.Program, error) { return Strassen(c.n, cal) }},
			{"StrassenRecursive depth 1", func() (*prog.Program, error) { return StrassenRecursive(c.n, 1, cal) }},
		} {
			p, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			hash, _, err := p.G.CanonicalHash()
			if err != nil {
				t.Fatal(err)
			}
			if n := p.G.NumNodes(); n != 35 || hash != c.hash {
				t.Errorf("%s(%d): %d nodes, hash %s; the paper's program has 35 nodes, hash %s",
					b.name, c.n, n, hash, c.hash)
			}
		}
	}
}
