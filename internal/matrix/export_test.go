package matrix

import "testing"

// scalarTrig clears the vector trig kernels until t ends, so that Sin and
// Cos take the scalar loop on a machine that has the vector one.
func scalarTrig(t testing.TB) {
	sin, cos := sinVec, cosVec
	sinVec, cosVec = nil, nil
	t.Cleanup(func() { sinVec, cosVec = sin, cos })
}
