package matrix

import (
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func init() {
	vecKernels = []vecKernel{
		{"avx512", axpy4AVX512, axpyAVX, addAVX512, subAVX512, sinAVX512, cosAVX512, avxUsable() && avx512Usable()},
		{"avx", axpy4AVX, axpyAVX, addAVX, subAVX, sinAVX, cosAVX, avxUsable()},
	}
}

// TestKernelSelection guards init's choice, which the bit tests cannot
// see: they run every kernel the CPU has whatever init picked, so a
// detection bug that fell back to the AVX kernels would keep every bit
// and lose the whole gain. Where Linux lists avx512f among the CPU's
// flags — which it does only when it also saves the ZMM state — every
// hook but axpyVec, which has one width, must hold the 512-bit kernel.
func TestKernelSelection(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads the CPU flags from /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags: %v", err)
	}
	if !hasCPUFlag(string(info), "avx512f") {
		t.Skip("the CPU flags do not list avx512f")
	}
	if !avx512Usable() {
		t.Fatal("the CPU flags list avx512f, avx512Usable reports false")
	}
	for _, h := range []struct {
		name      string
		got, want any
	}{
		{"axpy4Vec", axpy4Vec, axpy4AVX512},
		{"axpyVec", axpyVec, axpyAVX},
		{"addVec", addVec, addAVX512},
		{"subVec", subVec, subAVX512},
		{"sinVec", sinVec, sinAVX512},
		{"cosVec", cosVec, cosAVX512},
	} {
		got, want := reflect.ValueOf(h.got), reflect.ValueOf(h.want)
		if got.IsNil() || got.Pointer() != want.Pointer() {
			t.Errorf("%s does not hold the kernel init should pick (%#x)", h.name, want.Pointer())
		}
	}
}

// hasCPUFlag reports whether the first "flags" line of a /proc/cpuinfo
// text lists flag.
func hasCPUFlag(cpuinfo, flag string) bool {
	for _, line := range strings.Split(cpuinfo, "\n") {
		name, list, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				if f == flag {
					return true
				}
			}
			return false
		}
	}
	return false
}
