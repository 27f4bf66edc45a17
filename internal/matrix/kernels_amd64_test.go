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
		{"avx512", axpy4AVX512, axpyAVX, avxUsable() && avx512Usable()},
		{"avx", axpy4AVX, axpyAVX, avxUsable()},
	}
}

// TestKernelSelection guards init's choice, which the bit tests cannot
// see: they run every kernel the CPU has whatever init picked, so a
// detection bug that fell back to axpy4AVX would keep every bit and lose
// the whole gain. Where Linux lists avx512f among the CPU's flags — which
// it does only when it also saves the ZMM state — axpy4Vec must be the
// 512-bit kernel.
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
	got, want := reflect.ValueOf(axpy4Vec).Pointer(), reflect.ValueOf(axpy4AVX512).Pointer()
	if axpy4Vec == nil || got != want {
		t.Fatalf("axpy4Vec = %#x, want axpy4AVX512 (%#x); axpy4AVX is %#x",
			got, want, reflect.ValueOf(axpy4AVX).Pointer())
	}
	if axpyVec == nil || reflect.ValueOf(axpyVec).Pointer() != reflect.ValueOf(axpyAVX).Pointer() {
		t.Fatal("axpyVec is not axpyAVX")
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
