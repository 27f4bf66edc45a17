package costmodel

import (
	"math"
	"testing"

	"paradigm/internal/mdg"
)

// Table-driven regime tests pinning Equations 2 and 3 against values
// computed by hand, so a silent change to either transfer formula (a
// swapped denominator, a dropped startup factor) fails with the exact
// expected triple rather than a derived-quantity drift. The round-number
// parameter set makes every expectation exact in float64; the last rows
// use the paper's Table 2 CM-5 fit.

// handTransfer is a deliberately clean parameter set: every expected
// value below is an exact decimal.
var handTransfer = TransferParams{
	Tss: 0.01,   // send startup
	Tps: 0.0001, // send per byte
	Tsr: 0.02,   // receive startup
	Tpr: 0.0002, // receive per byte
	Tn:  0.001,  // network per byte
}

// cm5Transfer is the Table 2 CM-5 fit (t_n = 0: no network term).
var cm5Transfer = TransferParams{
	Tss: 777.56e-6, Tps: 486.98e-9, Tsr: 465.58e-6, Tpr: 426.25e-9, Tn: 0,
}

func TestTransferRegimeTables(t *testing.T) {
	cases := []struct {
		name   string
		tp     TransferParams
		kind   mdg.TransferKind
		bytes  int
		pi, pj float64
		want   TransferCost
	}{
		// --- 1D regime (ROW2ROW / COL2COL, Equation 2) -------------------
		// t^S = max/pi·tss + L/pi·tps; t^D = L/max·tn; t^R = max/pj·tsr + L/pj·tpr.
		{
			name: "1D grow 4->8", tp: handTransfer, kind: mdg.Transfer1D,
			bytes: 1000, pi: 4, pj: 8,
			// S = 8/4·0.01 + 1000/4·0.0001 = 0.02 + 0.025
			// D = 1000/8·0.001
			// R = 8/8·0.02 + 1000/8·0.0002 = 0.02 + 0.025
			want: TransferCost{Send: 0.045, Net: 0.125, Recv: 0.045},
		},
		{
			name: "1D shrink 8->2", tp: handTransfer, kind: mdg.Transfer1D,
			bytes: 512, pi: 8, pj: 2,
			// S = 8/8·0.01 + 512/8·0.0001 = 0.01 + 0.0064
			// D = 512/8·0.001
			// R = 8/2·0.02 + 512/2·0.0002 = 0.08 + 0.0512
			want: TransferCost{Send: 0.0164, Net: 0.064, Recv: 0.1312},
		},
		{
			name: "1D equal 4->4", tp: handTransfer, kind: mdg.Transfer1D,
			bytes: 2000, pi: 4, pj: 4,
			// S = 0.01 + 500·0.0001; D = 500·0.001; R = 0.02 + 500·0.0002
			want: TransferCost{Send: 0.06, Net: 0.5, Recv: 0.12},
		},
		// --- 2D regime (ROW2COL / COL2ROW, Equation 3) -------------------
		// t^S = pj·tss + L/pi·tps; t^D = L/(pi·pj)·tn; t^R = pi·tsr + L/pj·tpr.
		{
			name: "2D grow 4->8", tp: handTransfer, kind: mdg.Transfer2D,
			bytes: 1000, pi: 4, pj: 8,
			// S = 8·0.01 + 250·0.0001 = 0.08 + 0.025
			// D = 1000/32·0.001
			// R = 4·0.02 + 125·0.0002 = 0.08 + 0.025
			want: TransferCost{Send: 0.105, Net: 0.03125, Recv: 0.105},
		},
		{
			name: "2D shrink 8->2", tp: handTransfer, kind: mdg.Transfer2D,
			bytes: 512, pi: 8, pj: 2,
			// S = 2·0.01 + 64·0.0001 = 0.02 + 0.0064
			// D = 512/16·0.001
			// R = 8·0.02 + 256·0.0002 = 0.16 + 0.0512
			want: TransferCost{Send: 0.0264, Net: 0.032, Recv: 0.2112},
		},
		// --- Grid kinds (rows.go) --------------------------------------
		// G2L: t^S = max(1, pj/√pi)·tss + L/pi·tps; t^R = max(√pi, pi/pj)·tsr + L/pj·tpr.
		{
			name: "G2L grow 4->8", tp: handTransfer, kind: mdg.TransferG2L,
			bytes: 1000, pi: 4, pj: 8,
			// S = max(1, 8/2)·0.01 + 250·0.0001 = 0.04 + 0.025
			// D = 1000/8·0.001
			// R = max(2, 0.5)·0.02 + 125·0.0002 = 0.04 + 0.025
			want: TransferCost{Send: 0.065, Net: 0.125, Recv: 0.065},
		},
		{
			name: "G2L shrink 16->2", tp: handTransfer, kind: mdg.TransferG2L,
			bytes: 512, pi: 16, pj: 2,
			// S = max(1, 2/4)·0.01 + 32·0.0001 = 0.01 + 0.0032
			// D = 512/16·0.001
			// R = max(4, 8)·0.02 + 256·0.0002 = 0.16 + 0.0512
			want: TransferCost{Send: 0.0132, Net: 0.032, Recv: 0.2112},
		},
		// L2G: t^S = max(√pj, pj/pi)·tss + L/pi·tps; t^R = max(1, pi/√pj)·tsr + L/pj·tpr.
		{
			name: "L2G grow 2->16", tp: handTransfer, kind: mdg.TransferL2G,
			bytes: 1000, pi: 2, pj: 16,
			// S = max(4, 8)·0.01 + 500·0.0001 = 0.08 + 0.05
			// D = 1000/16·0.001
			// R = max(1, 2/4)·0.02 + 62.5·0.0002 = 0.02 + 0.0125
			want: TransferCost{Send: 0.13, Net: 0.0625, Recv: 0.0325},
		},
		{
			name: "L2G shrink 16->4", tp: handTransfer, kind: mdg.TransferL2G,
			bytes: 512, pi: 16, pj: 4,
			// S = max(2, 4/16)·0.01 + 32·0.0001 = 0.02 + 0.0032
			// D = 512/16·0.001
			// R = max(1, 16/2)·0.02 + 128·0.0002 = 0.16 + 0.0256
			want: TransferCost{Send: 0.0232, Net: 0.032, Recv: 0.1856},
		},
		// G2G is the 1D form.
		{
			name: "G2G grow 4->8", tp: handTransfer, kind: mdg.TransferG2G,
			bytes: 1000, pi: 4, pj: 8,
			want: TransferCost{Send: 0.045, Net: 0.125, Recv: 0.045},
		},
		// --- Paper fit (Table 2, CM-5) -----------------------------------
		{
			name: "1D CM-5 4->4", tp: cm5Transfer, kind: mdg.Transfer1D,
			bytes: 4000, pi: 4, pj: 4,
			// S = 777.56e-6 + 1000·486.98e-9; R = 465.58e-6 + 1000·426.25e-9
			want: TransferCost{Send: 1264.54e-6, Net: 0, Recv: 891.83e-6},
		},
		{
			name: "2D CM-5 4->4", tp: cm5Transfer, kind: mdg.Transfer2D,
			bytes: 4000, pi: 4, pj: 4,
			// S = 4·777.56e-6 + 1000·486.98e-9; R = 4·465.58e-6 + 1000·426.25e-9
			want: TransferCost{Send: 3597.22e-6, Net: 0, Recv: 2288.57e-6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.tp.Transfer(tc.kind, tc.bytes, tc.pi, tc.pj)
			checkTriple(t, got, tc.want)
		})
	}
}

// TestTransferRegimeCrossover pins the structural difference between the
// regimes: at equal group sizes p the 2D startup terms carry an extra
// factor of p (every one of the p senders messages all p receivers),
// which is exactly the redistribution penalty the paper's Figure 4
// motivates.
func TestTransferRegimeCrossover(t *testing.T) {
	const bytes = 1 << 16
	for _, p := range []float64{2, 4, 8, 16} {
		d1 := handTransfer.Transfer(mdg.Transfer1D, bytes, p, p)
		d2 := handTransfer.Transfer(mdg.Transfer2D, bytes, p, p)
		wantSendDelta := (p - 1) * handTransfer.Tss
		if !near(d2.Send-d1.Send, wantSendDelta) {
			t.Errorf("p = %v: 2D-1D send delta = %g, want (p-1)·tss = %g", p, d2.Send-d1.Send, wantSendDelta)
		}
		wantRecvDelta := (p - 1) * handTransfer.Tsr
		if !near(d2.Recv-d1.Recv, wantRecvDelta) {
			t.Errorf("p = %v: 2D-1D recv delta = %g, want (p-1)·tsr = %g", p, d2.Recv-d1.Recv, wantRecvDelta)
		}
		// Network: 1D moves L through max(p,p)=p channels, 2D through p².
		if !near(d1.Net/d2.Net, p) {
			t.Errorf("p = %v: net ratio 1D/2D = %g, want p", p, d1.Net/d2.Net)
		}
	}
}

// TestProcessingAmdahlTable pins Equation 1 rows computed by hand.
func TestProcessingAmdahlTable(t *testing.T) {
	cases := []struct {
		alpha, tau, p, want float64
	}{
		{0, 1, 4, 0.25},        // perfectly parallel: τ/p
		{1, 3, 64, 3},          // perfectly serial: τ regardless of p
		{0.5, 2, 4, 1.25},      // (0.5 + 0.5/4)·2
		{0.25, 8, 8, 2.75},     // (0.25 + 0.75/8)·8 = 2 + 0.75
		{0.1, 10, 1, 10},       // single processor recovers τ
		{0.02, 100, 16, 8.125}, // (0.02 + 0.98/16)·100 = 2 + 6.125
	}
	for _, tc := range cases {
		got := LoopParams{Alpha: tc.alpha, Tau: tc.tau}.Processing(tc.p)
		if !near(got, tc.want) {
			t.Errorf("Processing(α=%v, τ=%v, p=%v) = %g, want %g", tc.alpha, tc.tau, tc.p, got, tc.want)
		}
	}
}

func checkTriple(t *testing.T, got, want TransferCost) {
	t.Helper()
	if !near(got.Send, want.Send) || !near(got.Net, want.Net) || !near(got.Recv, want.Recv) {
		t.Errorf("Transfer = {S: %g, D: %g, R: %g}, want {S: %g, D: %g, R: %g}",
			got.Send, got.Net, got.Recv, want.Send, want.Net, want.Recv)
	}
}

func near(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
