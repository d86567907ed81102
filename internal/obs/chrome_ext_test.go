package obs_test

import (
	"bytes"
	"io"
	"testing"

	"bgpsim/internal/halo"
	"bgpsim/internal/machine"
	"bgpsim/internal/obs"
	"bgpsim/internal/topology"
)

// haloRecorder records a BG/P VN-mode HALO exchange on a gx x gy rank
// grid, two iterations of 2048 words.
func haloRecorder(tb testing.TB, gx, gy int) *obs.Recorder {
	tb.Helper()
	rec := obs.NewRecorder()
	_, _, err := halo.RunResult(halo.Options{
		Machine: machine.BGP, Mode: machine.VN,
		GridX: gx, GridY: gy,
		Mapping: topology.MapTXYZ, Protocol: halo.IsendIrecv,
		Words: 2048, Iterations: 2,
		Probe: rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// TestChromeTraceAllocs: exporting a trace allocates a small constant
// (the buffered writer and the rank order), the same for the 8-rank
// and the 64-rank HALO, so no allocation is made per event.
func TestChromeTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	small, large := haloRecorder(t, 4, 2), haloRecorder(t, 8, 8)
	var sb, lb bytes.Buffer
	if err := small.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if err := large.WriteChromeTrace(&lb); err != nil {
		t.Fatal(err)
	}
	if lb.Len() < 4*sb.Len() {
		t.Fatalf("64-rank trace is %d bytes, 8-rank %d: the sizes do not show per-event cost", lb.Len(), sb.Len())
	}
	allocs := func(rec *obs.Recorder) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := rec.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	const limit = 4
	as, al := allocs(small), allocs(large)
	if as != al || al > limit {
		t.Errorf("WriteChromeTrace allocates %v times for the 8-rank HALO (%d B) and %v for the 64-rank one (%d B); want the same constant, at most %d",
			as, sb.Len(), al, lb.Len(), limit)
	}
}

// BenchmarkWriteChromeTrace exports the trace of a 64-rank (8x8) VN
// HALO exchange, two iterations, to io.Discard.
func BenchmarkWriteChromeTrace(b *testing.B) {
	rec := haloRecorder(b, 8, 8)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
