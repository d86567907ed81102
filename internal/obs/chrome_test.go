package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bgpsim/internal/sim"
)

// nasty holds every byte class the trace's string escaper treats
// differently: a quote, a backslash, a newline, a tab, the control
// bytes 0x01 and 0x1f, DEL (copied as is), an invalid 0xff byte, a
// truncated and a surrogate-encoded sequence (each invalid byte becomes
// U+FFFD) and valid two-, three- and four-byte runes.
const nasty = "q\"b\\s\nt\tc\x01u\x1fd\x7fx\xffy\xe2\x82z\xed\xa0\x80é€𝄞"

// feedEscapes drives a recorder through the Probe API with the nasty
// string in every escaped field (collective algorithm and key, fault
// kind and detail), picosecond-exact timestamps, a collective span
// that never exits, and faults past 2^52 ps, where timestamps take
// the floating-point path (the last one where its digits differ from
// the exact integer quotient's).
func feedEscapes(rec *Recorder) {
	rec.Compute(0, 0, 1234567, 0)
	rec.CollEnter(0, sim.Time(1234567), "key"+nasty, "algo"+nasty)
	rec.ProcBlock(0, "collective ", "key"+nasty, sim.Time(1234567))
	rec.Match(0, sim.Time(2000001), 1, sim.Time(1500000), 8, 0, true)
	rec.ProcUnblock(0, sim.Time(2000001))
	rec.CollExit(0, sim.Time(2000001), "key"+nasty, "algo"+nasty)
	rec.CollEnter(1, sim.Time(999999), "open"+nasty, nasty)
	rec.ProcBlock(1, "MPI_Recv", "", sim.Time(999999))
	rec.ProcUnblock(1, sim.Time(1000000))
	rec.ProcBlock(2, "MPI_Recv", "", sim.Time(5))
	rec.Match(2, sim.Time(17), 0, sim.Time(9), 8, 3, false)
	rec.ProcUnblock(2, sim.Time(17))
	rec.Fault(sim.Time(7), "kind"+nasty, "detail"+nasty)
	rec.Fault(sim.Time(1<<52+123457), "late", "past 2^52 ps")
	rec.Fault(sim.Time(8_872_810_553_547_589), "later", "float and integer digits differ")
	rec.RankDone(0, sim.Time(2000001))
}

// TestChromeTraceEscapes pins the Chrome trace of strings that need
// escaping, and of timestamps on both sides of the exact-integer
// range, to the bytes the fmt-based writer produced
// (testdata/escapes.trace.json), and requires valid JSON.
func TestChromeTraceEscapes(t *testing.T) {
	rec := NewRecorder()
	feedEscapes(rec)
	var got bytes.Buffer
	if err := rec.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(got.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%s", got.Bytes())
	}
	path := filepath.Join("testdata", "escapes.trace.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trace differs from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// FuzzAppendUS requires appendUS to print every duration exactly as
// strconv's float formatting of d/1e6 at six decimals does: the integer
// path below 2^52 ps and the float path above it.
func FuzzAppendUS(f *testing.F) {
	for _, d := range []int64{
		0, 1, -1, 999_999, -999_999, 1_000_000, -1_000_000,
		1<<52 - 1, -(1<<52 - 1), 1 << 52, -(1 << 52),
		-8_872_810_553_547_589,
		math.MinInt64, math.MaxInt64,
	} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d int64) {
		got := string(appendUS(nil, sim.Duration(d)))
		if want := strconv.FormatFloat(float64(d)/1e6, 'f', 6, 64); got != want {
			t.Fatalf("appendUS(%d) = %s, want %s", d, got, want)
		}
	})
}
