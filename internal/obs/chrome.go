package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"unicode/utf8"

	"bgpsim/internal/sim"
)

// eventRoom is the free buffer space WriteChromeTrace wants before it
// appends an event: more than any event with short names takes, so an
// event appends into the bufio.Writer's own buffer without growing it.
const eventRoom = 512

// WriteChromeTrace writes the recorded timelines as Chrome trace_event
// JSON ("JSON object format"), loadable in chrome://tracing and
// Perfetto. Each rank is a thread of process 0: compute and wait
// segments are complete ("X") events, collective spans are nested "X"
// events named after their algorithm, and fault activations are global
// instant events. Timestamps are microseconds with picosecond
// precision preserved in the fraction (appendUS). Output is
// deterministic: identical recordings serialize to identical bytes.
//
// Each event is appended into the writer's free buffer and written
// once, so the export allocates a constant amount however many events
// it writes.
func (rec *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	// event returns the buffer to append the next event to, its
	// separator already in place; bw.Write then writes it once.
	event := func() []byte {
		if bw.Available() < eventRoom {
			bw.Flush()
		}
		b := bw.AvailableBuffer()
		if !first {
			b = append(b, ",\n"...)
		}
		first = false
		return b
	}

	ids := make([]int, 0, len(rec.ranks))
	for id := range rec.ranks {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	for _, id := range ids {
		b := append(event(), `{"name":"thread_name","ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"args":{"name":"rank `...)
		b = strconv.AppendInt(b, int64(id), 10)
		bw.Write(append(b, `"}}`...))
	}
	for _, id := range ids {
		rs := rec.ranks[id]
		// Collective spans first: they enclose the wait segments
		// recorded inside them, and trace viewers nest "X" events by
		// containment regardless of file order.
		for _, cs := range rs.colls {
			exit := cs.Exit
			if exit < 0 {
				exit = rec.lastT // never exited (aborted run)
			}
			b := append(event(), `{"name":`...)
			b = appendString(b, cs.Algo)
			b = append(b, `,"cat":"collective","ph":"X","pid":0,"tid":`...)
			b = appendSpan(b, id, cs.Enter, exit)
			b = append(b, `,"args":{"key":`...)
			b = appendString(b, cs.Key)
			bw.Write(append(b, "}}"...))
		}
		for _, seg := range rs.segs {
			b := append(event(), `{"name":"`...)
			if seg.Kind == SegCompute {
				b = append(b, `compute","cat":"compute","ph":"X","pid":0,"tid":`...)
				b = appendSpan(b, id, seg.Start, seg.End)
			} else {
				b = append(b, seg.Kind.String()...)
				b = append(b, `","cat":"wait","ph":"X","pid":0,"tid":`...)
				b = appendSpan(b, id, seg.Start, seg.End)
				if seg.Peer >= 0 {
					b = append(b, `,"args":{"released_by":`...)
					b = strconv.AppendInt(b, int64(seg.Peer), 10)
					b = append(b, '}')
				}
			}
			bw.Write(append(b, '}'))
		}
	}
	for _, f := range rec.faults {
		b := append(event(), `{"name":`...)
		b = appendString(b, f.Kind)
		b = append(b, `,"cat":"fault","ph":"i","s":"g","pid":0,"tid":0,"ts":`...)
		b = appendUS(b, sim.Duration(f.T))
		b = append(b, `,"args":{"detail":`...)
		b = appendString(b, f.Detail)
		bw.Write(append(b, "}}"...))
	}
	if !rec.Observed() {
		// The run ended before any probe event fired. Emit one marker
		// event so the empty timeline states so explicitly — a silent
		// "traceEvents":[] reads as a lost artifact. Recordings with any
		// content are unaffected.
		bw.Write(append(event(), `{"name":"no events recorded","cat":"meta","ph":"i","s":"g","pid":0,"tid":0,"ts":0.000000,"args":{"detail":"the run produced no observable events before it ended"}}`...))
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendSpan appends an "X" event's thread, start and duration fields.
func appendSpan(b []byte, tid int, start, end sim.Time) []byte {
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendUS(b, sim.Duration(start))
	b = append(b, `,"dur":`...)
	return appendUS(b, end.Sub(start))
}

// exactUS bounds the durations appendUS prints from integers: below
// 2^52 ps the float64 quotient d/1e6 lies within |d|/1e6 * 2^-53 <
// 0.5e-6 of the exact one, so rounding it to six decimals gives the
// exact quotient's digits.
const exactUS = 1 << 52

// appendUS appends a duration in picoseconds as Chrome microseconds
// with six decimals (the picoseconds are the fraction), byte for byte
// what strconv.FormatFloat(float64(d)/1e6, 'f', 6, 64) prints. Below
// exactUS (about 75 simulated minutes) it prints the integer quotient
// and remainder; at or above it, it formats the float, whose rounding
// there can differ from the exact quotient.
func appendUS(b []byte, d sim.Duration) []byte {
	if d >= exactUS || d <= -exactUS {
		return strconv.AppendFloat(b, float64(d)/1e6, 'f', 6, 64)
	}
	if d < 0 {
		b = append(b, '-')
		d = -d
	}
	b = strconv.AppendInt(b, int64(d/1e6), 10)
	frac := int64(d % 1e6)
	var digits [7]byte
	digits[0] = '.'
	for i := 6; i > 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(b, digits[:]...)
}

// appendString appends s as a quoted JSON string: `"`, `\`, newline
// and tab are escaped by name, other control bytes as \u00XX, and each
// byte of invalid UTF-8 becomes U+FFFD. Runs of bytes that need no
// escape are copied as they are.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = utf8.AppendRune(b, utf8.RuneError)
			start = i + 1
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
