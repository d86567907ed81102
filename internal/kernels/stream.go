package kernels

import "fmt"

// StreamTriadBytes returns the main-memory traffic of one STREAM triad
// pass a = b + s*c over n elements: three 8-byte streams.
func StreamTriadBytes(n int) float64 {
	return 24 * float64(n)
}

// StreamTriadFlops returns the flop count of one triad pass: a
// multiply and an add per element.
func StreamTriadFlops(n int) float64 {
	return 2 * float64(n)
}

// StreamTriad performs a = b + scalar*c.
func StreamTriad(a, b, c []float64, scalar float64) {
	if len(a) != len(b) || len(b) != len(c) {
		panic(fmt.Sprintf("kernels: triad length mismatch %d/%d/%d", len(a), len(b), len(c)))
	}
	for i := range a {
		a[i] = b[i] + scalar*c[i]
	}
}

// Transpose writes the transpose of a into dst (both n x m / m x n),
// with cache blocking.
func Transpose(dst, a *Matrix) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("kernels: transpose shape mismatch %dx%d -> %dx%d",
			a.Rows, a.Cols, dst.Rows, dst.Cols))
	}
	const blk = 32
	for ii := 0; ii < a.Rows; ii += blk {
		im := min(ii+blk, a.Rows)
		for jj := 0; jj < a.Cols; jj += blk {
			jm := min(jj+blk, a.Cols)
			for i := ii; i < im; i++ {
				for j := jj; j < jm; j++ {
					dst.Set(j, i, a.At(i, j))
				}
			}
		}
	}
}

// RandomAccessUpdates returns the update count the HPCC RandomAccess
// benchmark performs on a table of 2^logSize words: 4x the table size.
func RandomAccessUpdates(logSize int) int64 {
	return 4 << uint(logSize)
}

// RandomAccess runs the GUPS update loop on a table of 2^logSize
// 64-bit words for the given number of updates, using the benchmark's
// LCG-style random stream, and returns the table (for verification).
func RandomAccess(logSize int, updates int64) []uint64 {
	size := 1 << uint(logSize)
	table := make([]uint64, size)
	for i := range table {
		table[i] = uint64(i)
	}
	mask := uint64(size - 1)
	ran := uint64(1)
	for i := int64(0); i < updates; i++ {
		// HPCC's polynomial random stream: shift with conditional XOR.
		ran = (ran << 1) ^ (uint64(int64(ran)>>63) & 0x7)
		table[ran&mask] ^= ran
	}
	return table
}
