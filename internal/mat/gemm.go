package mat

import "fmt"

// This file holds the allocation-free GEMM kernels behind the repository's
// hot paths: the slab scoring kernel of core.Model.ScoreSlabScratch and the
// batch scorers of internal/eval. The kernels differ from the allocating
// Mul/MulT methods in two ways: the caller owns the output (so epoch loops
// reuse one buffer), and the inner products run with four independent
// accumulators, which breaks the floating-point dependency chain and roughly
// doubles throughput on short rank-sized vectors. Four-way accumulation regroups
// additions relative to the sequential Dot, so results may differ from the
// naive kernels by O(machine epsilon); every user of these kernels compares
// against references with a tolerance, never bit-for-bit.

// DotUnrolled returns the inner product of a and b using four independent
// accumulators. The slices must have equal length.
func DotUnrolled(a, b []float64) float64 {
	n := len(a)
	if n != len(b) {
		panic(fmt.Sprintf("mat: DotUnrolled length mismatch %d vs %d", n, len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Elem covers the factor-slab element types: float64 factors and the compact
// float32/int8 storage modes.
type Elem interface {
	~float64 | ~float32 | ~int8
}

// DotWiden returns the inner product of the float64 vector a and b, widening
// each b element to float64 before multiplying. It runs DotUnrolled's
// algorithm (four-lane unroll, tail into lane 0, reduction (s0+s1)+(s2+s3)),
// so for float64 it is bit-identical to DotUnrolled, and for float32/int8 to
// DotUnrolled over the widened row: the compact storage modes differ from
// float64 only by the storage rounding of the row, never by summation order.
func DotWiden[E Elem](a []float64, b []E) float64 {
	n := len(a)
	if n != len(b) {
		panic(fmt.Sprintf("mat: DotWiden length mismatch %d vs %d", n, len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * float64(b[i])
		s1 += a[i+1] * float64(b[i+1])
		s2 += a[i+2] * float64(b[i+2])
		s3 += a[i+3] * float64(b[i+3])
	}
	for ; i < n; i++ {
		s0 += a[i] * float64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

func mustShape(m *Matrix, r, c int, op string) {
	if m.Rows != r || m.Cols != c {
		panic(fmt.Sprintf("mat: %s output shape %dx%d, want %dx%d", op, m.Rows, m.Cols, r, c))
	}
}

// MulInto computes out = a*b without allocating. out must be a.Rows×b.Cols
// and is overwritten; it must not alias a or b. The loop order (ikj with
// row-wise accumulation) matches Mul, so MulInto is bit-for-bit identical to
// Mul on the same inputs.
func MulInto(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulInto inner mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape(out, a.Rows, b.Cols, "MulInto")
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulTInto computes out = a*bᵀ without allocating, using the four-accumulator
// dot kernel. out must be a.Rows×b.Rows and must not alias a or b.
func MulTInto(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTInto inner mismatch %dx%d * (%dx%d)^T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape(out, a.Rows, b.Rows, "MulTInto")
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = DotUnrolled(arow, b.Row(j))
		}
	}
	return out
}

// blockDim is the square tile edge used by MulBlocked: 3 tiles of 64×64
// float64 (96 KiB total for the a-, b- and out-panels) stay resident in a
// typical 256 KiB-1 MiB L2 while streaming.
const blockDim = 64

// MulBlocked computes out = a*b with cache blocking over all three loop
// dimensions. out must be a.Rows×b.Cols and must not alias a or b. For
// operands that exceed the cache (hundreds of rows/cols) it outperforms
// MulInto by keeping one out-tile and one b-panel hot; for rank-sized
// operands it falls back to MulInto, whose overhead is lower.
//
// Within each output tile the k-blocks accumulate in ascending order, so the
// result is deterministic for fixed shapes (though it regroups additions
// relative to MulInto).
func MulBlocked(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulBlocked inner mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape(out, a.Rows, b.Cols, "MulBlocked")
	if a.Rows <= blockDim && a.Cols <= blockDim && b.Cols <= blockDim {
		return MulInto(out, a, b)
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i0 := 0; i0 < a.Rows; i0 += blockDim {
		iMax := min(i0+blockDim, a.Rows)
		for k0 := 0; k0 < a.Cols; k0 += blockDim {
			kMax := min(k0+blockDim, a.Cols)
			for j0 := 0; j0 < b.Cols; j0 += blockDim {
				jMax := min(j0+blockDim, b.Cols)
				for i := i0; i < iMax; i++ {
					arow := a.Row(i)
					orow := out.Row(i)[j0:jMax]
					for k := k0; k < kMax; k++ {
						av := arow[k]
						if av == 0 {
							continue
						}
						brow := b.Row(k)[j0:jMax]
						for j, bv := range brow {
							orow[j] += av * bv
						}
					}
				}
			}
		}
	}
	return out
}

// MulDiagTInto computes out = a · diag(w) · bᵀ without materializing the
// scaled operand: out[i][j] = Σ_t a[i][t]·w[t]·b[j][t]. It is the slab
// scoring primitive — with a = U2 (J×r), w = h ⊙ U1[i], b = U3 (K×r) the
// result is the full J×K prediction slice X̂[i,·,·] of Eq (6). scratch must
// have length a.Cols (= len(w) = b.Cols) and is clobbered; passing it in lets
// per-worker callers run allocation-free.
func MulDiagTInto(out, a *Matrix, w []float64, b *Matrix, scratch []float64) *Matrix {
	mustShape(out, a.Rows, b.Rows, "MulDiagTInto")
	MulDiagTSlice(out.Data, a, w, b, scratch)
	return out
}

// MulDiagTSlice is MulDiagTInto writing into a raw row-major slice of length
// a.Rows·b.Rows, avoiding the Matrix header allocation in per-call hot paths
// (one slab score per user per epoch adds up).
func MulDiagTSlice(out []float64, a *Matrix, w []float64, b *Matrix, scratch []float64) {
	r := a.Cols
	if len(w) != r || b.Cols != r {
		panic(fmt.Sprintf("mat: MulDiagTSlice inner mismatch a %dx%d, w %d, b %dx%d", a.Rows, a.Cols, len(w), b.Rows, b.Cols))
	}
	if len(scratch) != r {
		panic(fmt.Sprintf("mat: MulDiagTSlice scratch %d, want %d", len(scratch), r))
	}
	if len(out) != a.Rows*b.Rows {
		panic(fmt.Sprintf("mat: MulDiagTSlice out length %d, want %d", len(out), a.Rows*b.Rows))
	}
	bd := b.Data
	for i := 0; i < a.Rows; i++ {
		HadamardInto(scratch, a.Row(i), w)
		orow := out[i*b.Rows : (i+1)*b.Rows]
		off := 0
		for j := 0; j < b.Rows; j++ {
			// Four-accumulator dot, inlined: a function call per output cell
			// dominates this kernel at rank-sized inner lengths.
			brow := bd[off : off+r : off+r]
			off += r
			var s0, s1, s2, s3 float64
			t := 0
			for ; t+4 <= r; t += 4 {
				s0 += scratch[t] * brow[t]
				s1 += scratch[t+1] * brow[t+1]
				s2 += scratch[t+2] * brow[t+2]
				s3 += scratch[t+3] * brow[t+3]
			}
			for ; t < r; t++ {
				s0 += scratch[t] * brow[t]
			}
			orow[j] = (s0 + s1) + (s2 + s3)
		}
	}
}
