package core

import (
	"fmt"
	"math"
	"strings"
)

// StorageMode selects how a Model stores its factor matrices. Training always
// runs in float64; the compact modes exist for serving, where the factor
// slabs dominate resident memory and memory bandwidth. The serving entry
// points (Predict, Score, ScoreCandidates, TopNScratch) work in every mode:
// compact values are widened to float64 inside the kernels, so the compute
// path — summation order included — matches the float64 kernels and the only
// deviation is the storage rounding of the factor entries themselves.
// ScoreSlabScratch, the dense training-head kernel, needs float64.
type StorageMode int

const (
	// StorageFloat64 is the native mode: factors are *mat.Matrix float64
	// slabs. Training, checkpointing and gradient math require it.
	StorageFloat64 StorageMode = iota
	// StorageFloat32 stores U1/U2/U3 as float32 slabs (half the bytes).
	// Scores drift from float64 by at most the float32 rounding of the
	// factor entries (~1e-7 relative per entry).
	StorageFloat32
	// StorageInt8 stores U1/U2/U3 as int8 slabs with one float64
	// dequantization scale per row (symmetric max-abs quantization to
	// [-127, 127]; about an 8x reduction of the factor bytes). Ranking
	// quality drift is bounded by the eval harness, not by construction.
	StorageInt8
)

// String names the mode the way the CLI flags spell it.
func (m StorageMode) String() string {
	switch m {
	case StorageFloat64:
		return "f64"
	case StorageFloat32:
		return "f32"
	case StorageInt8:
		return "int8"
	}
	return fmt.Sprintf("storage(%d)", int(m))
}

// ParseStorageMode parses the CLI spelling of a storage mode ("f64"/"float64",
// "f32"/"float32", "int8"/"i8").
func ParseStorageMode(s string) (StorageMode, error) {
	switch strings.ToLower(s) {
	case "f64", "float64", "":
		return StorageFloat64, nil
	case "f32", "float32":
		return StorageFloat32, nil
	case "int8", "i8":
		return StorageInt8, nil
	}
	return StorageFloat64, fmt.Errorf("core: unknown storage mode %q (want f64, f32 or int8)", s)
}

// valid reports whether m is one of the defined modes.
func (m StorageMode) valid() bool {
	return m == StorageFloat64 || m == StorageFloat32 || m == StorageInt8
}

// compactFactors holds the factor slabs of a non-float64 model. Exactly one
// representation is populated per mode: the float32 slabs, or the int8 slabs
// plus per-row scales. Slices may alias a read-only memory mapping (see
// LoadModelMmap), so they must never be written through.
type compactFactors struct {
	// StorageFloat32: row-major slabs, same layout as mat.Matrix.Data.
	U1f, U2f, U3f []float32

	// StorageInt8: row-major quantized slabs and one dequantization scale
	// per row (value = scale[row] * q). A zero row has scale 0.
	U1q, U2q, U3q []int8
	S1, S2, S3    []float64
}

// clone deep-copies every populated slab onto the heap (the source may alias
// a read-only mmap region).
func (c *compactFactors) clone() *compactFactors {
	out := &compactFactors{}
	cp32 := func(s []float32) []float32 {
		if s == nil {
			return nil
		}
		d := make([]float32, len(s))
		copy(d, s)
		return d
	}
	cp8 := func(s []int8) []int8 {
		if s == nil {
			return nil
		}
		d := make([]int8, len(s))
		copy(d, s)
		return d
	}
	cp64 := func(s []float64) []float64 {
		if s == nil {
			return nil
		}
		d := make([]float64, len(s))
		copy(d, s)
		return d
	}
	out.U1f, out.U2f, out.U3f = cp32(c.U1f), cp32(c.U2f), cp32(c.U3f)
	out.U1q, out.U2q, out.U3q = cp8(c.U1q), cp8(c.U2q), cp8(c.U3q)
	out.S1, out.S2, out.S3 = cp64(c.S1), cp64(c.S2), cp64(c.S3)
	return out
}

// quantizeRows quantizes a row-major float64 slab to int8 with one symmetric
// max-abs scale per row: q = round(v * 127 / maxabs(row)), value' = s * q
// with s = maxabs(row) / 127.
func quantizeRows(data []float64, rows, cols int) (q []int8, scale []float64) {
	q = make([]int8, len(data))
	scale = make([]float64, rows)
	for i := 0; i < rows; i++ {
		row := data[i*cols : (i+1)*cols]
		var mx float64
		for _, v := range row {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
		if mx == 0 {
			continue // scale 0, all-zero quantized row
		}
		s := mx / 127
		scale[i] = s
		inv := 127 / mx
		for t, v := range row {
			q[i*cols+t] = int8(math.RoundToEven(v * inv))
		}
	}
	return q, scale
}

// ToStorage returns a model storing its factors in the given mode. Converting
// to the model's current mode returns the model itself (no copy). Converting
// between the two compact modes or back to float64 goes through Decompress,
// so int8 -> f32 carries the quantization loss of the int8 source. H and the
// zero-out filter are shared; they are negligible next to the factor slabs.
func (m *Model) ToStorage(mode StorageMode) (*Model, error) {
	if !mode.valid() {
		return nil, fmt.Errorf("core: unknown storage mode %d", int(mode))
	}
	if mode == m.Mode {
		return m, nil
	}
	if m.Mode != StorageFloat64 {
		return m.Decompress().ToStorage(mode)
	}
	out := &Model{
		Rank: m.Rank, I: m.I, J: m.J, K: m.K,
		Mode:          mode,
		H:             m.H,
		ZeroOutFilter: m.ZeroOutFilter,
	}
	switch mode {
	case StorageFloat32:
		out.Compact = &compactFactors{
			U1f: f32FromF64(m.U1.Data),
			U2f: f32FromF64(m.U2.Data),
			U3f: f32FromF64(m.U3.Data),
		}
	case StorageInt8:
		c := &compactFactors{}
		c.U1q, c.S1 = quantizeRows(m.U1.Data, m.I, m.Rank)
		c.U2q, c.S2 = quantizeRows(m.U2.Data, m.J, m.Rank)
		c.U3q, c.S3 = quantizeRows(m.U3.Data, m.K, m.Rank)
		out.Compact = c
	}
	return out, nil
}

// Decompress returns a float64-mode model carrying exactly the values the
// compact scoring kernels compute with (float32 entries widened, int8 entries
// dequantized as scale*q). A float64 model decompresses to itself. The
// returned model is fully trainable; the online-update path decompresses,
// updates, and re-compacts.
func (m *Model) Decompress() *Model {
	if m.Mode == StorageFloat64 {
		return m
	}
	out := NewModel(m.I, m.J, m.K, m.Rank)
	copy(out.H, m.H)
	out.ZeroOutFilter = m.ZeroOutFilter
	c := m.Compact
	switch m.Mode {
	case StorageFloat32:
		f64FromF32(out.U1.Data, c.U1f)
		f64FromF32(out.U2.Data, c.U2f)
		f64FromF32(out.U3.Data, c.U3f)
	case StorageInt8:
		dequantRows(out.U1.Data, c.U1q, c.S1, m.Rank)
		dequantRows(out.U2.Data, c.U2q, c.S2, m.Rank)
		dequantRows(out.U3.Data, c.U3q, c.S3, m.Rank)
	}
	return out
}

func f32FromF64(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

func f64FromF32(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

func dequantRows(dst []float64, q []int8, scale []float64, cols int) {
	for i, s := range scale {
		row := q[i*cols : (i+1)*cols]
		for t, v := range row {
			dst[i*cols+t] = s * float64(v)
		}
	}
}

// FactorBytes returns the resident size of the factor parameters in bytes:
// the three factor slabs, the per-row scales in int8 mode, and h. The
// zero-out filter (an optional ablation artifact) is not counted.
func (m *Model) FactorBytes() int64 {
	h := int64(len(m.H)) * 8
	switch m.Mode {
	case StorageFloat32:
		c := m.Compact
		return h + 4*int64(len(c.U1f)+len(c.U2f)+len(c.U3f))
	case StorageInt8:
		c := m.Compact
		return h + int64(len(c.U1q)+len(c.U2q)+len(c.U3q)) +
			8*int64(len(c.S1)+len(c.S2)+len(c.S3))
	default:
		return h + 8*int64(m.I+m.J+m.K)*int64(m.Rank)
	}
}

// u1Row returns user row i as float64s: the row view itself in float64 mode
// (no copy), otherwise dequantized into buf, which must have length >= Rank.
func (m *Model) u1Row(i int, buf []float64) []float64 {
	switch m.Mode {
	case StorageFloat32:
		row := m.Compact.U1f[i*m.Rank : (i+1)*m.Rank]
		buf = buf[:m.Rank]
		for t, v := range row {
			buf[t] = float64(v)
		}
		return buf
	case StorageInt8:
		row := m.Compact.U1q[i*m.Rank : (i+1)*m.Rank]
		s := m.Compact.S1[i]
		buf = buf[:m.Rank]
		for t, v := range row {
			buf[t] = s * float64(v)
		}
		return buf
	default:
		return m.U1.Row(i)
	}
}

// u2Row is u1Row for POI rows.
func (m *Model) u2Row(j int, buf []float64) []float64 {
	switch m.Mode {
	case StorageFloat32:
		row := m.Compact.U2f[j*m.Rank : (j+1)*m.Rank]
		buf = buf[:m.Rank]
		for t, v := range row {
			buf[t] = float64(v)
		}
		return buf
	case StorageInt8:
		row := m.Compact.U2q[j*m.Rank : (j+1)*m.Rank]
		s := m.Compact.S2[j]
		buf = buf[:m.Rank]
		for t, v := range row {
			buf[t] = s * float64(v)
		}
		return buf
	default:
		return m.U2.Row(j)
	}
}

// u3Row is u1Row for time rows.
func (m *Model) u3Row(k int, buf []float64) []float64 {
	switch m.Mode {
	case StorageFloat32:
		row := m.Compact.U3f[k*m.Rank : (k+1)*m.Rank]
		buf = buf[:m.Rank]
		for t, v := range row {
			buf[t] = float64(v)
		}
		return buf
	case StorageInt8:
		row := m.Compact.U3q[k*m.Rank : (k+1)*m.Rank]
		s := m.Compact.S3[k]
		buf = buf[:m.Rank]
		for t, v := range row {
			buf[t] = s * float64(v)
		}
		return buf
	default:
		return m.U3.Row(k)
	}
}
