package geo

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// denseReference is the row-major n×n matrix the geometry replaced: each pair
// computed once as Haversine(pts[i], pts[j]) for i < j and mirrored, with the
// running maximum of those values as d_max.
func denseReference(pts []Point) (d []float64, dmax float64) {
	n := len(pts)
	d = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := Haversine(pts[i], pts[j])
			d[i*n+j], d[j*n+i] = v, v
			if v > dmax {
				dmax = v
			}
		}
	}
	return d, dmax
}

// referencePointSets are the point sets the bit-identity tests sweep: world-
// and city-scale random sets, a single point, and sets with duplicates.
func referencePointSets() [][]Point {
	rng := rand.New(rand.NewSource(11))
	city := BoundingBox{MinLat: 38.8, MaxLat: 39.8, MinLon: -77.3, MaxLon: -76.3}
	var sets [][]Point
	for _, n := range []int{1, 2, 7, 40, 97} {
		world := make([]Point, n)
		local := make([]Point, n)
		for i := range world {
			world[i] = randPoint(rng)
			local[i] = city.RandomPoint(rng)
		}
		sets = append(sets, world, local)
	}
	dup := make([]Point, 30)
	for i := range dup {
		dup[i] = Point{Lat: float64(i % 4), Lon: -float64(i % 3)}
	}
	return append(sets, dup, make([]Point, 5)) // the last: all co-located
}

// requireMatchesDense checks every At(i, j) and DMax() of dm against the
// dense reference over pts, bit for bit.
func requireMatchesDense(t *testing.T, label string, dm *DistanceMatrix, pts []Point) {
	t.Helper()
	ref, refMax := denseReference(pts)
	n := len(pts)
	if dm.N != n {
		t.Fatalf("%s: N = %d, want %d", label, dm.N, n)
	}
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		dm.Row(i, row)
		for j := 0; j < n; j++ {
			want := math.Float64bits(ref[i*n+j])
			if got := math.Float64bits(dm.At(i, j)); got != want {
				t.Fatalf("%s: At(%d,%d) = %x, dense = %x", label, i, j, got, want)
			}
			if got := math.Float64bits(row[j]); got != want {
				t.Fatalf("%s: Row(%d)[%d] = %x, dense = %x", label, i, j, got, want)
			}
		}
	}
	if got := dm.DMax(); math.Float64bits(got) != math.Float64bits(refMax) {
		t.Fatalf("%s: DMax = %v, dense max = %v", label, got, refMax)
	}
}

func TestDistanceMatrixMatchesDense(t *testing.T) {
	for s, pts := range referencePointSets() {
		requireMatchesDense(t, "fresh", NewDistanceMatrix(pts), pts)
		if dm := NewDistanceMatrix(pts); dm.Bytes() != 16*int64(len(pts)) {
			t.Fatalf("set %d: Bytes = %d for %d points", s, dm.Bytes(), len(pts))
		}
	}
}

func TestDistanceMatrixGrownMatchesDense(t *testing.T) {
	for _, pts := range referencePointSets() {
		n := len(pts)
		for _, delta := range []int{1, n / 3, n - 1} {
			if delta < 1 || delta >= n {
				continue
			}
			base := pts[:n-delta]
			// d_max unknown at growth time: the child scans on its own.
			requireMatchesDense(t, "grown-lazy", NewDistanceMatrix(base).Grown(pts), pts)
			// d_max known: Grown carries it forward over the new pairs only.
			known := NewDistanceMatrix(base)
			known.DMax()
			child := known.Grown(pts)
			if !child.dmaxKnown.Load() {
				t.Fatal("Grown did not carry a known d_max forward")
			}
			requireMatchesDense(t, "grown-carried", child, pts)
			requireMatchesDense(t, "receiver", known, base)
		}
	}
}

// TestDMaxConcurrentFirstCalls races first DMax calls on a matrix against
// Grown and its child's DMax; run under -race it pins that the lazy d_max is
// safe for concurrent callers.
func TestDMaxConcurrentFirstCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = randPoint(rng)
	}
	_, want := denseReference(pts)
	_, wantBase := denseReference(pts[:250])
	for round := 0; round < 5; round++ {
		base := NewDistanceMatrix(pts[:250])
		early := base.Grown(pts)
		var wg sync.WaitGroup
		got := make([]float64, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 3 {
				case 0:
					got[g] = base.DMax()
				case 1:
					got[g] = early.DMax()
				default:
					got[g] = base.Grown(pts).DMax()
				}
			}(g)
		}
		wg.Wait()
		for g, v := range got {
			w := want
			if g%3 == 0 {
				w = wantBase
			}
			if v != w {
				t.Fatalf("round %d goroutine %d: DMax = %v, want %v", round, g, v, w)
			}
		}
	}
}
