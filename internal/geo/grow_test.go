package geo

import (
	"math/rand"
	"testing"
)

func TestDistanceMatrixGrown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := BoundingBox{MinLat: 30, MaxLat: 40, MinLon: -100, MaxLon: -90}
	pts := make([]Point, 12)
	for i := range pts {
		pts[i] = box.RandomPoint(rng)
	}
	base := NewDistanceMatrix(pts[:8])
	grown := base.Grown(pts)
	full := NewDistanceMatrix(pts)
	if grown.N != 12 {
		t.Fatalf("grown.N = %d", grown.N)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if grown.At(i, j) != full.At(i, j) {
				t.Fatalf("Grown.At(%d,%d) = %g, full rebuild = %g", i, j, grown.At(i, j), full.At(i, j))
			}
		}
	}
	if grown.DMax() != full.DMax() {
		t.Errorf("DMax = %g, want %g", grown.DMax(), full.DMax())
	}
	if base.N != 8 {
		t.Error("Grown mutated the receiver")
	}
	if same := base.Grown(pts[:8]); same != base {
		t.Error("no-op Grown should return the receiver")
	}
}

func TestNearestIndices(t *testing.T) {
	// Collinear points at 0, 1, 2, 5, 9 degrees longitude.
	lons := []float64{0, 1, 2, 5, 9}
	pts := make([]Point, len(lons))
	for i, l := range lons {
		pts[i] = Point{Lat: 0, Lon: l}
	}
	dm := NewDistanceMatrix(pts)
	got := dm.NearestIndices(3, 3) // POI at lon 5: nearest are 2 (Δ3), 1 (Δ4), 4 (Δ4)
	want := []int{2, 1, 4}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("NearestIndices = %v, want %v", got, want)
	}
	if all := dm.NearestIndices(0, 10); len(all) != 4 {
		t.Errorf("k beyond n returned %v", all)
	}
}
