// Package geo provides the geospatial primitives of the reproduction:
// lat/lon points, Haversine great-circle distance (the paper's POI distance
// function), the POI geometry DistanceMatrix (coordinates, with distances
// computed on demand and the maximum pairwise distance d_max computed once),
// location entropy (Eq 11) for diversity weighting, and clustering
// statistics used by the Figure 12 case study.
package geo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// EarthRadiusKm is the mean Earth radius used by the Haversine formula.
const EarthRadiusKm = 6371.0088

// Point is a geographic location in degrees.
type Point struct {
	Lat, Lon float64
}

// Haversine returns the great-circle distance between a and b in kilometers.
// It is non-negative, zero only for identical points, and bitwise symmetric:
// Haversine(a, b) == Haversine(b, a) exactly, because sin is odd and the
// cosine product commutes.
func Haversine(a, b Point) float64 {
	const deg2rad = math.Pi / 180
	lat1, lat2 := a.Lat*deg2rad, b.Lat*deg2rad
	dLat := (b.Lat - a.Lat) * deg2rad
	dLon := (b.Lon - a.Lon) * deg2rad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// BoundingBox is an axis-aligned lat/lon rectangle.
type BoundingBox struct {
	MinLat, MaxLat, MinLon, MaxLon float64
}

// Contains reports whether p lies inside the box (inclusive).
func (b BoundingBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// RandomPoint draws a uniform point inside the box.
func (b BoundingBox) RandomPoint(rng *rand.Rand) Point {
	return Point{
		Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
		Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
	}
}

// Jitter returns p displaced by a Gaussian perturbation with the given
// standard deviation in degrees, used by the LBSN generator to scatter POIs
// around cluster centers.
func Jitter(p Point, sigmaDeg float64, rng *rand.Rand) Point {
	return Point{
		Lat: p.Lat + rng.NormFloat64()*sigmaDeg,
		Lon: p.Lon + rng.NormFloat64()*sigmaDeg,
	}
}

// DistanceMatrix is the POI geometry: the POI coordinates plus the maximum
// pairwise distance d_max, which the social Hausdorff loss uses as the
// penalty for improbable POIs (Eq 10). It stores no pairwise distance: At
// computes each one from the coordinates on demand, so a matrix over N POIs
// holds O(N) data, however large N is. The loss heads need distances only
// from each POI to a user's friend-POI set, never all N² pairs at once.
//
// d_max is computed at most once, on the first DMax call (an O(N²) scan in
// time, O(1) in memory), and Grown carries a known d_max forward. Serving
// never asks for it, so a serving process does no quadratic work.
type DistanceMatrix struct {
	N   int
	pts []Point

	dmaxOnce  sync.Once
	dmaxKnown atomic.Bool // set after dmax is written, so Grown can read it without waiting
	dmax      float64
}

// NewDistanceMatrix returns the geometry of pts in O(n) time and memory.
// The matrix keeps pts, which the caller must not modify afterwards.
func NewDistanceMatrix(pts []Point) *DistanceMatrix {
	if len(pts) == 0 {
		panic("geo: NewDistanceMatrix with no points")
	}
	return &DistanceMatrix{N: len(pts), pts: pts}
}

// At returns the distance between POIs i and j in kilometers. Haversine is
// bitwise symmetric, so At(i, j) == At(j, i) exactly.
func (dm *DistanceMatrix) At(i, j int) float64 { return Haversine(dm.pts[i], dm.pts[j]) }

// Row fills dst[j] = At(i, j) for every POI j < len(dst).
func (dm *DistanceMatrix) Row(i int, dst []float64) {
	p := dm.pts[i]
	for j, q := range dm.pts[:len(dst)] {
		dst[j] = Haversine(p, q)
	}
}

// Point returns the coordinates of POI j.
func (dm *DistanceMatrix) Point(j int) Point { return dm.pts[j] }

// Bytes is the resident size of the geometry: one Point (two float64) per
// POI.
func (dm *DistanceMatrix) Bytes() int64 { return 16 * int64(dm.N) }

// DMax returns the maximum pairwise distance d_max. The first call scans all
// pairs unless Grown carried the value over; concurrent callers wait for
// that one scan and every later call is a load.
func (dm *DistanceMatrix) DMax() float64 {
	dm.dmaxOnce.Do(func() { dm.setDMax(maxDistance(dm.pts, 0)) })
	return dm.dmax
}

func (dm *DistanceMatrix) setDMax(d float64) {
	dm.dmax = d
	dm.dmaxKnown.Store(true)
}

// maxDistance returns the largest Haversine distance between pts[i] and any
// earlier point, over every i >= from (0 when there is no such pair).
func maxDistance(pts []Point, from int) float64 {
	var m float64
	for i := max(from, 1); i < len(pts); i++ {
		for _, q := range pts[:i] {
			if d := Haversine(pts[i], q); d > m {
				m = d
			}
		}
	}
	return m
}

// Nearest returns the index in candidates whose distance to j is smallest,
// together with that distance. candidates must be non-empty.
func (dm *DistanceMatrix) Nearest(j int, candidates []int) (int, float64) {
	if len(candidates) == 0 {
		panic("geo: Nearest with no candidates")
	}
	best, bestD := candidates[0], dm.At(j, candidates[0])
	for _, c := range candidates[1:] {
		if d := dm.At(j, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// LocationEntropy computes Eq (11) for one POI: visits[i] is the number of
// check-ins by user i at the POI (only visitors need appear; zeros are
// ignored). The entropy is 0 when a single user accounts for all visits and
// grows to log(#visitors) when visits are spread evenly.
func LocationEntropy(visits []int) float64 {
	var total int
	for _, v := range visits {
		if v < 0 {
			panic(fmt.Sprintf("geo: negative visit count %d", v))
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, v := range visits {
		if v == 0 {
			continue
		}
		p := float64(v) / float64(total)
		h -= p * math.Log(p)
	}
	return h
}

// EntropyWeight returns exp(-entropy), the multiplicative weight e_j the
// paper applies to POI distances so that popular POIs (high entropy) are
// down-weighted and rarely-shared POIs keep weight near 1.
func EntropyWeight(entropy float64) float64 { return math.Exp(-entropy) }

// Centroid returns the arithmetic mean of the points (adequate away from the
// antimeridian, which our city-scale generators never straddle).
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geo: Centroid with no points")
	}
	var c Point
	for _, p := range pts {
		c.Lat += p.Lat
		c.Lon += p.Lon
	}
	c.Lat /= float64(len(pts))
	c.Lon /= float64(len(pts))
	return c
}

// RadiusOfGyration returns the root-mean-square Haversine distance of pts to
// their centroid, in kilometers. Figure 12's case study uses it to show that
// top-100 recommendations cluster more tightly than top-200.
func RadiusOfGyration(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	c := Centroid(pts)
	var s float64
	for _, p := range pts {
		d := Haversine(p, c)
		s += d * d
	}
	return math.Sqrt(s / float64(len(pts)))
}

// MeanPairwiseDistance returns the average Haversine distance over all
// unordered pairs, or 0 for fewer than two points.
func MeanPairwiseDistance(pts []Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += Haversine(pts[i], pts[j])
		}
	}
	return s / float64(n*(n-1)/2)
}
