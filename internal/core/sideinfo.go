package core

import (
	"fmt"
	"sort"

	"tcss/internal/geo"
	"tcss/internal/graph"
	"tcss/internal/tensor"
)

// SideInfo bundles the social-spatial side information the TCSS loss heads
// consume: the POI geometry (coordinates and d_max, distances computed on
// demand), the location-entropy weights e_j, and the per-user POI sets
// derived from the TRAINING tensor only (so no test information leaks into
// the regularizer).
type SideInfo struct {
	Dist     *geo.DistanceMatrix
	EntropyW []float64 // e_j = exp(−E_j) per POI
	// OwnPOIs[v] is the sorted set of POIs user v visited in training.
	OwnPOIs [][]int
	// FriendPOIs[v] is N(v): the sorted union of training POIs visited by
	// v's friends (Eq 8).
	FriendPOIs [][]int
}

// BuildSideInfo derives side information from the social graph, the POI
// geometry and the observed training tensor. Location entropy counts,
// for each POI, how many distinct time units each user visited it in — the
// tensor-level analogue of the paper's check-in multisets Φ.
func BuildSideInfo(social *graph.Graph, dist *geo.DistanceMatrix, train *tensor.COO) (*SideInfo, error) {
	if social.N() != train.DimI {
		return nil, fmt.Errorf("core: social graph covers %d users, tensor has %d", social.N(), train.DimI)
	}
	if dist.N != train.DimJ {
		return nil, fmt.Errorf("core: distance matrix covers %d POIs, tensor has %d", dist.N, train.DimJ)
	}
	I, J := train.DimI, train.DimJ

	visitCounts := make([]map[int]int, J) // POI -> user -> #time-units
	ownSets := make([]map[int]struct{}, I)
	for i := range ownSets {
		ownSets[i] = make(map[int]struct{})
	}
	for _, e := range train.Entries() {
		if visitCounts[e.J] == nil {
			visitCounts[e.J] = make(map[int]int)
		}
		visitCounts[e.J][e.I]++
		ownSets[e.I][e.J] = struct{}{}
	}

	entropyW := make([]float64, J)
	for j, counts := range visitCounts {
		if counts == nil {
			entropyW[j] = 1 // unvisited POI: entropy 0, weight 1
			continue
		}
		visits := make([]int, 0, len(counts))
		for _, c := range counts {
			visits = append(visits, c)
		}
		// Map iteration order is randomized per process; the entropy sum is
		// order-sensitive at the ulp level, so sort for reproducible models.
		sort.Ints(visits)
		entropyW[j] = geo.EntropyWeight(geo.LocationEntropy(visits))
	}

	own := make([][]int, I)
	for i, set := range ownSets {
		lst := make([]int, 0, len(set))
		for j := range set {
			lst = append(lst, j)
		}
		sort.Ints(lst)
		own[i] = lst
	}

	friends := make([][]int, I)
	for v := 0; v < I; v++ {
		set := make(map[int]struct{})
		for _, f := range social.Neighbors(v) {
			for j := range ownSets[f] {
				set[j] = struct{}{}
			}
		}
		lst := make([]int, 0, len(set))
		for j := range set {
			lst = append(lst, j)
		}
		sort.Ints(lst)
		friends[v] = lst
	}

	return &SideInfo{Dist: dist, EntropyW: entropyW, OwnPOIs: own, FriendPOIs: friends}, nil
}
