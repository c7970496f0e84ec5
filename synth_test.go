package tcss

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"tcss/internal/core"
)

// TestSynthServingLargeJ builds a 200k-POI serving shape and checks that the
// build stays O(users + POIs) in memory (J² distances would be 320 GB here)
// and that the top-K kernel agrees with a full sort of Score.
func TestSynthServingLargeJ(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-POI model")
	}
	const users, pois, times, rank = 2000, 200000, 12, 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, side, err := SynthServing(users, pois, times, rank, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("SynthServing(%d, %d, ...) allocated %d MiB, want < 64 MiB", users, pois, grew>>20)
	}
	if side.Dist.N != pois || side.Dist.Bytes() != 16*pois {
		t.Fatalf("geometry covers %d POIs in %d bytes", side.Dist.N, side.Dist.Bytes())
	}

	const n = 10
	sc := core.NewRecScratch(m)
	for _, u := range []int{0, 777, users - 1} {
		k := u % times
		want := make([]core.Recommendation, pois)
		for j := range want {
			want[j] = core.Recommendation{POI: j, Score: m.Score(u, j, k)}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Score != want[b].Score {
				return want[a].Score > want[b].Score
			}
			return want[a].POI < want[b].POI
		})
		got := m.TopNScratch(u, k, n, side.OwnPOIs[u], sc)
		if len(got) != n {
			t.Fatalf("user %d: %d results, want %d", u, len(got), n)
		}
		for r, rec := range got {
			w := want[r]
			if rec.POI != w.POI || math.Abs(rec.Score-w.Score) > 1e-12*(1+math.Abs(w.Score)) {
				t.Fatalf("user %d rank %d: TopNScratch %+v, sorted Score %+v", u, r, rec, w)
			}
		}
	}
}
