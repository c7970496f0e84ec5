// Social: demonstrates what the social Hausdorff head adds. Trains TCSS
// twice on the same dataset — with and without the social-spatial loss —
// and compares (a) ranking quality on held-out check-ins that are only
// explainable through friends (POIs the user never visited in training but
// friends did), and (b) how far each model's recommendations land from the
// POIs the user's friends frequent.
//
//	go run ./examples/social
package main

import (
	"fmt"
	"log"

	"tcss"
	"tcss/internal/eval"
	"tcss/internal/geo"
	"tcss/internal/tensor"
)

func main() {
	ds := tcss.GenerateDataset("gowalla", 11)

	fitWith := func(variant tcss.HausdorffVariant, lambda float64) *tcss.Recommender {
		cfg := tcss.DefaultConfig()
		cfg.Seed = 11
		cfg.Epochs = 150
		cfg.UsersPerEpoch = 120
		cfg.Variant = variant
		cfg.Lambda = lambda
		rec, err := tcss.Fit(ds, tcss.Month, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return rec
	}
	full := fitWith(tcss.SocialHausdorff, tcss.DefaultConfig().Lambda)
	plain := fitWith(tcss.NoHausdorff, 0)

	// Held-out check-ins whose POI the user never visited in training but
	// at least one friend did: the social head's home turf.
	var friendOnly []tensor.Entry
	for _, e := range full.Test {
		own := false
		for _, j := range full.Side.OwnPOIs[e.I] {
			if j == e.J {
				own = true
				break
			}
		}
		if own {
			continue
		}
		for _, j := range full.Side.FriendPOIs[e.I] {
			if j == e.J {
				friendOnly = append(friendOnly, e)
				break
			}
		}
	}
	fmt.Printf("%d of %d held-out check-ins are friend-only POIs\n\n", len(friendOnly), len(full.Test))

	ec := eval.DefaultConfig()
	fullRes := eval.Rank(asScorer(full), friendOnly, full.Train.DimJ, ec)
	plainRes := eval.Rank(asScorer(plain), friendOnly, plain.Train.DimJ, ec)
	fmt.Println("ranking friend-only held-out check-ins:")
	fmt.Printf("  TCSS with social head:    Hit@10 = %.4f, MRR = %.4f\n", fullRes.HitAtK, fullRes.MRR)
	fmt.Printf("  TCSS without (lambda=0):  Hit@10 = %.4f, MRR = %.4f\n", plainRes.HitAtK, plainRes.MRR)

	// Spatial view: distance from each model's top recommendations to the
	// nearest friend-visited POI, averaged over users.
	dist := ds.Distances()
	avgDist := func(rec *tcss.Recommender) float64 {
		var total float64
		var n int
		for u := 0; u < ds.NumUsers; u++ {
			friends := rec.FriendPOIs(u)
			if len(friends) == 0 {
				continue
			}
			for _, r := range rec.Recommend(u, 5, 5) {
				_, d := dist.Nearest(r.POI, friends)
				total += d
				n++
			}
		}
		return total / float64(n)
	}
	fmt.Println("\nmean distance from top-5 recommendations to nearest friend POI:")
	fmt.Printf("  with social head:    %.1f km\n", avgDist(full))
	fmt.Printf("  without social head: %.1f km\n", avgDist(plain))
	fmt.Printf("  (dataset d_max = %.0f km)\n", dist.DMax())
	_ = geo.EarthRadiusKm
}

type scorer struct{ rec *tcss.Recommender }

func (s scorer) Score(i, j, k int) float64 { return s.rec.Score(i, j, k) }

func asScorer(rec *tcss.Recommender) eval.Scorer { return scorer{rec} }
