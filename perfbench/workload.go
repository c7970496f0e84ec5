package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"tcss"
	"tcss/internal/lbsn"
	"tcss/internal/serve"
)

// workload is one traffic mix. Shapes and rates are fixed here and recorded in
// BENCHMARK.json; the seed changes only the request stream (which keys, when,
// which drift batches), never the shape.
type workload struct {
	name        string
	readRate    float64 // fixed offered read rate, requests/s
	observeRate float64 // observe batches/s beside the reads
	// closedRate sizes the closed-loop phase: reads per second of --seconds,
	// about what conns connections sustain on the 2-vCPU box the benchmark
	// was designed on. Observes keep their ratio to reads.
	closedRate float64

	// Synthetic model shape (tcss.SynthServing); pois == 0 selects the
	// trained gowalla model instead.
	users, pois, times, rank int
	zipf                     bool // Zipf-skewed keys; uniform otherwise
}

const (
	synthSeed  = 1  // SynthServing seed: the same model in every run
	dataSeed   = 42 // gowalla preset and training seed: the same set-up in every run
	keySeed    = 7  // the Zipf key permutation: the same hot set in every run
	driftSeed  = 43 // the observe stream: the same batches in every run
	fitEpochs  = 60
	batchSize  = 5    // check-ins per observe batch
	zipfS      = 1.1  // key skew of the Zipf workloads
	latencyMax = 20.0 // ms: the p99 limit slo_rps is defined against
)

var workloads = []*workload{
	{name: "recommend-hot", readRate: 2000, closedRate: 12000, users: 100000, pois: 1000, times: 12, rank: 16, zipf: true},
	{name: "recommend-wide", readRate: 1000, closedRate: 5000, users: 100000, pois: 10000, times: 12, rank: 16},
	{name: "observe-mix", readRate: 1000, closedRate: 6000, observeRate: 10, times: 12, zipf: true},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

func (w *workload) trained() bool { return w.pois == 0 }

// reportsSLO: slo_rps is found on the read-only workloads. Its probes carry
// reads only, and on observe-mix a fold stalls reads for about as long as
// the limit, which would leave the knee to chance.
func (w *workload) reportsSLO() bool { return w.observeRate == 0 }

// closedObserveRate is the closed-loop phase's observe rate: the fixed
// rates' ratio of observes to reads, at closedRate reads/s.
func (w *workload) closedObserveRate() float64 { return w.observeRate * w.closedRate / w.readRate }

// system is what one set-up builds: the cluster's snapshot sources, plus
// what the replays after the measurement need.
type system struct {
	spec   clusterSpec
	users  int     // users the read keys range over
	buildS float64 // the SynthServing or Fit call
	distN  int     // side.Dist.N of the served model
	// private returns a fresh writable copy of a primary's recommender, for
	// the fold replay (trained workloads only).
	private func() (*tcss.Recommender, error)
}

func gowallaPreset() (lbsn.GenConfig, error) { return lbsn.NewPreset("gowalla", dataSeed) }

func (w *workload) setUp() (*system, error) {
	if !w.trained() {
		t0 := time.Now()
		m, side, err := tcss.SynthServing(w.users, w.pois, w.times, w.rank, synthSeed)
		if err != nil {
			return nil, err
		}
		sys := &system{users: w.users, buildS: time.Since(t0).Seconds(), distN: side.Dist.N}
		src := &serve.StaticSource{Model: m, Side: side, Gran: tcss.SynthGranularity(w.times)}
		sys.spec = clusterSpec{
			primary: func(int) (serve.Source, error) { return src, nil },
			replica: src,
			dist:    side.Dist,
		}
		return sys, nil
	}

	gen, err := gowallaPreset()
	if err != nil {
		return nil, err
	}
	ds, err := lbsn.Generate(gen)
	if err != nil {
		return nil, err
	}
	cfg := tcss.DefaultConfig()
	cfg.Epochs, cfg.Seed = fitEpochs, dataSeed
	t0 := time.Now()
	rec, err := tcss.Fit(ds, tcss.Month, cfg)
	if err != nil {
		return nil, err
	}
	sys := &system{users: ds.NumUsers, buildS: time.Since(t0).Seconds(), distN: rec.Side.Dist.N}
	// Every primary owns its recommender (observes mutate its dataset), all
	// over the same trained factors.
	sys.private = func() (*tcss.Recommender, error) {
		ds, err := lbsn.Generate(gen)
		if err != nil {
			return nil, err
		}
		return tcss.AttachModel(rec.Model, ds, tcss.Month, cfg, 0.8)
	}
	sys.spec = clusterSpec{
		primary: func(int) (serve.Source, error) {
			r, err := sys.private()
			if err != nil {
				return nil, err
			}
			return &serve.RecommenderSource{Rec: r}, nil
		},
		replica: &serve.StaticSource{Model: rec.Model, Side: rec.Side, Gran: tcss.Month},
		dist:    rec.Side.Dist,
		grow:    true,
	}
	return sys, nil
}

// keySpace draws read keys (user, t). Zipf keys rank a permutation of every
// (user, t) pair drawn from keySeed, so every run has the same hot set and
// runs differ in draw order and timing only: which keys are hot decides how
// the two shards' caches split the load, and letting the seed move it would
// make figures differ between seeds for that reason alone.
type keySpace struct {
	users, times int
	perm         []int32 // nil: uniform
}

func newKeySpace(users, times int, zipf bool) keySpace {
	k := keySpace{users: users, times: times}
	if zipf {
		rng := rand.New(rand.NewSource(keySeed))
		k.perm = make([]int32, users*times)
		for i := range k.perm {
			k.perm[i] = int32(i)
		}
		rng.Shuffle(len(k.perm), func(i, j int) { k.perm[i], k.perm[j] = k.perm[j], k.perm[i] })
	}
	return k
}

// reads schedules an open-loop read stream at rate for d.
func (k keySpace) reads(rng *rand.Rand, rate float64, d time.Duration) []readReq {
	due := arrivals(rng, rate, d)
	out := make([]readReq, len(due))
	n := uint64(k.users * k.times)
	var z *rand.Zipf
	if k.perm != nil {
		z = rand.NewZipf(rng, zipfS, 1, n-1)
	}
	for i := range out {
		var key int
		if z != nil {
			key = int(k.perm[z.Uint64()])
		} else {
			key = rng.Intn(int(n))
		}
		out[i] = readReq{due: due[i], user: int32(key / k.times), t: int32(key % k.times)}
	}
	return out
}

// observeBatch is one POST /v1/observe: the gateway request body and the same
// batch as the library takes it, for the fold replay.
type observeBatch struct {
	body  []byte
	batch tcss.ObserveBatch
}

// Wire shapes of POST /v1/observe.
type wireCheckIn struct {
	User  int `json:"user"`
	POI   int `json:"poi"`
	Month int `json:"month"`
	Week  int `json:"week"`
	Hour  int `json:"hour"`
}

type wireNewUser struct {
	ID      int   `json:"id"`
	Friends []int `json:"friends,omitempty"`
}

type wirePOI struct {
	ID       int     `json:"id"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Category int     `json:"category"`
}

type wireObserve struct {
	CheckIns []wireCheckIn `json:"checkins"`
	NewUsers []wireNewUser `json:"new_users,omitempty"`
	NewPOIs  []wirePOI     `json:"new_pois,omitempty"`
}

// driftBatches cuts the first n small batches of batchSize check-ins from an
// lbsn.GenerateDrift stream over the gowalla base. A user arrival or POI
// opening rides the first batch that references it (arrivals go in id order,
// so friends always exist first); the rest of a week's arrivals ride its last
// batch. The stream is the same in every run, like the model it folds into:
// what a batch holds sets what its fold costs, so the seed moves only when
// each batch arrives.
func driftBatches(n int) ([]observeBatch, error) {
	gen, err := gowallaPreset()
	if err != nil {
		return nil, err
	}
	var out []observeBatch
	for weeks := 8; len(out) < n; weeks *= 2 {
		d, err := lbsn.GenerateDrift(lbsn.DriftConfig{
			Base:            gen,
			Weeks:           weeks,
			StartWeek:       10,
			NewUsersPerWeek: 4,
			NewPOIsPerWeek:  2,
			Seed:            driftSeed,
		})
		if err != nil {
			return nil, err
		}
		out = out[:0]
		for _, wk := range d.Weeks {
			out = append(out, splitWeek(wk)...)
		}
	}
	return out[:n], nil
}

func splitWeek(wk lbsn.WeekBatch) []observeBatch {
	var out []observeBatch
	users, pois := wk.NewUsers, wk.NewPOIs
	for lo := 0; lo < len(wk.CheckIns) || len(users)+len(pois) > 0; lo += batchSize {
		hi := min(lo+batchSize, len(wk.CheckIns))
		last := hi >= len(wk.CheckIns)
		var b tcss.ObserveBatch
		if lo < hi {
			b.CheckIns = wk.CheckIns[lo:hi]
		}
		maxUser, maxPOI := -1, -1
		for _, c := range b.CheckIns {
			maxUser, maxPOI = max(maxUser, c.User), max(maxPOI, c.POI)
		}
		for len(users) > 0 && (last || users[0].ID <= maxUser) {
			b.NewUsers = append(b.NewUsers, users[0])
			users = users[1:]
		}
		for len(pois) > 0 && (last || pois[0].ID <= maxPOI) {
			b.NewPOIs = append(b.NewPOIs, pois[0])
			pois = pois[1:]
		}
		if len(b.CheckIns)+len(b.NewUsers)+len(b.NewPOIs) == 0 {
			continue
		}
		out = append(out, observeBatch{body: encodeObserve(b), batch: b})
	}
	return out
}

func encodeObserve(b tcss.ObserveBatch) []byte {
	req := wireObserve{CheckIns: make([]wireCheckIn, len(b.CheckIns))}
	for i, c := range b.CheckIns {
		req.CheckIns[i] = wireCheckIn{User: c.User, POI: c.POI, Month: c.Month, Week: c.Week, Hour: c.Hour}
	}
	for _, u := range b.NewUsers {
		req.NewUsers = append(req.NewUsers, wireNewUser{ID: u.ID, Friends: u.Friends})
	}
	for _, p := range b.NewPOIs {
		req.NewPOIs = append(req.NewPOIs, wirePOI{ID: p.ID, Lat: p.Loc.Lat, Lon: p.Loc.Lon, Category: int(p.Category)})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		panic(err) // plain structs of ints and floats always marshal
	}
	return body
}
