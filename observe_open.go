package tcss

import (
	"fmt"

	"tcss/internal/core"
	"tcss/internal/lbsn"
	"tcss/internal/tensor"
)

// ObserveBatch bundles the check-ins of one observe step with the open-world
// arrivals they may reference: users signing up (with their initial
// friendships) and POIs opening. It is the unit the streaming drift simulator
// emits per week and the serving observe endpoint accepts.
type ObserveBatch struct {
	CheckIns []lbsn.CheckIn
	NewUsers []lbsn.NewUser
	NewPOIs  []lbsn.POI
}

// growNeighborK is how many geographically-nearest existing POIs warm-start
// a new POI's factor row.
const growNeighborK = 8

// ObserveOpen is Observe for an open world: check-ins may reference users and
// POIs beyond the model's current dimensions, and the batch may carry the
// arrival metadata that makes warm initialization possible. The model, the
// training tensor, the side information and the dataset all grow together;
// new user rows start at the mean of their friends' factors and new POI rows
// at the mean of their geographic neighbours' (see core.GrowthHints), so a
// newcomer's first recommendations reflect their social circle instead of
// noise.
//
// Without any growth the call reduces to Observe. Growth requires float64
// factor storage: unlike an in-range update, which transparently widens and
// re-compacts, growing a quantized model would warm-start rows from lossy
// factors and re-quantize every slab each batch — route open-world writes to
// a float64 primary instead. The returned error wraps core.ErrCompactModel so
// callers can tell this apart from a bad request.
//
// Like Observe, the update is transactional: all state is swapped in together
// only after every step succeeded, and previously published references to
// Model/Side stay valid and internally consistent.
func (r *Recommender) ObserveOpen(batch ObserveBatch, cfg OnlineConfig) (int, error) {
	oldI, oldJ := r.Model.I, r.Model.J
	// Arrivals whose ids already fit the model are stale duplicates — a
	// retried batch, or a gateway fan-out reaching this node twice. Drop them
	// so re-delivery is idempotent; their rows already exist.
	var newUsers []lbsn.NewUser
	for _, u := range batch.NewUsers {
		if u.ID >= oldI {
			newUsers = append(newUsers, u)
		}
	}
	var newPOIs []lbsn.POI
	for _, p := range batch.NewPOIs {
		if p.ID >= oldJ {
			newPOIs = append(newPOIs, p)
		}
	}
	needI, needJ := oldI, oldJ
	for _, c := range batch.CheckIns {
		if c.User >= needI {
			needI = c.User + 1
		}
		if c.POI >= needJ {
			needJ = c.POI + 1
		}
	}
	for _, u := range newUsers {
		if u.ID >= needI {
			needI = u.ID + 1
		}
	}
	for _, p := range newPOIs {
		if p.ID >= needJ {
			needJ = p.ID + 1
		}
	}
	if needI == oldI && needJ == oldJ && len(newUsers) == 0 {
		return r.Observe(batch.CheckIns, cfg)
	}
	if r.Model.Mode != StorageFloat64 {
		return 0, fmt.Errorf("tcss: open-world observe on %v storage: %w", r.Model.Mode, core.ErrCompactModel)
	}

	ds, err := r.Dataset.Grown(newUsers, newPOIs, needI, needJ)
	if err != nil {
		return 0, err
	}
	dist := ds.Distances()

	// Warm-init hints: friendship for user rows, geographic proximity for
	// POI rows. Neighbour candidates are restricted to pre-growth POIs —
	// placeholders and same-batch arrivals carry no learned signal.
	random := cfg.GrowHints != nil && cfg.GrowHints.Random
	hints := &core.GrowthHints{
		Friends:  make(map[int][]int),
		NearPOIs: make(map[int][]int),
		Random:   random,
		Seed:     cfg.Seed,
	}
	for _, u := range newUsers {
		hints.Friends[u.ID] = u.Friends
	}
	for _, p := range newPOIs {
		near := dist.NearestIndices(p.ID, growNeighborK+(needJ-oldJ))
		keep := make([]int, 0, growNeighborK)
		for _, j := range near {
			if j < oldJ {
				keep = append(keep, j)
				if len(keep) == growNeighborK {
					break
				}
			}
		}
		hints.NearPOIs[p.ID] = keep
	}

	model := r.Model.Clone()
	if err := model.Grow(needI, needJ, hints); err != nil {
		return 0, err
	}
	train := r.Train.Clone()
	train.Grow(needI, needJ, train.DimK)

	entries := make([]tensor.Entry, len(batch.CheckIns))
	for n, c := range batch.CheckIns {
		entries[n] = tensor.Entry{I: c.User, J: c.POI, K: r.Gran.Index(c), Val: 1}
	}

	// The social head (when enabled) needs side info covering the grown
	// dimensions before the update, so arrivals are regularized toward their
	// friends' POIs from their very first gradient step.
	var sidePre *core.SideInfo
	if cfg.Lambda > 0 {
		sidePre, err = core.GrowSideInfo(r.Side, ds.Social, dist, train, entries)
		if err != nil {
			return 0, err
		}
	}
	added, err := model.UpdateOnline(train, entries, sidePre, cfg)
	if err != nil {
		return 0, err
	}

	side, err := core.GrowSideInfo(r.Side, ds.Social, dist, train, entries)
	if err != nil {
		return 0, fmt.Errorf("%w: growing side info: %v", ErrObserveReverted, err)
	}
	r.Model, r.Train, r.Side, r.Dataset = model, train, side, ds
	r.Dataset.CheckIns = append(r.Dataset.CheckIns, batch.CheckIns...)
	return added, nil
}
