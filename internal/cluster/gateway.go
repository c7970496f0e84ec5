package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ShardSet names one shard and its endpoints: the writable primary plus zero
// or more read-only replicas fed by snapshot shipping, all as base URLs.
type ShardSet struct {
	Name     string
	Primary  string
	Replicas []string
}

// DeadlineBudgetHeader carries a request's remaining deadline budget in
// integer milliseconds. The gateway stamps each backend hop with the budget
// that hop may spend; serve-side admission clamps its per-request timeout to
// it, so a backend never keeps working on a request whose gateway-side
// deadline has already passed.
const DeadlineBudgetHeader = "X-Deadline-Budget"

// GatewayOptions tunes the gateway; the zero value is production-ready.
type GatewayOptions struct {
	// Vnodes is the ring's virtual-node count per shard (DefaultVnodes if 0).
	Vnodes int
	// Client issues all backend requests; http.DefaultClient when nil. Hung
	// backends are bounded by the per-hop deadlines the gateway derives from
	// each request's budget, not by a client-wide timeout.
	Client *http.Client
	// DownCooldown is how long a failed endpoint is skipped before being
	// retried (2s when zero). Failover still works inside the cooldown — the
	// mark only changes which endpoint is tried first.
	DownCooldown time.Duration
	// ReadBudget is the total deadline budget of a read that arrives without
	// an X-Deadline-Budget header (2s when zero). The budget spans every
	// failover attempt; when it drains the gateway answers 504.
	ReadBudget time.Duration
	// PerTryTimeout caps one backend attempt (1s when zero, always clamped
	// to the remaining budget), so a hung endpoint costs one hop, not the
	// whole budget.
	PerTryTimeout time.Duration
	// RetryRate and RetryBurst shape the token-bucket retry budget charged
	// for every failover or hedge attempt beyond a request's first. A
	// flapping shard drains the bucket and further retries are refused with
	// 503 instead of amplifying into a retry storm. Defaults: 10 tokens/s,
	// burst 20.
	RetryRate  float64
	RetryBurst float64
	// Hedge enables hedged reads for GET /v1/recommend: if the first
	// candidate hasn't answered within HedgeDelay (30ms when zero), a second
	// candidate is fired and the first byte-valid response wins; the loser is
	// cancelled when the handler returns. Hedge attempts pay a retry token.
	Hedge      bool
	HedgeDelay time.Duration
	// Now is the clock (tests inject a fake one).
	Now func() time.Time
}

// gatewayMetrics counts what the gateway itself does, reported in the
// cluster /metrics document alongside the merged shard counters.
type gatewayMetrics struct {
	requests       atomic.Int64 // read requests routed
	failovers      atomic.Int64 // reads answered by a non-first candidate
	backendErrors  atomic.Int64 // candidate attempts that failed
	observeFanouts atomic.Int64 // observe batches split across shards
	scrapes        atomic.Int64 // merged /metrics scrapes served
	retries        atomic.Int64 // attempts beyond a request's first (token-charged)
	retryExhausted atomic.Int64 // retries refused by a drained token bucket
	hedges         atomic.Int64 // hedge attempts fired
	hedgeWins      atomic.Int64 // reads won by the hedged candidate
	deadlineMissed atomic.Int64 // reads 504ed on a drained deadline budget
	bodyTooLarge   atomic.Int64 // POST bodies 413ed for exceeding maxBodyBytes
}

// maxBodyBytes caps an inbound POST body (/v1/next sequences, /v1/observe
// batches). It equals the shards' own cap in internal/serve, so the gateway
// buffers no body a shard would refuse.
const maxBodyBytes = 8 << 20

// refuseOversize answers 413 if err is a read past maxBodyBytes and reports
// whether it did.
func (g *Gateway) refuseOversize(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return false
	}
	g.met.bodyTooLarge.Add(1)
	g.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	return true
}

// retryBudget is a token bucket charged for every failover or hedge attempt:
// tokens refill at rate per second up to burst, and an empty bucket refuses
// the retry — bounding cluster-wide retry amplification no matter how many
// endpoints flap.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	rate   float64
	last   time.Time
}

func (b *retryBudget) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Gateway routes the serving API across a sharded cluster: reads go to the
// user's owning shard (replica failover on primary failure), observes are
// split by ownership and fanned to primaries, /metrics and /healthz fan out
// to every endpoint and merge. It holds no model state — only the ring and
// the endpoint table — so any number of gateways can front the same cluster.
type Gateway struct {
	ring       *Ring
	sets       []ShardSet
	byName     map[string]*ShardSet
	client     *http.Client
	cooldown   time.Duration
	readBudget time.Duration
	perTry     time.Duration
	hedge      bool
	hedgeDelay time.Duration
	now        func() time.Time
	mux        *http.ServeMux
	met        gatewayMetrics
	retry      retryBudget

	mu   sync.Mutex
	down map[string]time.Time // endpoint base URL -> retry-after instant
	gens map[string]uint64    // endpoint base URL -> last generation seen
}

// NewGateway builds a gateway over the given shard sets. Ring placement uses
// only shard names, so every gateway and shard configured with the same names
// agrees on ownership regardless of listing order.
func NewGateway(sets []ShardSet, opts GatewayOptions) (*Gateway, error) {
	names := make([]string, len(sets))
	for i, set := range sets {
		if set.Primary == "" {
			return nil, fmt.Errorf("cluster: shard %q has no primary endpoint", set.Name)
		}
		names[i] = set.Name
	}
	ring, err := NewRing(names, opts.Vnodes)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		ring:       ring,
		sets:       append([]ShardSet(nil), sets...),
		byName:     make(map[string]*ShardSet, len(sets)),
		client:     opts.Client,
		cooldown:   opts.DownCooldown,
		readBudget: opts.ReadBudget,
		perTry:     opts.PerTryTimeout,
		hedge:      opts.Hedge,
		hedgeDelay: opts.HedgeDelay,
		now:        opts.Now,
		down:       make(map[string]time.Time),
		gens:       make(map[string]uint64),
	}
	for i := range g.sets {
		g.byName[g.sets[i].Name] = &g.sets[i]
	}
	if g.client == nil {
		g.client = http.DefaultClient
	}
	if g.cooldown <= 0 {
		g.cooldown = 2 * time.Second
	}
	if g.readBudget <= 0 {
		g.readBudget = 2 * time.Second
	}
	if g.perTry <= 0 {
		g.perTry = time.Second
	}
	if g.hedgeDelay <= 0 {
		g.hedgeDelay = 30 * time.Millisecond
	}
	g.retry.rate = opts.RetryRate
	g.retry.burst = opts.RetryBurst
	if g.retry.rate <= 0 {
		g.retry.rate = 10
	}
	if g.retry.burst <= 0 {
		g.retry.burst = 20
	}
	g.retry.tokens = g.retry.burst
	if g.now == nil {
		g.now = time.Now
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/recommend", g.serveRead)
	mux.HandleFunc("GET /v1/explain", g.serveRead)
	mux.HandleFunc("POST /v1/next", g.serveRead)
	mux.HandleFunc("POST /v1/observe", g.serveObserve)
	mux.HandleFunc("GET /metrics", g.serveMetrics)
	mux.HandleFunc("GET /healthz", g.serveHealthz)
	g.mux = mux
	return g, nil
}

// Ring exposes the gateway's ring (tests assert routing against it).
func (g *Gateway) Ring() *Ring { return g.ring }

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

type gwError struct {
	Error string `json:"error"`
}

func (g *Gateway) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(gwError{Error: fmt.Sprintf(format, args...)})
}

// markDown records an endpoint failure; the endpoint is deprioritized until
// the cooldown elapses. Expired marks are swept on every call so the map
// stays bounded by the live endpoint count across long deployments with
// churning endpoints.
func (g *Gateway) markDown(endpoint string) {
	now := g.now()
	g.mu.Lock()
	for ep, until := range g.down {
		if !now.Before(until) {
			delete(g.down, ep)
		}
	}
	g.down[endpoint] = now.Add(g.cooldown)
	g.mu.Unlock()
}

// isDown reports whether an endpoint is inside its failure cooldown, deleting
// the mark once it has expired.
func (g *Gateway) isDown(endpoint string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	until, ok := g.down[endpoint]
	if ok && !g.now().Before(until) {
		delete(g.down, endpoint)
		return false
	}
	return ok
}

// downLen reports the current down-mark count (tests assert the sweep).
func (g *Gateway) downLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.down)
}

// noteGen records the snapshot generation an endpoint last reported, feeding
// the freshness preference in candidates.
func (g *Gateway) noteGen(endpoint string, gen uint64) {
	g.mu.Lock()
	if gen > g.gens[endpoint] {
		g.gens[endpoint] = gen
	}
	g.mu.Unlock()
}

func (g *Gateway) genOf(endpoint string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gens[endpoint]
}

// candidates orders a shard's endpoints for a read: healthy endpoints first
// — freshest known generation leading, the primary winning ties (the stable
// sort keeps the primary-then-replicas base order) — then endpoints inside
// their failure cooldown moved to the back, never dropped, so a fully-marked
// shard still gets tried rather than blacking out on stale marks. Preferring
// fresher backends means a replica lagging behind its primary only serves
// when nothing fresher answers.
func (g *Gateway) candidates(set *ShardSet) []string {
	all := make([]string, 0, 1+len(set.Replicas))
	all = append(all, set.Primary)
	all = append(all, set.Replicas...)
	up := all[:0:len(all)]
	var cooling []string
	for _, ep := range all {
		if g.isDown(ep) {
			cooling = append(cooling, ep)
		} else {
			up = append(up, ep)
		}
	}
	sort.SliceStable(up, func(i, j int) bool { return g.genOf(up[i]) > g.genOf(up[j]) })
	return append(up, cooling...)
}

// retriable reports whether a backend status should trigger failover to the
// next candidate: transport-level failures are always retriable, and these
// statuses mean the node (not the request) has a problem. Client errors such
// as 400/404/421 pass through — another endpoint would answer the same.
func retriable(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// budgetFor resolves a request's total deadline budget: the client's
// X-Deadline-Budget header when present and sane, else the configured
// ReadBudget default.
func (g *Gateway) budgetFor(r *http.Request) time.Duration {
	if raw := r.Header.Get(DeadlineBudgetHeader); raw != "" {
		if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return g.readBudget
}

// backendResp is one candidate's fully buffered answer. Buffering before
// declaring success means a torn response body (truncated mid-stream, length
// mismatch) surfaces as a retriable attempt error instead of partial bytes
// leaking to the client as a 200.
type backendResp struct {
	status int
	header http.Header
	body   []byte
}

// attempt issues one backend hop: the per-hop timeout is the remaining budget
// clamped to PerTryTimeout, stamped onto the hop's X-Deadline-Budget header
// so serve-side admission stops working on it when the gateway gives up.
func (g *Gateway) attempt(ctx context.Context, ep, method, uri string, body []byte, remaining time.Duration) (*backendResp, error) {
	hop := remaining
	if hop > g.perTry {
		hop = g.perTry
	}
	actx, cancel := context.WithTimeout(ctx, hop)
	defer cancel()
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, ep+uri, reqBody)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(DeadlineBudgetHeader, strconv.FormatInt(hop.Milliseconds(), 10))
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading body from %s: %w", ep, err)
	}
	return &backendResp{status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

// writeBackend relays a buffered backend response to the client byte-exact,
// tagged with the shard and winning endpoint, and records the endpoint's
// reported generation for the freshness preference.
func (g *Gateway) writeBackend(w http.ResponseWriter, shard, ep string, resp *backendResp) {
	if genStr := resp.header.Get("X-Generation"); genStr != "" {
		if gen, err := strconv.ParseUint(genStr, 10, 64); err == nil {
			g.noteGen(ep, gen)
		}
	}
	for _, h := range []string{"Content-Type", "X-Cache", "X-Model", "X-Generation", "Retry-After"} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Shard", shard)
	w.Header().Set("X-Backend", ep)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// failAttempt records one failed candidate attempt.
func (g *Gateway) failAttempt(ep string) {
	g.met.backendErrors.Add(1)
	g.markDown(ep)
}

// serveRead routes /v1/recommend, /v1/explain and POST /v1/next to the shard
// owning the user, trying the freshest healthy candidate first and failing
// over on transport errors, torn response bodies, and 5xx. A POST body is
// buffered once so every failover candidate replays identical bytes, and a
// response body is buffered fully before being declared the winner. The whole
// request runs under a deadline budget (X-Deadline-Budget or ReadBudget);
// every attempt beyond the first pays a retry-budget token, so a flapping
// shard degrades into bounded retries instead of a storm.
func (g *Gateway) serveRead(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Add(1)
	user, err := strconv.Atoi(r.URL.Query().Get("user"))
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "parameter %q: %v", "user", err)
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			if !g.refuseOversize(w, err) {
				g.writeError(w, http.StatusBadRequest, "reading body: %v", err)
			}
			return
		}
	}
	shard := g.ring.Owner(user)
	set := g.byName[shard]
	uri := r.URL.Path
	if r.URL.RawQuery != "" {
		uri += "?" + r.URL.RawQuery
	}
	deadline := g.now().Add(g.budgetFor(r))
	cands := g.candidates(set)

	if g.hedge && r.Method == http.MethodGet && r.URL.Path == "/v1/recommend" && len(cands) > 1 {
		g.serveHedged(w, r, shard, cands, uri, deadline)
		return
	}

	var lastErr error
	for i, ep := range cands {
		remaining := deadline.Sub(g.now())
		if remaining <= 0 {
			g.met.deadlineMissed.Add(1)
			g.writeError(w, http.StatusGatewayTimeout, "shard %q: deadline budget exhausted: %v", shard, lastErr)
			return
		}
		if i > 0 {
			if !g.retry.allow(g.now()) {
				g.met.retryExhausted.Add(1)
				w.Header().Set("Retry-After", "1")
				g.writeError(w, http.StatusServiceUnavailable, "shard %q: retry budget exhausted: %v", shard, lastErr)
				return
			}
			g.met.retries.Add(1)
		}
		resp, err := g.attempt(r.Context(), ep, r.Method, uri, body, remaining)
		if err != nil {
			g.failAttempt(ep)
			lastErr = err
			continue
		}
		if retriable(resp.status) {
			g.failAttempt(ep)
			lastErr = fmt.Errorf("endpoint %s answered %d", ep, resp.status)
			continue
		}
		if i > 0 {
			g.met.failovers.Add(1)
		}
		g.writeBackend(w, shard, ep, resp)
		return
	}
	g.writeError(w, http.StatusBadGateway, "shard %q: no endpoint answered: %v", shard, lastErr)
}

// serveHedged races candidates for a GET /v1/recommend: the first candidate
// fires immediately, a hedge fires after HedgeDelay (paying a retry token),
// and the first byte-valid response — fully buffered, non-retriable status —
// wins. The loser's context is cancelled when the handler returns. Failed
// attempts trigger further candidates under the same retry budget, so hedged
// mode never retries more than sequential mode would.
func (g *Gateway) serveHedged(w http.ResponseWriter, r *http.Request, shard string, cands []string, uri string, deadline time.Time) {
	type outcome struct {
		ep   string
		idx  int
		resp *backendResp
		err  error
	}
	results := make(chan outcome, len(cands))
	launch := func(idx int) {
		ep := cands[idx]
		remaining := deadline.Sub(g.now())
		if remaining <= 0 {
			results <- outcome{ep: ep, idx: idx, err: context.DeadlineExceeded}
			return
		}
		go func() {
			resp, err := g.attempt(r.Context(), ep, http.MethodGet, uri, nil, remaining)
			results <- outcome{ep: ep, idx: idx, resp: resp, err: err}
		}()
	}

	launch(0)
	launched, inflight := 1, 1
	hedgedIdx := -1
	hedgeTimer := time.NewTimer(g.hedgeDelay)
	defer hedgeTimer.Stop()

	// tryNext fires the next unlaunched candidate if the retry budget allows.
	tryNext := func(hedged bool) {
		if launched >= len(cands) {
			return
		}
		if !g.retry.allow(g.now()) {
			g.met.retryExhausted.Add(1)
			return
		}
		g.met.retries.Add(1)
		if hedged {
			g.met.hedges.Add(1)
			hedgedIdx = launched
		}
		launch(launched)
		launched++
		inflight++
	}

	var lastErr error
	for inflight > 0 {
		select {
		case <-hedgeTimer.C:
			if launched == 1 {
				tryNext(true)
			}
		case res := <-results:
			inflight--
			if res.err != nil || retriable(res.resp.status) {
				g.failAttempt(res.ep)
				if res.err != nil {
					lastErr = res.err
				} else {
					lastErr = fmt.Errorf("endpoint %s answered %d", res.ep, res.resp.status)
				}
				if g.now().After(deadline) {
					g.met.deadlineMissed.Add(1)
					g.writeError(w, http.StatusGatewayTimeout, "shard %q: deadline budget exhausted: %v", shard, lastErr)
					return
				}
				tryNext(false)
				continue
			}
			if res.idx > 0 {
				g.met.failovers.Add(1)
			}
			if res.idx == hedgedIdx {
				g.met.hedgeWins.Add(1)
			}
			g.writeBackend(w, shard, res.ep, res.resp)
			return
		}
	}
	g.writeError(w, http.StatusBadGateway, "shard %q: no endpoint answered: %v", shard, lastErr)
}

// gwCheckIn mirrors the serve observe schema so subsets re-marshal exactly.
type gwCheckIn struct {
	User  int `json:"user"`
	POI   int `json:"poi"`
	Month int `json:"month"`
	Week  int `json:"week"`
	Hour  int `json:"hour"`
}

type gwNewUser struct {
	ID      int   `json:"id"`
	Friends []int `json:"friends,omitempty"`
}

type gwPOI struct {
	ID       int     `json:"id"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Category int     `json:"category"`
}

type gwObserveRequest struct {
	CheckIns []gwCheckIn `json:"checkins"`
	NewUsers []gwNewUser `json:"new_users,omitempty"`
	NewPOIs  []gwPOI     `json:"new_pois,omitempty"`
}

// shardObserveResult is one shard's slice of a fanned-out observe.
type shardObserveResult struct {
	Shard      string `json:"shard"`
	CheckIns   int    `json:"checkins"`
	Added      int    `json:"added"`
	Generation uint64 `json:"generation"`
	// Users/POIs are the shard's model dimensions after the batch — under
	// open-world growth they report how far the shard has grown.
	Users int    `json:"users,omitempty"`
	POIs  int    `json:"pois,omitempty"`
	Error string `json:"error,omitempty"`
}

type gwObserveResponse struct {
	Added  int                  `json:"added"`
	Shards []shardObserveResult `json:"shards"`
}

// serveObserve splits an observe batch by user ownership and posts each
// subset to the owning shard's primary (writes never go to replicas).
// Open-world arrivals route the same way: a new user goes to the shard the
// ring hashes its id to (consistent hashing needs no membership update for
// new ids), while a new POI is duplicated to every shard in the split — each
// shard carries the full POI space. The merged response reports per-shard
// cell counts and generations; any shard failure turns the overall status
// into 502 while still reporting the shards that succeeded.
func (g *Gateway) serveObserve(w http.ResponseWriter, r *http.Request) {
	var req gwObserveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		if !g.refuseOversize(w, err) {
			g.writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		}
		return
	}
	if len(req.CheckIns) == 0 && len(req.NewUsers) == 0 && len(req.NewPOIs) == 0 {
		g.writeError(w, http.StatusBadRequest, "no checkins in request")
		return
	}
	g.met.observeFanouts.Add(1)
	split := make(map[string]*gwObserveRequest)
	sub := func(shard string) *gwObserveRequest {
		if split[shard] == nil {
			split[shard] = &gwObserveRequest{}
		}
		return split[shard]
	}
	for _, c := range req.CheckIns {
		s := sub(g.ring.Owner(c.User))
		s.CheckIns = append(s.CheckIns, c)
	}
	for _, u := range req.NewUsers {
		s := sub(g.ring.Owner(u.ID))
		s.NewUsers = append(s.NewUsers, u)
	}
	if len(req.NewPOIs) > 0 {
		// Every shard scores over the full POI space, so POI openings go to
		// every primary, not just those owning this batch's users.
		for _, set := range g.sets {
			s := sub(set.Name)
			s.NewPOIs = append(s.NewPOIs, req.NewPOIs...)
		}
	}
	shards := make([]string, 0, len(split))
	for shard := range split {
		shards = append(shards, shard)
	}
	sort.Strings(shards)

	out := gwObserveResponse{Shards: make([]shardObserveResult, len(shards))}
	budget := g.budgetFor(r)
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			out.Shards[i] = g.postObserve(r.Context(), shard, split[shard], budget)
		}(i, shard)
	}
	wg.Wait()

	status := http.StatusOK
	for _, res := range out.Shards {
		out.Added += res.Added
		if res.Error != "" {
			status = http.StatusBadGateway
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&out)
}

func (g *Gateway) postObserve(ctx context.Context, shard string, sub *gwObserveRequest, budget time.Duration) shardObserveResult {
	res := shardObserveResult{Shard: shard, CheckIns: len(sub.CheckIns)}
	body, err := json.Marshal(sub)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.byName[shard].Primary+"/v1/observe", bytes.NewReader(body))
	if err != nil {
		res.Error = err.Error()
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineBudgetHeader, strconv.FormatInt(budget.Milliseconds(), 10))
	resp, err := g.client.Do(req)
	if err != nil {
		g.met.backendErrors.Add(1)
		g.markDown(g.byName[shard].Primary)
		res.Error = err.Error()
		return res
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var eb gwError
		json.Unmarshal(raw, &eb)
		if eb.Error == "" {
			eb.Error = resp.Status
		}
		res.Error = fmt.Sprintf("primary answered %d: %s", resp.StatusCode, eb.Error)
		return res
	}
	var ok struct {
		Added      int    `json:"added"`
		Generation uint64 `json:"generation"`
		Users      int    `json:"users"`
		POIs       int    `json:"pois"`
	}
	if err := json.Unmarshal(raw, &ok); err != nil {
		res.Error = err.Error()
		return res
	}
	res.Added, res.Generation = ok.Added, ok.Generation
	res.Users, res.POIs = ok.Users, ok.POIs
	return res
}
