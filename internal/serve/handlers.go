package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/registry"
)

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/recommend", s.serveRecommend)
	mux.HandleFunc("POST /v1/next", s.serveNext)
	mux.HandleFunc("GET /v1/explain", s.serveExplain)
	mux.HandleFunc("POST /v1/observe", s.serveObserve)
	mux.HandleFunc("POST /v1/snapshot/save", s.serveSnapshotSave)
	mux.HandleFunc("GET /v1/snapshot/bin", s.serveSnapshotBin)
	mux.HandleFunc("GET /healthz", s.serveHealthz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	return mux
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.met.badRequest.Add(1)
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps the request body of POST /v1/observe and /v1/next. The
// largest body the repository's tests, smokes and benchmark send is a weekly
// drift-replay observe batch of 21 KB (a /v1/next sequence at maxNextSeq is
// about 10 KB); 8 MiB still fits a week of check-ins at full Gowalla scale
// while bounding what one request can make the node buffer.
const maxBodyBytes = 8 << 20

// decodeBody decodes the JSON request body into v, reading at most
// maxBodyBytes of it. A longer body gets 413 and a malformed one 400; it
// reports whether v was decoded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.met.bodyTooLarge.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)})
	default:
		s.badRequest(w, "decoding body: %v", err)
	}
	return false
}

// shed rejects with 503 + Retry-After, the bounded queue's overflow response.
func (s *Server) shed(w http.ResponseWriter, what string) {
	s.met.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.opts.RetryAfter.Seconds()))))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: what + " at capacity, retry later"})
}

func (s *Server) deadline(w http.ResponseWriter) {
	s.met.deadlineMissed.Add(1)
	writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "request deadline exceeded"})
}

// misroute rejects with 421 Misdirected Request: the request reached a node
// that must not answer it — a user outside this shard's partition, or a write
// at a read-only replica. 421 rather than 404/503 because the request itself
// is fine; only the routing is wrong, and the gateway should know loudly.
func (s *Server) misroute(w http.ResponseWriter, format string, args ...any) {
	s.met.misrouted.Add(1)
	writeJSON(w, http.StatusMisdirectedRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

// owns reports whether this node's partition covers user. Standalone servers
// (no Owns predicate) own everyone.
func (s *Server) owns(user int) bool {
	return s.opts.Owns == nil || s.opts.Owns(user)
}

// degraded rejects a write with 503 while the circuit breaker is open,
// advertising the breaker's own probe deadline as Retry-After.
func (s *Server) degraded(w http.ResponseWriter, err error) {
	s.met.shed.Add(1)
	_, _, retryIn := s.brk.status()
	secs := int(math.Ceil(retryIn.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
}

// routeError maps registry routing/scoring sentinels to HTTP statuses: an
// unknown ?model= name (or a /v1/next with nothing to route to) is 404, a
// model that cannot score sequences is 400, and a registered-but-unfitted
// model is 503 — the model exists, it just cannot answer yet.
func (s *Server) routeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrUnknownModel), errors.Is(err, registry.ErrNoNextModel):
		s.met.modelNotFound.Add(1)
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, registry.ErrNotNextCapable):
		s.met.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, registry.ErrNotReady):
		s.met.modelNotReady.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.opts.RetryAfter.Seconds()))))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		s.met.internalErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// spawnShadow schedules an off-path scoring of the shadow model named in the
// decision and records its top-K overlap against the primary's results. It
// runs after the primary response bytes are already on the wire (or at least
// fully computed), never writes to the ResponseWriter, and copies what it
// needs from the request — by construction it cannot alter the primary
// response. Slots are bounded; overflow is dropped and counted.
func (s *Server) spawnShadow(dec registry.Decision, next bool, user int, seq []registry.Event, t, n int, primary []core.Recommendation) {
	sc, ok := s.reg.Get(dec.Shadow)
	if !ok {
		return
	}
	pois := make([]int, len(primary))
	for i, rec := range primary {
		pois[i] = rec.POI
	}
	name := dec.Shadow
	s.reg.ShadowGo(func() {
		var recs []core.Recommendation
		var err error
		if next {
			ns, isNext := sc.(registry.NextScorer)
			if !isNext {
				s.reg.RecordShadowError(name)
				return
			}
			recs, _, err = ns.Next(user, seq, t, n)
		} else {
			recs, _, err = sc.Recommend(user, t, n)
		}
		if err != nil {
			s.reg.RecordShadowError(name)
			return
		}
		shadowPOIs := make([]int, len(recs))
		for i, rec := range recs {
			shadowPOIs[i] = rec.POI
		}
		frac, exact := registry.Overlap(pois, shadowPOIs)
		s.reg.RecordShadow(name, frac, exact)
	})
}

// intParam parses a required (or defaulted) integer query parameter.
func intParam(r *http.Request, name string, def int, required bool) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		if required {
			return 0, fmt.Errorf("missing required parameter %q", name)
		}
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// requestTimeout resolves the per-request deadline: the configured
// RequestTimeout, clamped down to the gateway's X-Deadline-Budget header when
// one arrives — once the gateway's budget for this hop is spent nobody is
// waiting for the answer, so working longer only burns scoring slots.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	timeout := s.opts.RequestTimeout
	if raw := r.Header.Get("X-Deadline-Budget"); raw != "" {
		if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
			if budget := time.Duration(ms) * time.Millisecond; budget < timeout {
				s.met.budgetClamped.Add(1)
				return budget
			}
		}
	}
	return timeout
}

// admitRead runs the shared read-path front door: per-request deadline,
// bounded admission, and the test hold hook. On nil cleanup the response has
// already been written.
func (s *Server) admitRead(w http.ResponseWriter, r *http.Request) (context.Context, func()) {
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(r))
	switch s.adm.acquire(ctx) {
	case shedOverflow:
		cancel()
		s.shed(w, "read queue")
		return nil, nil
	case shedDeadline:
		cancel()
		s.deadline(w)
		return nil, nil
	}
	if s.opts.holdForTest != nil {
		s.opts.holdForTest()
	}
	if ctx.Err() != nil {
		s.adm.release()
		cancel()
		s.deadline(w)
		return nil, nil
	}
	return ctx, func() { s.adm.release(); cancel() }
}

// recommendResponse is the body of GET /v1/recommend. It carries no volatile
// fields, so cached bytes are byte-identical to freshly computed ones for the
// same (generation, query).
type recommendResponse struct {
	User       int              `json:"user"`
	T          int              `json:"t"`
	Generation uint64           `json:"generation"`
	Results    []recommendation `json:"results"`
}

type recommendation struct {
	POI   int     `json:"poi"`
	Score float64 `json:"score"`
}

func (s *Server) serveRecommend(w http.ResponseWriter, r *http.Request) {
	started := s.opts.now()
	s.met.recommendTotal.Add(1)

	snap := s.snap.load()
	user, err := intParam(r, "user", 0, true)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	t, err := intParam(r, "t", 0, true)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	n, err := intParam(r, "n", s.opts.TopNDefault, false)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	if user < 0 || user >= snap.Model.I {
		s.badRequest(w, "user %d out of range [0, %d)", user, snap.Model.I)
		return
	}
	if !s.owns(user) {
		s.misroute(w, "user %d is not in shard %q's partition", user, s.opts.ShardName)
		return
	}
	if t < 0 || t >= snap.Model.K {
		s.badRequest(w, "t %d out of range [0, %d)", t, snap.Model.K)
		return
	}
	if n <= 0 {
		s.badRequest(w, "n must be positive, got %d", n)
		return
	}
	if n > s.opts.MaxTopN {
		n = s.opts.MaxTopN
	}

	// Routing: explicit ?model= override, else the registry's policy
	// (primary, or the deterministic A/B split when configured).
	dec, err := s.reg.Route(user, r.URL.Query().Get("model"))
	if err != nil {
		s.routeError(w, err)
		return
	}
	scorer, _ := s.reg.Get(dec.Model)

	key := cacheKey{model: dec.Model, gen: scorer.Generation(), user: user, t: t, n: n}
	if body := s.cache.get(key); body != nil {
		s.met.cacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "HIT")
		w.Header().Set("X-Model", dec.Model)
		w.Header().Set("X-Generation", strconv.FormatUint(key.gen, 10))
		w.Write(body)
		dur := s.opts.now().Sub(started)
		s.met.recommendLat.observe(dur)
		s.reg.RecordServe(dec.Model, false, true, dur)
		return
	}
	s.met.cacheMisses.Add(1)

	_, release := s.admitRead(w, r)
	if release == nil {
		return
	}
	recs, gen, err := scorer.Recommend(user, t, n)
	release()
	if err != nil {
		if errors.Is(err, registry.ErrNotReady) {
			s.reg.RecordNotReady(dec.Model)
		}
		s.routeError(w, err)
		return
	}

	resp := recommendResponse{
		User: user, T: t, Generation: gen,
		Results: make([]recommendation, len(recs)),
	}
	for i, rec := range recs {
		resp.Results[i] = recommendation{POI: rec.POI, Score: rec.Score}
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		s.met.internalErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	body = append(body, '\n')
	s.cache.put(cacheKey{model: dec.Model, gen: gen, user: user, t: t, n: n}, body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "MISS")
	w.Header().Set("X-Model", dec.Model)
	w.Header().Set("X-Generation", strconv.FormatUint(gen, 10))
	w.Write(body)
	dur := s.opts.now().Sub(started)
	s.met.recommendLat.observe(dur)
	s.reg.RecordServe(dec.Model, false, false, dur)

	// Shadow scoring runs strictly after the primary bytes are written and
	// over copies of the inputs; it can only touch registry counters.
	if dec.Shadow != "" {
		s.spawnShadow(dec, false, user, nil, t, n, recs)
	}
}

// maxNextSeq bounds the check-in sequence length of one /v1/next request:
// long enough for any realistic recent history, short enough that a single
// request cannot monopolize a scoring slot rolling an unbounded recurrence.
const maxNextSeq = 512

// nextRequest is the body of POST /v1/next: the user's recent check-ins in
// ascending time order.
type nextRequest struct {
	CheckIns []nextCheckIn `json:"checkins"`
}

type nextCheckIn struct {
	POI int `json:"poi"`
	T   int `json:"t"`
}

// nextResponse is the body of POST /v1/next. Like recommendResponse it
// carries no volatile fields, so cached bytes are byte-identical to freshly
// computed ones. Model is part of the body here (unlike /v1/recommend, which
// reports it in the X-Model header only, keeping its pre-registry bytes).
type nextResponse struct {
	User       int              `json:"user"`
	T          int              `json:"t"`
	Model      string           `json:"model"`
	Generation uint64           `json:"generation"`
	Results    []recommendation `json:"results"`
}

// seqCacheString canonicalizes a check-in sequence for the cache key.
func seqCacheString(checkIns []nextCheckIn) string {
	var b strings.Builder
	for _, c := range checkIns {
		b.WriteString(strconv.Itoa(c.POI))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(c.T))
		b.WriteByte(';')
	}
	return b.String()
}

// serveNext scores the next POI after a posted check-in sequence with the
// routed sequential model. Admission, deadline, caching, and metrics match
// /v1/recommend; the target time t defaults to the last check-in's time unit.
func (s *Server) serveNext(w http.ResponseWriter, r *http.Request) {
	started := s.opts.now()
	s.met.nextTotal.Add(1)

	snap := s.snap.load()
	user, err := intParam(r, "user", 0, true)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	t, err := intParam(r, "t", -1, false)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	n, err := intParam(r, "n", s.opts.TopNDefault, false)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	var req nextRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.CheckIns) == 0 {
		s.badRequest(w, "no checkins in request")
		return
	}
	if len(req.CheckIns) > maxNextSeq {
		s.badRequest(w, "%d checkins exceed the limit of %d", len(req.CheckIns), maxNextSeq)
		return
	}
	if user < 0 || user >= snap.Model.I {
		s.badRequest(w, "user %d out of range [0, %d)", user, snap.Model.I)
		return
	}
	if !s.owns(user) {
		s.misroute(w, "user %d is not in shard %q's partition", user, s.opts.ShardName)
		return
	}
	for i, c := range req.CheckIns {
		if c.POI < 0 || c.POI >= snap.Model.J {
			s.badRequest(w, "checkin %d: poi %d out of range [0, %d)", i, c.POI, snap.Model.J)
			return
		}
		if c.T < 0 || c.T >= snap.Model.K {
			s.badRequest(w, "checkin %d: t %d out of range [0, %d)", i, c.T, snap.Model.K)
			return
		}
	}
	if r.URL.Query().Get("t") == "" {
		t = req.CheckIns[len(req.CheckIns)-1].T
	}
	if t < 0 || t >= snap.Model.K {
		s.badRequest(w, "t %d out of range [0, %d)", t, snap.Model.K)
		return
	}
	if n <= 0 {
		s.badRequest(w, "n must be positive, got %d", n)
		return
	}
	if n > s.opts.MaxTopN {
		n = s.opts.MaxTopN
	}

	dec, err := s.reg.RouteNext(user, r.URL.Query().Get("model"))
	if err != nil {
		s.routeError(w, err)
		return
	}
	scorer, _ := s.reg.Get(dec.Model)
	next, ok := scorer.(registry.NextScorer)
	if !ok { // unreachable: RouteNext only routes to NextScorers
		s.routeError(w, fmt.Errorf("%w: %q", registry.ErrNotNextCapable, dec.Model))
		return
	}

	seqStr := seqCacheString(req.CheckIns)
	key := cacheKey{model: dec.Model, gen: scorer.Generation(), user: user, t: t, n: n, seq: seqStr}
	if body := s.cache.get(key); body != nil {
		s.met.cacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "HIT")
		w.Header().Set("X-Model", dec.Model)
		w.Header().Set("X-Generation", strconv.FormatUint(key.gen, 10))
		w.Write(body)
		dur := s.opts.now().Sub(started)
		s.met.nextLat.observe(dur)
		s.reg.RecordServe(dec.Model, true, true, dur)
		return
	}
	s.met.cacheMisses.Add(1)

	seq := make([]registry.Event, len(req.CheckIns))
	for i, c := range req.CheckIns {
		seq[i] = registry.Event{POI: c.POI, T: c.T}
	}

	_, release := s.admitRead(w, r)
	if release == nil {
		return
	}
	recs, gen, err := next.Next(user, seq, t, n)
	release()
	if err != nil {
		if errors.Is(err, registry.ErrNotReady) {
			s.reg.RecordNotReady(dec.Model)
		}
		s.routeError(w, err)
		return
	}

	resp := nextResponse{
		User: user, T: t, Model: dec.Model, Generation: gen,
		Results: make([]recommendation, len(recs)),
	}
	for i, rec := range recs {
		resp.Results[i] = recommendation{POI: rec.POI, Score: rec.Score}
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		s.met.internalErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	body = append(body, '\n')
	s.cache.put(cacheKey{model: dec.Model, gen: gen, user: user, t: t, n: n, seq: seqStr}, body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "MISS")
	w.Header().Set("X-Model", dec.Model)
	w.Header().Set("X-Generation", strconv.FormatUint(gen, 10))
	w.Write(body)
	dur := s.opts.now().Sub(started)
	s.met.nextLat.observe(dur)
	s.reg.RecordServe(dec.Model, true, false, dur)

	if dec.Shadow != "" {
		s.spawnShadow(dec, true, user, seq, t, n, recs)
	}
}

// explainResponse mirrors core.Explanation with JSON-safe distances: +Inf
// (no friend/own POIs) marshals as null, which encoding/json cannot express
// for a plain float64.
type explainResponse struct {
	User       int    `json:"user"`
	POI        int    `json:"poi"`
	T          int    `json:"t"`
	Generation uint64 `json:"generation"`

	Score            float64 `json:"score"`
	VisitProbability float64 `json:"visit_probability"`
	PeakT            int     `json:"peak_t"`
	PeakScore        float64 `json:"peak_score"`

	FriendVisited    bool     `json:"friend_visited"`
	NearestFriendPOI int      `json:"nearest_friend_poi"`
	NearestFriendKm  *float64 `json:"nearest_friend_km"`
	OwnVisited       bool     `json:"own_visited"`
	NearestOwnPOI    int      `json:"nearest_own_poi"`
	NearestOwnKm     *float64 `json:"nearest_own_km"`
	LocationEntropyW float64  `json:"location_entropy_weight"`
}

func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

func (s *Server) serveExplain(w http.ResponseWriter, r *http.Request) {
	started := s.opts.now()
	s.met.explainTotal.Add(1)

	snap := s.snap.load()
	user, err := intParam(r, "user", 0, true)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	poi, err := intParam(r, "poi", 0, true)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	t, err := intParam(r, "t", 0, true)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	if user < 0 || user >= snap.Model.I {
		s.badRequest(w, "user %d out of range [0, %d)", user, snap.Model.I)
		return
	}
	if !s.owns(user) {
		s.misroute(w, "user %d is not in shard %q's partition", user, s.opts.ShardName)
		return
	}
	if poi < 0 || poi >= snap.Model.J {
		s.badRequest(w, "poi %d out of range [0, %d)", poi, snap.Model.J)
		return
	}
	if t < 0 || t >= snap.Model.K {
		s.badRequest(w, "t %d out of range [0, %d)", t, snap.Model.K)
		return
	}

	_, release := s.admitRead(w, r)
	if release == nil {
		return
	}
	ex := snap.Model.Explain(snap.Side, user, poi, t)
	release()

	w.Header().Set("X-Generation", strconv.FormatUint(snap.Gen, 10))
	writeJSON(w, http.StatusOK, explainResponse{
		User: user, POI: poi, T: t, Generation: snap.Gen,
		Score:            ex.Score,
		VisitProbability: ex.VisitProbability,
		PeakT:            ex.PeakTimeUnit,
		PeakScore:        ex.PeakScore,
		FriendVisited:    ex.FriendVisited,
		NearestFriendPOI: ex.NearestFriendPOI,
		NearestFriendKm:  finiteOrNil(ex.NearestFriendDist),
		OwnVisited:       ex.OwnVisited,
		NearestOwnPOI:    ex.NearestOwnPOI,
		NearestOwnKm:     finiteOrNil(ex.NearestOwnDistance),
		LocationEntropyW: ex.LocationEntropyW,
	})
	s.met.explainLat.observe(s.opts.now().Sub(started))
}

// observeRequest is the body of POST /v1/observe. new_users and new_pois
// carry open-world arrivals (mirroring the drift stream's JSONL shape); they
// are only accepted when the server runs with Options.Grow.
type observeRequest struct {
	CheckIns []observeCheckIn `json:"checkins"`
	NewUsers []observeNewUser `json:"new_users,omitempty"`
	NewPOIs  []observePOI     `json:"new_pois,omitempty"`
}

type observeCheckIn struct {
	User  int `json:"user"`
	POI   int `json:"poi"`
	Month int `json:"month"`
	Week  int `json:"week"`
	Hour  int `json:"hour"`
}

type observeNewUser struct {
	ID      int   `json:"id"`
	Friends []int `json:"friends,omitempty"`
}

type observePOI struct {
	ID       int     `json:"id"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Category int     `json:"category"`
}

type observeResponse struct {
	Added      int    `json:"added"`
	Generation uint64 `json:"generation"`
	// Users and POIs report the model dimensions after the batch applied.
	Users int `json:"users"`
	POIs  int `json:"pois"`
}

// conflict rejects a growth-requiring request with 409: the ids are beyond
// the model's dimensions and this node will not grow (Options.Grow off, or
// the batch lost a validation race). Distinct from 400 — the request may be
// perfectly valid at a growth-enabled primary.
func (s *Server) conflict(w http.ResponseWriter, format string, args ...any) {
	s.met.observeRejectedRange.Add(1)
	writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) serveObserve(w http.ResponseWriter, r *http.Request) {
	started := s.opts.now()
	s.met.observeTotal.Add(1)

	if s.closing.Load() {
		s.shed(w, "server draining, observe")
		return
	}
	if s.src.ReadOnly() {
		s.misroute(w, "%v", ErrReadOnly)
		return
	}
	var req observeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.CheckIns) == 0 && len(req.NewUsers) == 0 && len(req.NewPOIs) == 0 {
		s.badRequest(w, "no checkins in request")
		return
	}
	snap := s.snap.load()
	grow := s.opts.Grow
	if !grow && (len(req.NewUsers) > 0 || len(req.NewPOIs) > 0) {
		s.conflict(w, "open-world arrivals rejected: growth is disabled on this node")
		return
	}
	// needI tracks the user dimension the batch implies, so friend references
	// can chain through same-batch arrivals.
	needI := snap.Model.I
	batch := tcss.ObserveBatch{NewUsers: make([]lbsn.NewUser, len(req.NewUsers)), NewPOIs: make([]lbsn.POI, len(req.NewPOIs))}
	for i, u := range req.NewUsers {
		if u.ID < 0 {
			s.badRequest(w, "new_user %d: negative id %d", i, u.ID)
			return
		}
		if !s.owns(u.ID) {
			s.misroute(w, "new_user %d: user %d is not in shard %q's partition", i, u.ID, s.opts.ShardName)
			return
		}
		if u.ID >= needI {
			needI = u.ID + 1
		}
		batch.NewUsers[i] = lbsn.NewUser{ID: u.ID, Friends: u.Friends}
	}
	for i, u := range req.NewUsers {
		for _, f := range u.Friends {
			if f < 0 || f >= needI {
				s.badRequest(w, "new_user %d: friend %d out of range [0, %d)", i, f, needI)
				return
			}
		}
	}
	for i, p := range req.NewPOIs {
		if p.ID < 0 {
			s.badRequest(w, "new_poi %d: negative id %d", i, p.ID)
			return
		}
		batch.NewPOIs[i] = lbsn.POI{
			ID: p.ID, Loc: geo.Point{Lat: p.Lat, Lon: p.Lon},
			Category: lbsn.Category(p.Category),
		}
	}
	batch.CheckIns = make([]lbsn.CheckIn, len(req.CheckIns))
	for i, c := range req.CheckIns {
		ci := lbsn.CheckIn{User: c.User, POI: c.POI, Month: c.Month, Week: c.Week, Hour: c.Hour}
		if c.User < 0 {
			s.badRequest(w, "checkin %d: negative user %d", i, c.User)
			return
		}
		if c.User >= snap.Model.I && !grow {
			s.conflict(w, "checkin %d: user %d beyond model dimension %d and growth is disabled", i, c.User, snap.Model.I)
			return
		}
		if !s.owns(c.User) {
			s.misroute(w, "checkin %d: user %d is not in shard %q's partition", i, c.User, s.opts.ShardName)
			return
		}
		if c.POI < 0 {
			s.badRequest(w, "checkin %d: negative poi %d", i, c.POI)
			return
		}
		if c.POI >= snap.Model.J && !grow {
			s.conflict(w, "checkin %d: poi %d beyond model dimension %d and growth is disabled", i, c.POI, snap.Model.J)
			return
		}
		if k := s.gran.Index(ci); k < 0 || k >= snap.Model.K {
			s.badRequest(w, "checkin %d: time unit %d out of range [0, %d)", i, k, snap.Model.K)
			return
		}
		batch.CheckIns[i] = ci
	}

	cmd := writerCmd{batch: &batch, reply: make(chan writerResult, 1)}
	select {
	case s.cmds <- cmd:
	default:
		s.shed(w, "observe queue")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(r))
	defer cancel()
	select {
	case res := <-cmd.reply:
		if res.err != nil {
			switch {
			case errors.Is(res.err, ErrDegraded):
				s.degraded(w, res.err)
			case errors.Is(res.err, core.ErrOutOfRange):
				// Counted by the writer; the ids need growth this node (or
				// config) refused.
				writeJSON(w, http.StatusConflict, errorBody{Error: res.err.Error()})
			case errors.Is(res.err, core.ErrCompactModel):
				// Growth needs float64 factors; this node serves a compact
				// model. 503 — the cluster may still have a f64 primary.
				writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: res.err.Error()})
			default:
				s.met.internalErrors.Add(1)
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: res.err.Error()})
			}
			return
		}
		snap := s.snap.load()
		writeJSON(w, http.StatusOK, observeResponse{
			Added: res.added, Generation: res.gen,
			Users: snap.Model.I, POIs: snap.Model.J,
		})
		s.met.observeLat.observe(s.opts.now().Sub(started))
	case <-ctx.Done():
		// The batch stays queued and will still be applied; the client just
		// stopped waiting for confirmation.
		s.deadline(w)
	}
}

type saveResponse struct {
	Path       string `json:"path"`
	Generation uint64 `json:"generation"`
}

func (s *Server) serveSnapshotSave(w http.ResponseWriter, r *http.Request) {
	if s.opts.SnapshotPath == "" {
		s.badRequest(w, "snapshot saving is not configured (no snapshot path)")
		return
	}
	if s.closing.Load() {
		s.shed(w, "server draining, snapshot save")
		return
	}
	cmd := writerCmd{save: true, reply: make(chan writerResult, 1)}
	select {
	case s.cmds <- cmd:
	default:
		s.shed(w, "observe queue")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	select {
	case res := <-cmd.reply:
		if res.err != nil {
			s.met.internalErrors.Add(1)
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: res.err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, saveResponse{Path: s.opts.SnapshotPath, Generation: res.gen})
	case <-ctx.Done():
		s.deadline(w)
	}
}

type healthResponse struct {
	Status     string  `json:"status"`
	Generation uint64  `json:"generation"`
	AgeSeconds float64 `json:"snapshot_age_seconds"`
	// Shard and Role identify this node inside a cluster; empty standalone.
	Shard string `json:"shard,omitempty"`
	Role  string `json:"role,omitempty"`
	// GenLag is how many generations this node trails its primary's newest
	// advertised generation (replicas only; omitted when current).
	GenLag uint64 `json:"generation_lag,omitempty"`
	// Reason and Breaker appear when Status is "degraded": why the write
	// path is down, and the breaker state ("open" or "half_open").
	Reason  string `json:"reason,omitempty"`
	Breaker string `json:"breaker,omitempty"`
}

// serveHealthz reports three states: "ok" (200), "degraded" (200 — reads
// still serve the last good snapshot; the body says why: breaker-rejected
// writes, draining, or a replica past its staleness bound), and "no
// snapshot" (503 — nothing to serve).
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.load()
	if snap == nil || snap.Model == nil {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "no snapshot"})
		return
	}
	resp := healthResponse{
		Status:     "ok",
		Generation: snap.Gen,
		AgeSeconds: s.opts.now().Sub(snap.Created).Seconds(),
		Shard:      s.opts.ShardName,
		Role:       s.opts.Role,
		GenLag:     s.genLag(snap.Gen),
	}
	if state, reason, _ := s.brk.status(); state != "closed" {
		resp.Status = "degraded"
		resp.Reason = reason
		resp.Breaker = state
	} else if s.closing.Load() {
		resp.Status = "degraded"
		resp.Reason = "server draining"
	} else if s.opts.MaxGenLag > 0 && resp.GenLag > s.opts.MaxGenLag {
		// Past the staleness bound: still serving the last good snapshot,
		// but loudly — the gateway deprioritizes degraded replicas and the
		// chaos invariants treat answers beyond the bound as violations.
		resp.Status = "degraded"
		resp.Reason = fmt.Sprintf("staleness: %d generations behind primary (bound %d)",
			resp.GenLag, s.opts.MaxGenLag)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.collectMetrics(r.URL.Query().Get("window") == "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&m)
}
