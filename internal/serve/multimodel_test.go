package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tcss"
	"tcss/internal/baselines"
	"tcss/internal/registry"
)

// fitSeqModel trains a sequential baseline on the recommender's training
// tensor so its dims agree with the served snapshot.
func fitSeqModel(t *testing.T, rec *tcss.Recommender, name string, seed int64) baselines.SeqServer {
	t.Helper()
	m, ok := baselines.SeqLookup(name)
	if !ok {
		t.Fatalf("SeqLookup(%q) failed", name)
	}
	ctx := &baselines.Context{
		Train:  rec.Train,
		Social: rec.Dataset.Social,
		Dist:   rec.Side.Dist,
		Rank:   5,
		Epochs: 2,
		Seed:   seed,
	}
	if err := m.(baselines.Recommender).Fit(ctx); err != nil {
		t.Fatalf("%s: Fit: %v", name, err)
	}
	return m
}

// multiOpts describes one multi-model test server.
type multiOpts struct {
	seq    baselines.SeqServer // registered when non-nil
	abFrac float64             // SetAB("STRNN", abFrac) when > 0
	shadow string              // SetShadow when non-empty
}

func newMultiServer(t *testing.T, mo multiOpts) (*Server, *httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	if mo.seq != nil {
		if err := reg.Register(registry.NewSeqScorer(mo.seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if mo.abFrac > 0 {
		if err := reg.SetAB("STRNN", mo.abFrac); err != nil {
			t.Fatal(err)
		}
	}
	if mo.shadow != "" {
		if err := reg.SetShadow(mo.shadow); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Registry: reg, Online: quickOnline()}
	srv, err := New(fitRecommender(t, 21), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs, reg
}

func postNext(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

const nextBody = `{"checkins":[{"poi":1,"t":0},{"poi":7,"t":3},{"poi":2,"t":5}]}`

// padBody pads a JSON object body with spaces before its closing brace to
// exactly size bytes, so the decoder must read every byte.
func padBody(body string, size int) string {
	return body[:len(body)-1] + strings.Repeat(" ", size-len(body)) + "}"
}

// TestBodyCap: a POST body of exactly maxBodyBytes is decoded like its
// unpadded form, and one byte more is refused with 413 and counted.
func TestBodyCap(t *testing.T) {
	rec := fitRecommender(t, 21)
	seq := fitSeqModel(t, rec, "STRNN", 21)
	srv, hs, _ := newMultiServer(t, multiOpts{seq: seq})
	fresh := findFreshCell(t, srv)
	raw, err := json.Marshal(observeRequest{CheckIns: []observeCheckIn{fresh}})
	if err != nil {
		t.Fatal(err)
	}
	observeBody := string(raw)
	cases := []struct {
		name, path, body string
		size             int
		want             int
	}{
		{"observe", "/v1/observe", observeBody, len(observeBody), http.StatusOK},
		{"observe at cap", "/v1/observe", observeBody, maxBodyBytes, http.StatusOK},
		{"observe over cap", "/v1/observe", observeBody, maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"next", "/v1/next?user=3&n=5", nextBody, len(nextBody), http.StatusOK},
		{"next at cap", "/v1/next?user=3&n=5", nextBody, maxBodyBytes, http.StatusOK},
		{"next over cap", "/v1/next?user=3&n=5", nextBody, maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	}
	refused := 0
	for _, c := range cases {
		resp, data := postNext(t, hs.URL+c.path, padBody(c.body, c.size))
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d (%s), want %d", c.name, resp.StatusCode, data, c.want)
		}
		if c.want == http.StatusRequestEntityTooLarge {
			refused++
		}
	}
	var met metricsSnapshot
	getJSON(t, hs.URL+"/metrics", &met)
	if met.BodyTooLarge != int64(refused) || met.BadRequests != 0 {
		t.Fatalf("body_too_large_413 %d, bad_requests %d; want %d, 0", met.BodyTooLarge, met.BadRequests, refused)
	}
}

func TestNextEndpoint(t *testing.T) {
	rec := fitRecommender(t, 21)
	seq := fitSeqModel(t, rec, "STRNN", 21)
	_, hs, _ := newMultiServer(t, multiOpts{seq: seq})

	resp, data := postNext(t, hs.URL+"/v1/next?user=3&n=5", nextBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Cache") != "MISS" || resp.Header.Get("X-Model") != "STRNN" {
		t.Fatalf("headers X-Cache=%q X-Model=%q", resp.Header.Get("X-Cache"), resp.Header.Get("X-Model"))
	}
	var got nextResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	// t defaults to the last check-in's time unit.
	if got.User != 3 || got.T != 5 || got.Model != "STRNN" || got.Generation != 1 {
		t.Fatalf("identity fields %+v", got)
	}
	if len(got.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(got.Results))
	}

	// Scores must equal the model's own NextTopN output exactly.
	want, err := seq.NextTopN(3, []baselines.Visit{
		{POI: 1, TimeIndex: 0}, {POI: 7, TimeIndex: 3}, {POI: 2, TimeIndex: 5},
	}, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].POI != got.Results[i].POI || want[i].Score != got.Results[i].Score {
			t.Fatalf("result %d: handler (%d,%v) != model (%d,%v)",
				i, got.Results[i].POI, got.Results[i].Score, want[i].POI, want[i].Score)
		}
	}

	// Cached repeat must be byte-identical.
	resp2, data2 := postNext(t, hs.URL+"/v1/next?user=3&n=5", nextBody)
	if resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("cache HIT bytes differ from MISS bytes")
	}

	// Validation errors are 400s with JSON bodies.
	for _, tc := range []struct{ url, body, wantSub string }{
		{"/v1/next?user=3", `{"checkins":[]}`, "no checkins"},
		{"/v1/next?user=3", `{`, "decoding body"},
		{"/v1/next?user=3", `{"checkins":[{"poi":999,"t":0}]}`, "out of range"},
		{"/v1/next?user=3", `{"checkins":[{"poi":1,"t":99}]}`, "out of range"},
		{"/v1/next?user=999", nextBody, "out of range"},
		{"/v1/next?user=3&t=99", nextBody, "out of range"},
	} {
		resp, data := postNext(t, hs.URL+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.url, resp.StatusCode)
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || !strings.Contains(eb.Error, tc.wantSub) {
			t.Fatalf("%s: error body %q (err %v), want %q", tc.url, data, err, tc.wantSub)
		}
	}
}

func TestModelRoutingTable(t *testing.T) {
	rec := fitRecommender(t, 21)
	seq := fitSeqModel(t, rec, "STRNN", 21)
	_, hs, _ := newMultiServer(t, multiOpts{seq: seq})

	cases := []struct {
		name       string
		method     string
		url        string
		wantStatus int
		wantModel  string // X-Model when 200
	}{
		{"recommend default", "GET", "/v1/recommend?user=2&t=1&n=3", 200, "tcss"},
		{"recommend override tcss", "GET", "/v1/recommend?user=2&t=1&n=3&model=tcss", 200, "tcss"},
		{"recommend override seq", "GET", "/v1/recommend?user=2&t=1&n=3&model=STRNN", 200, "STRNN"},
		{"recommend unknown model", "GET", "/v1/recommend?user=2&t=1&n=3&model=nope", 404, ""},
		{"next default", "POST", "/v1/next?user=2&n=3", 200, "STRNN"},
		{"next override seq", "POST", "/v1/next?user=2&n=3&model=STRNN", 200, "STRNN"},
		{"next unknown model", "POST", "/v1/next?user=2&n=3&model=nope", 404, ""},
		{"next non-sequential model", "POST", "/v1/next?user=2&n=3&model=tcss", 400, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var data []byte
			if tc.method == "GET" {
				r, err := http.Get(hs.URL + tc.url)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Body.Close()
				data, _ = io.ReadAll(r.Body)
				resp = r
			} else {
				resp, data = postNext(t, hs.URL+tc.url, nextBody)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.wantStatus, data)
			}
			if tc.wantStatus == 200 && resp.Header.Get("X-Model") != tc.wantModel {
				t.Fatalf("X-Model = %q, want %q", resp.Header.Get("X-Model"), tc.wantModel)
			}
			if tc.wantStatus != 200 {
				// Error responses must be the JSON envelope, not a bare 500.
				var eb errorBody
				if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
					t.Fatalf("error body %q not a JSON error envelope (err %v)", data, err)
				}
			}
		})
	}
}

func TestUnfittedModelAnswers503(t *testing.T) {
	unfitted, _ := baselines.SeqLookup("STRNN")
	_, hs, _ := newMultiServer(t, multiOpts{seq: unfitted})

	r, err := http.Get(hs.URL + "/v1/recommend?user=2&t=1&n=3&model=STRNN")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recommend on unfitted model: status %d, want 503 (%s)", r.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Fatalf("503 body %q not a JSON error envelope", data)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	resp, data := postNext(t, hs.URL+"/v1/next?user=2&n=3", nextBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("next on unfitted model: status %d, want 503 (%s)", resp.StatusCode, data)
	}

	// The failures are attributed to the model in /metrics.
	var met metricsSnapshot
	getJSON(t, hs.URL+"/metrics", &met)
	if met.ModelNotReady != 2 {
		t.Fatalf("model_not_ready_503 = %d, want 2", met.ModelNotReady)
	}
	for _, ms := range met.Models {
		if ms.Name == "STRNN" && ms.NotReady != 2 {
			t.Fatalf("STRNN not_ready = %d, want 2", ms.NotReady)
		}
	}
}

func TestABRoutingDeterministicAcrossServers(t *testing.T) {
	rec := fitRecommender(t, 21)
	build := func() (*httptest.Server, *registry.Registry) {
		_, hs, reg := newMultiServer(t, multiOpts{seq: fitSeqModel(t, rec, "STRNN", 21), abFrac: 0.5})
		return hs, reg
	}
	hs1, _ := build()
	hs2, _ := build()

	armOf := func(hs *httptest.Server, user int) string {
		r, err := http.Get(fmt.Sprintf("%s/v1/recommend?user=%d&t=1&n=3", hs.URL, user))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != 200 {
			t.Fatalf("user %d: status %d", user, r.StatusCode)
		}
		return r.Header.Get("X-Model")
	}
	seen := map[string]bool{}
	for user := 0; user < 40; user++ {
		m1 := armOf(hs1, user)
		// Same user, same server, repeated: stable.
		if m2 := armOf(hs1, user); m2 != m1 {
			t.Fatalf("user %d: arm flapped %q -> %q", user, m1, m2)
		}
		// Same user on a separately constructed server ("restart" or another
		// replica): same arm.
		if m3 := armOf(hs2, user); m3 != m1 {
			t.Fatalf("user %d: arm differs across instances %q vs %q", user, m1, m3)
		}
		seen[m1] = true
	}
	if !seen["tcss"] || !seen["STRNN"] {
		t.Fatalf("both arms must serve traffic, saw %v", seen)
	}
}

// TestShadowNeverAltersResponse runs the same query mix against a shadowed
// server and an unshadowed twin (identical seeds and training) concurrently
// and requires byte-identical responses. Run under -race this also proves the
// shadow goroutines never touch response state.
func TestShadowNeverAltersResponse(t *testing.T) {
	rec := fitRecommender(t, 21)
	_, hsShadow, reg := newMultiServer(t, multiOpts{seq: fitSeqModel(t, rec, "STRNN", 21), shadow: "STRNN"})
	_, hsPlain, _ := newMultiServer(t, multiOpts{seq: fitSeqModel(t, rec, "STRNN", 21)})

	fetch := func(base string, user, k int) []byte {
		r, err := http.Get(fmt.Sprintf("%s/v1/recommend?user=%d&t=%d&n=5", base, user, k))
		if err != nil {
			t.Error(err)
			return nil
		}
		defer r.Body.Close()
		data, _ := io.ReadAll(r.Body)
		if r.StatusCode != 200 {
			t.Errorf("user %d t %d: status %d", user, k, r.StatusCode)
		}
		return data
	}

	var wg sync.WaitGroup
	for user := 0; user < 20; user++ {
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func(user, k int) {
				defer wg.Done()
				a := fetch(hsShadow.URL, user, k)
				b := fetch(hsPlain.URL, user, k)
				if !bytes.Equal(a, b) {
					t.Errorf("user %d t %d: shadowed response differs from twin:\n%s\nvs\n%s", user, k, a, b)
				}
			}(user, k)
		}
	}
	wg.Wait()
	reg.DrainShadows()

	stats, info := reg.Stats()
	if info.Shadow != "STRNN" {
		t.Fatalf("routing info %+v", info)
	}
	var scored int64
	var agree float64
	for _, ms := range stats {
		if ms.Name == "STRNN" {
			scored = ms.Shadow.Scored
			agree = ms.Shadow.AgreementAvg
		}
	}
	if scored == 0 {
		t.Fatal("shadow scored nothing")
	}
	if agree < 0 || agree > 1 {
		t.Fatalf("shadow agreement %g outside [0,1]", agree)
	}
}

// TestNextStateRoundTripServing is the serving half of the persistence
// satellite: a server over a loaded sequential state must answer /v1/next
// byte-identically to the server over the originally fitted model.
func TestNextStateRoundTripServing(t *testing.T) {
	rec := fitRecommender(t, 21)
	fitted := fitSeqModel(t, rec, "STRNN", 21)
	path := filepath.Join(t.TempDir(), "strnn.state")
	if err := baselines.SaveSeqState(nil, path, 1, 1, fitted); err != nil {
		t.Fatal(err)
	}
	loaded, gen, err := baselines.LoadSeqState(path, rec.Side.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("loaded generation %d, want 1", gen)
	}

	_, hsA, _ := newMultiServer(t, multiOpts{seq: fitted})
	_, hsB, _ := newMultiServer(t, multiOpts{seq: loaded})
	for user := 0; user < 10; user++ {
		url := fmt.Sprintf("/v1/next?user=%d&n=7", user)
		_, a := postNext(t, hsA.URL+url, nextBody)
		_, b := postNext(t, hsB.URL+url, nextBody)
		if !bytes.Equal(a, b) {
			t.Fatalf("user %d: loaded-state response differs:\n%s\nvs\n%s", user, a, b)
		}
	}
}

func TestMetricsModelBlocks(t *testing.T) {
	rec := fitRecommender(t, 21)
	_, hs, _ := newMultiServer(t, multiOpts{seq: fitSeqModel(t, rec, "STRNN", 21), abFrac: 0.5, shadow: "STRNN"})

	for user := 0; user < 12; user++ {
		r, err := http.Get(fmt.Sprintf("%s/v1/recommend?user=%d&t=1&n=3", hs.URL, user))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		resp, _ := postNext(t, fmt.Sprintf("%s/v1/next?user=%d&n=3", hs.URL, user), nextBody)
		if resp.StatusCode != 200 {
			t.Fatalf("next user %d: status %d", user, resp.StatusCode)
		}
	}

	var met metricsSnapshot
	getJSON(t, hs.URL+"/metrics", &met)
	if met.Routing.Primary != "tcss" || met.Routing.ABModel != "STRNN" || met.Routing.ABFracB != 0.5 ||
		met.Routing.Shadow != "STRNN" || met.Routing.NextDefault != "STRNN" {
		t.Fatalf("routing block %+v", met.Routing)
	}
	if met.Next.Count != 12 {
		t.Fatalf("next count = %d, want 12", met.Next.Count)
	}
	byName := map[string]registry.ModelStats{}
	for _, ms := range met.Models {
		byName[ms.Name] = ms
	}
	if len(byName) != 2 {
		t.Fatalf("models block has %d entries: %+v", len(byName), met.Models)
	}
	if byName["tcss"].Requests == 0 || byName["STRNN"].Requests == 0 {
		t.Fatalf("both arms must have served recommends: %+v", met.Models)
	}
	if byName["STRNN"].NextRequests != 12 {
		t.Fatalf("STRNN next_requests = %d, want 12", byName["STRNN"].NextRequests)
	}
	if byName["STRNN"].NextP99ms <= 0 {
		t.Fatalf("STRNN next p99 = %g, want > 0", byName["STRNN"].NextP99ms)
	}
}
