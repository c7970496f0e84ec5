package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDownMarkSweep checks expired down marks are actually deleted — by the
// sweep on markDown and by the expiry check in isDown — so the map stays
// bounded across long deployments with churning endpoints.
func TestDownMarkSweep(t *testing.T) {
	now := time.Unix(0, 0)
	g, err := NewGateway(
		[]ShardSet{{Name: "s0", Primary: "http://primary"}},
		GatewayOptions{Now: func() time.Time { return now }},
	)
	if err != nil {
		t.Fatal(err)
	}

	g.markDown("http://a")
	g.markDown("http://b")
	if got := g.downLen(); got != 2 {
		t.Fatalf("down map holds %d marks, want 2", got)
	}

	// Past the 2s default cooldown: the next markDown sweeps both expired
	// marks, leaving only the fresh one.
	now = now.Add(3 * time.Second)
	g.markDown("http://c")
	if got := g.downLen(); got != 1 {
		t.Fatalf("down map holds %d marks after sweep, want 1", got)
	}
	if g.isDown("http://a") || g.isDown("http://b") {
		t.Fatal("swept endpoints still report down")
	}
	if !g.isDown("http://c") {
		t.Fatal("fresh mark not reported down")
	}

	// isDown on an expired mark deletes it too.
	now = now.Add(3 * time.Second)
	if g.isDown("http://c") {
		t.Fatal("expired mark still reported down")
	}
	if got := g.downLen(); got != 0 {
		t.Fatalf("down map holds %d marks after full expiry, want 0", got)
	}
}

// TestRetryBudgetRefill exercises the token bucket directly: the burst is
// spendable immediately, refill accrues with elapsed time, and tokens never
// exceed the burst cap.
func TestRetryBudgetRefill(t *testing.T) {
	b := &retryBudget{tokens: 2, burst: 2, rate: 1}
	now := time.Unix(0, 0)

	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst tokens not spendable")
	}
	if b.allow(now) {
		t.Fatal("empty bucket allowed a retry")
	}

	// 1.5s at 1 token/s refills 1.5 tokens: one retry allowed, not two.
	now = now.Add(1500 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("refilled bucket refused a retry")
	}
	if b.allow(now) {
		t.Fatal("bucket allowed more retries than the refill")
	}

	// A long idle period caps at burst, never beyond it.
	now = now.Add(time.Hour)
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("capped bucket refused its burst")
	}
	if b.allow(now) {
		t.Fatal("bucket exceeded its burst cap after idling")
	}
}

// TestGatewayBodyCap: an inbound POST body of exactly maxBodyBytes is
// forwarded, and one byte more is refused with 413 before any shard sees it.
func TestGatewayBodyCap(t *testing.T) {
	var forwarded atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			forwarded.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"added":1}`))
	}))
	defer shard.Close()
	g, err := NewGateway([]ShardSet{{Name: "s0", Primary: shard.URL}}, GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// pad fills a JSON object body with spaces before its closing brace.
	pad := func(body string, size int) string {
		return body[:len(body)-1] + strings.Repeat(" ", size-len(body)) + "}"
	}
	const next = `{"checkins":[{"poi":1,"t":0}]}`
	const observe = `{"checkins":[{"user":1,"poi":2,"month":1}]}`
	cases := []struct {
		name, path, body string
		size, want       int
	}{
		{"next at cap", "/v1/next?user=1", next, maxBodyBytes, http.StatusOK},
		{"next over cap", "/v1/next?user=1", next, maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"observe at cap", "/v1/observe", observe, maxBodyBytes, http.StatusOK},
		{"observe over cap", "/v1/observe", observe, maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := http.Post(gw.URL+c.path, "application/json", strings.NewReader(pad(c.body, c.size)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	if n := forwarded.Load(); n != 2 {
		t.Fatalf("shard saw %d POSTs, want the 2 bodies at the cap", n)
	}
	resp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var met clusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	if met.Gateway.BodyTooLarge != 2 {
		t.Fatalf("gateway body_too_large_413 %d, want 2", met.Gateway.BodyTooLarge)
	}
}
