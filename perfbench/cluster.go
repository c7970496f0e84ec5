package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"tcss/internal/cluster"
	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/serve"
)

// numShards is the cluster shape: two shards, each a primary and one replica.
const numShards = 2

// clusterSpec is what a workload hands to deploy. The serving options are the
// defaults; the only settings are the deployment ones (ring, roles, Owns) plus
// growth on writable primaries.
type clusterSpec struct {
	primary func(shard int) (serve.Source, error) // each primary's snapshot source
	replica serve.Source                          // the replicas' bootstrap snapshot
	dist    *geo.DistanceMatrix                   // the replicas' local distance matrix
	grow    bool

	tracer *tracer                                        // nil outside --trace 1 runs
	wrap   func(name string, h http.Handler) http.Handler // optional node middleware (tests)
}

// snapView is what verification needs from one published snapshot.
type snapView struct {
	model *core.Model
	own   [][]int
}

// swapEvent is one OnSwap call, for replication lag.
type swapEvent struct {
	shard   int
	replica bool
	gen     uint64
	at      time.Time
}

// swapLog records every snapshot the primaries publish (for verification) and
// every swap on any node (for replication lag). OnSwap runs on each node's
// writer goroutine, hence the lock.
type swapLog struct {
	mu     sync.Mutex
	snaps  [numShards]map[uint64]snapView
	latest [numShards]*serve.Snapshot // each primary's newest snapshot
	events []swapEvent
}

func newSwapLog() *swapLog {
	l := &swapLog{}
	for i := range l.snaps {
		l.snaps[i] = make(map[uint64]snapView)
	}
	return l
}

func (l *swapLog) onSwap(shard int, replica bool) func(*serve.Snapshot) {
	return func(s *serve.Snapshot) {
		at := time.Now()
		l.mu.Lock()
		defer l.mu.Unlock()
		if !replica {
			l.snaps[shard][s.Gen] = snapView{model: s.Model, own: s.Side.OwnPOIs}
			l.latest[shard] = s
		}
		l.events = append(l.events, swapEvent{shard: shard, replica: replica, gen: s.Gen, at: at})
	}
}

func (l *swapLog) snapshot(shard int, gen uint64) (snapView, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.snaps[shard][gen]
	return v, ok
}

func (l *swapLog) latestSnapshots() [numShards]*serve.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latest
}

func (l *swapLog) swaps() []swapEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]swapEvent(nil), l.events...)
}

type node struct {
	name string
	srv  *serve.Server
	hs   *http.Server
	url  string
	repl *cluster.Replicator
}

// deployment is one running cluster: every node and the gateway on its own
// loopback listener, replicators polling their primaries.
type deployment struct {
	gwURL     string
	gwHS      *http.Server
	primaries [numShards]*node
	replicas  [numShards]*node
	shardIdx  map[string]int // shard name -> index, for the X-Shard header
	log       *swapLog

	stopRepl context.CancelFunc
	replWG   sync.WaitGroup
	servers  sync.WaitGroup
	closed   bool
}

func shardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// listen serves h on a fresh loopback port.
func (d *deployment) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	d.servers.Add(1)
	go func() {
		defer d.servers.Done()
		hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// deploy brings the cluster up and returns once the gateway reports healthy
// and every replica has synced once.
func deploy(spec clusterSpec) (d *deployment, err error) {
	names := make([]string, numShards)
	for i := range names {
		names[i] = shardName(i)
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		return nil, err
	}
	d = &deployment{shardIdx: make(map[string]int), log: newSwapLog()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	startNode := func(name string, shard int, role string, src serve.Source) (*node, error) {
		opts := serve.DefaultOptions()
		opts.ShardName, opts.Role = names[shard], role
		opts.Owns = ring.Owns(names[shard])
		opts.OnSwap = d.log.onSwap(shard, role == "replica")
		opts.Grow = spec.grow && role == "primary"
		srv, err := serve.NewFromSource(src, opts)
		if err != nil {
			return nil, err
		}
		h := srv.Handler()
		if spec.tracer != nil {
			h = spec.tracer.node(h)
		}
		if spec.wrap != nil {
			h = spec.wrap(name, h)
		}
		hs, url, err := d.listen(h)
		if err != nil {
			srv.Close()
			return nil, err
		}
		return &node{name: name, srv: srv, hs: hs, url: url}, nil
	}

	sets := make([]cluster.ShardSet, numShards)
	for i := range sets {
		d.shardIdx[names[i]] = i
		src, err := spec.primary(i)
		if err != nil {
			return d, err
		}
		if d.primaries[i], err = startNode(names[i], i, "primary", src); err != nil {
			return d, err
		}
		if d.replicas[i], err = startNode(names[i]+"-replica-1", i, "replica", spec.replica); err != nil {
			return d, err
		}
		d.replicas[i].repl = &cluster.Replicator{
			Server:  d.replicas[i].srv,
			Primary: d.primaries[i].url,
			Dist:    spec.dist,
		}
		sets[i] = cluster.ShardSet{Name: names[i], Primary: d.primaries[i].url, Replicas: []string{d.replicas[i].url}}
	}

	var gwOpts cluster.GatewayOptions
	if t := spec.tracer; t != nil {
		gwOpts.Client = &http.Client{Transport: &transport{t: t, name: spanAttempt, base: http.DefaultTransport}}
		for _, r := range d.replicas {
			r.repl.Client = &http.Client{Transport: &transport{t: t, name: spanSync, base: http.DefaultTransport}}
		}
	}
	gw, err := cluster.NewGateway(sets, gwOpts)
	if err != nil {
		return d, err
	}
	var gh http.Handler = gw.Handler()
	if spec.tracer != nil {
		gh = spec.tracer.gateway(gh)
	}
	if d.gwHS, d.gwURL, err = d.listen(gh); err != nil {
		return d, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, r := range d.replicas {
		if _, _, err := r.repl.SyncOnce(ctx); err != nil {
			return d, fmt.Errorf("replica %s first sync: %w", r.name, err)
		}
	}
	if err := waitHealthy(ctx, d.gwURL); err != nil {
		return d, err
	}
	rctx, stop := context.WithCancel(context.Background())
	d.stopRepl = stop
	for _, r := range d.replicas {
		d.replWG.Add(1)
		go func(r *cluster.Replicator) {
			defer d.replWG.Done()
			r.Run(rctx)
		}(r.repl)
	}
	return d, nil
}

// waitHealthy polls the gateway's /healthz until the cluster reports "ok".
func waitHealthy(ctx context.Context, gwURL string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, gwURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			var doc struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&doc)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && doc.Status == "ok" {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return errors.New("gateway never reported healthy")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stopBackground stops replication, so replays after the measurement run in
// a quiet process. The servers keep their last snapshots.
func (d *deployment) stopBackground() {
	if d.stopRepl != nil {
		d.stopRepl()
		d.stopRepl = nil
	}
	d.replWG.Wait()
}

// close stops replication, every listener and every server, and waits for
// all of them.
func (d *deployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	d.stopBackground()
	if d.gwHS != nil {
		d.gwHS.Close()
	}
	for _, set := range [][numShards]*node{d.primaries, d.replicas} {
		for _, n := range set {
			if n != nil {
				n.hs.Close()
				n.srv.Close()
			}
		}
	}
	d.servers.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}
