package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"innet/internal/cluster"
	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/store"
)

// The daemons' default flag values (cmd/innetd, cmd/innet-coord). The
// benchmark runs the cluster exactly as an operator who passes no tuning
// flags would, so a change to a default shows up here as a change in
// behaviour rather than being hidden by a benchmark-side override.
var detectorDefaults = core.Config{
	Ranker: core.KNN{K: 2}, // -ranker knn -k 2
	N:      2,              // -n 2
	Window: 10 * time.Minute,
}

const shardCount = 2

// clusterOpts selects what differs between workloads.
type clusterOpts struct {
	replicas int
	dataDir  string // non-empty: a store.File WAL under the coordinator and each shard
	traced   bool   // route every program span into in-memory sinks
	// balance, when positive and replicas < shardCount, picks the shards'
	// control ports so that sensors 1..balance split evenly between them
	// (see balanced).
	balance int
}

// benchShard is one `innetd -shard` equivalent: an ingest fleet behind
// the shard-control listener.
type benchShard struct {
	svc   *ingest.Service
	srv   *cluster.ShardServer
	st    *store.File
	sink  *spanSink
	serve chan error
}

// benchCluster is one coordinator and two shards inside this process,
// wired as the daemons wire them: shard control is UDP on loopback, the
// line-protocol front door is UDP on loopback, and the HTTP API is TCP
// on loopback. Nothing is short-circuited, so kernel buffers, loss and
// round trips show.
type benchCluster struct {
	opts   clusterOpts
	coord  *cluster.Coordinator
	shards []*benchShard

	coordStore *store.File
	coordSink  *spanSink

	front     *frontDoor
	frontAddr string
	udpServe  chan error

	httpSrv  *http.Server
	httpURL  string
	httpDone chan error
}

func startCluster(opts clusterOpts) (c *benchCluster, err error) {
	c = &benchCluster{opts: opts}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	var addrs []string
	for i := 0; i < shardCount; i++ {
		sh := &benchShard{}
		c.shards = append(c.shards, sh)
		cfg := ingest.Config{
			Detector:   detectorDefaults,
			QueueDepth: 256,  // -queue
			MaxBatch:   64,   // -batch
			AutoJoin:   true, // -autojoin
			MaxSensors: 1024, // -max-sensors
		}
		if opts.dataDir != "" {
			if sh.st, err = store.Open(store.Config{Dir: filepath.Join(opts.dataDir, fmt.Sprintf("shard%d", i))}); err != nil {
				return c, err
			}
			cfg.Store = sh.st
		}
		if opts.traced {
			sh.sink = newSpanSink()
			cfg.TraceSink = sh.sink
		}
		if sh.svc, err = ingest.New(cfg); err != nil {
			return c, err
		}
		if sh.srv, err = listenShard(sh.svc, addrs, i == shardCount-1 && opts.replicas < shardCount, opts.balance); err != nil {
			return c, err
		}
		sh.serve = make(chan error, 1)
		go func(sh *benchShard) { sh.serve <- sh.srv.Serve() }(sh)
		addrs = append(addrs, sh.srv.Addr())
	}

	cfg := cluster.Config{
		Detector:       detectorDefaults,
		Shards:         addrs,
		Replicas:       opts.replicas,
		MergeMode:      cluster.MergeCompact, // -merge
		MergeRounds:    16,                   // -merge-rounds
		QueryTimeout:   2 * time.Second,      // -query-timeout
		HealthInterval: 500 * time.Millisecond,
	}
	if opts.dataDir != "" {
		if c.coordStore, err = store.Open(store.Config{Dir: filepath.Join(opts.dataDir, "coord")}); err != nil {
			return c, err
		}
		cfg.Store = c.coordStore
	}
	if opts.traced {
		c.coordSink = newSpanSink()
		cfg.TraceSink = c.coordSink
	}
	if c.coord, err = cluster.New(cfg); err != nil {
		return c, err
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return c, err
	}
	c.front = newFrontDoor(pc, opts.traced)
	c.frontAddr = pc.LocalAddr().String()
	c.udpServe = make(chan error, 1)
	go func() { c.udpServe <- c.coord.ServeUDP(c.front) }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return c, err
	}
	c.httpURL = "http://" + ln.Addr().String()
	c.httpSrv = &http.Server{Handler: c.coord.Handler()}
	c.httpDone = make(chan error, 1)
	go func() { c.httpDone <- c.httpSrv.Serve(ln) }()
	return c, nil
}

// listenShard binds a shard's control listener on a free loopback port.
// With last set and balance positive it binds until, together with the
// shards already bound, sensors 1..balance split evenly between the
// shards. Placement is rendezvous hashing over the control addresses, so
// on random ports two shards split four sensors 2/2 with probability
// 3/8 and 4/0 with 1/8: a cluster whose second shard holds nothing,
// where a compact merge costs a fraction of what it costs on the
// balanced one. The workloads fix the balanced split so every boot
// measures the same topology.
func listenShard(svc *ingest.Service, bound []string, last bool, balance int) (*cluster.ShardServer, error) {
	for try := 0; ; try++ {
		srv, err := cluster.NewShardServer(cluster.ShardServerConfig{
			Service:          svc,
			Addr:             "127.0.0.1:0",
			MaxMergeSessions: 8, // -merge-sessions
		})
		if err != nil || !last || balance <= 0 || balanced(append(slices.Clone(bound), srv.Addr()), balance) {
			return srv, err
		}
		_ = srv.Close()
		if try == 64 {
			return nil, fmt.Errorf("no port split sensors 1..%d evenly over %d shards in %d tries", balance, len(bound)+1, try+1)
		}
	}
}

// balanced reports whether sensors 1..n split evenly over the shards at
// addrs with one replica each.
func balanced(addrs []string, n int) bool {
	m := cluster.NewShardMap(addrs)
	owned := map[string]int{}
	for id := 1; id <= n; id++ {
		owned[m.Owners(core.NodeID(id), 1)[0]]++
	}
	for _, a := range addrs {
		if owned[a] != n/len(addrs) {
			return false
		}
	}
	return true
}

// close stops every listener and goroutine the cluster started and
// waits for them, in the daemons' shutdown order.
func (c *benchCluster) close() {
	if c.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = c.httpSrv.Shutdown(ctx) // a stuck handler is cut off by Close below
		cancel()
		_ = c.httpSrv.Close()
		<-c.httpDone
	}
	if c.front != nil {
		_ = c.front.Close()
		<-c.udpServe
	}
	if c.coord != nil {
		_ = c.coord.Close()
	}
	for _, sh := range c.shards {
		if sh.srv != nil {
			_ = sh.srv.Close()
			<-sh.serve
		}
		if sh.svc != nil {
			_ = sh.svc.Close()
		}
		if sh.st != nil {
			_ = sh.st.Close()
		}
	}
	if c.coordStore != nil {
		_ = c.coordStore.Close()
	}
}

// observed is how many readings the fleet has fed into detectors,
// counted once per reading: with every shard holding every reading
// (replicas == shards) a reading counts when the slowest shard observed
// it, with replicas == 1 the shards' counts add up.
func (c *benchCluster) observed() uint64 {
	var sum, least uint64
	for i, sh := range c.shards {
		o := sh.svc.Stats().Observed
		sum += o
		if i == 0 || o < least {
			least = o
		}
	}
	if c.opts.replicas >= len(c.shards) {
		return least
	}
	return sum
}

// flush waits until every shard has observed everything it accepted.
func (c *benchCluster) flush(ctx context.Context) error {
	for _, sh := range c.shards {
		if err := sh.svc.Flush(ctx); err != nil {
			return err
		}
	}
	return nil
}

// window returns the union of the shards' sliding windows, deduplicated
// by point ID — what the full merge path computes over.
func (c *benchCluster) window(ctx context.Context) ([]core.Point, error) {
	union := core.NewSet()
	for _, sh := range c.shards {
		pts, err := sh.svc.Snapshot(ctx)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			union.AddMinHop(p)
		}
	}
	return union.Points(), nil
}

// waitHealthy blocks until every shard has answered a traced health
// probe and acknowledged the current shard map. The first health round
// re-ASSIGNs every shard and hands windows off between replicas;
// readings ingested while that handoff runs can vanish from the window
// (README.md, "Known defects"), so traffic starts only after it.
func (c *benchCluster) waitHealthy(ctx context.Context) error {
	for {
		infos := c.coord.ShardInfos()
		ok := len(infos) == len(c.shards)
		for _, in := range infos {
			ok = ok && in.Up && in.Traced && in.Synced
		}
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("shards never reported healthy")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
