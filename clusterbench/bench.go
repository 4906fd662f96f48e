package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"innet/internal/cluster"
	"innet/internal/ingest"
	"innet/internal/loadgen"
)

// lagLimit is the ingest lag the sustained rate is defined by: a rate
// is sustained when every reading sent at it is observed and the 99th
// percentile of due-to-observed lag stays within this limit.
const lagLimit = 500 * time.Millisecond

// env is what one benchmark invocation was asked to do.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	workDir string // scratch space inside the checkout (WAL directories, span files)
}

func (e *env) dur(frac float64) time.Duration {
	return time.Duration(frac * e.seconds * float64(time.Second))
}

// report is what a workload measured.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string // correctness failures; any one fails the run
	notes     []string // human-readable detail printed before the result
	spans     []benchSpan
}

// all returns every metric the report holds, end-to-end and per-layer.
func (r *report) all() map[string]float64 {
	out := make(map[string]float64, len(r.e2e)+len(r.layer))
	for k, v := range r.layer {
		out[k] = v
	}
	for k, v := range r.e2e {
		out[k] = v
	}
	return out
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// clusterRun is one booted cluster plus the generator feeding it.
type clusterRun struct {
	env   *env
	c     *benchCluster
	g     *generator
	truth *truth
	smp   *sampler
	spans []benchSpan // the benchmark's own spans (traced runs)
}

// boot starts a cluster, waits until every shard is up and synced,
// and preloads the detector window from a fresh generator over the
// seeded trace. It returns how long that took: one setup_s sample.
func boot(e *env, opts clusterOpts, sc *loadgen.Scenario, linesPer int) (*clusterRun, time.Duration, error) {
	start := time.Now()
	opts.balance = sc.Fleet.Attached
	c, err := startCluster(opts)
	if err != nil {
		return nil, 0, err
	}
	s := &clusterRun{env: e, c: c, truth: &truth{}}
	if s.g, err = newGenerator(sc, c.frontAddr, s.truth, linesPer); err != nil {
		c.close()
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = c.waitHealthy(ctx)
	if err == nil {
		err = s.g.ingestWindow(c.coord, detectorDefaults.Window, func() error { return c.flush(ctx) })
	}
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return s, time.Since(start), nil
}

// refresh settles what the front door was sent, then replaces the whole
// union window through IngestBatch and waits until the shards have
// observed it; see generator.ingestWindow. It is not measured: callers
// snapshot their counters after it.
func (s *clusterRun) refresh(ctx context.Context) error {
	start := time.Now()
	defer s.truth.prune(s.g.dataTime() - detectorDefaults.Window - time.Duration(s.g.sc.Traffic.StepMS)*time.Millisecond)
	if err := s.settle(ctx, s.observedTarget()); err != nil {
		return err
	}
	err := s.g.ingestWindow(s.c.coord, detectorDefaults.Window, func() error { return s.c.flush(ctx) })
	s.addSpan("bench.refresh", 0, start, time.Now(), 0)
	return err
}

func (s *clusterRun) close() {
	if s.smp != nil {
		s.smp.stop()
	}
	s.g.close()
	s.c.close()
	// Hand the closed cluster's memory back before the next one boots,
	// so rss_peak_mb is one cluster's peak and not how much garbage of
	// the last one a collection happened to leave behind.
	debug.FreeOSMemory()
}

// addSpan records one of the benchmark's own spans (traced runs only)
// and returns its ID for children to point at.
func (s *clusterRun) addSpan(op string, parent int, start, end time.Time, trace uint64) int {
	if !s.env.traced {
		return 0
	}
	id := len(s.spans) + 1
	s.spans = append(s.spans, benchSpan{ID: id, Parent: parent, Op: op, Source: "bench", Trace: trace, Start: start, End: end})
	return id
}

// snap is a cumulative snapshot of every counter the per-layer metrics
// are differences of.
type snap struct {
	at       time.Time
	cpu      time.Duration
	front    frontDoorStats
	rcvbuf   uint64
	shards   []ingest.Stats
	coord    cluster.Stats
	pages    []promPage // coordinator first, then each shard
	gcPause  time.Duration
	observed uint64
}

func (s *clusterRun) snap() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn := snap{
		at:       time.Now(),
		cpu:      cpuTime(),
		front:    s.c.front.stats(),
		rcvbuf:   udpRcvbufErrors(),
		coord:    s.c.coord.Stats(),
		pages:    []promPage{scrape(s.c.coord.Handler())},
		gcPause:  time.Duration(ms.PauseTotalNs),
		observed: s.c.observed(),
	}
	for _, sh := range s.c.shards {
		sn.shards = append(sn.shards, sh.svc.Stats())
		sn.pages = append(sn.pages, scrape(sh.svc.Handler()))
	}
	return sn
}

// settle waits until the front door and the fleet stop making progress
// (everything sent is read and observed, or what is missing is lost),
// then flushes the shards. It returns when the cluster is quiescent.
func (s *clusterRun) settle(ctx context.Context, want uint64) error {
	var last uint64
	lastChange := time.Now()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		o := s.c.observed()
		if o >= want {
			break
		}
		if o != last {
			last, lastChange = o, time.Now()
		} else if time.Since(lastChange) > 300*time.Millisecond {
			break // nothing moved: the rest never arrived
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.smp != nil {
		s.smp.record()
	}
	return s.c.flush(ctx)
}

// checkpoint is one ground-truth check at a segment barrier: the
// generator is stopped on a step boundary, so every sensor clock stands
// at the same data time and the union window must hold exactly the sent
// readings within the detector window of it.
type checkpoint struct {
	exact     bool
	computeMS float64 // baseline.Compute over the checked window
}

func (s *clusterRun) checkpoint(ctx context.Context, r *report, allowMissing bool) checkpoint {
	start := time.Now()
	cp := checkpoint{}
	id := s.addSpan("bench.checkpoint", 0, start, start, 0)
	defer func() {
		if id > 0 {
			s.spans[id-1].End = time.Now()
		}
	}()
	fs := time.Now()
	if err := s.settle(ctx, s.observedTarget()); err != nil {
		r.problem("checkpoint flush: %v", err)
		return cp
	}
	s.addSpan("bench.flush", id, fs, time.Now(), 0)
	win, err := s.c.window(ctx)
	if err != nil {
		r.problem("checkpoint window snapshot: %v", err)
		return cp
	}
	wc := checkWindow(win, s.truth.expected(s.g.dataTime(), detectorDefaults.Window))
	ok := true
	if wc.unexpected > 0 {
		r.problem("checkpoint at %v: %d window points were never sent", s.g.dataTime(), wc.unexpected)
		ok = false
	}
	if wc.missing > 0 && !allowMissing {
		r.problem("checkpoint at %v: window lacks %d sent readings, e.g. %v", s.g.dataTime(), wc.missing, wc.sample)
		ok = false
	}
	bs := time.Now()
	want := expectedAnswer(wc.held)
	be := time.Now()
	cp.computeMS = ms(be.Sub(bs))
	s.addSpan("bench.baseline_compute", id, bs, be, 0)
	for _, mode := range []string{cluster.MergeCompact, cluster.MergeFull} {
		// A query that fails to answer is a failed operation, not an
		// inexact one: retry a few times, and if it never answers, the
		// checkpoint is not exact but the run's answers are not wrong.
		qc := newQueryClient(s.c.httpURL, mode)
		var rec queryRecord
		var res cluster.WireMergedEstimate
		for attempt := 0; attempt < 3; attempt++ {
			rec, res = qc.timed(ctx, time.Now())
			s.addSpan("bench.query."+mode, id, rec.start, rec.end, rec.trace)
			if rec.err == nil {
				break
			}
		}
		qc.close()
		if rec.err == nil && answerHook != nil {
			answerHook(mode, &res)
		}
		if rec.err != nil {
			r.note("checkpoint at %v, merge=%s never answered: %v", s.g.dataTime(), mode, rec.err)
			ok = false
			continue
		}
		if err := sameAnswer(res.Outliers, want); err != nil {
			r.problem("checkpoint at %v, merge=%s: %v", s.g.dataTime(), mode, err)
			ok = false
		}
	}
	cp.exact = ok
	return cp
}

// answerHook, when set, sees every checkpoint answer before it is
// checked; the tests use it to tamper with one.
var answerHook func(mode string, res *cluster.WireMergedEstimate)

// observedTarget is the observed count the fleet reaches once every
// reading sent so far is in: preload plus front door, once per reading.
func (s *clusterRun) observedTarget() uint64 { return s.truth.total }

// rung is one fixed-rate ingest segment and what became of it.
type rung struct {
	rate      float64
	datagrams int
	sent      int
	observed  int
	lags      []float64
	missing   int
	late      []float64
	elapsed   time.Duration // first due to last send
	sustained bool
}

// missedLagMS is the lag a never-observed reading counts as: ten times
// the limit, beyond it by construction, and finite so it prints.
const missedLagMS = 10 * float64(lagLimit/time.Millisecond)

func (g rung) lagP(q float64) float64 { return percentile(g.lags, q) }

// runRung sends at rate for d (ending on a step boundary), settles, and
// judges the rung against the sustained-rate conditions.
func (s *clusterRun) runRung(ctx context.Context, rate float64, d time.Duration) (rung, error) {
	base := s.c.observed()
	before := s.truth.total
	start := time.Now()
	grams, err := s.g.run(ctx, rate, d)
	if err != nil {
		return rung{}, err
	}
	g := rung{rate: rate, datagrams: len(grams), sent: int(s.truth.total - before)}
	defer s.truth.prune(s.g.dataTime() - detectorDefaults.Window - time.Duration(s.g.sc.Traffic.StepMS)*time.Millisecond)
	if err := s.settle(ctx, base+uint64(g.sent)); err != nil {
		return g, err
	}
	g.observed = int(min(s.c.observed()-base, uint64(g.sent)))
	g.lags, g.missing = readingLags(grams, base, s.smp.since(start))
	for _, gr := range grams {
		g.late = append(g.late, ms(gr.sent.Sub(gr.due)))
	}
	if len(grams) > 0 {
		g.elapsed = grams[len(grams)-1].sent.Sub(start)
	}
	g.sustained = g.observed == g.sent && g.missing == 0 && g.lagP(0.99) <= ms(lagLimit)
	return g, nil
}

// queryStats folds query records into the end-to-end query metrics.
// spells holds each query spell's completed queries per second (see
// spellQPS); query.qps is their median, so a stall of the shared host
// that slows a few spells does not move it.
func queryStats(r *report, recs []queryRecord, elapsed time.Duration, spells []float64) {
	var compact, full, compactBytes []float64
	var ok, failed int
	for _, q := range recs {
		if q.err != nil {
			failed++
			continue
		}
		ok++
		lat := ms(q.latency())
		switch q.mode {
		case cluster.MergeCompact:
			compact = append(compact, lat)
			compactBytes = append(compactBytes, float64(q.bytes))
		case cluster.MergeFull:
			full = append(full, lat)
		}
	}
	r.layer["query.compact_p50_ms"] = blockPercentile(compact, 0.5)
	r.layer["query.compact_p90_ms"] = blockPercentile(compact, 0.9)
	r.layer["query.full_p50_ms"] = blockPercentile(full, 0.5)
	r.layer["query.full_p90_ms"] = blockPercentile(full, 0.9)
	r.e2e["query.qps"] = median(spells)
	r.e2e["query.compact_bytes"] = mean(compactBytes)
	r.e2e["query.ok_frac"] = frac(ok, ok+failed)
	r.attempted += int64(ok + failed)
	r.failed += int64(failed)
	r.note("queries: %d compact, %d full, %d failed over %.1fs", len(compact), len(full), failed, elapsed.Seconds())
	if len(compact) < 100 || len(full) < 100 {
		r.note("warning: fewer than 100 samples in a mode; the p90 has fewer than 10 beyond it")
	}
	perAttempt := 2 * time.Second / 3 // -query-timeout / RetryAttempts
	var fallbacks, stalls, rounds, compactN, roundsN int
	for _, q := range recs {
		if q.err != nil {
			continue
		}
		switch q.mode {
		case cluster.MergeCompact:
			compactN++
			if q.served != cluster.MergeCompact {
				fallbacks++
			} else {
				rounds += q.rounds
				roundsN++
			}
		case cluster.MergeFull:
			if q.end.Sub(q.start) >= perAttempt {
				stalls++
			}
		}
	}
	r.layer["cluster.merge.fallback_frac"] = frac(fallbacks, compactN)
	r.layer["cluster.merge.full_stall_frac"] = frac(stalls, len(full))
	r.layer["cluster.merge.rounds_per_query"] = float64(rounds) / math.Max(1, float64(roundsN))
}

// layerStats fills the per-layer metrics that are counter differences
// between two snapshots.
func (s *clusterRun) layerStats(r *report, a, b snap) {
	wall := b.at.Sub(a.at)
	fd := b.front.busy - a.front.busy
	r.layer["cluster.frontdoor.busy_frac"] = fd.Seconds() / wall.Seconds()
	handled := s.c.front.takeHandled()
	var hms []float64
	for _, d := range handled {
		hms = append(hms, ms(d))
	}
	r.layer["cluster.frontdoor.datagram_p50_ms"] = percentile(hms, 0.5)
	r.layer["cluster.frontdoor.datagram_p99_ms"] = percentile(hms, 0.99)

	rpc := histDelta(`innetcoord_rpc_latency_seconds{op="readings"}`, a.pages[:1], b.pages[:1])
	r.layer["cluster.route.rpc_readings_p50_ms"] = 1000 * rpc.quantile(0.5)
	r.layer["cluster.route.rpc_readings_p99_ms"] = 1000 * rpc.quantile(0.99)
	routed := float64(b.coord.Routed - a.coord.Routed)
	r.layer["cluster.route.frames_per_1k"] = 1000 * float64(b.coord.Frames-a.coord.Frames) / math.Max(1, routed)

	qw := histDelta("innetd_queue_latency_seconds", a.pages[1:], b.pages[1:])
	r.layer["ingest.queue_wait_p50_ms"] = 1000 * qw.quantile(0.5)
	r.layer["ingest.queue_wait_p99_ms"] = 1000 * qw.quantile(0.99)
	ob := histDelta("innetd_observe_batch_seconds", a.pages[1:], b.pages[1:])
	r.layer["ingest.observe_batch_p50_ms"] = 1000 * ob.quantile(0.5)
	r.layer["ingest.observe_batch_p99_ms"] = 1000 * ob.quantile(0.99)
	r.layer["ingest.observe_busy_frac"] = ob.sum / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))

	var obs, batches, dropped, stale, malformed uint64
	for i := range b.shards {
		obs += b.shards[i].Observed - a.shards[i].Observed
		batches += b.shards[i].Batches - a.shards[i].Batches
		dropped += b.shards[i].Dropped - a.shards[i].Dropped
		stale += b.shards[i].Stale - a.shards[i].Stale
		malformed += b.shards[i].Malformed - a.shards[i].Malformed
	}
	r.layer["ingest.readings_per_batch"] = float64(obs) / math.Max(1, float64(batches))
	r.layer["ingest.dropped"] = float64(dropped)
	r.layer["ingest.stale"] = float64(stale)
	r.layer["ingest.malformed"] = float64(malformed + (b.coord.Rejected - a.coord.Rejected))
	r.layer["proc.gc_pause_ms"] = ms(b.gcPause - a.gcPause)

	// The store layer: appends on every shard and the coordinator.
	app := histDelta("innetd_wal_append_seconds", a.pages[1:], b.pages[1:])
	capp := histDelta("innetcoord_wal_append_seconds", a.pages[:1], b.pages[:1])
	mergeHist(app, capp)
	r.layer["store.append_p50_ms"] = 1000 * app.quantile(0.5)
	r.layer["store.append_p99_ms"] = 1000 * app.quantile(0.99)
	comp := histDelta("innetd_wal_compact_seconds", a.pages[1:], b.pages[1:])
	mergeHist(comp, histDelta("innetcoord_wal_compact_seconds", a.pages[:1], b.pages[:1]))
	r.layer["store.compact_ms"] = 1000 * comp.sum / math.Max(1, comp.count)
	walBytes := sampleDelta("innetd_wal_bytes_total", a.pages[1:], b.pages[1:]) +
		sampleDelta("innetcoord_wal_bytes_total", a.pages[:1], b.pages[:1])
	r.layer["store.bytes_per_reading"] = walBytes / math.Max(1, float64(b.observed-a.observed))
}

// mergeHist adds o into h (same bucket layout, or h empty).
func mergeHist(h, o *promHist) {
	if len(o.cum) == 0 {
		return
	}
	if len(h.cum) == 0 {
		*h = *o
		return
	}
	for i := range h.cum {
		h.cum[i] += o.cum[i]
	}
	h.sum += o.sum
	h.count += o.count
}

// mergeTraceStats reads the coordinator's recorded compact sessions.
func (s *clusterRun) mergeTraceStats(r *report) {
	var bytes, rounds int
	var rtts []float64
	for _, t := range s.c.coord.MergeTraces() {
		for _, rd := range t.Rounds {
			rounds++
			bytes += rd.Bytes
			for _, sh := range rd.Shards {
				rtts = append(rtts, sh.RTTMS)
			}
		}
	}
	r.layer["cluster.merge.bytes_per_round"] = float64(bytes) / math.Max(1, float64(rounds))
	r.layer["cluster.merge.round_rtt_p50_ms"] = percentile(rtts, 0.5)
	r.layer["cluster.merge.round_rtt_p99_ms"] = percentile(rtts, 0.99)
}

// spellQPS is one spell's answered queries per second over the time its
// clients ran.
func spellQPS(recs []queryRecord, ran time.Duration) float64 {
	ok := 0
	for _, q := range recs {
		if q.err == nil {
			ok++
		}
	}
	return float64(ok) / ran.Seconds()
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// maxBlocks bounds how many blocks blockPercentile splits samples into.
const maxBlocks = 5

// blockPercentile is the end-to-end percentile: it splits time-ordered
// samples into as many equal blocks (at most maxBlocks) as leave at
// least ten samples beyond the q-quantile in each, takes the quantile
// of every block, and returns the median of those. One stall of the
// shared host moves one block, not the figure.
func blockPercentile(xs []float64, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	b := min(max(len(xs)/need, 1), maxBlocks)
	size := len(xs) / b
	var per []float64
	for i := 0; i < b; i++ {
		end := (i + 1) * size
		if i == b-1 {
			end = len(xs)
		}
		per = append(per, percentile(xs[i*size:end], q))
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// parseNsPerLine times ingest.ParseLine over the sent lines the ground
// truth still holds (at least a window's worth).
func parseNsPerLine(t *truth) float64 {
	lines := make([][]byte, 0, len(t.sent))
	for _, ev := range t.sent {
		lines = append(lines, appendLine(nil, ev))
	}
	if len(lines) == 0 {
		return 0
	}
	start := time.Now()
	for _, l := range lines {
		if _, err := ingest.ParseLine(l[:len(l)-1]); err != nil {
			return math.NaN()
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(lines))
}

// goroutinePeak samples the goroutine count until stopped.
type goroutinePeak struct {
	stopCh chan struct{}
	done   chan int
}

func startGoroutinePeak() *goroutinePeak {
	p := &goroutinePeak{stopCh: make(chan struct{}), done: make(chan int, 1)}
	go func() {
		peak := 0
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			peak = max(peak, runtime.NumGoroutine())
			select {
			case <-p.stopCh:
				p.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *goroutinePeak) stop() int {
	close(p.stopCh)
	return <-p.done
}

func lateP99(rungs []rung) float64 {
	var late []float64
	for _, g := range rungs {
		late = append(late, g.late...)
	}
	return percentile(late, 0.99)
}

// makeWorkDir creates a fresh directory under the checkout's build
// directory ($CARGO_TARGET_DIR, default .bench_build) for WAL files,
// span output and the result file.
func makeWorkDir() (string, error) {
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	root := filepath.Join(build, "clusterbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
