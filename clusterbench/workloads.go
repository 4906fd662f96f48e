package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"innet/internal/loadgen"
)

// workload is one traffic mix. Every workload boots the same cluster
// shape, preloads the detector window to its plateau, and ends each
// segment with a ground-truth checkpoint.
type workload struct {
	name string
	why  string
	run  func(e *env) (*report, error)
}

var workloads = []workload{
	{"firehose", "write path only: an open-loop line-protocol rate ladder finds the sustained ingest rate while the merge path is idle", runFirehose},
	{"dashboard", "read path: two closed-loop HTTP clients (compact, full) over a plateau window that a trickle keeps changing", runDashboard},
	{"durable_mixed", "writes beside reads: churn/loss trace, 2 replicas, WAL on every node, open-loop queries over a 6k-point window", runDurableMixed},
}

// Every workload uses the daemons' 10-minute window and a 6 s data-time
// step, so the union window plateaus at (window/step + 1) = 101 steps of
// the fleet: 101 × 20 = 2 020 points for firehose and dashboard.
//
// Both regimes burst at 0.3%, three times the checked-in scenarios'
// rate: with fewer, whether the window holds at least n bursts depends
// on the seed, and that alone moved the detector's gossip cost — and
// every figure with it — by up to 2× between seeds. Four physical IDs
// keep each shard's peer clique small for the same reason.
const stepMS = 6000

func steadyScenario(seed uint64) *loadgen.Scenario {
	sc := &loadgen.Scenario{
		Name:     "steady",
		Seed:     seed,
		Fleet:    loadgen.FleetConfig{Sensors: 20, Attached: 4},
		Traffic:  loadgen.TrafficConfig{DurationS: 1, StepMS: stepMS},
		Regime:   loadgen.RegimeConfig{Kind: "steady", Base: 20, Noise: 0.4},
		Burst:    &loadgen.BurstConfig{Rate: 0.003, Offset: 150},
		Detector: loadgen.DetectorConfig{Ranker: "knn", K: 2, N: 2, WindowS: 600},
	}
	mustValidate(sc)
	return sc
}

// churnLossScenario is the checked-in churnloss regime (diurnal values,
// bursts, 1% churn, 8% loss the harness never sends) on a fleet sized
// so the window plateaus near 6 200 points, 3.1× firehose's. With two
// replicas every shard holds the whole window, and at that size about
// four in ten full-mode queries stall for one retry timeout (README.md,
// "Known defects").
func churnLossScenario(seed uint64) *loadgen.Scenario {
	sc := &loadgen.Scenario{
		Name:     "churnloss",
		Seed:     seed,
		Fleet:    loadgen.FleetConfig{Sensors: 70, Attached: 4},
		Traffic:  loadgen.TrafficConfig{DurationS: 1, StepMS: stepMS},
		Regime:   loadgen.RegimeConfig{Kind: "diurnal", Base: 20, Noise: 0.4, Amplitude: 3, PeriodS: 86400},
		Burst:    &loadgen.BurstConfig{Rate: 0.003, Offset: 150},
		Churn:    &loadgen.ChurnConfig{DownRate: 0.01, MinDownSteps: 2, MaxDownSteps: 6},
		Loss:     &loadgen.LossConfig{Rate: 0.08},
		Detector: loadgen.DetectorConfig{Ranker: "knn", K: 2, N: 2, WindowS: 600},
	}
	mustValidate(sc)
	return sc
}

func mustValidate(sc *loadgen.Scenario) {
	if err := sc.Validate(); err != nil {
		panic(err) // the scenarios are constants of this file
	}
}

// Firehose ladder: 1.25× steps from below the nominal rate until a step
// fails, then two geometric bisection steps between the last passing
// and the first failing rate, so the sustained rate resolves to ~6%.
const (
	ladderStart  = 800.0
	nominalRate  = 1000.0
	ladderFactor = 1.25
	ladderMax    = 24
	bisections   = 2
)

func runFirehose(e *env) (*report, error) {
	r := newReport()
	// Every part boots its own cluster on its own derived seed and runs
	// the two query clients beside a trickle (as on dashboard) over
	// windowsPerPart windows, before any ladder traffic: the merge path
	// is measured over forty windows without touching the write-path
	// figures. The last part's cluster then climbs the ladder.
	var setups []float64
	var recs []queryRecord
	var qElapsed time.Duration
	var qps []float64
	var s *clusterRun
	spell := e.dur(0.07 / windowsPerPart)
	for i := 0; i < parts; i++ {
		if s != nil {
			s.finishSpans(r)
			s.close()
		}
		var d time.Duration
		var err error
		if s, d, err = boot(e, clusterOpts{replicas: 1, traced: e.traced}, steadyScenario(partSeed(e.seed, i)), 25); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		for w := 0; w < windowsPerPart; w++ {
			if w > 0 {
				if err := s.refresh(context.Background()); err != nil {
					s.close()
					return nil, err
				}
			}
			ql := startQueries(s.c.httpURL, 0, 0)
			_, err = s.g.run(context.Background(), dashboardTrickle, spell)
			winRecs, ran := ql.stop()
			if err != nil {
				s.close()
				return nil, err
			}
			qElapsed += ran
			qps = append(qps, spellQPS(winRecs, ran))
			recs = append(recs, winRecs...)
			s.recordQuerySpans(winRecs)
		}
	}
	defer s.close()
	r.e2e["setup_s"] = median(setups)
	r.note("setup_s samples: %v", setups)
	queryStats(r, recs, qElapsed, qps)
	s.mergeTraceStats(r)
	s.smp = startSampler(s.c.observed)
	ctx := context.Background()
	if err := s.settle(ctx, s.observedTarget()); err != nil {
		return nil, err
	}
	gp := startGoroutinePeak()
	first := s.snap()

	var rungs []rung
	climb := func(rate float64, d time.Duration) (rung, error) {
		g, err := s.runRung(ctx, rate, d)
		if err == nil {
			rungs = append(rungs, g)
			r.note("rung %7.0f/s: sent %6d observed %6d lag p50 %7.1fms p99 %7.1fms sustained=%v",
				g.rate, g.sent, g.observed, g.lagP(0.5), g.lagP(0.99), g.sustained)
		}
		return g, err
	}

	if _, err := climb(ladderStart, e.dur(0.04)); err != nil {
		return nil, err
	}
	a := s.snap()
	s.c.front.takeHandled()
	nom, err := climb(nominalRate, e.dur(0.2))
	if err != nil {
		return nil, err
	}
	b := s.snap()
	s.layerStats(r, a, b)
	r.layer["ingest.lag_p50_ms"] = blockPercentile(nom.lags, 0.5)
	r.layer["ingest.lag_p99_ms"] = blockPercentile(nom.lags, 0.99)
	r.layer["ingest.cpu_ms_per_1k"] = 1000 * ms(b.cpu-a.cpu) / math.Max(1, float64(nom.observed))

	var best *rung
	for _, g := range rungs {
		if !g.sustained {
			break
		}
		g := g
		best = &g
	}
	failRate := 0.0
	if best != nil && best.rate == nominalRate {
		rate := nominalRate * ladderFactor
		for i := 0; i < ladderMax; i++ {
			g, err := climb(rate, e.dur(0.04))
			if err != nil {
				return nil, err
			}
			if !g.sustained {
				failRate = rate
				break
			}
			best = &g
			rate *= ladderFactor
		}
		lo, hi := best.rate, failRate
		for k := 0; k < bisections && hi > 0; k++ {
			mid := math.Sqrt(lo * hi)
			g, err := climb(mid, e.dur(0.04))
			if err != nil {
				return nil, err
			}
			if g.sustained {
				lo, best = mid, &g
			} else {
				hi = mid
			}
		}
	}
	// A final step below capacity brings every sensor clock to the same
	// data time with nothing lost, so the checkpoint's window is exact.
	if _, err := climb(ladderStart, e.dur(0.04)); err != nil {
		return nil, err
	}
	last := s.snap()

	if best != nil {
		r.layer["ingest.sustained_rps"] = float64(best.observed) / best.elapsed.Seconds()
	} else {
		r.layer["ingest.sustained_rps"] = 0
	}
	// Readings sent at or below the nominal rate must all arrive; each is
	// an operation and a lost one fails. The steps above it probe for
	// capacity, and the loss where they cross it is what they measure:
	// it lowers ingest.delivered_frac and ends the climb, but is not a
	// failed operation, so how far past the knee a run happens to land
	// does not move the failure count.
	var sent, observed, opSent, opObserved int
	for _, g := range rungs {
		sent += g.sent
		observed += g.observed
		if g.rate <= nominalRate {
			opSent += g.sent
			opObserved += g.observed
		}
	}
	r.e2e["ingest.delivered_frac"] = frac(observed, sent)
	r.attempted += int64(opSent)
	r.failed += int64(opSent - opObserved)
	r.layer["cluster.frontdoor.read_frac"] = frac(int(last.front.reads-first.front.reads), datagramsSent(rungs))
	r.layer["cluster.frontdoor.kernel_drops"] = float64(last.rcvbuf - first.rcvbuf)
	var dropped uint64
	for i := range last.shards {
		dropped += last.shards[i].Dropped - first.shards[i].Dropped
	}
	r.layer["ingest.dropped"] = float64(dropped)
	r.layer["loadgen.late_p99_ms"] = lateP99(rungs)
	r.note("ladder: sustained %.0f/s, first failing rate %.0f/s, %d of %d readings never observed, kernel drops %d",
		r.layer["ingest.sustained_rps"], failRate, sent-observed, sent, last.rcvbuf-first.rcvbuf)

	cp := s.checkpoint(ctx, r, true)
	r.attempted++
	if !cp.exact {
		r.failed++
	}
	r.e2e["exact_frac"] = frac(boolInt(cp.exact), 1)
	r.layer["core.baseline_compute_ms"] = cp.computeMS
	r.layer["proc.goroutines"] = float64(gp.stop())
	r.layer["ingest.parse_ns_per_line"] = parseNsPerLine(s.truth)
	r.e2e["rss_peak_mb"] = peakRSSMB()
	s.finishSpans(r)
	if e.traced {
		spanLayerMetrics(r, r.spans)
	}
	return r, nil
}

func datagramsSent(rungs []rung) int {
	n := 0
	for _, g := range rungs {
		n += g.datagrams
	}
	return n
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// parts is how many independent clusters a run measures, each booted
// and preloaded from its own seed derived from --seed. Each boot is also
// a setup_s sample.
const parts = 5

func partSeed(seed uint64, i int) uint64 { return seed*parts + uint64(i) }

// windowsPerPart is how many distinct windows the query clients meet on
// each part of firehose and dashboard: the preloaded one, then windows
// the generator replaces whole (clusterRun.refresh). What a window
// happens to hold — how many bursts, and how they sit — decides what a
// merge costs: from one window to the next the mean compact payload
// moved by a quarter (CV 0.23–0.29 over 16 windows), so a run pools
// forty windows rather than betting on five.
const windowsPerPart = 8

// mixed runs the shared shape of dashboard and durable_mixed. Each part
// boots a cluster and measures windows windows. On each, the query
// clients run while the generator sends at a fixed rate for one
// segment, which ends in a checkpoint; the next window is then refreshed
// whole. The segments together last the measured share of --seconds;
// refreshes and checkpoints fall outside them. Latencies and counts are
// pooled over every window; per-layer figures are the median of the
// windows'.
func mixed(e *env, opts clusterOpts, scen func(uint64) *loadgen.Scenario, linesPer, windows int, measured, rate, compactPerSecond, fullPerSecond float64) (*report, error) {
	r := newReport()
	var (
		setups   []float64
		recs     []queryRecord
		qElapsed time.Duration
		qps      []float64
		rungs    []rung
		exact    int
		compute  []float64
		cpu      time.Duration
		layers   []map[string]float64
		peak     int
	)
	ctx := context.Background()
	segment := e.dur(measured / float64(parts*windows))
	for i := 0; i < parts; i++ {
		o := opts
		if o.dataDir != "" {
			o.dataDir = filepath.Join(o.dataDir, fmt.Sprintf("part%d", i))
		}
		s, d, err := boot(e, o, scen(partSeed(e.seed, i)), linesPer)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		err = func() error {
			defer s.close()
			s.smp = startSampler(s.c.observed)
			gp := startGoroutinePeak()
			defer func() { peak = max(peak, gp.stop()) }()
			first := s.snap()
			for w := 0; w < windows; w++ {
				if w > 0 {
					if err := s.refresh(ctx); err != nil {
						return err
					}
				}
				pr := newReport()
				a := s.snap()
				ql := startQueries(s.c.httpURL, compactPerSecond, fullPerSecond)
				g, err := s.runRung(ctx, rate, segment)
				winRecs, ran := ql.stop()
				qElapsed += ran
				qps = append(qps, spellQPS(winRecs, ran))
				if err != nil {
					return err
				}
				b := s.snap()
				cpu += b.cpu - a.cpu
				recs = append(recs, winRecs...)
				rungs = append(rungs, g)
				s.recordQuerySpans(winRecs)
				s.layerStats(pr, a, b)
				s.mergeTraceStats(pr)
				pr.layer["cluster.frontdoor.read_frac"] = frac(int(b.front.reads-a.front.reads), g.datagrams)
				pr.layer["cluster.frontdoor.kernel_drops"] = float64(b.rcvbuf - a.rcvbuf)
				pr.layer["ingest.parse_ns_per_line"] = parseNsPerLine(s.truth)
				layers = append(layers, pr.layer)
				cp := s.checkpoint(ctx, r, false)
				exact += boolInt(cp.exact)
				compute = append(compute, cp.computeMS)
			}
			last := s.snap()
			r.note("part %d: coordinator flaps %d, reroutes %d, handoff points %d, failed %d, stale %d", i,
				last.coord.Flaps-first.coord.Flaps, last.coord.Reroutes-first.coord.Reroutes, last.coord.HandoffPoints-first.coord.HandoffPoints,
				last.coord.Failed-first.coord.Failed, last.coord.Stale-first.coord.Stale)
			s.finishSpans(r)
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}

	r.e2e["setup_s"] = median(setups)
	r.note("setup_s samples: %v", setups)
	var sent, observed, sustained int
	var lags []float64
	var sustainedTime time.Duration
	for _, g := range rungs {
		sent += g.sent
		observed += g.observed
		lags = append(lags, g.lags...)
		if g.sustained {
			sustained += g.observed
			sustainedTime += g.elapsed
		}
	}
	checkpoints := parts * windows
	r.layer["ingest.sustained_rps"] = float64(sustained) / math.Max(1e-9, sustainedTime.Seconds())
	r.layer["ingest.lag_p50_ms"] = blockPercentile(lags, 0.5)
	r.layer["ingest.lag_p99_ms"] = blockPercentile(lags, 0.99)
	r.e2e["ingest.delivered_frac"] = frac(observed, sent)
	r.layer["ingest.cpu_ms_per_1k"] = 1000 * ms(cpu) / math.Max(1, float64(observed))
	r.e2e["exact_frac"] = frac(exact, checkpoints)
	r.attempted += int64(sent + checkpoints)
	r.failed += int64(sent - observed + checkpoints - exact)
	for _, k := range layerKeys(layers) {
		var xs []float64
		for _, l := range layers {
			xs = append(xs, l[k])
		}
		r.layer[k] = median(xs)
	}
	queryStats(r, recs, qElapsed, qps)
	r.layer["core.baseline_compute_ms"] = median(compute)
	r.layer["loadgen.late_p99_ms"] = lateP99(rungs)
	r.layer["proc.goroutines"] = float64(peak)
	r.e2e["rss_peak_mb"] = peakRSSMB()
	r.note("segments: %d readings sent at %.0f/s, %d observed, %d/%d checkpoints exact", sent, rate, observed, exact, checkpoints)
	if e.traced {
		spanLayerMetrics(r, r.spans)
	}
	return r, nil
}

func layerKeys(layers []map[string]float64) []string {
	seen := map[string]float64{}
	for _, l := range layers {
		for k := range l {
			seen[k] = 0
		}
	}
	return sortedKeys(seen)
}

// dashboardTrickle keeps the window changing under the dashboard's
// queries, in 2-line datagrams so the lag percentiles rest on many
// independent sends.
const dashboardTrickle = 200.0

func runDashboard(e *env) (*report, error) {
	return mixed(e, clusterOpts{replicas: 1, traced: e.traced}, steadyScenario, 2, windowsPerPart, 0.8, dashboardTrickle, 0, 0)
}

// durableRate is well below the sustained rate firehose measures even
// on the smaller window. durableCompact and durableFull are the modes'
// open-loop query rates; full queries run slower because each one makes
// both shards ship the whole window, and overlapping snapshots are what
// turns one stall into two. durable_mixed refreshes no window: it meets
// one window per part, the preloaded one, and sends at durableRate
// throughout, since a whole-window refresh is a burst far above
// durableRate.
const (
	durableRate    = 100.0
	durableCompact = 6.0
	durableFull    = 4.0
)

func runDurableMixed(e *env) (*report, error) {
	return mixed(e, clusterOpts{replicas: 2, dataDir: filepath.Join(e.workDir, "wal"), traced: e.traced},
		churnLossScenario, 25, 1, 0.7, durableRate, durableCompact, durableFull)
}
