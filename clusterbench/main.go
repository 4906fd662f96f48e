// Command clusterbench is the repository's benchmark: it runs one
// coordinator and two shards in this process over real loopback
// sockets, drives one workload from the seeded loadgen trace, checks
// every answer against ground truth, and prints every metric by name and
// unit, ending with one JSON line:
//
//	go run . --workload firehose --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit string
}

// endToEnd is printed with --trace 0, every workload; the traced run
// prints perLayer. BENCHMARK.json lists the same names and units.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ingest.delivered_frac", "frac"},
	{"query.qps", "1/s"},
	{"query.compact_bytes", "bytes"},
	{"query.ok_frac", "frac"},
	{"exact_frac", "frac"},
	{"rss_peak_mb", "MB"},
}

// perLayer also carries the end-to-end figures whose spread from seed
// to seed exceeded the largest bound an end-to-end metric may have
// (README.md, "End-to-end metrics"): they are printed, not gated.
var perLayer = []metricSpec{
	{"ingest.sustained_rps", "1/s"},
	{"ingest.lag_p50_ms", "ms"},
	{"ingest.lag_p99_ms", "ms"},
	{"ingest.cpu_ms_per_1k", "ms"},
	{"query.compact_p50_ms", "ms"},
	{"query.compact_p90_ms", "ms"},
	{"query.full_p50_ms", "ms"},
	{"query.full_p90_ms", "ms"},
	{"cluster.frontdoor.busy_frac", "frac"},
	{"cluster.frontdoor.datagram_p50_ms", "ms"},
	{"cluster.frontdoor.datagram_p99_ms", "ms"},
	{"cluster.frontdoor.read_frac", "frac"},
	{"cluster.frontdoor.kernel_drops", "count"},
	{"cluster.route.rpc_readings_p50_ms", "ms"},
	{"cluster.route.rpc_readings_p99_ms", "ms"},
	{"cluster.route.frames_per_1k", "count"},
	{"ingest.parse_ns_per_line", "ns"},
	{"ingest.queue_wait_p50_ms", "ms"},
	{"ingest.queue_wait_p99_ms", "ms"},
	{"ingest.observe_batch_p50_ms", "ms"},
	{"ingest.observe_batch_p99_ms", "ms"},
	{"ingest.observe_busy_frac", "frac"},
	{"ingest.readings_per_batch", "count"},
	{"ingest.dropped", "count"},
	{"ingest.stale", "count"},
	{"ingest.malformed", "count"},
	{"proc.goroutines", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"cluster.merge.rounds_per_query", "count"},
	{"cluster.merge.bytes_per_round", "bytes"},
	{"cluster.merge.round_rtt_p50_ms", "ms"},
	{"cluster.merge.round_rtt_p99_ms", "ms"},
	{"cluster.merge.fallback_frac", "frac"},
	{"cluster.merge.full_stall_frac", "frac"},
	{"cluster.shard.session_hit_frac", "frac"},
	{"cluster.shard.sufficient_replay_frac", "frac"},
	{"cluster.http_ms", "ms"},
	{"store.append_p50_ms", "ms"},
	{"store.append_p99_ms", "ms"},
	{"store.compact_ms", "ms"},
	{"store.bytes_per_reading", "bytes"},
	{"core.baseline_compute_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead.lag_p50_frac", "frac"},
	{"trace.overhead.compact_p50_frac", "frac"},
	{"trace.overhead.qps_frac", "frac"},
	{"trace.overhead.cpu_ms_per_1k_frac", "frac"},
}

// overheadOf maps the overhead metrics to the end-to-end metric whose
// traced-vs-untraced change they report.
var overheadOf = map[string]string{
	"trace.overhead.lag_p50_frac":       "ingest.lag_p50_ms",
	"trace.overhead.compact_p50_frac":   "query.compact_p50_ms",
	"trace.overhead.qps_frac":           "query.qps",
	"trace.overhead.cpu_ms_per_1k_frac": "ingest.cpu_ms_per_1k",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: firehose, dashboard or durable_mixed")
	seed := fs.Uint64("seed", 1, "seed of the generated trace")
	seconds := fs.Float64("seconds", 30, "measured time of one run")
	trace := fs.Int("trace", 0, "1: also run traced, print per-layer metrics and write spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "clusterbench: bad arguments: --workload %q --seconds %g --trace %d (want firehose, dashboard or durable_mixed; seconds > 0; trace 0 or 1)\n", *name, *seconds, *trace)
		return 2
	}
	workDir, err := makeWorkDir()
	if err != nil {
		fmt.Fprintln(stderr, "clusterbench:", err)
		return 1
	}
	// The WAL directories are scratch; spans and the result file stay.
	defer os.RemoveAll(filepath.Join(workDir, "wal"))
	defer os.RemoveAll(filepath.Join(workDir, "traced", "wal"))

	host := hostShape()
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host %s\n", host)

	e := &env{seed: *seed, seconds: *seconds, workDir: workDir}
	rep, err := wl.run(e)
	if err != nil {
		fmt.Fprintln(stderr, "clusterbench:", err)
		return 1
	}
	printReport(stdout, "", rep)
	out := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	specs := endToEnd
	values := rep.e2e

	if *trace == 1 {
		te := &env{seed: *seed, seconds: *seconds, workDir: filepath.Join(workDir, "traced"), traced: true}
		if err := os.MkdirAll(te.workDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "clusterbench:", err)
			return 1
		}
		trep, err := wl.run(te)
		if err != nil {
			fmt.Fprintln(stderr, "clusterbench: traced run:", err)
			return 1
		}
		printReport(stdout, "traced ", trep)
		ov := overhead(rep.all(), trep.all())
		for _, k := range sortedKeys(ov) {
			fmt.Fprintf(stdout, "trace-overhead %-28s %+.3f frac\n", k, ov[k])
		}
		for m, base := range overheadOf {
			trep.layer[m] = ov[base]
		}
		path, table, err := writeSpans(te.workDir, trep.spans)
		if err != nil {
			fmt.Fprintln(stderr, "clusterbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(trep.spans), path)
		fmt.Fprintf(stdout, "%-34s %8s %12s %12s %10s %10s %6s\n", "span", "count", "total_ms", "self_ms", "p50_ms", "p99_ms", "errors")
		for _, row := range table {
			fmt.Fprintf(stdout, "%-34s %8d %12.1f %12.1f %10.3f %10.3f %6d\n", row.Op, row.Count, row.TotalMS, row.SelfMS, row.P50MS, row.P99MS, row.Errors)
		}
		out.Correct = out.Correct && len(trep.problems) == 0
		out.Attempted += trep.attempted
		out.Failed += trep.failed
		specs, values = perLayer, trep.layer
	}
	for _, sp := range specs {
		v := values[sp.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[sp.name] = metricValue{Value: v, Unit: sp.unit}
	}
	if err := writeResult(workDir, host, out); err != nil {
		fmt.Fprintln(stderr, "clusterbench: write result:", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "clusterbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, prefix string, r *report) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "%snote %s\n", prefix, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%sINCORRECT %s\n", prefix, p)
	}
	for _, sp := range endToEnd {
		fmt.Fprintf(w, "%se2e   %-36s %14.4f %s\n", prefix, sp.name, r.e2e[sp.name], sp.unit)
	}
	for _, sp := range perLayer {
		if v, ok := r.layer[sp.name]; ok {
			fmt.Fprintf(w, "%slayer %-36s %14.4f %s\n", prefix, sp.name, v, sp.unit)
		}
	}
}

// hostShape records what loopback numbers depend on.
func hostShape() string {
	read := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s rmem_default=%s rmem_max=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(),
		read("/proc/sys/net/core/rmem_default"), read("/proc/sys/net/core/rmem_max"))
}

// commit is the VCS revision the binary was built from, when the build
// recorded one, else the checkout's .git HEAD, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", r))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

func writeResult(dir, host string, out result) error {
	b, err := json.MarshalIndent(struct {
		Host string `json:"host"`
		result
	}{host, out}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), b, 0o644)
}
