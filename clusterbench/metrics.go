package main

import (
	"bufio"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// promHist is one histogram series read off a /metrics page.
type promHist struct {
	les   []float64 // bucket upper bounds, ascending, +Inf last
	cum   []float64 // cumulative counts per bound
	sum   float64
	count float64
}

// promPage is a parsed Prometheus text exposition: plain samples and
// histograms, each keyed by name plus its labels as printed (le
// removed), e.g. `innetcoord_rpc_latency_seconds{op="readings"}`.
type promPage struct {
	samples map[string]float64
	hists   map[string]*promHist
}

// scrape serves GET /metrics from an in-process handler and parses it.
func scrape(h http.Handler) promPage {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseProm(rec.Body.String())
}

func parseProm(text string) promPage {
	p := promPage{samples: map[string]float64{}, hists: map[string]*promHist{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], strings.TrimSuffix(series[i+1:], "}")
		}
		var le string
		var kept []string
		for _, l := range splitLabels(labels) {
			if strings.HasPrefix(l, "le=") {
				le = strings.Trim(l[3:], `"`)
				continue
			}
			kept = append(kept, l)
		}
		key := func(base string) string {
			if len(kept) == 0 {
				return base
			}
			return base + "{" + strings.Join(kept, ",") + "}"
		}
		hist := func(base string) *promHist {
			h := p.hists[key(base)]
			if h == nil {
				h = &promHist{}
				p.hists[key(base)] = h
			}
			return h
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && le != "":
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			h := hist(strings.TrimSuffix(name, "_bucket"))
			h.les = append(h.les, bound)
			h.cum = append(h.cum, v)
		case strings.HasSuffix(name, "_sum") && p.hists[key(strings.TrimSuffix(name, "_sum"))] != nil:
			hist(strings.TrimSuffix(name, "_sum")).sum = v
		case strings.HasSuffix(name, "_count") && p.hists[key(strings.TrimSuffix(name, "_count"))] != nil:
			hist(strings.TrimSuffix(name, "_count")).count = v
		default:
			p.samples[key(name)] = v
		}
	}
	return p
}

// splitLabels splits `a="x",b="y"` on the commas between labels.
func splitLabels(s string) []string {
	var out []string
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// histDelta returns after − before for one series across pages, summed
// over every page pair (the shards each serve their own page). A series
// absent everywhere yields an empty histogram.
func histDelta(key string, before, after []promPage) *promHist {
	out := &promHist{}
	for i := range after {
		a := after[i].hists[key]
		if a == nil {
			continue
		}
		b := before[i].hists[key]
		if out.les == nil {
			out.les = append([]float64(nil), a.les...)
			out.cum = make([]float64, len(a.cum))
		}
		for j := range a.cum {
			out.cum[j] += a.cum[j]
			if b != nil && j < len(b.cum) {
				out.cum[j] -= b.cum[j]
			}
		}
		out.sum += a.sum
		out.count += a.count
		if b != nil {
			out.sum -= b.sum
			out.count -= b.count
		}
	}
	return out
}

// quantile interpolates the q-quantile within its bucket, as PromQL's
// histogram_quantile does. Zero observations read as 0.
func (h *promHist) quantile(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	rank := q * h.cum[len(h.cum)-1]
	i := sort.Search(len(h.cum), func(i int) bool { return h.cum[i] >= rank })
	if i == len(h.cum)-1 && math.IsInf(h.les[i], 1) {
		if i == 0 {
			return 0
		}
		return h.les[i-1] // beyond the top finite bound: report the bound
	}
	lo, below := 0.0, 0.0
	if i > 0 {
		lo, below = h.les[i-1], h.cum[i-1]
	}
	in := h.cum[i] - below
	if in <= 0 {
		return h.les[i]
	}
	return lo + (h.les[i]-lo)*(rank-below)/in
}

// sampleDelta sums after − before of one plain series across pages.
func sampleDelta(key string, before, after []promPage) float64 {
	var d float64
	for i := range after {
		d += after[i].samples[key] - before[i].samples[key]
	}
	return d
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// udpRcvbufErrors reads the kernel's count of UDP datagrams dropped
// because a socket receive buffer was full (this network namespace).
func udpRcvbufErrors() uint64 {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0
	}
	var header []string
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = f
			continue
		}
		for i, name := range header {
			if name == "RcvbufErrors" && i < len(f) {
				v, _ := strconv.ParseUint(f[i], 10, 64)
				return v
			}
		}
	}
	return 0
}
