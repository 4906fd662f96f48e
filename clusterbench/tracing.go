package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// recordQuerySpans adds one bench span per client query, carrying the
// trace ID the coordinator returned so its spans hang below it.
func (s *clusterRun) recordQuerySpans(recs []queryRecord) {
	for _, q := range recs {
		s.addSpan("bench.query."+q.mode, 0, q.start, q.end, q.trace)
	}
}

// sinkSpans parses one program sink's JSON lines back into spans. The
// end of each span is the line's arrival time (see spanSink); the start
// is end − duration.
func sinkSpans(sink *spanSink, source string) []benchSpan {
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var out []benchSpan
	sc := bufio.NewScanner(strings.NewReader(sink.buf.String()))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	i := 0
	for sc.Scan() {
		var w struct {
			Trace  string  `json:"trace"`
			Op     string  `json:"op"`
			Points int64   `json:"points"`
			Bytes  int64   `json:"bytes"`
			Hit    bool    `json:"hit"`
			Err    string  `json:"err"`
			Start  int64   `json:"start_unix_ms"`
			DurMS  float64 `json:"dur_ms"`
			// merge-session traces share the sink; they have no "op".
		}
		line := sc.Bytes()
		at := sink.stamp[i]
		i++
		if json.Unmarshal(line, &w) != nil || w.Op == "" {
			continue
		}
		trace, _ := strconv.ParseUint(w.Trace, 16, 64)
		dur := time.Duration(w.DurMS * float64(time.Millisecond))
		start := at.Add(-dur)
		if d := start.Sub(time.UnixMilli(w.Start)); d < -time.Millisecond || d > 5*time.Millisecond {
			start = time.UnixMilli(w.Start) // recorded late: trust the program's own start
		}
		out = append(out, benchSpan{
			Op: source + "." + w.Op, Trace: trace, Source: source,
			Hit: w.Hit, Points: w.Points, Bytes: w.Bytes, Err: w.Err,
			Start: start, End: start.Add(dur),
		})
	}
	return out
}

// finishSpans links every span of a traced run into one tree, computes
// self times, fills the span-derived per-layer metrics, and writes the
// JSONL file and the per-layer table.
func (s *clusterRun) finishSpans(r *report) {
	if !s.env.traced {
		return
	}
	spans := s.spans
	for _, fd := range s.c.front.takeSpans() {
		fd.Source = "bench"
		spans = append(spans, fd)
	}
	spans = append(spans, sinkSpans(s.c.coordSink, "coord")...)
	for i, sh := range s.c.shards {
		for _, sp := range sinkSpans(sh.sink, "shard") {
			sp.Source = fmt.Sprintf("shard%d", i)
			spans = append(spans, sp)
		}
	}
	for i := range spans {
		spans[i].ID = i + 1
	}
	linkSpans(spans)
	// Append after the spans of earlier parts, keeping IDs unique.
	off := len(r.spans)
	for i := range spans {
		spans[i].ID += off
		if spans[i].Parent != 0 {
			spans[i].Parent += off
		}
	}
	r.spans = append(r.spans, spans...)
}

// linkSpans assigns parents. Bench spans already carry theirs. Program
// spans of one trace nest by time containment under the smallest span
// of the same trace that contains them (a bench query, the coordinator
// query, a merge round); a coordinator ingest batch, whose trace is
// minted inside the front door, nests under the front-door datagram
// span that contains it in time, since that loop runs one batch at a
// time.
func linkSpans(spans []benchSpan) {
	const slack = 200 * time.Microsecond
	contains := func(p, c *benchSpan) bool {
		return !c.Start.Before(p.Start.Add(-slack)) && !c.End.After(p.End.Add(slack)) && p.End.Sub(p.Start) >= c.End.Sub(c.Start)
	}
	byTrace := map[uint64][]int{}
	var datagrams []int
	for i := range spans {
		sp := &spans[i]
		if sp.Op == "frontdoor.datagram" {
			datagrams = append(datagrams, i)
		}
		if sp.Trace != 0 {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], i)
		}
	}
	sort.Slice(datagrams, func(a, b int) bool { return spans[datagrams[a]].Start.Before(spans[datagrams[b]].Start) })
	for _, group := range byTrace {
		for _, ci := range group {
			c := &spans[ci]
			if c.Parent != 0 {
				continue
			}
			best := -1
			for _, pi := range group {
				if pi == ci || spans[pi].Parent == c.ID {
					continue
				}
				p := &spans[pi]
				if !contains(p, c) || p.End.Sub(p.Start) == c.End.Sub(c.Start) && pi > ci {
					continue
				}
				if best < 0 || p.End.Sub(p.Start) < spans[best].End.Sub(spans[best].Start) {
					best = pi
				}
			}
			if best >= 0 {
				c.Parent = spans[best].ID
			}
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.Op != "coord.ingest_batch" || c.Parent != 0 {
			continue
		}
		j := sort.Search(len(datagrams), func(k int) bool { return spans[datagrams[k]].Start.After(c.Start) })
		if j > 0 && contains(&spans[datagrams[j-1]], c) {
			c.Parent = spans[datagrams[j-1]].ID
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []benchSpan) []time.Duration {
	kids := map[int][]int{}
	for i, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, k := range kids[sp.ID] {
			a, b := spans[k].Start, spans[k].End
			if a.Before(sp.Start) {
				a = sp.Start
			}
			if b.After(sp.End) {
				b = sp.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for n, v := range ivs {
			if n == 0 || v.a.After(curB) {
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			} else if v.b.After(curB) {
				curB = v.b
			}
		}
		covered += curB.Sub(curA)
		self[i] = sp.End.Sub(sp.Start) - covered
	}
	return self
}

// spanLayerMetrics derives the per-layer metrics only spans can give.
func spanLayerMetrics(r *report, spans []benchSpan) {
	var sessions, hits, suff, replays int
	coordQuery := map[uint64]time.Duration{}
	for _, sp := range spans {
		switch {
		case strings.HasSuffix(sp.Op, ".session_create") && strings.HasPrefix(sp.Source, "shard"):
			sessions++
			hits += boolInt(sp.Hit)
		case strings.HasSuffix(sp.Op, ".sufficient") && strings.HasPrefix(sp.Source, "shard"):
			suff++
			replays += boolInt(sp.Hit)
		case sp.Op == "coord.query":
			coordQuery[sp.Trace] = sp.End.Sub(sp.Start)
		}
	}
	var httpMS []float64
	for _, sp := range spans {
		if strings.HasPrefix(sp.Op, "bench.query.") && sp.Trace != 0 {
			if d, ok := coordQuery[sp.Trace]; ok {
				httpMS = append(httpMS, ms(sp.End.Sub(sp.Start)-d))
			}
		}
	}
	r.layer["cluster.shard.session_hit_frac"] = frac(hits, sessions)
	r.layer["cluster.shard.sufficient_replay_frac"] = frac(replays, suff)
	r.layer["cluster.http_ms"] = median(httpMS)
}

// spanRow is one line of the per-layer table.
type spanRow struct {
	Op      string  `json:"op"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
	Errors  int     `json:"errors"`
}

func spanTable(spans []benchSpan, self []time.Duration) []spanRow {
	rows := map[string]*spanRow{}
	durs := map[string][]float64{}
	for i, sp := range spans {
		row := rows[sp.Op]
		if row == nil {
			row = &spanRow{Op: sp.Op}
			rows[sp.Op] = row
		}
		d := ms(sp.End.Sub(sp.Start))
		row.Count++
		row.TotalMS += d
		row.SelfMS += ms(self[i])
		if sp.Err != "" {
			row.Errors++
		}
		durs[sp.Op] = append(durs[sp.Op], d)
	}
	var out []spanRow
	for op, row := range rows {
		row.P50MS = percentile(durs[op], 0.5)
		row.P99MS = percentile(durs[op], 0.99)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeSpans writes every span as one JSON line plus the per-layer
// table, and returns the table for printing.
func writeSpans(dir string, spans []benchSpan) (string, []spanRow, error) {
	self := selfTimes(spans)
	var t0 time.Time
	for i, sp := range spans {
		if i == 0 || sp.Start.Before(t0) {
			t0 = sp.Start
		}
	}
	path := filepath.Join(dir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, sp := range spans {
		if err := enc.Encode(struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent,omitempty"`
			Source  string  `json:"source"`
			Op      string  `json:"op"`
			Trace   string  `json:"trace,omitempty"`
			StartMS float64 `json:"start_ms"`
			DurMS   float64 `json:"dur_ms"`
			SelfMS  float64 `json:"self_ms"`
			Hit     bool    `json:"hit,omitempty"`
			Points  int64   `json:"points,omitempty"`
			Bytes   int64   `json:"bytes,omitempty"`
			Err     string  `json:"err,omitempty"`
		}{sp.ID, sp.Parent, sp.Source, sp.Op, traceString(sp.Trace), ms(sp.Start.Sub(t0)),
			ms(sp.End.Sub(sp.Start)), ms(self[i]), sp.Hit, sp.Points, sp.Bytes, sp.Err}); err != nil {
			f.Close()
			return "", nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	table := spanTable(spans, self)
	tb, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return "", nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), tb, 0o644); err != nil {
		return "", nil, err
	}
	return path, table, nil
}

func traceString(t uint64) string {
	if t == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", t)
}

// overhead is the traced run's relative change against the untraced
// run, per metric.
func overhead(untraced, traced map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, u := range untraced {
		t, ok := traced[k]
		if !ok || u == 0 || math.IsNaN(u) || math.IsNaN(t) {
			continue
		}
		out[k] = (t - u) / u
	}
	return out
}
