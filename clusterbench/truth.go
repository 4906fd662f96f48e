package main

import (
	"fmt"
	"math"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/loadgen"
)

// readingKey identifies a reading by what the generator sent — sensor,
// timestamp and the exact bits of every value — so the check does not
// trust identities the coordinator minted.
type readingKey struct {
	sensor core.NodeID
	atMS   int64
	values string
}

func keyOf(sensor core.NodeID, at time.Duration, values []float64) readingKey {
	b := make([]byte, 0, 8*len(values))
	for _, v := range values {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b = append(b, byte(u>>(8*i)))
		}
	}
	return readingKey{sensor: sensor, atMS: at.Milliseconds(), values: string(b)}
}

// truth is the ground truth: the readings the generator sent, in send
// order. Readings the scenario's loss overlay suppressed never enter it.
type truth struct {
	sent  []loadgen.Event // in send order, older than any window pruned
	total uint64          // readings sent, pruned ones included
}

func (t *truth) add(ev loadgen.Event) {
	t.sent = append(t.sent, ev)
	t.total++
}

// prune forgets readings older than before, which no window can hold
// again, so the benchmark's own memory stays flat however long the
// firehose ladder climbs and rss_peak_mb measures the cluster.
func (t *truth) prune(before time.Duration) {
	i := 0
	for i < len(t.sent) && t.sent[i].At < before {
		i++
	}
	if i > len(t.sent)/2 {
		t.sent = append([]loadgen.Event(nil), t.sent[i:]...)
	}
}

// expected is the multiset of sent readings the union window must hold
// once every sensor clock stands at now: the detector keeps a point
// while its birth is at least now − window.
func (t *truth) expected(now, window time.Duration) map[readingKey]int {
	out := make(map[readingKey]int)
	for _, ev := range t.sent {
		if ev.At >= now-window && ev.At <= now {
			out[keyOf(ev.Sensor, ev.At, ev.Values)]++
		}
	}
	return out
}

// windowCheck compares the shards' union window with the expected set.
type windowCheck struct {
	missing    int          // sent readings the window lacks
	unexpected int          // window points nobody sent, or sent fewer times
	held       []core.Point // window points that match a sent reading
	sample     []string     // a few missing readings, sensor@time
}

func checkWindow(union []core.Point, want map[readingKey]int) windowCheck {
	left := make(map[readingKey]int, len(want))
	for k, n := range want {
		left[k] = n
	}
	var wc windowCheck
	for _, p := range union {
		k := keyOf(p.ID.Origin, p.Birth, p.Value)
		if left[k] == 0 {
			wc.unexpected++
			continue
		}
		left[k]--
		wc.held = append(wc.held, p)
	}
	for k, n := range left {
		wc.missing += n
		if n > 0 && len(wc.sample) < 5 {
			wc.sample = append(wc.sample, fmt.Sprintf("%d@%dms", k.sensor, k.atMS))
		}
	}
	return wc
}

// expectedAnswer is the centralized answer over the checked window:
// baseline.Compute with the detector the cluster runs.
func expectedAnswer(held []core.Point) []core.Point {
	return baseline.Compute(detectorDefaults.Ranker, detectorDefaults.N, held)
}

// sameAnswer reports whether a served answer names exactly the expected
// outliers, compared by sent content.
func sameAnswer(got []ingest.WireOutlier, want []core.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d outliers, want %d", len(got), len(want))
	}
	w := make(map[readingKey]bool, len(want))
	for _, p := range want {
		w[keyOf(p.ID.Origin, p.Birth, p.Value)] = true
	}
	for _, o := range got {
		k := keyOf(core.NodeID(o.Sensor), time.Duration(o.AtMS)*time.Millisecond, o.Values)
		if !w[k] {
			return fmt.Errorf("served outlier %d@%dms %v is not in the expected answer", o.Sensor, o.AtMS, o.Values)
		}
	}
	return nil
}
