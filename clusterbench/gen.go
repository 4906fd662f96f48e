package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"time"

	"innet/internal/cluster"
	"innet/internal/ingest"
	"innet/internal/loadgen"
)

// sentDatagram is one datagram the generator wrote: when it was due on
// the open-loop schedule, when it actually left, and how many readings
// it carried.
type sentDatagram struct {
	due, sent time.Time
	lines     int
}

// generator turns the seeded loadgen trace into front-door traffic. It
// is the only producer: one goroutine, one UDP socket, an open-loop
// schedule that does not slow down when the cluster does.
type generator struct {
	sc    *loadgen.Scenario
	trace *loadgen.Trace
	truth *truth
	conn  net.Conn

	linesPer int // readings per datagram

	consumed int // events drawn from the trace; a step ends every Fleet.Sensors
}

func newGenerator(sc *loadgen.Scenario, target string, t *truth, linesPer int) (*generator, error) {
	conn, err := net.Dial("udp", target)
	if err != nil {
		return nil, err
	}
	return &generator{sc: sc, trace: loadgen.NewTrace(sc), truth: t, conn: conn, linesPer: linesPer}, nil
}

func (g *generator) close() { _ = g.conn.Close() }

// next draws the trace until one reading that is actually sent comes
// out, recording it in the ground truth.
func (g *generator) next() loadgen.Event {
	for {
		ev := g.trace.Next()
		g.consumed++
		if ev.Down || ev.Lost {
			continue // churned out, or lost to the scenario's radio-loss overlay
		}
		g.truth.add(ev)
		return ev
	}
}

// atStepBoundary reports whether every virtual sensor has emitted for
// the current step, so all sensor clocks agree.
func (g *generator) atStepBoundary() bool { return g.consumed%g.sc.Fleet.Sensors == 0 }

// dataTime is the data time of the last fully generated step.
func (g *generator) dataTime() time.Duration {
	steps := g.consumed / g.sc.Fleet.Sensors
	return time.Duration(int64(steps-1)*g.sc.Traffic.StepMS) * time.Millisecond
}

// ingestWindow ingests a window's worth of whole steps (window/step +
// 1) through Coordinator.IngestBatch. Boot uses it to preload, so the
// union window starts at its plateau and eviction is active from the
// first measured datagram. Later it replaces every point of the window
// with fresh readings of the trace: the window a query meets decides
// most of what a merge costs, and a run that refreshes it between query
// spells averages that cost over many windows rather than a few.
func (g *generator) ingestWindow(coord *cluster.Coordinator, window time.Duration, flush func() error) error {
	return g.ingestSteps(coord, int(window/(time.Duration(g.sc.Traffic.StepMS)*time.Millisecond))+1, flush)
}

// ingestSteps ingests the next steps whole fleet steps through
// Coordinator.IngestBatch. After each batch it waits (flush) until the
// shards have observed it: IngestBatch returns once the readings are
// queued, and a batch that outran the feeders would overflow the
// per-sensor queues (latest-wins drops). A batch of 512 puts at most
// ~132 readings on one queue (18 of durable_mixed's 70 virtual sensors
// share an ID), about half the default depth of 256. The generator
// must stand on a step boundary.
func (g *generator) ingestSteps(coord *cluster.Coordinator, steps int, flush func() error) error {
	end := g.consumed + steps*g.sc.Fleet.Sensors
	batch := make([]ingest.Reading, 0, 512)
	ship := func() error {
		for i, err := range coord.IngestBatch(batch) {
			if err != nil {
				return fmt.Errorf("ingest reading %d/%d: %w", batch[i].Sensor, batch[i].At.Milliseconds(), err)
			}
		}
		batch = batch[:0]
		return flush()
	}
	for g.consumed < end {
		ev := g.next()
		batch = append(batch, ingest.Reading{Sensor: ev.Sensor, At: ev.At, Values: ev.Values})
		if len(batch) == cap(batch) || g.atStepBoundary() && len(batch) >= cap(batch)/2 {
			if err := ship(); err != nil {
				return err
			}
		}
	}
	if len(batch) > 0 {
		return ship()
	}
	return nil
}

// run sends at rate readings/s for d, then keeps the schedule until the
// current step is complete, and returns the datagrams it wrote. Every
// datagram is due when its last reading is due; a late generator sends
// immediately and the lateness is visible in sent − due.
func (g *generator) run(ctx context.Context, rate float64, d time.Duration) ([]sentDatagram, error) {
	start := time.Now()
	end := start.Add(d)
	var out []sentDatagram
	buf := make([]byte, 0, 4096)
	total := 0
	for {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		if !time.Now().Before(end) && g.atStepBoundary() {
			return out, nil
		}
		buf = buf[:0]
		n := 0
		for n < g.linesPer {
			buf = appendLine(buf, g.next())
			n++
			if g.atStepBoundary() {
				break // datagrams never straddle steps, so a segment ends on a whole step
			}
		}
		total += n
		due := start.Add(time.Duration(float64(total) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := g.conn.Write(buf); err != nil {
			return out, fmt.Errorf("send datagram: %w", err)
		}
		out = append(out, sentDatagram{due: due, sent: time.Now(), lines: n})
	}
}

// appendLine formats one reading in the innetd line protocol, with
// floats printed to round-trip exactly so ground truth compares bits.
func appendLine(buf []byte, ev loadgen.Event) []byte {
	buf = strconv.AppendUint(buf, uint64(ev.Sensor), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, ev.At.Milliseconds(), 10)
	for _, v := range ev.Values {
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, '\n')
}
