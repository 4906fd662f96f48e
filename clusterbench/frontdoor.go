package main

import (
	"net"
	"sync"
	"time"
)

// frontDoor is the net.PacketConn handed to Coordinator.ServeUDP. It
// times the coordinator's line-protocol loop from outside: the interval
// from a ReadFrom return to the next ReadFrom call is the time the loop
// spent parsing, stamping and routing one datagram — the front door's
// busy time, since the loop reads nothing else while it works.
type frontDoor struct {
	net.PacketConn
	traced bool

	mu      sync.Mutex
	lastRet time.Time       // when the last successful ReadFrom returned
	reads   uint64          // datagrams read
	busy    time.Duration   // summed handling time
	handled []time.Duration // per-datagram handling time since the last take
	spans   []benchSpan     // traced runs: one span per handled datagram
}

func newFrontDoor(pc net.PacketConn, traced bool) *frontDoor {
	return &frontDoor{PacketConn: pc, traced: traced}
}

// ReadFrom implements net.PacketConn.
func (f *frontDoor) ReadFrom(b []byte) (int, net.Addr, error) {
	now := time.Now()
	f.mu.Lock()
	if !f.lastRet.IsZero() {
		d := now.Sub(f.lastRet)
		f.busy += d
		f.handled = append(f.handled, d)
		if f.traced {
			f.spans = append(f.spans, benchSpan{Op: "frontdoor.datagram", Start: f.lastRet, End: now})
		}
		f.lastRet = time.Time{}
	}
	f.mu.Unlock()
	n, addr, err := f.PacketConn.ReadFrom(b)
	if err == nil {
		f.mu.Lock()
		f.lastRet = time.Now()
		f.reads++
		f.mu.Unlock()
	}
	return n, addr, err
}

// frontDoorStats is a cumulative snapshot of the loop's counters.
type frontDoorStats struct {
	reads uint64
	busy  time.Duration
}

func (f *frontDoor) stats() frontDoorStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return frontDoorStats{reads: f.reads, busy: f.busy}
}

// takeHandled returns the per-datagram handling times recorded since
// the previous call and starts a new list.
func (f *frontDoor) takeHandled() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.handled
	f.handled = nil
	return out
}

func (f *frontDoor) takeSpans() []benchSpan {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.spans
	f.spans = nil
	return out
}
