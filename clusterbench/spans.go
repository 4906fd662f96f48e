package main

import (
	"bytes"
	"sync"
	"time"
)

// benchSpan is a span the benchmark records around its own calls into
// the program, or a program span read back from a sink.
type benchSpan struct {
	ID     int // 1-based index within the run's span list
	Parent int // 0 for a root
	Op     string
	Trace  uint64
	Source string // "bench", "coord", "shard0", "shard1"
	Hit    bool
	Points int64
	Bytes  int64
	Err    string
	Start  time.Time
	End    time.Time
}

// spanSink is the in-memory io.Writer handed to a program's
// Config.TraceSink. The program writes one JSON line per span under its
// own lock; the sink stamps each line with its arrival time, which is
// the span's end to within the recorder's lock hold (the JSON start is
// only millisecond-resolution).
type spanSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	stamp []time.Time
}

func newSpanSink() *spanSink { return &spanSink{} }

// Write implements io.Writer.
func (s *spanSink) Write(p []byte) (int, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stamp = append(s.stamp, now)
	return s.buf.Write(p)
}
