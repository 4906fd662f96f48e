package main

import (
	"sort"
	"sync"
	"time"
)

// obsSample is the fleet's observed-reading count at one instant.
type obsSample struct {
	at  time.Time
	obs uint64
}

// sampler polls the shards' Service.Stats() every millisecond, giving
// the curve "readings observed so far" that per-reading lag is read
// off. Start it with run; stop returns once the goroutine has exited.
type sampler struct {
	read func() uint64

	mu      sync.Mutex
	samples []obsSample
	stopCh  chan struct{}
	done    chan struct{}
}

func startSampler(read func() uint64) *sampler {
	s := &sampler{read: read, stopCh: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *sampler) run() {
	defer close(s.done)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		s.record()
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
	}
}

func (s *sampler) record() {
	v := s.read()
	now := time.Now()
	s.mu.Lock()
	s.samples = append(s.samples, obsSample{at: now, obs: v})
	s.mu.Unlock()
}

func (s *sampler) stop() {
	close(s.stopCh)
	<-s.done
}

// since returns the samples taken at or after t.
func (s *sampler) since(t time.Time) []obsSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.samples), func(i int) bool { return !s.samples[i].at.Before(t) })
	return append([]obsSample(nil), s.samples[i:]...)
}

// readingLags returns one lag per reading of grams, in send order: the
// time from the datagram's due time until the observed count, counted
// from base, first covered the reading. A reading never covered by the
// last sample counts in missing, with a lag of missedLagMS.
func readingLags(grams []sentDatagram, base uint64, samples []obsSample) (lags []float64, missing int) {
	j := 0
	var idx uint64
	for _, g := range grams {
		for l := 0; l < g.lines; l++ {
			idx++
			for j < len(samples) && samples[j].obs < base+idx {
				j++
			}
			if j == len(samples) {
				missing++
				lags = append(lags, missedLagMS)
				continue
			}
			at := samples[j].at
			if j > 0 && samples[j].obs > samples[j-1].obs {
				// The count crossed base+idx between two polls: place the
				// crossing by linear interpolation rather than at the later
				// poll, so the 1 ms poll period does not quantize the lag.
				prev := samples[j-1]
				f := float64(base+idx-prev.obs) / float64(samples[j].obs-prev.obs)
				at = prev.at.Add(time.Duration(f * float64(samples[j].at.Sub(prev.at))))
			}
			lag := at.Sub(g.due)
			if lag < 0 {
				lag = 0
			}
			lags = append(lags, ms(lag))
		}
	}
	return lags, missing
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the q-quantile (0..1) of xs by nearest rank; xs
// need not be sorted and is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
