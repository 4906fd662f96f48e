package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"innet/internal/cluster"
)

// queryRecord is one HTTP query as the client saw it.
type queryRecord struct {
	mode   string // requested merge mode
	served string // mode that served the answer (after any fallback)
	due    time.Time
	start  time.Time
	end    time.Time
	err    error
	bytes  int // point payload the coordinator reported moving
	rounds int
	trace  uint64
}

// latency is measured from the due time: on an open-loop schedule a
// stalled query also charges the queries queued behind it.
func (q queryRecord) latency() time.Duration { return q.end.Sub(q.due) }

// queryClient owns one keep-alive connection to the coordinator's HTTP
// API and queries one merge mode.
type queryClient struct {
	base string
	mode string
	http *http.Client
	tr   *http.Transport
}

func newQueryClient(base, mode string) *queryClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &queryClient{base: base, mode: mode, tr: tr, http: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (qc *queryClient) close() { qc.tr.CloseIdleConnections() }

// get runs one GET /v1/outliers?merge=<mode>.
func (qc *queryClient) get(ctx context.Context) (cluster.WireMergedEstimate, error) {
	var out cluster.WireMergedEstimate
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, qc.base+"/v1/outliers?merge="+qc.mode, nil)
	if err != nil {
		return out, err
	}
	resp, err := qc.http.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET /v1/outliers?merge=%s: %s", qc.mode, resp.Status)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("decode /v1/outliers: %w", err)
	}
	return out, nil
}

func (qc *queryClient) timed(ctx context.Context, due time.Time) (queryRecord, cluster.WireMergedEstimate) {
	rec := queryRecord{mode: qc.mode, due: due, start: time.Now()}
	res, err := qc.get(ctx)
	rec.end = time.Now()
	rec.err = err
	if err == nil {
		rec.served, rec.bytes, rec.rounds = res.MergeMode, res.PayloadBytes, res.Rounds
		rec.trace, _ = strconv.ParseUint(res.Trace, 16, 64)
	}
	return rec, res
}

// queryLoad runs query clients until stopped. A closed-loop client
// (perSecond 0) sends its next query thinkTime after the previous
// answer arrives, over one keep-alive connection. An open-loop client issues perSecond
// queries on a fixed schedule, each on its own goroutine at its due
// time, so a stalled query does not delay the ones after it.
type queryLoad struct {
	clients []*queryClient
	stopCh  chan struct{}
	wg      sync.WaitGroup
	start   time.Time

	mu      sync.Mutex
	records []queryRecord
}

// maxInFlight bounds an open-loop client's concurrent queries; beyond
// it a due query waits, and the wait shows in its due-time latency.
const maxInFlight = 16

// startQueries starts one compact and one full client; a rate of 0 makes
// that client closed-loop, a positive rate its open-loop queries/s.
func startQueries(base string, compactPerSecond, fullPerSecond float64) *queryLoad {
	ql := &queryLoad{stopCh: make(chan struct{}), start: time.Now()}
	for m, perSecond := range map[string]float64{cluster.MergeCompact: compactPerSecond, cluster.MergeFull: fullPerSecond} {
		qc := newQueryClient(base, m)
		if perSecond > 0 {
			qc.tr.MaxConnsPerHost = maxInFlight
			qc.tr.MaxIdleConnsPerHost = maxInFlight
		}
		ql.clients = append(ql.clients, qc)
		ql.wg.Add(1)
		go func() {
			defer ql.wg.Done()
			if perSecond > 0 {
				ql.openLoop(qc, perSecond)
			} else {
				ql.closedLoop(qc)
			}
		}()
	}
	return ql
}

func (ql *queryLoad) add(rec queryRecord) {
	ql.mu.Lock()
	ql.records = append(ql.records, rec)
	ql.mu.Unlock()
}

// thinkTime is a closed-loop client's pause between an answer and its
// next query, as a dashboard refreshing its panels would pause. Without
// it the two clients keep both cores busy and their latencies measure
// how the scheduler interleaves them more than what a query costs.
const thinkTime = 10 * time.Millisecond

func (ql *queryLoad) closedLoop(qc *queryClient) {
	for {
		rec, _ := qc.timed(context.Background(), time.Now())
		ql.add(rec)
		select {
		case <-ql.stopCh:
			return
		case <-time.After(thinkTime):
		}
	}
}

func (ql *queryLoad) openLoop(qc *queryClient, perSecond float64) {
	sem := make(chan struct{}, maxInFlight)
	var inflight sync.WaitGroup
	defer inflight.Wait()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / perSecond * float64(time.Second)))
		select {
		case <-ql.stopCh:
			return
		case <-time.After(time.Until(due)):
		}
		select {
		case <-ql.stopCh:
			return
		case sem <- struct{}{}:
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer func() { <-sem }()
			rec, _ := qc.timed(context.Background(), due)
			ql.add(rec)
		}()
	}
}

// stop ends every client loop, waits for in-flight queries, and returns
// all records and how long the clients ran: from start to the stop, not
// to the last in-flight answer, so a query stalled at the end of a
// spell is counted but does not stretch the spell.
func (ql *queryLoad) stop() ([]queryRecord, time.Duration) {
	ran := time.Since(ql.start)
	close(ql.stopCh)
	ql.wg.Wait()
	for _, qc := range ql.clients {
		qc.close()
	}
	return ql.records, ran
}
