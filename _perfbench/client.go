package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reply is what one submission got back, from either leg.
type reply struct {
	preds     []float32
	sim       time.Duration
	stages    [5]time.Duration // send, emb, bot, top, read
	batch     int
	coalesced int
}

// stageNames orders reply.stages as rmserve's breakdown names them.
var stageNames = [5]string{"send", "emb", "bot", "top", "read"}

// submitFunc sends request r as submission id and waits for its reply.
type submitFunc func(id int64, r *request) (reply, error)

// result is one submission's outcome, timed relative to its phase start.
type result struct {
	id      int64
	req     *request
	due     time.Duration // open loop: scheduled send; closed loop: actual send
	start   time.Duration // when the send began
	end     time.Duration // when the reply was decoded
	genLate time.Duration // open loop: how late the generator issued a free send
	err     error         // transport error or non-200 reply
	wrong   error         // predictions disagree with the reference
	rep     reply
}

// latency is measured from the due time, so a stall also charges the
// requests it delayed.
func (r result) latency() time.Duration { return r.end - r.due }

// phase is one stretch of traffic, sent by one worker per connection.
type phase struct {
	reqs []*request
	open bool // send each request at its due time
	// dur bounds a closed loop, which cycles through reqs until it passes;
	// zero sends each request exactly once, in order.
	dur time.Duration
	// firstID numbers the phase's submissions from this value on.
	firstID int64
}

// run drives the phase through submit and returns the outcomes in
// submission order.
func (p phase) run(submit submitFunc) []result {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []result
			for {
				i := next.Add(1) - 1
				if p.dur == 0 && int(i) >= len(p.reqs) {
					break
				}
				taken := time.Since(start)
				if p.dur > 0 && taken >= p.dur {
					break
				}
				r := p.reqs[int(i)%len(p.reqs)]
				res := result{id: p.firstID + i, req: r}
				if p.open {
					if wait := r.due - taken; wait > 0 {
						time.Sleep(wait)
					}
					res.due = r.due
				}
				res.start = time.Since(start)
				if p.open {
					res.genLate = res.start - max(r.due, taken)
				} else {
					res.due = res.start
				}
				res.rep, res.err = submit(res.id, r)
				res.end = time.Since(start)
				if res.err == nil {
					if err := checkPreds(res.rep.preds, r.ref); err != nil {
						res.wrong = fmt.Errorf("submission %d: %w", res.id, err)
					}
				}
				local = append(local, res)
			}
			mu.Lock()
			results = append(results, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].id < results[j].id })
	return results
}

// newHTTPClient allows at most the benchmark's connections to the server.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			DisableCompression:  true,
		},
	}
}

// inferReply is the subset of rmserve's /infer reply the benchmark reads.
type inferReply struct {
	Predictions       []float32         `json:"predictions"`
	SimulatedLatency  string            `json:"simulatedLatency"`
	CoalescedBatch    int               `json:"coalescedBatch"`
	CoalescedRequests int               `json:"coalescedRequests"`
	Breakdown         map[string]string `json:"breakdown"`
}

// httpSubmit posts requests to rmserve's /infer. With a recorder it
// re-encodes each body inside an encode span (untraced runs send the body
// encoded before timing) and records the round trip and the decode.
func httpSubmit(c *http.Client, base string, rec *recorder) submitFunc {
	url := base + "/infer"
	return func(id int64, r *request) (reply, error) {
		root := rec.newID()
		t0 := rec.now()
		body := r.body
		if rec != nil {
			var err error
			if body, err = json.Marshal(inferBody{Sparse: r.sparse}); err != nil {
				return reply{}, err
			}
		}
		t1 := rec.now()
		resp, err := c.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return reply{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return reply{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return reply{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		t2 := rec.now()
		var ir inferReply
		if err := json.Unmarshal(data, &ir); err != nil {
			return reply{}, fmt.Errorf("decode reply: %w", err)
		}
		rep, err := ir.reply()
		t3 := rec.now()
		rec.add(span{Parent: root, Name: "client.encode", Req: id, Start: t0, End: t1})
		rec.add(span{Parent: root, Name: "http.roundtrip", Req: id, Start: t1, End: t2})
		rec.add(span{Parent: root, Name: "client.decode", Req: id, Start: t2, End: t3})
		rec.add(span{ID: root, Name: "client.request", Req: id, Start: t0, End: t3})
		return rep, err
	}
}

func (ir inferReply) reply() (reply, error) {
	rep := reply{preds: ir.Predictions, batch: ir.CoalescedBatch, coalesced: ir.CoalescedRequests}
	var err error
	if rep.sim, err = time.ParseDuration(ir.SimulatedLatency); err != nil {
		return rep, fmt.Errorf("simulatedLatency: %w", err)
	}
	for i, name := range stageNames {
		if rep.stages[i], err = time.ParseDuration(ir.Breakdown[name]); err != nil {
			return rep, fmt.Errorf("breakdown %s: %w", name, err)
		}
	}
	return rep, nil
}
