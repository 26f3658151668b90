package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the client-side record of one /clean request.
type sample struct {
	latency time.Duration // from send to last byte + trailers
	ttfb    time.Duration // from send to response headers
	rows    int           // rows the response carried under a matching trailer
	bad     int           // quarantined + budget-exhausted rows, from the trailers
	fail    string        // non-empty: why the request failed
	cold    bool
}

// responses keeps what the oracle needs after the timed window: the
// first body returned for each request. Every workload is deterministic,
// so repeats are compared byte for byte in the loop.
type responses struct {
	mu    sync.Mutex
	first map[int][]byte
}

func newResponses() *responses {
	return &responses{first: map[int][]byte{}}
}

// record stores body for the oracle and returns a failure reason when
// the body differs from the first answer to the same request.
func (r *responses) record(idx int, body []byte) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.first[idx]
	if !ok {
		r.first[idx] = bytes.Clone(body)
		return ""
	}
	if !bytes.Equal(prev, body) {
		return "response differs from an earlier answer to the same request"
	}
	return ""
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// doClean sends one request and times it. buf is reused between calls.
func doClean(hc *http.Client, base string, r *request, idx int, buf *bytes.Buffer, resp *responses) sample {
	s := sample{cold: r.cold}
	sent := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		s.fail = err.Error()
		return s
	}
	req.Header.Set("Content-Type", "text/csv")
	res, err := hc.Do(req)
	if err != nil {
		s.fail = err.Error()
		s.latency = time.Since(sent)
		return s
	}
	s.ttfb = time.Since(sent)
	buf.Reset()
	_, err = buf.ReadFrom(res.Body)
	res.Body.Close()
	s.latency = time.Since(sent)
	switch {
	case err != nil:
		s.fail = "truncated body: " + err.Error()
	case res.StatusCode != http.StatusOK:
		s.fail = "status " + strconv.Itoa(res.StatusCode)
	default:
		n, err := strconv.Atoi(res.Trailer.Get("X-Clean-Rows"))
		if err != nil || n != r.rows {
			s.fail = fmt.Sprintf("X-Clean-Rows %q, sent %d rows", res.Trailer.Get("X-Clean-Rows"), r.rows)
			break
		}
		q, _ := strconv.Atoi(res.Trailer.Get("X-Clean-Quarantined"))
		b, _ := strconv.Atoi(res.Trailer.Get("X-Clean-Budget-Exhausted"))
		s.rows, s.bad = n, q+b
		s.fail = resp.record(idx, buf.Bytes())
	}
	return s
}

// loadPlan bounds one load phase: it lasts dur, or, when count > 0,
// sends exactly count requests.
type loadPlan struct {
	dur   time.Duration
	count int
	// mark, when set, is called once, by the client that takes request
	// at (0-based) of the phase, before that request is sent. A timed
	// phase runs on past dur until then.
	at   int
	mark func()
}

// more reports whether request k (0-based) of a phase started at start
// should still be sent.
func (p loadPlan) more(k int, start time.Time) bool {
	if p.count > 0 {
		return k < p.count
	}
	return time.Since(start) < p.dur || (p.mark != nil && k <= p.at)
}

// closedLoop runs clients callers, each sending its next request only
// after the previous one completed. Clients take the sequence's requests
// in order from one shared counter, so a phase always sends the requests
// that follow offset (those a warm-up already sent), whatever the
// interleaving. It returns the samples and the phase's wall time.
func closedLoop(hc *http.Client, base string, reqs []request, clients, offset int, plan loadPlan, resp *responses) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for k := int(next.Add(1)) - 1; plan.more(k, start); k = int(next.Add(1)) - 1 {
				if plan.mark != nil && k == plan.at {
					plan.mark()
				}
				idx := (offset + k) % len(reqs)
				per[c] = append(per[c], doClean(hc, base, &reqs[idx], idx, &buf, resp))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, wall
}

// promotion is one timed KB change on the ops listener.
type promotion struct {
	delta    bool
	ms       float64
	replayed int
	fail     string
}

// promote sends one delta (POST {prefix}/reload?delta=1 with the DKBD
// body) or full (POST {prefix}/reload) promotion and times it to its
// 200.
func promote(hc *http.Client, opsBase, prefix string, delta []byte, isDelta bool) promotion {
	p := promotion{delta: isDelta}
	url := opsBase + prefix + "/reload"
	var body io.Reader
	if isDelta {
		url += "?delta=1"
		body = bytes.NewReader(delta)
	}
	start := time.Now()
	res, err := hc.Post(url, "application/octet-stream", body)
	if err != nil {
		p.fail = err.Error()
		return p
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	p.ms = msSince(start)
	if err != nil || res.StatusCode != http.StatusOK {
		p.fail = fmt.Sprintf("reload status %d: %s", res.StatusCode, bytes.TrimSpace(data))
		return p
	}
	var rep struct {
		Canary *struct {
			ReplayedRows int  `json:"replayedRows"`
			Promoted     bool `json:"promoted"`
		} `json:"canary"`
	}
	if err := json.Unmarshal(data, &rep); err != nil || rep.Canary == nil || !rep.Canary.Promoted {
		p.fail = "reload answered 200 without a promoted canary report"
		return p
	}
	p.replayed = rep.Canary.ReplayedRows
	return p
}

// operator alternates delta and full promotions back to back until stop
// is closed, timing each from its send.
func operator(hc *http.Client, opsBase, prefix string, delta []byte, stop <-chan struct{}) []promotion {
	var out []promotion
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out
		default:
		}
		out = append(out, promote(hc, opsBase, prefix, delta, i%2 == 0))
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
