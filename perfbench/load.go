package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// clients is the generator's concurrency: at most this many requests
// are in flight.
var clients = runtime.NumCPU()

// sample is one completed request.
type sample struct {
	read      bool
	ok        bool
	latMS     float64 // from due time (open loop) or send time (closed loop)
	svcUS     float64 // from send to last byte
	req       int64
	redirects int
	coalesced bool
}

// phase collects the samples of one stretch of load: a closed loop or
// an open loop at one rate.
type phase struct {
	name    string
	mu      sync.Mutex
	samples []sample
	lateUS  []float64
	elapsed time.Duration
	cpuUS   float64 // server CPU spent during the phase, when measured
}

func (p *phase) add(s sample) {
	p.mu.Lock()
	p.samples = append(p.samples, s)
	p.mu.Unlock()
}

// loader sends the generated ops at the deployment, following 307s and
// caching each federation's owner as midasload does, and checks every
// response.
type loader struct {
	w      workload
	c      *http.Client
	ops    []op
	next   atomic.Int64
	reqIDs atomic.Int64
	reads  bool // whether history reads are sent (off during handoffs)

	mu    sync.Mutex
	owner map[string]string // federation → base URL
	errs  []string
	// acked counts 2xx decisions per federation/query; costs holds
	// (measured, estimated) time and money of every decision.
	acked    map[string]int
	retried  int
	measT    []float64
	estT     []float64
	measUSD  []float64
	estUSD   []float64
	decided  int
	clamped  int // decisions with an estimate clamped to 0
	probeOut [][]byte
}

func newLoader(w workload, c *http.Client, ops []op) *loader {
	return &loader{w: w, c: c, ops: ops, owner: map[string]string{}, acked: map[string]int{}, reads: true}
}

func (l *loader) setOwner(fed, base string) {
	l.mu.Lock()
	l.owner[fed] = base
	l.mu.Unlock()
}

func (l *loader) ownerOf(fed string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owner[fed]
}

func (l *loader) fail(format string, args ...any) {
	l.mu.Lock()
	if len(l.errs) < 8 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// nextOp draws the next op of the pool, skipping reads when they are
// off.
func (l *loader) nextOp() op {
	for {
		o := l.ops[int(l.next.Add(1)-1)%len(l.ops)]
		if !o.read || l.reads {
			return o
		}
	}
}

// do sends one op and checks its response. It returns the sample, with
// latency measured from sent, and for a decision that passed its
// checks the response.
func (l *loader) do(o op, sent time.Time) (sample, *server.QueryResponse) {
	s := sample{read: o.read, req: l.reqIDs.Add(1)}
	body, err := l.send(o, s.req, &s)
	s.svcUS = float64(time.Since(sent)) / 1e3
	s.latMS = s.svcUS / 1e3
	if err != nil {
		l.fail("%s %s: %v", o.fed, o.query, err)
		return s, nil
	}
	if o.read {
		var h server.HistoryResponse
		if err := json.Unmarshal(body, &h); err != nil {
			l.fail("history: %v", err)
			return s, nil
		}
		if err := checkHistory(o, &h); err != nil {
			l.fail("%v", err)
			return s, nil
		}
		s.ok = true
		return s, nil
	}
	var r server.QueryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		l.fail("decision: %v", err)
		return s, nil
	}
	if err := checkDecision(l.w, o, &r); err != nil {
		l.fail("%s %s: %v", o.fed, o.query, err)
		return s, nil
	}
	s.ok, s.coalesced = true, r.Coalesced
	l.mu.Lock()
	l.acked[o.fed+"/"+o.query]++
	l.measT = append(l.measT, r.MeasuredTimeS)
	l.estT = append(l.estT, r.EstimatedTimeS)
	l.measUSD = append(l.measUSD, r.MeasuredUSD)
	l.estUSD = append(l.estUSD, r.EstimatedUSD)
	l.decided++
	if r.EstimatedTimeS == 0 || r.EstimatedUSD == 0 {
		l.clamped++
	}
	l.mu.Unlock()
	return s, &r
}

// send performs the HTTP exchange, following ownership redirects and
// retrying 503s (a federation mid-handoff), and returns the 2xx body.
func (l *loader) send(o op, reqID int64, s *sample) ([]byte, error) {
	base := l.ownerOf(o.fed)
	for attempt := 0; attempt < 200; attempt++ {
		var req *http.Request
		if o.read {
			u := base + "/v1/history/" + o.query + "?limit=" + strconv.Itoa(readLimit)
			if l.w.durable {
				u += "&federation=" + url.QueryEscape(o.fed)
			}
			req, _ = http.NewRequest(http.MethodGet, u, nil)
		} else {
			req, _ = http.NewRequest(http.MethodPost, base+"/v1/queries", bytes.NewReader(o.body))
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("X-Request-Id", strconv.FormatInt(reqID, 10))
		resp, err := l.c.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return body, nil
		case resp.StatusCode == http.StatusTemporaryRedirect:
			loc, err := url.Parse(resp.Header.Get("Location"))
			if err != nil || loc.Host == "" {
				return nil, fmt.Errorf("307 without a usable Location: %q", resp.Header.Get("Location"))
			}
			base = loc.Scheme + "://" + loc.Host
			l.setOwner(o.fed, base)
			s.redirects++
		case resp.StatusCode == http.StatusServiceUnavailable:
			l.mu.Lock()
			l.retried++
			l.mu.Unlock()
			sleepFor(time.Millisecond)
		default:
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	return nil, fmt.Errorf("gave up after 200 redirects and retries")
}

// closedLoop runs `clients` workers, each sending its next request
// when the previous one completes.
func (l *loader) closedLoop(p *phase, d time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				s, _ := l.do(l.nextOp(), time.Now())
				p.add(s)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
}

// openLoop sends Poisson arrivals at rate/s for d. One pacer thread
// sleeps in nanosleep until each request is due and records how late
// it woke; `clients` workers send the due requests in order. Latency
// runs from the due time, so a stall also charges the requests queued
// behind it.
func (l *loader) openLoop(p *phase, rate float64, d time.Duration, rng *rand.Rand) {
	type job struct {
		o   op
		due time.Time
	}
	// The queue holds every arrival the workers have not picked up yet;
	// it is sized far beyond a phase's backlog at the workloads' rates,
	// so the pacer never blocks on it and keeps its schedule.
	queue := make(chan job, 1<<16)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				s, _ := l.do(j.o, time.Now())
				s.latMS = float64(time.Since(j.due)) / 1e6
				p.add(s)
			}
		}()
	}
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * 1e9))
		if due.Sub(start) >= d {
			break
		}
		sleepFor(time.Until(due))
		late := time.Since(due)
		p.lateUS = append(p.lateUS, float64(late)/1e3)
		queue <- job{l.nextOp(), due}
	}
	close(queue)
	wg.Wait()
	p.elapsed = time.Since(start)
}

// quantile is the linearly interpolated q-quantile of xs (0 when
// empty); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
