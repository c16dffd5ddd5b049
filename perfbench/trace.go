package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/server"
	"repro/internal/tpch"
)

// Span kinds, one per layer boundary the benchmark wraps.
const (
	kindHandler = iota // server: Handler().ServeHTTP of POST /v1/queries
	kindSweep          // ires: QueryScheduler.PlanSweep (the leader's sweep)
	kindDecide         // ires: QueryScheduler.DecideFromSweep (moo selection + record)
	kindExecute        // federation: Executor.Execute
)

var kindNames = [...]string{"server.handler", "ires.sweep", "ires.decide", "federation.execute"}

// span is one recorded interval. Times are nanoseconds since the
// recorder was created. ref ties a decide to the sweep it decided
// from (the sweep's address). Estimate calls — thousands per sweep on
// wide-lattice — are folded into their sweep as a call count and the
// time their union covers.
type span struct {
	kind       uint8
	id, parent int64
	req        int64
	start, end int64
	ref        uintptr
	calls      int32
	covered    int64
}

// recorder keeps spans in memory while armed; summarize links them
// and writes them out.
type recorder struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Int64

	mu    sync.Mutex
	spans []span

	// groups collects the estimate calls of each in-flight sweep, keyed
	// by the history snapshot the sweep scores against.
	groups sync.Map // *core.Snapshot → *estGroup
}

type estCall struct {
	start, end int64
	cost       *float64 // first element of the returned cost vector
}

type estGroup struct {
	mu    sync.Mutex
	calls []estCall
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrapHandler records a span around every POST /v1/queries.
func (r *recorder) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.Method != http.MethodPost || req.URL.Path != "/v1/queries" {
			h.ServeHTTP(w, req)
			return
		}
		start := r.now()
		h.ServeHTTP(w, req)
		end := r.now()
		id, _ := strconv.ParseInt(req.Header.Get("X-Request-Id"), 10, 64)
		r.add(span{kind: kindHandler, id: r.ids.Add(1), req: id, start: start, end: end})
	})
}

// tracedScheduler wraps server.QueryScheduler and forwards the
// optional server.Checkpointer capability.
type tracedScheduler struct {
	inner *ires.Scheduler
	rec   *recorder
}

var (
	_ server.QueryScheduler = (*tracedScheduler)(nil)
	_ server.Checkpointer   = (*tracedScheduler)(nil)
)

func (t *tracedScheduler) PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error) {
	armed := t.rec.on.Load()
	start := t.rec.now()
	sw, err := t.inner.PlanSweep(ctx, q)
	end := t.rec.now()
	calls, covered := t.rec.claimEstimates(sw, start, end)
	if armed && err == nil {
		t.rec.add(span{kind: kindSweep, id: t.rec.ids.Add(1), start: start, end: end,
			ref: uintptr(unsafe.Pointer(sw)), calls: calls, covered: covered})
	}
	return sw, err
}

func (t *tracedScheduler) DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error) {
	if !t.rec.on.Load() {
		return t.inner.DecideFromSweep(sw, pol)
	}
	start := t.rec.now()
	d, err := t.inner.DecideFromSweep(sw, pol)
	t.rec.add(span{kind: kindDecide, id: t.rec.ids.Add(1), start: start, end: t.rec.now(),
		ref: uintptr(unsafe.Pointer(sw))})
	return d, err
}

func (t *tracedScheduler) History(q tpch.QueryID) *core.History { return t.inner.History(q) }

func (t *tracedScheduler) Checkpoint() error { return t.inner.Checkpoint() }

// tracedExecutor wraps federation.Executor.
type tracedExecutor struct {
	inner federation.Executor
	rec   *recorder
}

func (e *tracedExecutor) Execute(p federation.Plan) (*federation.Outcome, error) {
	if !e.rec.on.Load() {
		return e.inner.Execute(p)
	}
	start := e.rec.now()
	out, err := e.inner.Execute(p)
	e.rec.add(span{kind: kindExecute, id: e.rec.ids.Add(1), start: start, end: e.rec.now()})
	return out, err
}

func (e *tracedExecutor) Features(p federation.Plan) ([]float64, error) { return e.inner.Features(p) }

// fullModel is every capability the scheduler probes its Modelling
// module for; the wrapper must forward all of them or the scheduler
// takes other code paths.
type fullModel interface {
	ires.SnapshotCostModel
	ires.ModelCacheSizer
	ires.EstimatorStatser
}

// tracedModel wraps the scheduler's ires.CostModel.
type tracedModel struct {
	inner fullModel
	rec   *recorder
}

var _ fullModel = (*tracedModel)(nil)

func newTracedModel(m ires.CostModel, rec *recorder) (*tracedModel, error) {
	fm, ok := m.(fullModel)
	if !ok {
		return nil, fmt.Errorf("model %s lacks an optional capability the tracer forwards", m.Name())
	}
	return &tracedModel{inner: fm, rec: rec}, nil
}

func (m *tracedModel) Name() string                        { return m.inner.Name() }
func (m *tracedModel) SetModelCacheSize(n int)             { m.inner.SetModelCacheSize(n) }
func (m *tracedModel) EstimatorStats() core.EstimatorStats { return m.inner.EstimatorStats() }

func (m *tracedModel) Estimate(h *core.History, x []float64) ([]float64, error) {
	return m.inner.Estimate(h, x)
}

func (m *tracedModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	if !m.rec.on.Load() {
		return m.inner.EstimateSnapshot(s, x)
	}
	start := m.rec.now()
	c, err := m.inner.EstimateSnapshot(s, x)
	end := m.rec.now()
	if err == nil && len(c) > 0 {
		g, ok := m.rec.groups.Load(s)
		if !ok {
			g, _ = m.rec.groups.LoadOrStore(s, &estGroup{})
		}
		eg := g.(*estGroup)
		eg.mu.Lock()
		eg.calls = append(eg.calls, estCall{start, end, &c[0]})
		eg.mu.Unlock()
	}
	return c, err
}

// claimEstimates finds the estimate calls that produced sw's cost
// vectors, removes them, and returns their count and the part of
// [start, end] their union covers.
func (r *recorder) claimEstimates(sw *ires.Sweep, start, end int64) (int32, int64) {
	if sw == nil || len(sw.Costs) == 0 || len(sw.Costs[0]) == 0 {
		return 0, 0
	}
	want := &sw.Costs[0][0]
	var found *estGroup
	r.groups.Range(func(k, v any) bool {
		g := v.(*estGroup)
		g.mu.Lock()
		for _, c := range g.calls {
			if c.cost == want {
				found = g
				break
			}
		}
		g.mu.Unlock()
		if found != nil {
			r.groups.Delete(k)
			return false
		}
		return true
	})
	if found == nil {
		return 0, 0
	}
	calls := found.calls
	sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
	var covered, curS, curE int64 = 0, -1, -1
	for _, c := range calls {
		s, e := max(c.start, start), min(c.end, end)
		if e <= s {
			continue
		}
		if s > curE {
			covered += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	covered += curE - curS
	return int32(len(calls)), covered
}

// traceSummary is what a traced server reports at the end of a run:
// per-layer means over the armed window, and each request's handler
// time for the benchmark to subtract from client latency.
type traceSummary struct {
	Requests       int               `json:"requests"`
	HandlerUS      float64           `json:"handler_us"`
	ServerSelfUS   float64           `json:"server_self_us"`
	Sweeps         int               `json:"sweeps"`
	SweepMS        float64           `json:"sweep_ms"`
	SweepSelfMS    float64           `json:"sweep_self_ms"`
	EstimateMS     float64           `json:"estimate_ms_per_sweep"`
	EstimateCalls  float64           `json:"estimate_calls_per_sweep"`
	Decides        int               `json:"decides"`
	DecideUS       float64           `json:"decide_us"`
	DecideSelfUS   float64           `json:"decide_self_us"`
	ExecuteUS      float64           `json:"execute_us"`
	UnlinkedDecide int               `json:"unlinked_decides"`
	HandlerByReq   map[int64]float64 `json:"handler_us_by_request"`
}

// summarize links the recorded spans — each decide to the handler
// span containing it and to the sweep it decided from, each execute
// to the decide containing it — computes self times, and writes every
// span to path.
func (r *recorder) summarize(path string) (*traceSummary, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	var handlers, sweeps, decides, execs []int
	for i, s := range spans {
		switch s.kind {
		case kindHandler:
			handlers = append(handlers, i)
		case kindSweep:
			sweeps = append(sweeps, i)
		case kindDecide:
			decides = append(decides, i)
		case kindExecute:
			execs = append(execs, i)
		}
	}
	dur := func(i int) float64 { return float64(spans[i].end - spans[i].start) }
	sum := &traceSummary{HandlerByReq: make(map[int64]float64, len(handlers))}

	// Sweeps by address, ordered by end, so a decide finds the last
	// sweep at its address that ended before it began.
	byRef := map[uintptr][]int{}
	for _, i := range sweeps {
		byRef[spans[i].ref] = append(byRef[spans[i].ref], i)
	}
	for _, l := range byRef {
		sort.Slice(l, func(a, b int) bool { return spans[l[a]].end < spans[l[b]].end })
	}
	// enclosing links s to the unclaimed candidate that contains it and
	// ends soonest after it: a decide is the last step of its handler
	// and an execute the last long step of its decide, so of two
	// concurrent enclosing spans the right one is the one that ends
	// first. cands is sorted by end.
	enclosing := func(cands []int, claimed map[int]bool, s span) int {
		k := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].end >= s.end })
		for ; k < len(cands) && spans[cands[k]].end-s.end < int64(time.Second); k++ {
			if c := cands[k]; !claimed[c] && spans[c].start <= s.start {
				return c
			}
		}
		return -1
	}
	byEnd := func(idx []int) []int {
		out := append([]int(nil), idx...)
		sort.Slice(out, func(a, b int) bool { return spans[out[a]].end < spans[out[b]].end })
		return out
	}
	handlersByEnd, decidesByEnd := byEnd(handlers), byEnd(decides)

	covered := map[int]float64{} // handler → ires time inside it
	claimedH := map[int]bool{}
	for _, d := range decidesByEnd {
		h := enclosing(handlersByEnd, claimedH, spans[d])
		if h < 0 {
			sum.UnlinkedDecide++
			continue
		}
		claimedH[h] = true
		spans[d].parent = spans[h].id
		c := dur(d)
		if l := byRef[spans[d].ref]; len(l) > 0 {
			k := sort.Search(len(l), func(k int) bool { return spans[l[k]].end > spans[d].start }) - 1
			if k >= 0 {
				sw := spans[l[k]]
				if from := max(sw.start, spans[h].start); sw.end > from {
					c += float64(sw.end - from)
				}
			}
		}
		covered[h] = c
	}
	execIn := map[int]float64{} // decide → execute time inside it
	claimedD := map[int]bool{}
	for _, e := range byEnd(execs) {
		d := enclosing(decidesByEnd, claimedD, spans[e])
		if d < 0 {
			continue
		}
		claimedD[d] = true
		spans[e].parent = spans[d].id
		execIn[d] += dur(e)
	}

	for _, h := range handlers {
		sum.HandlerUS += dur(h)
		sum.ServerSelfUS += dur(h) - covered[h]
		sum.HandlerByReq[spans[h].req] += dur(h) / 1e3
	}
	for _, s := range sweeps {
		sum.SweepMS += dur(s)
		sum.SweepSelfMS += dur(s) - float64(spans[s].covered)
		sum.EstimateMS += float64(spans[s].covered)
		sum.EstimateCalls += float64(spans[s].calls)
	}
	for _, d := range decides {
		sum.DecideUS += dur(d)
		sum.DecideSelfUS += dur(d) - execIn[d]
	}
	for _, e := range execs {
		sum.ExecuteUS += dur(e)
	}
	mean := func(total float64, n int, unit float64) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n) / unit
	}
	sum.Requests, sum.Sweeps, sum.Decides = len(handlers), len(sweeps), len(decides)
	sum.HandlerUS = mean(sum.HandlerUS, len(handlers), 1e3)
	sum.ServerSelfUS = mean(sum.ServerSelfUS, len(handlers), 1e3)
	sum.SweepMS = mean(sum.SweepMS, len(sweeps), 1e6)
	sum.SweepSelfMS = mean(sum.SweepSelfMS, len(sweeps), 1e6)
	sum.EstimateMS = mean(sum.EstimateMS, len(sweeps), 1e6)
	sum.EstimateCalls = mean(sum.EstimateCalls, len(sweeps), 1)
	sum.DecideUS = mean(sum.DecideUS, len(decides), 1e3)
	sum.DecideSelfUS = mean(sum.DecideSelfUS, len(decides), 1e3)
	sum.ExecuteUS = mean(sum.ExecuteUS, len(execs), 1e3)
	if path != "" {
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// writeSpans writes one tab-separated line per span: name, id,
// parent, request id, start and end (ns), and for sweeps the folded
// estimate calls and the time they cover.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name\tid\tparent\treq\tstart_ns\tend_ns\testimate_calls\testimate_covered_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", kindNames[s.kind], s.id, s.parent,
			s.req, s.start, s.end, s.calls, s.covered)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
