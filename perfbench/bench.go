package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	midasmetrics "repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/tpch"
)

const (
	// setupBoots is how many times a run sets the deployment up;
	// setup_s is the median.
	setupBoots = 9
	// probeOps is the length of the single-client determinism probe.
	probeOps = 24
	warmup   = 500 * time.Millisecond
	// rounds is how many interleaved closed/low/high rounds a run
	// keeps.
	rounds = 10
	// maxRounds caps the rounds a run measures when host steal forces
	// re-runs; stealLimit is the steal share that discards a round.
	maxRounds  = 18
	stealLimit = 0.02
)

type bench struct {
	w       workload
	seed    uint64
	seconds int
	work    string
	c       *http.Client
	members []*member
	l       *loader
	phases  []*phase
}

func newBench(w workload, seed uint64, seconds int, work string) (*bench, error) {
	b := &bench{w: w, seed: seed, seconds: seconds, work: work}
	b.c = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	ids := []string{memberA}
	if w.durable {
		ids = append(ids, memberB)
	}
	for _, id := range ids {
		m, err := newMember(id, work)
		if err != nil {
			return nil, err
		}
		b.members = append(b.members, m)
	}
	return b, nil
}

func (b *bench) stopAll() {
	for _, m := range b.members {
		m.stop()
	}
	b.c.CloseIdleConnections()
}

func (b *bench) peers() string {
	var parts []string
	for _, m := range b.members {
		parts = append(parts, m.id+"="+m.url)
	}
	return strings.Join(parts, ",")
}

func (b *bench) pristine(id string) string { return filepath.Join(b.work, "pristine", id) }

// prepare builds each member's pre-built data dir: a long seeded
// history for every federation the ring places on it.
func (b *bench) prepare() error {
	errs := make([]error, len(b.members))
	var wg sync.WaitGroup
	for i, m := range b.members {
		var feds []string
		for _, f := range b.w.federations() {
			if ringOwner(f) == m.id {
				feds = append(feds, f)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			self, _ := os.Executable()
			out, err := execOutput(self, "serve", "--workload", b.w.name, "--data-dir", b.pristine(m.id),
				"--prepare", fmt.Sprint(prepHistory), "--feds", strings.Join(feds, ","),
				"--prepare-seed", fmt.Sprint(int64(b.seed%1_000_000)+1000))
			if err != nil {
				errs[i] = fmt.Errorf("preparing %s: %v: %s", m.id, err, out)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// boot starts every member (from a fresh copy of the pre-built data
// dir when durable) and returns the seconds from spawning the first
// process until every member's /readyz answers 200.
func (b *bench) boot(traced bool) (float64, error) {
	b.stopAll()
	for _, m := range b.members {
		if b.w.durable {
			if err := copyDir(b.pristine(m.id), m.dataDir); err != nil {
				return 0, err
			}
		}
	}
	began := time.Now()
	for _, m := range b.members {
		args := []string{"--workload", b.w.name, "--spans", filepath.Join(b.work, m.id+"-spans.tsv")}
		if traced {
			args = append(args, "--trace")
		}
		if b.w.durable {
			args = append(args, "--node", m.id, "--peers", b.peers(), "--data-dir", m.dataDir)
		}
		if err := m.start(args...); err != nil {
			return 0, err
		}
	}
	deadline := began.Add(120 * time.Second)
	for _, m := range b.members {
		if err := m.waitReady(b.c, deadline); err != nil {
			return 0, err
		}
	}
	return time.Since(began).Seconds(), nil
}

// settle readies a booted deployment for measurement: in the durable
// cluster every member must own a federation and every replication
// stream must be streaming; clients learn each federation's owner.
func (b *bench) settle() error {
	for _, f := range b.w.federations() {
		b.l.setOwner(f, b.members[0].url)
	}
	if !b.w.durable {
		return nil
	}
	for _, m := range b.members {
		var st server.StatsResponse
		if err := getJSON(b.c, m.url+"/v1/stats", &st); err != nil {
			return err
		}
		if st.Cluster == nil || len(st.Cluster.Owned) == 0 {
			return fmt.Errorf("check failed: member %s owns no federation", m.id)
		}
	}
	var cl server.ClusterResponse
	if err := getJSON(b.c, b.members[0].url+"/v1/cluster", &cl); err != nil {
		return err
	}
	addr := map[string]string{}
	for _, m := range cl.Members {
		addr[m.ID] = m.Addr
	}
	for f, p := range cl.Placements {
		b.l.setOwner(f, addr[p.Owner])
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, m := range b.members {
		for {
			var h server.ClusterHealthResponse
			if err := getJSON(b.c, m.url+"/v1/cluster/health", &h); err != nil {
				return err
			}
			streaming := len(h.Replication) > 0
			for _, s := range h.Replication {
				streaming = streaming && s == "streaming"
			}
			if streaming {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s replication never reached streaming: %v", m.id, h.Replication)
			}
			sleepFor(time.Millisecond)
		}
	}
	return nil
}

// snapshot is the deployment's counters at a phase boundary.
type snapshot struct {
	prom  map[string]float64
	stats server.FederationStats // summed over federations and members
	use   usage                  // summed over members
	gen   float64                // generator CPU µs
}

func (b *bench) snap() (snapshot, error) {
	s := snapshot{prom: map[string]float64{}, gen: selfCPU()}
	for _, m := range b.members {
		p, err := promSums(b.c, m.url+"/metrics")
		if err != nil {
			return s, err
		}
		for k, v := range p {
			s.prom[k] += v
		}
		var st server.StatsResponse
		if err := getJSON(b.c, m.url+"/v1/stats", &st); err != nil {
			return s, err
		}
		for _, f := range st.Federations {
			s.stats.Completed += f.Completed
			s.stats.Failed += f.Failed
			s.stats.Rejected += f.Rejected
			s.stats.Timeouts += f.Timeouts
			s.stats.Sweeps += f.Sweeps
			s.stats.PlansEstimated += f.PlansEstimated
		}
		var u usage
		if err := getJSON(b.c, m.ctlURL+"/usage", &u); err != nil {
			return s, err
		}
		s.use.CPUUS += u.CPUUS
		s.use.AllocBytes += u.AllocBytes
		s.use.GCCPUS += u.GCCPUS
		s.use.TotalCPUS += u.TotalCPUS
	}
	return s, nil
}

// hostSteal reads the steal and total jiffies of /proc/stat's cpu line.
func hostSteal() [2]float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var out [2]float64
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i == 7 {
			out[0] = v
		}
		if i < 8 {
			out[1] += v
		}
	}
	return out
}

func selfCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (b *bench) arm(on bool) error {
	v := "0"
	if on {
		v = "1"
	}
	for _, m := range b.members {
		resp, err := b.c.Post(m.ctlURL+"/arm?on="+v, "text/plain", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
	}
	return nil
}

func (b *bench) newPhase(name string) *phase {
	p := &phase{name: name}
	b.phases = append(b.phases, p)
	return p
}

// probe sends the probe ops one at a time and keeps the decisions for
// the determinism check.
func (b *bench) probe(ops []op) error {
	p := b.newPhase("probe")
	for _, o := range ops {
		s, r := b.l.do(o, time.Now())
		p.add(s)
		if r == nil {
			return fmt.Errorf("check failed: probe: %v", b.l.errs)
		}
		b.l.probeOut = append(b.l.probeOut, keyOf(r))
	}
	return nil
}

// reference replays the probe against an in-process server built from
// the same spec and seed and driven through ServeSubmit, returning its
// decisions.
func (b *bench) reference(ops []op) ([][]byte, error) {
	cfg := server.Config{}
	var srv *server.Server
	var err error
	switch {
	case b.w.durable:
		ref := filepath.Join(b.work, "reference")
		for _, f := range b.w.federations() {
			esc := url.PathEscape(f)
			if err := copyDir(filepath.Join(b.pristine(ringOwner(f)), esc), filepath.Join(ref, esc)); err != nil {
				return nil, err
			}
			cfg.Federations = append(cfg.Federations, server.FederationSpec{Name: f, Seed: serveSeed})
		}
		cfg.Store = server.StoreConfig{Dir: ref}
		srv, err = server.New(cfg)
	case b.w.name == "small-lattice":
		cfg.Federations = []server.FederationSpec{{Name: "default", Seed: serveSeed}}
		srv, err = server.New(cfg)
	default:
		name := b.w.federations()[0]
		cfg.Metrics = midasmetrics.NewRegistry()
		sched, aerr := assemble(b.w, name, cfg.Metrics, nil)
		if aerr != nil {
			return nil, aerr
		}
		srv, err = server.NewWithSchedulers(cfg, map[string]server.QueryScheduler{name: sched}, tpch.AllQueries)
	}
	if err != nil {
		return nil, err
	}
	defer srv.Drain(context.Background())
	var out [][]byte
	for _, o := range ops {
		var buf bytes.Buffer
		if st := srv.ServeSubmit(context.Background(), o.body, &buf); st != http.StatusOK {
			return nil, fmt.Errorf("reference: status %d: %s", st, buf.String())
		}
		var r server.QueryResponse
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
			return nil, err
		}
		out = append(out, keyOf(&r))
	}
	return out, nil
}

// handoffs moves federations back and forth between the members under
// low open-loop load and returns the client-observed times (ms) and
// the server's responses.
func (b *bench) handoffs(d time.Duration, rng *rand.Rand) ([]float64, []server.HandoffResponse, error) {
	p := b.newPhase("handoff")
	b.l.reads = false
	defer func() { b.l.reads = true }()
	done := make(chan struct{})
	go func() {
		b.l.openLoop(p, b.w.low, d, rng)
		close(done)
	}()
	byURL := map[string]*member{}
	for _, m := range b.members {
		byURL[m.url] = m
	}
	feds := b.w.federations()
	var times []float64
	var resps []server.HandoffResponse
	var err error
	end := time.Now().Add(d - 100*time.Millisecond)
	for i := 0; time.Now().Before(end); i++ {
		f := feds[i%len(feds)]
		from := b.l.ownerOf(f)
		target := b.members[0]
		if byURL[from] == target {
			target = b.members[1]
		}
		began := time.Now()
		resp, perr := b.c.Post(from+"/v1/admin/handoff?federation="+url.QueryEscape(f)+"&target="+target.id, "application/json", nil)
		if perr != nil {
			err = perr
			break
		}
		var hr server.HandoffResponse
		derr := json.NewDecoder(resp.Body).Decode(&hr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			err = fmt.Errorf("handoff of %s to %s: status %d", f, target.id, resp.StatusCode)
			break
		}
		times = append(times, float64(time.Since(began))/1e6)
		resps = append(resps, hr)
		b.l.setOwner(f, target.url)
		sleepFor(25 * time.Millisecond)
	}
	<-done
	return times, resps, err
}

// checkAcked verifies zero acked-write loss: each owner's history
// holds the pre-built observations plus every acknowledged decision.
func (b *bench) checkAcked() error {
	for _, f := range b.w.federations() {
		for _, q := range queries {
			var h server.HistoryResponse
			u := b.l.ownerOf(f) + "/v1/history/" + q + "?limit=1&federation=" + url.QueryEscape(f)
			if err := getJSON(b.c, u, &h); err != nil {
				return err
			}
			want := prepHistory + b.l.acked[f+"/"+q]
			if h.Len != want && !(b.l.retried > 0 && h.Len > want) {
				return fmt.Errorf("check failed: %s %s history holds %d observations, want %d recovered + acked", f, q, h.Len, want)
			}
		}
	}
	return nil
}

func (b *bench) duration(frac float64) time.Duration {
	return time.Duration(frac * float64(b.seconds) * float64(time.Second))
}

// run executes one benchmark run and assembles its result.
func (b *bench) run(traced bool) (*result, error) {
	seed := b.seed
	b.l = newLoader(b.w, b.c, genOps(b.w, seed, 1<<16, true))
	probeSet := genOps(b.w, seed^0x9e3779b97f4a7c15, probeOps, false)
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e))
	if b.w.durable {
		if err := b.prepare(); err != nil {
			return nil, err
		}
	}
	share := 1.0 / 3
	if b.w.durable {
		share = 1.0 / 4
	}

	// The traced run first measures untraced closed-loop throughput on
	// a deployment of its own, for trace.overhead_ratio.
	var untracedQPS float64
	if traced {
		if _, err := b.boot(false); err != nil {
			return nil, err
		}
		if err := b.settle(); err != nil {
			return nil, err
		}
		b.l.closedLoop(b.newPhase("warmup"), warmup)
		var ps []*phase
		for i := 0; i < rounds; i++ {
			p := b.newPhase("reference-closed")
			b.l.closedLoop(p, b.duration(share)/rounds)
			ps = append(ps, p)
		}
		untracedQPS = qps(ps)
		b.stopAll()
		// Reset the per-deployment write ledger for the traced boot.
		b.l.acked = map[string]int{}
	}

	boots := setupBoots
	if traced {
		boots = 1
	}
	var setups []float64
	for i := 0; i < boots; i++ {
		s, err := b.boot(traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	afterBoot, err := b.snap()
	if err != nil {
		return nil, err
	}
	if err := b.settle(); err != nil {
		return nil, err
	}
	if err := b.probe(probeSet); err != nil {
		return nil, err
	}
	b.l.closedLoop(b.newPhase("warmup"), warmup)

	before, err := b.snap()
	if err != nil {
		return nil, err
	}
	// Boot's transient allocations set a peak that depends on when the
	// collector happened to run; rss_peak_mb is the peak while serving
	// the measured load.
	for _, m := range b.members {
		if err := m.resetHWM(); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := b.arm(true); err != nil {
			return nil, err
		}
	}
	closed, low, high, rs, err := b.measureRounds(b.duration(share)/rounds, rng)
	if err != nil {
		return nil, err
	}
	after, err := b.snap()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d rounds kept, %d discarded; %.2f%% of CPU time stolen by the host in kept rounds\n",
		b.w.name, rounds, rs.discarded, 100*rs.steal)
	if traced {
		if err := b.arm(false); err != nil {
			return nil, err
		}
	}
	var handoffMS []float64
	var handoffResps []server.HandoffResponse
	if b.w.durable {
		if handoffMS, handoffResps, err = b.handoffs(b.duration(share), rng); err != nil {
			return nil, err
		}
	}

	var checkErrs []string
	if b.w.durable {
		if err := b.checkAcked(); err != nil {
			checkErrs = append(checkErrs, err.Error())
		}
	}
	var rssKB float64
	for _, m := range b.members {
		if !m.running() {
			return nil, fmt.Errorf("%s exited during the run (see %s)", m.id, m.logPath)
		}
		v, err := m.vmHWM()
		if err != nil {
			return nil, err
		}
		rssKB += v
	}
	var sums []*traceSummary
	if traced {
		for _, m := range b.members {
			var s traceSummary
			if err := getJSON(b.c, m.ctlURL+"/trace", &s); err != nil {
				return nil, err
			}
			sums = append(sums, &s)
		}
	}
	b.stopAll()

	ref, err := b.reference(probeSet)
	if err != nil {
		return nil, err
	}
	for i := range ref {
		if !bytes.Equal(ref[i], b.l.probeOut[i]) {
			checkErrs = append(checkErrs, fmt.Sprintf("check failed: probe decision %d differs from the in-process reference:\n  served    %s\n  reference %s", i, b.l.probeOut[i], ref[i]))
			break
		}
	}

	// Every request of every phase counts: attempted, passed.
	attempted, passed := 0, 0
	for _, p := range b.phases {
		for _, s := range p.samples {
			attempted++
			if s.ok {
				passed++
			}
		}
	}
	failed := attempted - passed
	checkErrs = append(checkErrs, b.l.errs...)
	for _, e := range checkErrs {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	res := &result{
		Correct:   len(checkErrs) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed + len(checkErrs) - len(b.l.errs),
		Metrics:   map[string]metric{},
	}
	b.report(closed, low, high)
	if traced {
		b.layerMetrics(res, closed, low, high, rs, before, after, afterBoot, sums, untracedQPS, handoffMS, handoffResps)
		return res, nil
	}
	b.endToEnd(res, setups, closed, low, high, rssKB, passed, attempted)
	return res, nil
}

// roundStats describes the rounds a run measured.
type roundStats struct {
	discarded int
	steal     float64 // share of CPU time stolen by the host in kept rounds
}

// measureRounds runs interleaved rounds of a closed loop and open loops
// at the low and high rates, each phase slice long, so slow drift in
// the box's speed touches every phase alike. A round in which the host
// stole more than stealLimit of the CPU time measures the host, not
// the program: it is discarded and another is run, up to maxRounds in
// all, after which the least-stolen rounds are kept. Metrics pool the
// kept rounds; discarded ones still count for success_ratio and the
// output checks.
func (b *bench) measureRounds(slice time.Duration, rng *rand.Rand) (closed, low, high []*phase, rs roundStats, err error) {
	type round struct {
		closed, low, high *phase
		steal, ticks      float64
	}
	var kept, dirty []round
	for total := 0; len(kept) < rounds && total < maxRounds; total++ {
		var r round
		s0 := hostSteal()
		r.closed = b.newPhase("closed")
		b.l.closedLoop(r.closed, slice)
		r.low = b.newPhase("low")
		b.l.openLoop(r.low, b.w.low, slice, rng)
		r.high = b.newPhase("high")
		cpu0, err := b.serverCPU()
		if err != nil {
			return nil, nil, nil, rs, err
		}
		b.l.openLoop(r.high, b.w.high, slice, rng)
		cpu1, err := b.serverCPU()
		if err != nil {
			return nil, nil, nil, rs, err
		}
		r.high.cpuUS = cpu1 - cpu0
		s1 := hostSteal()
		r.steal, r.ticks = s1[0]-s0[0], s1[1]-s0[1]
		if r.steal <= stealLimit*r.ticks {
			kept = append(kept, r)
		} else {
			dirty = append(dirty, r)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].steal/dirty[i].ticks < dirty[j].steal/dirty[j].ticks })
	for len(kept) < rounds && len(dirty) > 0 {
		kept, dirty = append(kept, dirty[0]), dirty[1:]
	}
	rs.discarded = len(dirty)
	var stolen, ticks float64
	for _, r := range kept {
		closed, low, high = append(closed, r.closed), append(low, r.low), append(high, r.high)
		stolen += r.steal
		ticks += r.ticks
	}
	rs.steal = stolen / max(1, ticks)
	return closed, low, high, rs, nil
}

// serverCPU sums the server processes' user+system CPU (µs).
func (b *bench) serverCPU() (float64, error) {
	var total float64
	for _, m := range b.members {
		var u usage
		if err := getJSON(b.c, m.ctlURL+"/usage", &u); err != nil {
			return 0, err
		}
		total += u.CPUUS
	}
	return total, nil
}

// qps is the completions per second over the rounds.
func qps(ps []*phase) float64 {
	var n, secs float64
	for _, p := range ps {
		n += float64(len(p.samples))
		secs += p.elapsed.Seconds()
	}
	return n / secs
}

func samplesOf(ps ...[]*phase) []sample {
	var out []sample
	for _, series := range ps {
		for _, p := range series {
			out = append(out, p.samples...)
		}
	}
	return out
}

func (b *bench) endToEnd(res *result, setups []float64, closed, low, high []*phase, rssKB float64, passed, attempted int) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("setup_s", "s", quantile(setups, 0.5))
	set("throughput_qps", "1/s", qps(closed))
	setLatency(res, "lat_p50_ms", 0.5, low, high)
	met, open := 0, 0
	for _, s := range samplesOf(low, high) {
		open++
		if s.ok && s.latMS <= b.w.sloMS {
			met++
		}
	}
	set("slo_met_ratio", "ratio", float64(met)/float64(open))
	set("success_ratio", "ratio", float64(passed)/float64(attempted))
	mreT, _ := stats.MRE(b.l.measT, b.l.estT)
	mreU, _ := stats.MRE(b.l.measUSD, b.l.estUSD)
	set("estimate_mre_time", "ratio", mreT)
	set("estimate_mre_usd", "ratio", mreU)
	set("rss_peak_mb", "MB", rssKB/1024)
	var cpu float64
	for _, p := range high {
		cpu += p.cpuUS
	}
	set("cpu_us_per_req", "us", cpu/float64(len(samplesOf(high))))
	// Reads come from the open loops only: their arrival process is
	// fixed by the seed, so the share of reads that contend with a
	// sweep does not follow the closed loop's throughput.
	var reads []sample
	for _, s := range samplesOf(low, high) {
		if s.read {
			reads = append(reads, s)
		}
	}
	set("read_p50_ms", "ms", quantile(latencies(reads), 0.5))
}

// setLatency sets name.low and name.high to the q-quantile latency of
// the open-loop decisions in the kept rounds. Reads have their own
// metric: mixed in, the share of fast reads a round happens to draw
// would move the decisions' percentiles.
func setLatency(res *result, name string, q float64, low, high []*phase) {
	at := func(ps []*phase) float64 {
		var lat []float64
		for _, s := range samplesOf(ps) {
			if !s.read {
				lat = append(lat, s.latMS)
			}
		}
		return quantile(lat, q)
	}
	res.Metrics[name+".low"] = metric{at(low), "ms"}
	res.Metrics[name+".high"] = metric{at(high), "ms"}
}

// latencies returns the samples' latencies (ms).
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latMS
	}
	return out
}

// report prints every phase's percentiles with sample counts to
// stderr, p99 included, for the reader; the JSON carries the gated
// metrics only.
func (b *bench) report(series ...[]*phase) {
	for _, ps := range series {
		var elapsed float64
		for _, p := range ps {
			elapsed += p.elapsed.Seconds()
		}
		var perRound []string
		var late []float64
		for _, p := range ps {
			perRound = append(perRound, fmt.Sprintf("%.2f/%.2f", quantile(latencies(p.samples), 0.5), quantile(latencies(p.samples), 0.9)))
			late = append(late, p.lateUS...)
		}
		fmt.Fprintf(os.Stderr, "  rounds p50/p90: %v  late p50 %.0fus p99 %.0fus\n", perRound, quantile(late, 0.5), quantile(late, 0.99))
		lat := latencies(samplesOf(ps))
		n := len(lat)
		fmt.Fprintf(os.Stderr, "%s %s: n=%d in %.2fs  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms (%d samples beyond p99)\n",
			b.w.name, ps[0].name, n, elapsed, quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), n/100)
	}
}

func (b *bench) layerMetrics(res *result, closed, low, high []*phase, rs roundStats, before, after, afterBoot snapshot,
	sums []*traceSummary, untracedQPS float64, handoffMS []float64, handoffs []server.HandoffResponse) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := func(name string) float64 { return after.prom[name] - before.prom[name] }
	var n, reqs, redirects, decisions, joiners float64
	var lateAll []float64
	for _, p := range append(append(append([]*phase(nil), closed...), low...), high...) {
		for _, s := range p.samples {
			reqs++
			redirects += float64(s.redirects)
			if !s.read && s.ok {
				decisions++
				if s.coalesced {
					joiners++
				}
			}
		}
		lateAll = append(lateAll, p.lateUS...)
	}
	// Server-side figures are means over every member's spans.
	var handler, self, sweeps, sweepMS, sweepSelf, estMS, estCalls, decides, decideUS, decideSelf, execUS float64
	byReq := map[int64]float64{}
	for _, s := range sums {
		r := float64(s.Requests)
		n += r
		handler += s.HandlerUS * r
		self += s.ServerSelfUS * r
		sw := float64(s.Sweeps)
		sweeps += sw
		sweepMS += s.SweepMS * sw
		sweepSelf += s.SweepSelfMS * sw
		estMS += s.EstimateMS * sw
		estCalls += s.EstimateCalls * sw
		dc := float64(s.Decides)
		decides += dc
		decideUS += s.DecideUS * dc
		decideSelf += s.DecideSelfUS * dc
		execUS += s.ExecuteUS * dc
		for k, v := range s.HandlerByReq {
			byReq[k] += v
		}
	}
	var net []float64
	for _, s := range samplesOf(closed, low, high) {
		if h, ok := byReq[s.req]; ok && !s.read {
			net = append(net, s.svcUS-h)
		}
	}
	// The p90s move with the host's CPU and fsync contention by more
	// than the largest bound an end-to-end metric may have, so they are
	// reported here, ungated.
	setLatency(res, "lat_p90_ms", 0.9, low, high)
	set("net.overhead_us", "us", mean(net))
	set("server.handler_us", "us", ratio(handler, n))
	set("server.self_us", "us", ratio(self, n))
	set("server.alloc_bytes_per_req", "B", ratio(after.use.AllocBytes-before.use.AllocBytes, reqs))
	set("server.gc_cpu_fraction", "ratio", ratio(after.use.GCCPUS-before.use.GCCPUS, after.use.TotalCPUS-before.use.TotalCPUS))
	set("server.joiner_ratio", "ratio", ratio(joiners, decisions))
	set("server.rejected", "count", float64(after.stats.Rejected-before.stats.Rejected))
	set("server.failed", "count", float64(after.stats.Failed-before.stats.Failed))
	set("server.timeouts", "count", float64(after.stats.Timeouts-before.stats.Timeouts))
	dSweeps := float64(after.stats.Sweeps - before.stats.Sweeps)
	set("ires.sweep_ms", "ms", ratio(sweepMS, sweeps))
	set("ires.sweep_self_ms", "ms", ratio(sweepSelf, sweeps))
	set("ires.sweeps_per_req", "ratio", ratio(dSweeps, float64(after.stats.Completed-before.stats.Completed)))
	set("ires.plans_estimated_per_sweep", "count", ratio(float64(after.stats.PlansEstimated-before.stats.PlansEstimated), dSweeps))
	set("ires.decide_us", "us", ratio(decideUS, decides))
	set("ires.decide_self_us", "us", ratio(decideSelf, decides))
	set("core.estimate_ms_per_sweep", "ms", ratio(estMS, sweeps))
	set("core.estimate_calls_per_sweep", "count", ratio(estCalls, sweeps))
	set("core.window_searches_per_sweep", "ratio", ratio(d("midas_window_searches_total"), dSweeps))
	hits, misses := d("midas_model_cache_hits_total"), d("midas_model_cache_misses_total")
	set("core.model_cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	set("core.clamped_estimate_ratio", "ratio", ratio(float64(b.l.clamped), float64(b.l.decided)))
	set("federation.execute_us", "us", ratio(execUS, decides))
	appends := d("midas_histstore_wal_append_seconds_count")
	set("histstore.wal_append_us", "us", 1e6*ratio(d("midas_histstore_wal_append_seconds_sum"), appends))
	set("histstore.commit_batch_mean", "count", ratio(d("midas_histstore_commit_batch_size_sum"), d("midas_histstore_commit_batch_size_count")))
	set("histstore.fsyncs_per_write", "ratio", ratio(d("midas_histstore_commit_batch_size_count"), appends))
	set("histstore.recovery_s", "s", afterBoot.prom["midas_histstore_recovery_seconds_sum"])
	set("histstore.recovered_observations", "count", afterBoot.prom["midas_histstore_recovered_observations_total"])
	set("cluster.redirects_per_req", "ratio", ratio(redirects, reqs))
	set("cluster.frames_shipped_per_write", "ratio", ratio(d("midas_cluster_frames_shipped_total"), appends))
	var moved, serverMS []float64
	for _, h := range handoffs {
		total := 0
		for _, v := range h.Observations {
			total += v
		}
		moved = append(moved, float64(total))
		serverMS = append(serverMS, h.DurationMS)
	}
	set("cluster.handoff_client_ms", "ms", quantile(handoffMS, 0.5))
	set("cluster.handoff_server_ms", "ms", quantile(serverMS, 0.5))
	set("cluster.handoff_observations", "count", mean(moved))
	set("gen.late_p50_us", "us", quantile(lateAll, 0.5))
	set("gen.late_p99_us", "us", quantile(lateAll, 0.99))
	set("gen.cpu_us_per_req", "us", ratio(after.gen-before.gen, reqs))
	set("host.steal_ratio", "ratio", rs.steal)
	set("host.rounds_discarded", "count", float64(rs.discarded))
	set("trace.overhead_ratio", "ratio", ratio(qps(closed), untracedQPS))
	// Closed-loop wall time per request outside any request's
	// send-to-response interval: generator time no layer accounts for.
	var busy, wall float64
	for _, p := range closed {
		wall += float64(clients) * p.elapsed.Seconds() * 1e6
	}
	cs := samplesOf(closed)
	for _, s := range cs {
		busy += s.svcUS
	}
	set("trace.unattributed_us", "us", ratio(wall-busy, float64(len(cs))))
	unlinked := 0
	for _, s := range sums {
		unlinked += s.UnlinkedDecide
	}
	fmt.Fprintf(os.Stderr, "%s trace: %d handler spans, %d sweeps, %d decides (%d not linked to a handler); %d matched requests\n",
		b.w.name, int(n), int(sweeps), int(decides), unlinked, len(net))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// execOutput runs a command to completion and returns its combined
// output.
func execOutput(name string, args ...string) (string, error) {
	var buf bytes.Buffer
	cmd := newCmd(name, args...)
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	return buf.String(), err
}
