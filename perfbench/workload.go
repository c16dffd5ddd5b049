package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/cluster"
	"repro/internal/server"
)

// workload is one traffic mix against one server assembly. Rates and
// limits are fixed here and recorded in BENCHMARK.json; only the
// request mix, the arrival times and the pre-built data dir depend on
// the seed.
type workload struct {
	name string
	// low and high are the open-loop Poisson rates (requests/s).
	low, high float64
	// sloMS is the latency limit slo_met_ratio counts against.
	sloMS float64
	// nodes is the cluster-size menu; the lattice holds 2·len(nodes)²
	// QEPs per query.
	nodes []int
	// durable runs a two-member group-commit, replicated cluster that
	// restarts from a pre-built data dir.
	durable bool
}

var workloads = []workload{
	{name: "small-lattice", low: 500, high: 1500, sloMS: 5, nodes: []int{1, 2, 4}},
	{name: "wide-lattice", low: 25, high: 100, sloMS: 50, nodes: nodeRange(32)},
	{name: "durable-cluster", low: 200, high: 600, sloMS: 20, nodes: []int{1, 2, 4}, durable: true},
}

func nodeRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// planSpace is the QEP lattice size per query: join placement (two
// sites) times the node menu at each site.
func (w workload) planSpace() int { return 2 * len(w.nodes) * len(w.nodes) }

const (
	// readShare is the fraction of requests that are history reads.
	readShare = 0.1
	// readLimit pages each history read.
	readLimit = 20
	// prepHistory is the per-query history length of the pre-built
	// durable-cluster data dir.
	prepHistory = 3000
	// serveSeed is the FederationSpec seed every server runs with
	// (midasd's default): the benchmark seed shapes inputs only.
	serveSeed = 42
	// members names the durable cluster's nodes.
	memberA, memberB = "node-a", "node-b"
)

var queries = []string{"Q12", "Q13", "Q14", "Q17"}

// federations returns the hosted federation names: one standalone
// tenant, or four durable-cluster tenants chosen so the ring gives
// each member two. The ring places names that share a prefix close
// together (all of hospital-a…z land on one member), so candidates
// come from several prefixes.
func (w workload) federations() []string {
	switch {
	case w.durable:
		return clusterFederations()
	case w.name == "wide-lattice":
		return []string{"wide"}
	default:
		return []string{"default"}
	}
}

func clusterFederations() []string {
	ring, err := cluster.NewRing([]cluster.Member{{ID: memberA}, {ID: memberB}}, 0)
	if err != nil {
		panic(err)
	}
	per := map[string][]string{}
	for _, prefix := range []string{"hospital-", "clinic-", "lab-", "registry-"} {
		for c := 'a'; c <= 'z'; c++ {
			name := prefix + string(c)
			id := ring.Owner(name).ID
			if len(per[id]) < 2 {
				per[id] = append(per[id], name)
			}
		}
	}
	if len(per[memberA]) < 2 || len(per[memberB]) < 2 {
		panic(fmt.Sprintf("ring gives no member two candidate federations: %v", per))
	}
	out := append(append([]string(nil), per[memberA]...), per[memberB]...)
	sort.Strings(out)
	return out
}

// ringOwner is the member the consistent-hash ring places fed on.
func ringOwner(fed string) string {
	ring, err := cluster.NewRing([]cluster.Member{{ID: memberA}, {ID: memberB}}, 0)
	if err != nil {
		panic(err)
	}
	return ring.Owner(fed).ID
}

// op is one generated request: a decision (POST /v1/queries) or a
// history read (GET /v1/history/{query}).
type op struct {
	read  bool
	fed   string
	query string
	body  []byte
}

// policies are the six user policies of the mix.
var policies = []server.QueryRequest{
	{Weights: []float64{1, 1}},
	{Weights: []float64{3, 1}},
	{Weights: []float64{1, 3}},
	{Strategy: "knee"},
	{Strategy: "lex", LexOrder: []int{1, 0}, LexTolerance: 0.05},
	{Weights: []float64{1, 1}, Constraints: []float64{60, 0.05}},
}

// genOps draws n requests from the seeded mix.
func genOps(w workload, seed uint64, n int, reads bool) []op {
	rng := rand.New(rand.NewPCG(seed, 0x6d69646173))
	feds := w.federations()
	out := make([]op, n)
	for i := range out {
		o := op{
			fed:   feds[rng.IntN(len(feds))],
			query: queries[rng.IntN(len(queries))],
			read:  reads && rng.Float64() < readShare,
		}
		if !o.read {
			req := policies[rng.IntN(len(policies))]
			req.Query = o.query
			if len(feds) > 1 {
				req.Federation = o.fed
			}
			b, err := json.Marshal(req)
			if err != nil {
				panic(err)
			}
			o.body = b
		}
		out[i] = o
	}
	return out
}

// decisionKey is the part of a response that must be reproducible:
// everything but wall-clock latency and cluster stamps.
type decisionKey struct {
	Federation     string          `json:"federation"`
	Query          string          `json:"query"`
	Plan           server.PlanJSON `json:"plan"`
	EstimatedTimeS float64         `json:"estimated_time_s"`
	EstimatedUSD   float64         `json:"estimated_usd"`
	MeasuredTimeS  float64         `json:"measured_time_s"`
	MeasuredUSD    float64         `json:"measured_usd"`
	ParetoSize     int             `json:"pareto_size"`
	PlanSpace      int             `json:"plan_space"`
	PlansEstimated int             `json:"plans_estimated"`
	PrunePolicy    string          `json:"prune_policy"`
}

func keyOf(r *server.QueryResponse) []byte {
	b, _ := json.Marshal(decisionKey{r.Federation, r.Query, r.Plan, r.EstimatedTimeS,
		r.EstimatedUSD, r.MeasuredTimeS, r.MeasuredUSD, r.ParetoSize, r.PlanSpace,
		r.PlansEstimated, r.PrunePolicy})
	return b
}

func positive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// checkDecision verifies one decision against its request and the
// workload's lattice.
func checkDecision(w workload, o op, r *server.QueryResponse) error {
	if r.Query != o.query {
		return fmt.Errorf("answered %s for a %s request", r.Query, o.query)
	}
	if w.durable && r.Federation != o.fed {
		return fmt.Errorf("answered federation %s for %s", r.Federation, o.fed)
	}
	inMenu := func(n int) bool {
		for _, m := range w.nodes {
			if m == n {
				return true
			}
		}
		return false
	}
	if !inMenu(r.Plan.NodesLeft) || !inMenu(r.Plan.NodesRight) || r.Plan.Query != o.query {
		return fmt.Errorf("plan %+v lies outside the lattice", r.Plan)
	}
	if r.PlanSpace != w.planSpace() || r.PlansEstimated != r.PlanSpace {
		return fmt.Errorf("plan_space %d, plans_estimated %d, want both %d", r.PlanSpace, r.PlansEstimated, w.planSpace())
	}
	if r.ParetoSize < 1 || r.ParetoSize > r.PlanSpace {
		return fmt.Errorf("pareto_size %d outside [1, %d]", r.ParetoSize, r.PlanSpace)
	}
	// The scheduler clamps negative model predictions to 0 (see
	// ires.estimateIndexed), so an estimate may be exactly 0; the
	// loader counts those as clamped. Measured costs must be positive.
	for _, v := range []float64{r.EstimatedTimeS, r.EstimatedUSD} {
		if v != 0 && !positive(v) {
			return fmt.Errorf("estimate %v is neither finite and positive nor a clamped 0", v)
		}
	}
	for _, v := range []float64{r.MeasuredTimeS, r.MeasuredUSD} {
		if !positive(v) {
			return fmt.Errorf("measured cost %v is not finite and positive", v)
		}
	}
	return nil
}

// checkHistory verifies one history page.
func checkHistory(o op, h *server.HistoryResponse) error {
	want := min(readLimit, h.Len)
	if h.Query != o.query || len(h.Observations) != want || h.Len < 1 {
		return fmt.Errorf("history %s: %d observations of %d, want %d", h.Query, len(h.Observations), h.Len, want)
	}
	for _, ob := range h.Observations {
		for _, c := range ob.Costs {
			if !positive(c) {
				return fmt.Errorf("history %s: cost %v is not finite and positive", h.Query, c)
			}
		}
	}
	return nil
}
