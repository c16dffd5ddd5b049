package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	midasmetrics "repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/tpch"
)

// Listener file descriptors a server process inherits from the
// benchmark: the API listener and the benchmark's control listener.
const (
	apiFD     = 3
	controlFD = 4
)

// serveMain is the server process: it assembles one member of the
// workload's deployment from the same constructors and http.Server
// settings cmd/midasd uses, serves the API on the inherited listener,
// and answers the benchmark's usage and trace queries on a separate
// control listener.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		wlName   = fs.String("workload", "", "workload name")
		traced   = fs.Bool("trace", false, "wrap scheduler, model and executor in tracing spans")
		nodeID   = fs.String("node", "", "cluster member id (durable-cluster)")
		peers    = fs.String("peers", "", "cluster membership as id=url,id=url")
		dataDir  = fs.String("data-dir", "", "durable history root")
		prepare  = fs.Int("prepare", 0, "build a data dir with this many observations per query, then exit")
		feds     = fs.String("feds", "", "comma-separated federations to prepare")
		prepSeed = fs.Int64("prepare-seed", 0, "seed of the prepared histories")
		spans    = fs.String("spans", "", "file the recorded spans are written to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*wlName)
	if err == nil && *prepare > 0 {
		err = prepareDataDir(*dataDir, strings.Split(*feds, ","), *prepare, *prepSeed)
		if err == nil {
			return 0
		}
	}
	if err == nil {
		err = serve(w, *traced, *nodeID, *peers, *dataDir, *spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve: %v\n", err)
		return 1
	}
	return 0
}

// prepareDataDir writes a long durable history for each named
// federation: a standalone server bootstraps n seeded executions per
// query into dir, and its drain checkpoints them into snapshots.
func prepareDataDir(dir string, feds []string, n int, seed int64) error {
	specs := make([]server.FederationSpec, len(feds))
	for i, f := range feds {
		specs[i] = server.FederationSpec{Name: f, Seed: seed, Bootstrap: n}
	}
	srv, err := server.New(server.Config{Federations: specs, Store: server.StoreConfig{Dir: dir}})
	if err != nil {
		return err
	}
	return srv.Drain(context.Background())
}

func serve(w workload, traced bool, nodeID, peers, dataDir, spansPath string) error {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	srv, err := buildServer(w, rec, nodeID, peers, dataDir, logger)
	if err != nil {
		return err
	}
	api, err := net.FileListener(os.NewFile(apiFD, "api"))
	if err != nil {
		return err
	}
	ctl, err := net.FileListener(os.NewFile(controlFD, "control"))
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = rec.wrapHandler(h)
	}
	// The same http.Server settings as cmd/midasd: none beyond the
	// handler.
	httpSrv := &http.Server{Handler: h}
	ctlSrv := &http.Server{Handler: controlMux(rec, spansPath)}
	errCh := make(chan error, 2)
	go func() { errCh <- httpSrv.Serve(api) }()
	go func() { errCh <- ctlSrv.Serve(ctl) }()
	// The benchmark stops server processes with SIGKILL once it has
	// read what it needs, so serving ends only on a listener error.
	return <-errCh
}

// buildServer assembles the workload's server. small-lattice and
// durable-cluster go through server.New from FederationSpecs, as
// midasd does; wide-lattice, whose lattice midasd's topologies cannot
// express, and every traced standalone run assemble the scheduler
// here and use server.NewWithSchedulers.
func buildServer(w workload, rec *recorder, nodeID, peers, dataDir string, logger *slog.Logger) (*server.Server, error) {
	cfg := server.Config{Logger: logger}
	if w.durable {
		for _, f := range w.federations() {
			cfg.Federations = append(cfg.Federations, server.FederationSpec{Name: f, Seed: serveSeed})
		}
		cfg.Store = server.StoreConfig{Dir: dataDir, CheckpointInterval: time.Minute, GroupCommit: true}
		cc := &server.ClusterConfig{NodeID: nodeID, Replicate: true, SyncInterval: 2 * time.Second}
		for _, part := range strings.Split(peers, ",") {
			id, url, _ := strings.Cut(part, "=")
			cc.Peers = append(cc.Peers, cluster.Member{ID: id, Addr: url})
		}
		cfg.Cluster = cc
		return server.New(cfg)
	}
	if w.name == "small-lattice" && rec == nil {
		cfg.Federations = []server.FederationSpec{{Name: "default", Seed: serveSeed}}
		return server.New(cfg)
	}
	cfg.Metrics = midasmetrics.NewRegistry()
	name := w.federations()[0]
	sched, err := assemble(w, name, cfg.Metrics, rec)
	if err != nil {
		return nil, err
	}
	return server.NewWithSchedulers(cfg, map[string]server.QueryScheduler{name: sched}, tpch.AllQueries)
}

// assemble builds one standalone tenant's scheduler the way
// server.New builds a FederationSpec with default fields: topology,
// calibration at sf 0.004, scaled executor at sf 0.1, DREAM model,
// full sweep, 20 bootstrap executions per query. With rec non-nil the
// executor, model and scheduler are wrapped in tracing spans.
func assemble(w workload, name string, reg *midasmetrics.Registry, rec *recorder) (server.QueryScheduler, error) {
	var fed *federation.Federation
	var err error
	if w.name == "wide-lattice" {
		fed, err = federation.WideTopology(serveSeed, len(w.nodes))
	} else {
		fed, err = federation.DefaultTopology(serveSeed)
	}
	if err != nil {
		return nil, err
	}
	cal, err := federation.Calibrate(fed, 0.004, serveSeed)
	if err != nil {
		return nil, err
	}
	var exec federation.Executor
	exec, err = federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		return nil, err
	}
	var model ires.CostModel
	model, err = ires.NewDREAMModel(core.Config{MMax: 3 * (federation.FeatureDim + 2)})
	if err != nil {
		return nil, err
	}
	if rec != nil {
		exec = &tracedExecutor{inner: exec, rec: rec}
		if model, err = newTracedModel(model, rec); err != nil {
			return nil, err
		}
	}
	prune, err := ires.ParsePrunePolicy("", 0)
	if err != nil {
		return nil, err
	}
	sched, err := ires.NewSchedulerWithConfig(fed, exec, model, ires.SchedulerConfig{
		NodeChoices:       w.nodes,
		Seed:              serveSeed,
		Prune:             prune,
		Metrics:           reg,
		MetricsFederation: name,
	})
	if err != nil {
		return nil, err
	}
	for _, q := range tpch.AllQueries {
		if _, err := sched.OpenHistory(q); err != nil {
			return nil, err
		}
		if err := sched.Bootstrap(q, 20); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		return &tracedScheduler{inner: sched, rec: rec}, nil
	}
	return sched, nil
}

// usage is the server process's resource counters, read before and
// after a phase.
type usage struct {
	CPUUS      float64 `json:"cpu_us"`
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	TotalCPUS  float64 `json:"total_cpu_s"`
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return usage{
		CPUUS:      tv(ru.Utime) + tv(ru.Stime),
		AllocBytes: val(samples[0]),
		GCCPUS:     val(samples[1]),
		TotalCPUS:  val(samples[2]),
	}
}

// controlMux serves the benchmark's side channel: resource usage,
// arming the span recorder, and the trace summary.
func controlMux(rec *recorder, spansPath string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /usage", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(readUsage())
	})
	mux.HandleFunc("POST /arm", func(w http.ResponseWriter, r *http.Request) {
		if rec != nil {
			rec.on.Store(r.URL.Query().Get("on") == "1")
		}
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "not traced", http.StatusNotFound)
			return
		}
		sum, err := rec.summarize(spansPath)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(sum)
	})
	return mux
}
