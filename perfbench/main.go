// Command perfbench is the repository's end-to-end benchmark. It runs
// each workload's servers in their own processes — assembled from the
// public server constructors with midasd's settings and the default
// request and sweep timeouts — and drives them over loopback HTTP from
// this process, holding at most NumCPU requests in flight.
//
// Usage (run.py builds the binary first):
//
//	perfbench --workload small-lattice|wide-lattice|durable-cluster \
//	          --seed N --seconds S --trace 0|1
//
// Each run sets up the deployment several times (the median is
// setup_s), checks a single-client probe against an in-process
// reference, then measures a closed loop and Poisson open loops at the
// workload's low and high rates. --trace 0 prints the end-to-end
// metrics; --trace 1 repeats the run with spans recorded around each
// layer and prints the per-layer metrics. The last line of stdout is
// one JSON object; the process exits non-zero when any output check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "small-lattice", "workload: small-lattice, wide-lattice, durable-cluster")
		seed    = fs.Uint64("seed", 1, "workload seed: request mix, arrival times, pre-built data dir")
		seconds = fs.Int("seconds", 12, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: %v\n", err)
		return 2
	}
	// The generator allocates per request (HTTP client, JSON checks);
	// collecting less often keeps its pauses out of the pacer's
	// wake-ups. The server processes keep the default.
	debug.SetGCPercent(400)
	root := os.Getenv("PERFBENCH_ROOT")
	if root == "" {
		root = "."
	}
	work := filepath.Join(root, ".bench_build", "run", w.name)
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := newBench(w, *seed, *seconds, work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := b.run(*trace == 1)
	b.stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
