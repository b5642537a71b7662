// Command perfbench is the FT-Cache benchmark. One process boots the
// live stack (core → hvac → rpc/wire → storage/memtier), drives one
// named workload for a fixed time from at most two closed-loop callers,
// checks every byte it reads, and prints its metrics as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload train-failover --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 the run is repeated with the benchmark's probes on and the
// line carries the per-layer metrics instead. The workloads, metrics and
// their bounds are described in BENCHMARK.json at the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	floor   time.Duration // measured time.Sleep floor
	trace   bool
}

// workloadDef is one named workload: its run function and the GOMAXPROCS it
// runs with (0 = the Go default, one per CPU).
type workloadDef struct {
	run   func(context.Context, runConfig) (*result, error)
	procs int
}

// workloads maps each workload name to its definition. train-failover
// runs on one P: its TCP round trips between goroutines on different
// CPUs each pay a cross-CPU wake-up, whose cost on a shared 2-vCPU VM
// varied by ±20% from run to run; on one P the whole stack shares a CPU
// and the epoch time measures the software path.
var workloads = map[string]workloadDef{
	"train-failover": {runTrainFailover, 1},
	"zipf-tiered":    {runZipfTiered, 0},
	"ingest-mixed":   {runIngestMixed, 0},
}

func main() {
	name := flag.String("workload", "", "workload to run: train-failover, zipf-tiered or ingest-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement time per phase, in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", "", "directory for the span file of a traced run (empty = do not write one)")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs) // before the environment block records it
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		floor:   sleepFloor(),
		trace:   *traceFlag == 1,
	}
	printEnv(*name, cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := wl.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace && *out != "" {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, cfg.seed))
		if err := res.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", res.spans.len(), path)
	}
	// Every measured value, sample counts included, for the record.
	if b, err := json.Marshal(res.values); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: values %s\n", b)
	}
	line, err := res.line(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: incorrect run: %d wrong reads; %s\n",
			*name, res.wrong, strings.Join(res.violations, "; "))
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sleepFloor measures the shortest wall time a time.Sleep takes on the
// host: the median of twenty 50µs sleeps. Modelled device and PFS
// delays below it would silently model the floor instead, so every
// workload refuses a configured delay shorter than this.
func sleepFloor() time.Duration {
	xs := make([]float64, 20)
	for i := range xs {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// checkDelay refuses a modelled delay the host cannot express.
func checkDelay(what string, d, floor time.Duration) error {
	if d < floor {
		return fmt.Errorf("%s delay %v is below the measured sleep floor %v", what, d, floor)
	}
	return nil
}

// printEnv records the environment block of the run on standard output.
func printEnv(name string, cfg runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]any{
		"workload":       name,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds.Seconds(),
		"trace":          cfg.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit,
		"sleep_floor_us": float64(cfg.floor) / float64(time.Microsecond),
	}
	b, _ := json.Marshal(map[string]any{"env": env}) // plain values always encode
	fmt.Println(string(b))
}
