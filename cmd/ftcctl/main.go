// Command ftcctl is the operator tool for a running FT-Cache fleet: read
// files through the fault-tolerant client, inspect cache residency and
// server counters, and dump the hash-ring ownership map.
//
//	ftcctl -servers node-0000=host0:7070,node-0001=host1:7070 get path/to/file
//	ftcctl -servers ... -strategy ftpfs stat path/to/file
//	ftcctl -servers ... stats
//	ftcctl -servers ... ring path/a path/b
//	ftcctl -servers ... ping
//	ftcctl trace http://host0:9090 http://host1:9090   # fetch /debug/traces, stitch by trace id
//	ftcctl tiers http://host0:9090 http://host1:9090   # per-node storage-tier occupancy + hit ratios
//	ftcctl policy http://host0:9090                    # adaptive policy: active strategy + decision history
//	ftcctl -force ftpfs policy http://host0:9090       # pin the policy (-force auto releases)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/trace"
)

func main() {
	servers := flag.String("servers", "", "comma-separated node=host:port pairs (required)")
	strategy := flag.String("strategy", "ftnvme", "fault-tolerance strategy: noft|ftpfs|ftnvme|adaptive")
	vnodes := flag.Int("vnodes", 100, "virtual nodes per physical node (ftnvme)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-RPC timeout (TTL)")
	limit := flag.Int("timeout-limit", 3, "consecutive timeouts before declaring a node failed")
	benchIters := flag.Int("iters", 100, "bench: read iterations per path")
	traceMax := flag.Int("trace-max", 0, "trace: fetch at most N traces per endpoint (0 = all kept)")
	traceErrs := flag.Bool("trace-errs", false, "trace: show only traces with an error-class fragment")
	forceKind := flag.String("force", "", "policy: pin the adaptive strategy (noft|ftpfs|ftnvme) or release with auto")
	traced := flag.Bool("traced", false, "propagate trace context with this invocation's RPCs, so server flight recorders capture fragments (view with ftcctl trace)")
	flag.Parse()

	if *traced {
		// No local recorder: the fragments of interest are the ones the
		// servers keep; this process only mints ids and sends them on the
		// wire.
		trace.SetEnabled(true)
	}

	if flag.NArg() < 1 {
		fail(fmt.Errorf("usage: ftcctl -servers ... <get|stat|stats|ping|ring|bench> [args] | ftcctl <trace|tiers|policy> <telemetry-url>..."))
	}

	// trace talks to telemetry HTTP endpoints, not the RPC fleet, so it
	// runs before any -servers parsing or client setup.
	if flag.Arg(0) == "trace" {
		urls := flag.Args()[1:]
		if len(urls) == 0 {
			fail(fmt.Errorf("usage: ftcctl trace <telemetry-url>...  (e.g. ftcctl trace http://host0:9090 http://host1:9090)"))
		}
		if err := runTrace(urls, *traceMax, *traceErrs); err != nil {
			fail(err)
		}
		return
	}

	// tiers likewise reads telemetry endpoints: the per-node storage-tier
	// occupancy and hit-ratio table from each node's /debug/ftcache.
	if flag.Arg(0) == "tiers" {
		urls := flag.Args()[1:]
		if len(urls) == 0 {
			fail(fmt.Errorf("usage: ftcctl tiers <telemetry-url>...  (e.g. ftcctl tiers http://host0:9090 http://host1:9090)"))
		}
		if err := runTiers(urls); err != nil {
			fail(err)
		}
		return
	}

	// policy also talks to telemetry endpoints: the adaptive controller's
	// active strategy, live signals, and decision history, plus the
	// -force operator override.
	if flag.Arg(0) == "policy" {
		urls := flag.Args()[1:]
		if len(urls) == 0 {
			fail(fmt.Errorf("usage: ftcctl [-force noft|ftpfs|ftnvme|auto] policy <telemetry-url>..."))
		}
		if err := runPolicy(urls, *forceKind); err != nil {
			fail(err)
		}
		return
	}

	endpoints, order, err := parseServers(*servers)
	if err != nil {
		fail(err)
	}

	kind := ftcache.StrategyKind(*strategy)
	if !kind.Known() {
		fmt.Fprintf(os.Stderr, "ftcctl: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	router := ftcache.NewRouter(kind, order, *vnodes)
	cli, err := hvac.NewClient(hvac.ClientConfig{
		Endpoints:    endpoints,
		Network:      rpc.TCPNetwork{},
		Router:       router,
		RPCTimeout:   *timeout,
		TimeoutLimit: *limit,
	})
	if err != nil {
		fail(err)
	}
	defer cli.Close()
	ctx := context.Background()

	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "get":
		needArgs(args, 1, "get <path>")
		data, err := cli.Read(ctx, args[0])
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(data)

	case "stat":
		needArgs(args, 1, "stat <path>")
		st, err := cli.Stat(ctx, args[0])
		if err != nil {
			fail(err)
		}
		owner, _ := ownerOf(router, args[0])
		fmt.Printf("path:   %s\nowner:  %s\nsize:   %d\ncached: %v\n", args[0], owner, st.Size, st.Cached)

	case "stats":
		for _, n := range order {
			st, err := cli.ServerStats(ctx, n)
			if err != nil {
				fmt.Printf("%s: unreachable (%v)\n", n, err)
				continue
			}
			fmt.Printf("%s: objects=%d bytes=%d hits=%d misses=%d pfsFallbacks=%d moverEnq=%d moverDrop=%d\n",
				n, st.NVMeObjects, st.NVMeBytes, st.NVMeHits, st.NVMeMisses,
				st.PFSFallbacks, st.MoverEnqueued, st.MoverDropped)
		}

	case "ping":
		exit := 0
		for _, n := range order {
			if err := cli.Ping(ctx, n); err != nil {
				fmt.Printf("%s: DOWN (%v)\n", n, err)
				exit = 1
			} else {
				fmt.Printf("%s: ok\n", n)
			}
		}
		os.Exit(exit)

	case "ring":
		if len(args) == 0 {
			fail(fmt.Errorf("usage: ring <path>..."))
		}
		for _, p := range args {
			owner, kind := ownerOf(router, p)
			fmt.Printf("%-50s -> %s%s\n", p, owner, kind)
		}

	case "bench":
		if len(args) == 0 {
			fail(fmt.Errorf("usage: bench <path>... (reads each path %d times)", *benchIters))
		}
		runBench(ctx, cli, args, *benchIters)

	default:
		fail(fmt.Errorf("unknown command %q", cmd))
	}
}

// runBench is the artifact's basic_test equivalent: hammer the cache
// with reads and report throughput plus the client's streaming latency
// percentiles.
func runBench(ctx context.Context, cli *hvac.Client, paths []string, iters int) {
	var bytes int64
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, p := range paths {
			data, err := cli.Read(ctx, p)
			if err != nil {
				fail(fmt.Errorf("bench read %s: %w", p, err))
			}
			bytes += int64(len(data))
		}
	}
	elapsed := time.Since(start)
	lat := cli.Latency()
	reads := iters * len(paths)
	fmt.Printf("reads:      %d (%d paths × %d iterations)\n", reads, len(paths), iters)
	fmt.Printf("bytes:      %d\n", bytes)
	fmt.Printf("elapsed:    %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.1f MB/s, %.0f reads/s\n",
		float64(bytes)/1e6/elapsed.Seconds(), float64(reads)/elapsed.Seconds())
	fmt.Printf("latency ms: mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		lat.Mean, lat.P50, lat.P95, lat.P99, lat.Max)
	st := cli.Stats()
	fmt.Printf("sources:    ram=%d nvme=%d server-pfs=%d direct-pfs=%d\n",
		st.ServedRAM, st.ServedNVMe, st.ServedPFS, st.DirectPFS)
}

func ownerOf(router hvac.Router, path string) (string, string) {
	d := router.Route(path)
	switch d.Kind {
	case hvac.RouteNode:
		return string(d.Node), ""
	case hvac.RoutePFS:
		return "PFS", " (redirected)"
	default:
		return "-", " (aborted)"
	}
}

func parseServers(s string) (map[cluster.NodeID]string, []cluster.NodeID, error) {
	if s == "" {
		return nil, nil, fmt.Errorf("ftcctl: -servers is required")
	}
	endpoints := make(map[cluster.NodeID]string)
	for _, pair := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || addr == "" {
			return nil, nil, fmt.Errorf("ftcctl: bad server spec %q (want node=host:port)", pair)
		}
		endpoints[cluster.NodeID(name)] = addr
	}
	order := make([]cluster.NodeID, 0, len(endpoints))
	for n := range endpoints {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return endpoints, order, nil
}

func needArgs(args []string, n int, usage string) {
	if len(args) != n {
		fail(fmt.Errorf("usage: ftcctl ... %s", usage))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
