package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Fixed geometry shared by the workloads.
const (
	clusterNodes = 8
	virtualNodes = 100 // the paper's production setting
	fileBytes    = 4096
	// The in-process workloads boot, stage and warm setupsBefore
	// clusters before measuring (the last one is measured) and
	// setupsAfter more after it; setup_s is the median of all, so a slow
	// second of the host does not decide it.
	setupsBefore = 5
	setupsAfter  = 4
	// rpcTimeout is the clients' per-request TTL.
	rpcTimeout = 500 * time.Millisecond
)

// splitmix is the benchmark's own input generator (independent of the
// program's generators, so a program change cannot change the inputs).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func perm(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng := splitmix(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// dataset is a workload's file set; its prefix carries the seed, so the
// seed moves files around the ring and changes their content.
func dataset(kind string, seed int64, files int) workload.Dataset {
	return workload.Dataset{
		Name:      kind,
		Prefix:    fmt.Sprintf("bench-%d/%s", seed, kind),
		NumFiles:  files,
		FileBytes: fileBytes,
	}
}

// setupTimes collects the boot, stage and warm time of each set-up.
type setupTimes struct{ boot, stage, warm, total []float64 }

// setUp boots a cluster, stages ds on its PFS and warms every file onto
// its owner's NVMe, timing each step. A full collection first keeps the
// previous set-up's garbage out of the timing.
func (t *setupTimes) setUp(cfg core.ClusterConfig, ds workload.Dataset) (*core.Cluster, error) {
	runtime.GC()
	t0 := time.Now()
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	t1 := time.Now()
	if _, err := c.Stage(ds); err != nil {
		c.Close()
		return nil, fmt.Errorf("stage: %w", err)
	}
	t2 := time.Now()
	if err := c.WarmCache(ds); err != nil {
		c.Close()
		return nil, fmt.Errorf("warm: %w", err)
	}
	t3 := time.Now()
	t.boot = append(t.boot, t1.Sub(t0).Seconds())
	t.stage = append(t.stage, t2.Sub(t1).Seconds())
	t.warm = append(t.warm, t3.Sub(t2).Seconds())
	t.total = append(t.total, t3.Sub(t0).Seconds())
	return c, nil
}

// setUpOnly times n set-ups of clusters that are closed at once; cfg
// gives each its own network.
func (t *setupTimes) setUpOnly(n int, cfg func() core.ClusterConfig, ds workload.Dataset) error {
	for i := 0; i < n; i++ {
		c, err := t.setUp(cfg(), ds)
		if err != nil {
			return err
		}
		c.Close()
	}
	return nil
}

func (t *setupTimes) fill(v map[string]float64) {
	v["setup_s"] = median(t.total)
	v["core.boot_s"] = median(t.boot)
	v["core.stage_s"] = median(t.stage)
	v["core.warm_s"] = median(t.warm)
}

// inprocPhase measures an in-process workload for measure, filling v;
// a traced phase has spans on.
type inprocPhase func(measure time.Duration, spans *spanLog, v map[string]float64, res *result) error

// runInproc is the run of an in-process workload: set-ups before and
// after, the untraced phase that gives the end-to-end metrics and, when
// traced, a traced phase plus the micro-replays. prepare builds the
// workload's phase and replay on the measured cluster.
func runInproc(ctx context.Context, cfg runConfig, ds workload.Dataset, clusterCfg func(rpc.Network) core.ClusterConfig,
	prepare func(c *core.Cluster, network rpc.Network, expected map[string][]byte) (inprocPhase, func() replay)) (*result, error) {
	fresh := func() core.ClusterConfig { return clusterCfg(rpc.NewInprocNetwork()) }
	var st setupTimes
	if err := st.setUpOnly(setupsBefore-1, fresh, ds); err != nil {
		return nil, err
	}
	network := rpc.NewInprocNetwork()
	c, err := st.setUp(clusterCfg(network), ds)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	expected, err := expectedContent(c, ds, cfg.seed)
	if err != nil {
		return nil, err
	}
	phase, replayOf := prepare(c, network, expected)

	res := newResult()
	run := func(traced bool) (map[string]float64, error) {
		v := make(map[string]float64)
		spans := newSpanLog(traced)
		err := phase(phaseTime(cfg, traced), spans, v, res)
		res.spans.merge(spans)
		return v, err
	}
	untraced, err := run(false)
	if err != nil {
		return nil, err
	}
	for k, x := range untraced {
		res.values[k] = x
	}
	res.values["live_heap_mb"] = liveHeapMB()
	if err := st.setUpOnly(setupsAfter, fresh, ds); err != nil {
		return nil, err
	}
	st.fill(res.values)
	if cfg.trace {
		traced, err := run(true)
		if err != nil {
			return nil, err
		}
		mergeTraced(res.values, traced)
		rp := replayOf()
		spans := newSpanLog(true)
		runMicro(res.values, rp, spans)
		if err := rpcRoundTrips(ctx, res.values, c, network, rp.stream, spans); err != nil {
			return nil, err
		}
		res.spans.merge(spans)
		fillIdle(res.values, cfg)
	}
	checkLeases(res, c)
	return res, nil
}

// expectedContent maps every staged path to the bytes the PFS holds for
// it, after checking a seeded sample of them against the dataset
// generator. Reads are then verified against this map in full.
func expectedContent(c *core.Cluster, ds workload.Dataset, seed int64) (map[string][]byte, error) {
	want := make(map[string][]byte, ds.NumFiles)
	for i := 0; i < ds.NumFiles; i++ {
		b, err := c.PFS().Get(ds.FilePath(i))
		if err != nil {
			return nil, fmt.Errorf("staged file %s: %w", ds.FilePath(i), err)
		}
		want[ds.FilePath(i)] = b
	}
	rng := splitmix(seed)
	for k := 0; k < 64; k++ {
		i := rng.intn(ds.NumFiles)
		if !bytes.Equal(want[ds.FilePath(i)], ds.SampleContent(i)) {
			return nil, fmt.Errorf("staged file %s differs from its generated content", ds.FilePath(i))
		}
	}
	return want, nil
}

// newClient builds an hvac client on the cluster's nodes over network,
// with the fault-tolerance policy the cluster uses. With spans on, the
// router and the direct PFS handle are wrapped so their calls are timed.
func newClient(c *core.Cluster, network rpc.Network, ingest *hvac.IngestConfig, spans *spanLog) (*hvac.Client, *tracedRouter, error) {
	endpoints := make(map[core.NodeID]string)
	for _, n := range c.Nodes() {
		endpoints[n] = string(n)
	}
	var router hvac.Router = ftcache.NewRouter(ftcache.KindNVMe, c.Nodes(), virtualNodes)
	var pfs storage.Store = c.PFS()
	var tr *tracedRouter
	if spans.on {
		tr = &tracedRouter{Router: router, spans: spans}
		router = tr
		pfs = &tracedStore{Store: pfs, spans: spans}
	}
	cli, err := hvac.NewClient(hvac.ClientConfig{
		Endpoints:  endpoints,
		Network:    network,
		Router:     router,
		PFS:        pfs,
		RPCTimeout: rpcTimeout,
		Ingest:     ingest,
	})
	return cli, tr, err
}

// readRec collects the latency of every recorded read and the time at
// which every passLen-th read completed, so epoch_s is the median time
// of passLen consecutive reads.
type readRec struct {
	passLen int
	mu      sync.Mutex
	start   time.Time
	lat     []float64 // µs
	marks   []time.Time
}

func newReadRec(passLen int) *readRec { return &readRec{passLen: passLen, start: time.Now()} }

func (r *readRec) record(d time.Duration) {
	now := time.Now()
	r.mu.Lock()
	r.lat = append(r.lat, float64(d)/float64(time.Microsecond))
	if len(r.lat)%r.passLen == 0 {
		r.marks = append(r.marks, now)
	}
	r.mu.Unlock()
}

// fill sets the read metrics for reads recorded over elapsed.
func (r *readRec) fill(v map[string]float64, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	passes := make([]float64, 0, len(r.marks))
	prev := r.start
	for _, m := range r.marks {
		passes = append(passes, m.Sub(prev).Seconds())
		prev = m
	}
	v["epoch_s"] = median(passes)
	v["reads_per_s"] = float64(len(r.lat)) / elapsed.Seconds()
	v["read_p50_us"] = quantile(r.lat, 0.50)
	v["read_p90_us"] = quantile(r.lat, 0.90)
	v["bench.read_p99_us"] = quantile(r.lat, 0.99)
	v["bench.read_samples"] = float64(len(r.lat))
	v["bench.epoch_samples"] = float64(len(passes))
}

// opCounts tallies a phase's operations across its caller loops.
type opCounts struct {
	mu                       sync.Mutex
	attempted, failed, wrong int64
	firstErr                 error
}

func (o *opCounts) note(err error, wrong bool) {
	o.mu.Lock()
	o.attempted++
	switch {
	case err != nil:
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	case wrong:
		o.wrong++
	}
	o.mu.Unlock()
}

func (o *opCounts) addTo(r *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	if o.firstErr != nil {
		r.violate("first failed operation: %v", o.firstErr)
	}
}

// loops runs each closed-loop body in its own goroutine for d and waits
// for all of them. A body checks stop before each operation; the
// operation in flight when d runs out completes normally, because the
// callers it models (training ranks, ingest writers) issue reads
// without deadlines. ctx only ends a run early (an interrupt).
func loops(ctx context.Context, d time.Duration, bodies ...func(stop func() bool)) {
	var expired atomic.Bool
	t := time.AfterFunc(d, func() { expired.Store(true) })
	defer t.Stop()
	stop := func() bool { return expired.Load() || ctx.Err() != nil }
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func(body func(func() bool)) {
			defer wg.Done()
			body(stop)
		}(body)
	}
	wg.Wait()
}
