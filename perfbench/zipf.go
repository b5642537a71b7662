package main

import (
	"bytes"
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// zipf-tiered: 8 in-process nodes with the RAM tier on and a modelled
// device delay, read by two closed-loop clients drawing file ranks from
// Zipf(1.1). Each node's RAM tier holds 1/8 of its share of the files,
// so the working set exceeds RAM but fits NVMe: memtier admission and
// the server-side hot-key sketch decide the result.
const (
	zipfFiles = 4096
	zipfSkew  = 1.1
	zipfDelay = 2 * time.Millisecond // device ReadDelay; must exceed the sleep floor
	zipfLoops = 2
	// The RAM tier admits what the servers' sketches flag as hot, and two
	// callers against a 2 ms device sample ~2k reads/s: minutes to reach
	// its steady state. The unmeasured warm-up runs zipfWarmReaders
	// callers on the same two clients for zipfWarmup instead.
	zipfWarmReaders = 32
	zipfWarmup      = 3 * time.Second
)

// zipfStream draws file ranks from Zipf(s) over n ranks by inverting
// the cumulative weights; ranks map to files through a seeded
// permutation, so the seed decides which files are hot.
type zipfStream struct {
	cum  []float64
	file []int
	rng  splitmix
}

func newZipfStream(n int, s float64, seed int64, loop int) *zipfStream {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &zipfStream{cum: cum, file: perm(n, uint64(seed)), rng: splitmix(uint64(seed)*131 + uint64(loop) + 1)}
}

func (z *zipfStream) next() int {
	u := float64(z.rng.next()>>11) / (1 << 53) * z.cum[len(z.cum)-1]
	return z.file[min(sort.SearchFloat64s(z.cum, u), len(z.cum)-1)]
}

func runZipfTiered(ctx context.Context, cfg runConfig) (*result, error) {
	if err := checkDelay("device", zipfDelay, cfg.floor); err != nil {
		return nil, err
	}
	clusterCfg := func(network rpc.Network) core.ClusterConfig {
		return core.ClusterConfig{
			Nodes:        clusterNodes,
			Strategy:     ftcache.KindNVMe,
			VirtualNodes: virtualNodes,
			RAMCapacity:  zipfFiles * fileBytes / clusterNodes / 8,
			ReadDelay:    zipfDelay,
			Network:      network,
		}
	}
	ds := dataset("zipf", cfg.seed, zipfFiles)
	paths := ds.AllPaths()
	return runInproc(ctx, cfg, ds, clusterCfg, func(c *core.Cluster, network rpc.Network, expected map[string][]byte) (inprocPhase, func() replay) {
		phase := func(measure time.Duration, spans *spanLog, v map[string]float64, res *result) error {
			return zipfPhase(ctx, cfg, measure, c, network, expected, paths, spans, v, res)
		}
		replayOf := func() replay {
			stream := make([]string, 0, 100_000)
			z := newZipfStream(zipfFiles, zipfSkew, cfg.seed, 0)
			for len(stream) < cap(stream) {
				stream = append(stream, paths[z.next()])
			}
			return replay{
				nodes:   c.Nodes(),
				victim:  c.Nodes()[pick(cfg.seed, clusterNodes)],
				stream:  stream,
				keys:    paths,
				objSize: fileBytes,
				frame:   readRespFrame(expected[paths[0]]),
			}
		}
		return phase, replayOf
	})
}

// zipfPhase warms up, then measures the two Zipf readers, filling v
// with the read metrics and the layer counters.
func zipfPhase(ctx context.Context, cfg runConfig, measure time.Duration, c *core.Cluster, network rpc.Network, expected map[string][]byte, paths []string, spans *spanLog, v map[string]float64, res *result) error {
	var dial rpc.Network = network
	var probe *probeNet
	if spans.on {
		probe = &probeNet{Network: network, timed: true, spans: spans}
		dial = probe
	}
	clients := make([]*hvac.Client, zipfLoops)
	routers := make([]*tracedRouter, zipfLoops)
	for i := range clients {
		cli, tr, err := newClient(c, dial, nil, spans)
		if err != nil {
			return err
		}
		defer cli.Close()
		clients[i], routers[i] = cli, tr
	}
	var ops opCounts
	read := func(cli *hvac.Client, path string) (time.Duration, error) {
		t0 := time.Now()
		data, err := cli.Read(ctx, path)
		d := time.Since(t0)
		ops.note(err, err == nil && !bytes.Equal(data, expected[path]))
		return d, err
	}

	warm := make([]func(func() bool), zipfWarmReaders)
	for i := range warm {
		cli, z := clients[i%zipfLoops], newZipfStream(zipfFiles, zipfSkew, cfg.seed, zipfLoops+1+i)
		warm[i] = func(stop func() bool) {
			for !stop() {
				_, _ = read(cli, paths[z.next()]) // counted in ops
			}
		}
	}
	loops(ctx, zipfWarmup, warm...)

	stack0, tel0, proc0 := snapStack(c), snapTelemetry(), snapProc()
	stats0 := clientStats(clients)
	if probe != nil {
		probe.reset()
	}
	rec := newReadRec(zipfFiles)
	bodies := make([]func(func() bool), zipfLoops)
	for i := range bodies {
		cli, tr, z := clients[i], routers[i], newZipfStream(zipfFiles, zipfSkew, cfg.seed, i+1)
		bodies[i] = func(stop func() bool) {
			for !stop() {
				path := paths[z.next()]
				id := spans.newID()
				if tr != nil {
					tr.cur.Store(id)
				}
				t0 := time.Now()
				if d, err := read(cli, path); err == nil {
					rec.record(d)
					spans.addID(id, 0, "bench.read", t0, d, path)
				}
			}
		}
	}
	loops(ctx, measure, bodies...)
	elapsed := time.Since(rec.start)
	proc1, tel1, stack1 := snapProc(), snapTelemetry(), snapStack(c)
	stats1 := clientStats(clients)
	if ctx.Err() != nil {
		return ctx.Err()
	}

	rec.fill(v, elapsed)
	fillStack(v, stack0, stack1)
	fillServed(v, subStats(stats1, stats0))
	fillProc(v, proc0, proc1, int64(len(rec.lat)))
	if probe != nil {
		fillWrites(v, probe, tel0, tel1, int64(len(rec.lat)))
	}
	ops.addTo(res)
	return nil
}

// readRespFrame is the response frame of a whole-file read of body.
func readRespFrame(body []byte) wire.Frame {
	resp := hvac.ReadResp{Source: hvac.SourceNVMe, FileSize: int64(len(body)), Data: body}
	return wire.Frame{Type: wire.TypeResponse, ID: 1, Op: hvac.OpRead, Payload: resp.Marshal()}
}

// phaseTime is how long a phase measures: --seconds untraced, and a
// quarter of it (at least 2s) traced, since a traced phase only feeds
// the per-layer metrics and the tracing overhead.
func phaseTime(cfg runConfig, traced bool) time.Duration {
	if !traced {
		return cfg.seconds
	}
	return max(2*time.Second, cfg.seconds/4)
}

// traceOnly are the per-layer metrics only a traced phase can measure;
// every other value comes from the untraced phase of the same run.
var traceOnly = []string{
	"rpc.writes_per_op", "rpc.frames_per_write", "rpc.bytes_per_write", "rpc.conn_write_us", "hvac.putasync_ns",
}

// mergeTraced copies the trace-only metrics of a traced phase into v and
// sets the tracing overhead: the untraced phase's read rate over the
// traced phase's, minus one.
func mergeTraced(v, traced map[string]float64) {
	for _, k := range traceOnly {
		if x, ok := traced[k]; ok {
			v[k] = x
		}
	}
	v["bench.trace_overhead_frac"] = ratio(v["reads_per_s"], traced["reads_per_s"]) - 1
}

// fillIdle sets 0 for every per-layer metric of a layer the workload
// does not exercise, and records the sleep floor.
func fillIdle(v map[string]float64, cfg runConfig) {
	v["bench.sleep_floor_us"] = float64(cfg.floor) / float64(time.Microsecond)
	for _, s := range perLayer {
		if _, ok := v[s.name]; !ok {
			v[s.name] = 0
		}
	}
}

// checkLeases requires every RAM-tier lease to have been released once
// the callers are done.
func checkLeases(res *result, c *core.Cluster) {
	var leases int64
	for _, n := range c.Nodes() {
		if ram := c.Server(n).RAM(); ram != nil {
			leases += ram.ActiveLeases()
		}
	}
	if leases != 0 {
		res.violate("%d RAM-tier leases still held after the run", leases)
	}
	res.values["memtier.leases_end"] = float64(leases)
}
