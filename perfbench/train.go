package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dltrain"
	"repro/internal/ftcache"
	"repro/internal/hashring"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// train-failover: the paper's experiment, live. dltrain runs 2 ranks
// over 8 nodes on TCP loopback with FT w/ NVMe, from a warm cache. After
// warm-up every PFS read takes trainPFSDelay; at epoch 1, step 10 a
// FailKill takes down a node hosting no rank, the job rolls back and
// recaches, and steady epochs follow. Every read response is checked
// byte for byte on the ranks' connections. A run is trainJobs such jobs,
// each on a freshly set-up cluster, then more set-ups so that setup_s is
// a median of trainSetups.
const (
	trainFiles    = 16384
	trainRanks    = 2
	trainJobs     = 2
	trainSetups   = 5
	trainBatch    = 128
	killEpoch     = 1
	killStep      = 10
	trainPFSDelay = 2 * time.Millisecond // must exceed the sleep floor
)

// trainRep is the outcome of one training job.
type trainRep struct {
	c      *core.Cluster
	net    *probeNet
	lb     *loopback
	victim cluster.NodeID
	paths  []string
	lost   int // files the victim owned
	steady []float64
	reads  int64         // reads in the steady epochs
	span   time.Duration // their total duration
	lat    []float64     // µs, steady epochs
	fail   float64       // failover epoch, s
	report dltrain.Report
	stack  [2]stackSnap // before and after the job
	tel    [2]telSnap
	proc   [2]procSnap
	deadAt time.Time // first declaration of the victim (traced jobs)
}

func runTrainFailover(ctx context.Context, cfg runConfig) (*result, error) {
	if err := checkDelay("PFS", trainPFSDelay, cfg.floor); err != nil {
		return nil, err
	}
	res := newResult()
	var st setupTimes
	var reps []*trainRep
	var heap float64
	n := trainJobs
	for i := 0; i < n; i++ {
		tr, err := runTrainRep(ctx, cfg, i, &st, newSpanLog(false), res)
		if err != nil {
			return nil, err
		}
		if i == n-1 {
			heap = liveHeapMB()
		}
		tr.c.Close()
		tr.c, tr.net = nil, nil // keep only the measurements
		reps = append(reps, tr)
	}
	fresh := func() core.ClusterConfig { return trainCluster(newLoopback()) }
	if err := st.setUpOnly(trainSetups-trainJobs, fresh, dataset("train", cfg.seed, trainFiles)); err != nil {
		return nil, err
	}
	st.fill(res.values)
	v := res.values
	v["live_heap_mb"] = heap
	fillTrainRead(v, reps)
	if !cfg.trace {
		return res, nil
	}

	spans := newSpanLog(true)
	tr, err := runTrainRep(ctx, cfg, n, &setupTimes{}, spans, res)
	if err != nil {
		return nil, err
	}
	defer tr.c.Close()
	traced := make(map[string]float64)
	fillTrainRead(traced, []*trainRep{tr})
	fillWrites(traced, tr.net, tr.tel[0], tr.tel[1], tr.report.ClientStats.RemoteReads)
	mergeTraced(v, traced)
	// Counters come from the last untraced job, like the metrics above.
	last := reps[n-1]
	fillStack(v, last.stack[0], last.stack[1])
	fillServed(v, last.report.ClientStats)
	fillProc(v, last.proc[0], last.proc[1], last.report.ClientStats.RemoteReads)
	v["hashring.keys_moved"] = float64(last.lost)
	v["hvac.pfs_reads_per_lost_file"] = ratio(float64(last.stack[1].pfsReads-last.stack[0].pfsReads), float64(last.lost))
	v["dltrain.steps_per_epoch"] = float64(dltrain.Steps(trainFiles, trainRanks, trainBatch))
	restarts := 0
	for _, e := range last.report.Epochs {
		restarts += e.Restarts
	}
	v["dltrain.restarts"] = float64(restarts)
	if killed, ok := tr.lb.ClosedAt(string(tr.victim)); ok && !tr.deadAt.IsZero() {
		v["cluster.detect_ms"] = float64(tr.deadAt.Sub(killed)) / float64(time.Millisecond)
	}

	order := dltrain.Shuffle(trainFiles, trainSeed(cfg.seed, n), 0)
	stream := make([]string, len(order))
	for i, idx := range order {
		stream[i] = tr.paths[idx]
	}
	content, err := tr.c.PFS().Get(tr.paths[0])
	if err != nil {
		return nil, err
	}
	runMicro(v, replay{
		nodes:   tr.c.Nodes(),
		victim:  tr.victim,
		stream:  stream,
		keys:    tr.paths,
		objSize: fileBytes,
		frame:   readRespFrame(content),
	}, spans)
	if err := rpcRoundTrips(ctx, v, tr.c, tr.lb, stream, spans); err != nil {
		return nil, err
	}
	res.spans.merge(spans)
	fillIdle(v, cfg)
	return res, nil
}

func trainSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// trainEpochs is the epoch count of one job: the warm-up epoch, the
// failover epoch, and one steady epoch per second of --seconds.
func trainEpochs(cfg runConfig) int { return killEpoch + 1 + int(cfg.seconds/time.Second) }

func trainCluster(network rpc.Network) core.ClusterConfig {
	return core.ClusterConfig{
		Nodes:        clusterNodes,
		Strategy:     ftcache.KindNVMe,
		VirtualNodes: virtualNodes,
		Network:      network,
	}
}

// fillTrainRead sets the end-to-end read metrics from the steady epochs
// of every job, and the failover epoch.
func fillTrainRead(v map[string]float64, reps []*trainRep) {
	var steady, lat, fails []float64
	var reads int64
	var span time.Duration
	for _, r := range reps {
		steady = append(steady, r.steady...)
		lat = append(lat, r.lat...)
		fails = append(fails, r.fail)
		reads += r.reads
		span += r.span
	}
	v["epoch_s"] = median(steady)
	v["reads_per_s"] = float64(reads) / span.Seconds()
	v["read_p50_us"] = quantile(lat, 0.50)
	v["read_p90_us"] = quantile(lat, 0.90)
	v["bench.read_p99_us"] = quantile(lat, 0.99)
	v["dltrain.failover_epoch_s"] = median(fails)
	v["bench.read_samples"] = float64(len(lat))
	v["bench.epoch_samples"] = float64(len(steady))
}

// runTrainRep sets up a TCP cluster, runs one training job with the node
// kill, and checks its outcome. The cluster is returned open.
func runTrainRep(ctx context.Context, cfg runConfig, rep int, st *setupTimes, spans *spanLog, res *result) (*trainRep, error) {
	ds := dataset("train", cfg.seed, trainFiles)
	tr := &trainRep{lb: newLoopback(), paths: ds.AllPaths()}
	tr.net = &probeNet{Network: tr.lb, timed: spans.on, spans: spans}
	c, err := st.setUp(trainCluster(tr.net), ds)
	if err != nil {
		return nil, err
	}
	tr.c = c
	expected, err := expectedContent(c, ds, cfg.seed)
	if err != nil {
		c.Close()
		return nil, err
	}
	// No connection exists yet: the ranks dial when the job starts.
	tr.net.check = newReadCheck(expected)

	nodes := c.Nodes()
	tr.victim = nodes[trainRanks+pick(cfg.seed, len(nodes)-trainRanks)]
	ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: virtualNodes}, nodes)
	for _, p := range tr.paths {
		if o, _ := ring.Owner(p); o == tr.victim {
			tr.lost++
		}
	}
	if plan := ring.PlanRecache(tr.victim, tr.paths); plan.Lost != tr.lost {
		res.violate("PlanRecache moves %d keys, but %s owned %d", plan.Lost, tr.victim, tr.lost)
	}
	c.PFS().SetReadDelay(trainPFSDelay)

	job, err := dltrain.New(dltrain.Config{
		Cluster:   c,
		Dataset:   dltrain.FromWorkload(ds),
		Workers:   trainRanks,
		Epochs:    trainEpochs(cfg),
		BatchSize: trainBatch,
		Seed:      trainSeed(cfg.seed, rep),
		Failures:  []dltrain.FailureEvent{{Epoch: killEpoch, Step: killStep, Node: tr.victim, Mode: core.FailKill}},
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	defer job.Close()

	stop := make(chan struct{})
	watched := make(chan struct{})
	if spans.on {
		go func() {
			defer close(watched)
			tr.deadAt = watchDeclaration(tr.victim, stop)
		}()
	} else {
		close(watched)
	}
	tr.stack[0], tr.tel[0], tr.proc[0] = snapStack(c), snapTelemetry(), snapProc()
	start := time.Now()
	report, err := job.Run(ctx)
	spans.add("dltrain.run", start, time.Since(start), string(tr.victim))
	tr.proc[1], tr.tel[1], tr.stack[1] = snapProc(), snapTelemetry(), snapStack(c)
	close(stop)
	<-watched
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("training job: %w", err)
	}
	tr.report = report
	if report.Aborted {
		res.violate("training job aborted: %v", report.AbortErr)
	}
	if len(report.Epochs) != trainEpochs(cfg) {
		c.Close()
		return nil, fmt.Errorf("training job finished %d of %d epochs", len(report.Epochs), trainEpochs(cfg))
	}

	chk := tr.net.check
	res.wrong += chk.wrong.Load()
	res.attempted += report.ClientStats.RemoteReads + chk.wrong.Load()
	if ok := chk.ok.Load(); ok != report.ClientStats.RemoteReads {
		res.violate("verified %d read responses, but the ranks completed %d reads", ok, report.ClientStats.RemoteReads)
	}
	if s := chk.stray.Load(); s != 0 {
		res.violate("%d read responses for paths outside the dataset", s)
	}
	if pfs := tr.stack[1].pfsReads - tr.stack[0].pfsReads; pfs != int64(tr.lost) {
		res.violate("%d PFS reads for %d lost files; FT w/ NVMe reads each lost file once", pfs, tr.lost)
	}

	// Epoch e spans [start+Σd<e, start+Σd≤e]; epochs after the failover
	// epoch are the steady ones.
	steadyFrom := start.Sub(chk.base)
	for _, e := range report.Epochs {
		switch {
		case e.Epoch == killEpoch:
			tr.fail = e.Duration.Seconds()
		case e.Epoch > killEpoch:
			tr.steady = append(tr.steady, e.Duration.Seconds())
			tr.reads += int64(e.Samples)
			tr.span += e.Duration
		}
		if e.Epoch <= killEpoch {
			steadyFrom += e.Duration
		}
	}
	fmt.Fprintf(os.Stderr, "train-failover job %d: victim %s lost %d files; epochs", rep, tr.victim, tr.lost)
	for _, e := range report.Epochs {
		fmt.Fprintf(os.Stderr, " %.3fs", e.Duration.Seconds())
	}
	fmt.Fprintln(os.Stderr)
	chk.mu.Lock()
	for _, s := range chk.samples {
		if s.at > steadyFrom {
			tr.lat = append(tr.lat, float64(s.lat)/float64(time.Microsecond))
		}
	}
	chk.samples = nil
	chk.mu.Unlock()
	return tr, nil
}

// watchDeclaration polls the event trace until stop closes and returns
// when the first detector declared node dead (zero if none did). The
// trace is a bounded ring, so it is polled often enough that the
// declaration cannot be overwritten before it is seen.
func watchDeclaration(node cluster.NodeID, stop <-chan struct{}) time.Time {
	events := telemetry.Default().Trace()
	seq := events.Seq()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, e := range events.Since(seq) {
			seq = e.Seq
			if e.Type == telemetry.EventNodeDead && e.Node == string(node) {
				return e.Time
			}
		}
		select {
		case <-stop:
			return time.Time{}
		case <-tick.C:
		}
	}
}

// pick maps seed onto [0, n).
func pick(seed int64, n int) int { return int((seed%int64(n) + int64(n)) % int64(n)) }
