package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// ingest-mixed: 8 in-process nodes with no device delay and one hvac
// client with the batched ingest pipeline, shared by two closed loops: a
// writer putting 1 KiB objects over a cyclic key space and flushing
// every ingestWindow puts, and a reader doing uniform verified reads of
// the warmed file set. It is CPU-bound on the software path, with
// writes beside reads on the same connections and coalesced writers.
//
// The cache holds immutable objects: a server acks a put of a path it
// already caches without storing it again. So an object's content is a
// function of its key alone, and once the warm-up has gone round the key
// space the measured puts are re-ingests of cached objects.
const (
	ingestFiles  = 4096
	ingestKeys   = 8192 // cyclic put key space
	ingestObj    = 1024
	ingestWindow = 1024 // puts per Flush
	readbacks    = 4    // verified reads of just-acked keys after each Flush
	// ingestWarmup is the unmeasured time before measurement: connections
	// and batch buffers exist and the writer has gone round the key space.
	ingestWarmup = time.Second
)

// ingestPath names put key j of the seed's key space.
func ingestPath(seed int64, j int) string { return fmt.Sprintf("bench-%d/ingest/obj_%05d", seed, j) }

// fillObj writes the content of key j into b: the key, then seeded
// pseudo-random bytes.
func fillObj(b []byte, seed int64, j int) {
	binary.LittleEndian.PutUint64(b, uint64(j))
	rng := splitmix(uint64(seed)<<32 ^ uint64(j))
	for off := 8; off < len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], rng.next())
	}
}

func runIngestMixed(ctx context.Context, cfg runConfig) (*result, error) {
	// Per-node NVMe holds twice a node's even share of both key spaces,
	// so no acked object is ever evicted (checked after the run).
	nvmeCap := int64(2 * (ingestFiles*fileBytes + ingestKeys*ingestObj) / clusterNodes)
	clusterCfg := func(network rpc.Network) core.ClusterConfig {
		return core.ClusterConfig{
			Nodes:        clusterNodes,
			Strategy:     ftcache.KindNVMe,
			VirtualNodes: virtualNodes,
			NVMeCapacity: nvmeCap,
			Network:      network,
		}
	}
	ds := dataset("ingest", cfg.seed, ingestFiles)
	return runInproc(ctx, cfg, ds, clusterCfg, func(c *core.Cluster, network rpc.Network, expected map[string][]byte) (inprocPhase, func() replay) {
		in := &ingestState{
			seed:     cfg.seed,
			paths:    ds.AllPaths(),
			expected: expected,
			pickRead: splitmix(uint64(cfg.seed)*7919 + 1),
			pickBack: splitmix(uint64(cfg.seed) * 977),
		}
		for j := 0; j < ingestKeys; j++ {
			in.keys = append(in.keys, ingestPath(cfg.seed, j))
		}
		phase := func(measure time.Duration, spans *spanLog, v map[string]float64, res *result) error {
			return in.phase(ctx, measure, c, network, spans, v, res)
		}
		return phase, in.replay(c)
	})
}

// replay is the workload micro-replays run: reads of the file set
// alternating with puts of the key space, and a 64-entry batch frame.
func (in *ingestState) replay(c *core.Cluster) func() replay {
	return func() replay {
		rng := splitmix(uint64(in.seed))
		stream := make([]string, 0, 100_000)
		for len(stream) < cap(stream) {
			if len(stream)%2 == 0 {
				stream = append(stream, in.paths[rng.intn(len(in.paths))])
			} else {
				stream = append(stream, in.keys[len(stream)/2%ingestKeys])
			}
		}
		batch := make([]hvac.PutEntry, 64)
		obj := make([]byte, ingestObj)
		for i := range batch {
			batch[i] = hvac.PutEntry{Path: in.keys[i], Data: obj}
		}
		req := hvac.PutBatchReq{Entries: batch}
		return replay{
			nodes:   c.Nodes(),
			victim:  c.Nodes()[pick(in.seed, clusterNodes)],
			stream:  stream,
			keys:    append(append([]string(nil), in.paths...), in.keys...),
			objSize: ingestObj,
			frame:   wire.Frame{Type: wire.TypeRequest, ID: 1, Op: hvac.OpPutBatch, Payload: req.Marshal()},
		}
	}
}

// ingestState is the writer's position in the put key space and the
// reader's file set, kept across the phases of a run.
type ingestState struct {
	seed     int64
	paths    []string          // warmed read set
	expected map[string][]byte // its content
	keys     []string          // put key space
	cursor   int               // next key the writer puts
	pickRead splitmix          // the reader's file choices
	pickBack splitmix          // the writer's readback choices
}

func (in *ingestState) phase(ctx context.Context, measure time.Duration, c *core.Cluster, network rpc.Network, spans *spanLog, v map[string]float64, res *result) error {
	var dial rpc.Network = network
	var probe *probeNet
	if spans.on {
		probe = &probeNet{Network: network, timed: true, spans: spans}
		dial = probe
	}
	cli, _, err := newClient(c, dial, &hvac.IngestConfig{}, spans)
	if err != nil {
		return err
	}
	defer cli.Close()

	var ops opCounts
	type flushRec struct {
		lat     []float64 // ms
		acked   int64
		lastAck time.Time
		putNs   int64
	}
	fr := &flushRec{} // replaced when measurement starts
	writer := func(stop func() bool) {
		obj, want := make([]byte, ingestObj), make([]byte, ingestObj)
		window := make([]int, ingestWindow)
		for !stop() {
			for i := range window {
				j := in.cursor % ingestKeys
				in.cursor++
				window[i] = j
				fillObj(obj, in.seed, j)
				var t0 time.Time
				if spans.on {
					t0 = time.Now()
				}
				err := cli.PutAsync(in.keys[j], obj)
				if spans.on {
					d := time.Since(t0)
					fr.putNs += int64(d)
					spans.add("hvac.put_async", t0, d, in.keys[j])
				}
				ops.note(err, false)
			}
			t0 := time.Now()
			err := cli.Flush(ctx)
			d := time.Since(t0)
			spans.add("hvac.flush", t0, d, "")
			ops.note(err, false)
			if err != nil {
				return
			}
			fr.lat = append(fr.lat, float64(d)/float64(time.Millisecond))
			fr.acked += ingestWindow
			fr.lastAck = time.Now()
			// Ack visibility: once Flush returned nil, every put of the
			// window is readable from its owner.
			for k := 0; k < readbacks; k++ {
				j := window[in.pickBack.intn(len(window))]
				got, err := cli.Read(ctx, in.keys[j])
				fillObj(want, in.seed, j)
				ops.note(err, err == nil && !bytes.Equal(got, want))
			}
		}
	}
	var rec *readRec
	reader := func(stop func() bool) {
		for !stop() {
			path := in.paths[in.pickRead.intn(len(in.paths))]
			id := spans.newID()
			t0 := time.Now()
			data, err := cli.Read(ctx, path)
			d := time.Since(t0)
			ops.note(err, err == nil && !bytes.Equal(data, in.expected[path]))
			if err == nil && rec != nil {
				rec.record(d)
			}
			spans.addID(id, 0, "bench.read", t0, d, path)
		}
	}
	loops(ctx, ingestWarmup, writer, reader)

	stack0, tel0, proc0 := snapStack(c), snapTelemetry(), snapProc()
	stats0 := clientStats([]*hvac.Client{cli})
	if probe != nil {
		probe.reset()
	}
	fr, rec = &flushRec{}, newReadRec(ingestFiles)
	loops(ctx, measure, writer, reader)
	elapsed := time.Since(rec.start)
	proc1, tel1, stack1 := snapProc(), snapTelemetry(), snapStack(c)
	if ctx.Err() != nil {
		return ctx.Err()
	}

	rec.fill(v, elapsed)
	fillStack(v, stack0, stack1)
	fillServed(v, subStats(clientStats([]*hvac.Client{cli}), stats0))
	puts := fr.acked
	v["hvac.puts_per_s"] = float64(puts) / fr.lastAck.Sub(rec.start).Seconds()
	v["hvac.flush_p50_ms"] = quantile(fr.lat, 0.50)
	v["hvac.flush_p99_ms"] = quantile(fr.lat, 0.99)
	v["bench.flush_samples"] = float64(len(fr.lat))
	v["hvac.putasync_ns"] = ratio(float64(fr.putNs), float64(puts))
	batches := tel1.delta(tel0, "ftc_client_ingest_batch_entries.count")
	v["hvac.ingest_entries_per_batch"] = ratio(tel1.delta(tel0, "ftc_client_ingest_batch_entries.sum"), batches)
	v["hvac.ingest_flush_size"] = tel1.delta(tel0, "ftc_client_ingest_flush_size_total")
	v["hvac.ingest_flush_age"] = tel1.delta(tel0, "ftc_client_ingest_flush_age_total")
	v["hvac.ingest_flush_sync"] = tel1.delta(tel0, "ftc_client_ingest_flush_sync_total")
	ops64 := int64(len(rec.lat)) + puts
	fillProc(v, proc0, proc1, ops64)
	if probe != nil {
		fillWrites(v, probe, tel0, tel1, ops64)
	}
	if ev := stack1.nvmeEvictions; ev != 0 {
		res.violate("NVMe evicted %d objects; acked puts must stay resident", ev)
	}
	if errs := tel1.delta(tel0, "ftc_client_ingest_errors_total"); errs != 0 {
		res.violate("%v ingest entries failed delivery", errs)
	}
	ops.addTo(res)
	return nil
}
