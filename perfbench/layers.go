package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/loadctl"
	"repro/internal/memtier"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// stackSnap is a point-in-time read of the public counters of every
// server in a cluster (killed ones included) and of the shared PFS.
type stackSnap struct {
	serverReads                                     []int64
	nvmeHits, nvmeMisses, nvmeEvictions, nvmeSpills int64
	ramHits, ramMisses, ramAdmits, ramEvictions     int64
	ramDemotions, ramLeases                         int64
	moverFills, moverDrops, moverInline, pfsReads   int64
}

func snapStack(c *core.Cluster) stackSnap {
	var s stackSnap
	for _, n := range c.Nodes() {
		srv := c.Server(n)
		s.serverReads = append(s.serverReads, srv.Reads())
		h, m, e := srv.NVMe().Counters()
		s.nvmeHits, s.nvmeMisses, s.nvmeEvictions = s.nvmeHits+h, s.nvmeMisses+m, s.nvmeEvictions+e
		s.nvmeSpills += srv.NVMe().Spills()
		if ram := srv.RAM(); ram != nil {
			h, m, a, e, d, _ := ram.Counters()
			s.ramHits += h
			s.ramMisses += m
			s.ramAdmits += a
			s.ramEvictions += e
			s.ramDemotions += d
			s.ramLeases += ram.ActiveLeases()
		}
		enq, drop := srv.Mover().Counters()
		inline, _, _ := srv.Mover().FillStats()
		s.moverFills += enq
		s.moverDrops += drop
		s.moverInline += inline
	}
	s.pfsReads, _, _ = c.PFS().Counters()
	return s
}

// fillStack sets the storage, memtier and server-side hvac metrics from
// the counter change between two snapshots of one cluster.
func fillStack(v map[string]float64, before, after stackSnap) {
	hits, misses := after.nvmeHits-before.nvmeHits, after.nvmeMisses-before.nvmeMisses
	v["storage.nvme_hit_ratio"] = ratio(hits, hits+misses)
	v["storage.nvme_evictions"] = float64(after.nvmeEvictions - before.nvmeEvictions)
	v["storage.nvme_spills"] = float64(after.nvmeSpills - before.nvmeSpills)
	v["storage.pfs_reads"] = float64(after.pfsReads - before.pfsReads)
	rh, rm := after.ramHits-before.ramHits, after.ramMisses-before.ramMisses
	v["memtier.hit_ratio"] = ratio(rh, rh+rm)
	v["memtier.admits"] = float64(after.ramAdmits - before.ramAdmits)
	v["memtier.evictions"] = float64(after.ramEvictions - before.ramEvictions)
	v["memtier.demotions"] = float64(after.ramDemotions - before.ramDemotions)
	v["memtier.leases_end"] = float64(after.ramLeases)
	v["hvac.mover_fills"] = float64(after.moverFills - before.moverFills)
	v["hvac.fill_drops"] = float64(after.moverDrops - before.moverDrops)
	v["hvac.inline_fills"] = float64(after.moverInline - before.moverInline)
	var total, most int64
	for i, r := range after.serverReads {
		d := r - before.serverReads[i]
		total += d
		most = max(most, d)
	}
	v["hvac.max_node_share"] = ratio(most, total)
}

// fillServed sets the client-side served-from fractions.
func fillServed(v map[string]float64, st hvac.ClientStats) {
	v["hvac.served_ram_frac"] = ratio(st.ServedRAM, st.RemoteReads)
	v["hvac.served_nvme_frac"] = ratio(st.ServedNVMe, st.RemoteReads)
	v["hvac.served_pfs_frac"] = ratio(st.ServedPFS, st.RemoteReads)
	v["hvac.failover_reads"] = float64(st.FailoverReads)
	v["cluster.timeouts"] = float64(st.Timeouts)
}

// clientStats sums the counters fillServed reads over clients.
func clientStats(clients []*hvac.Client) hvac.ClientStats {
	var sum hvac.ClientStats
	for _, c := range clients {
		s := c.Stats()
		sum.RemoteReads += s.RemoteReads
		sum.ServedRAM += s.ServedRAM
		sum.ServedNVMe += s.ServedNVMe
		sum.ServedPFS += s.ServedPFS
		sum.Timeouts += s.Timeouts
		sum.FailoverReads += s.FailoverReads
	}
	return sum
}

// subStats is a - b over the counters fillServed reads.
func subStats(a, b hvac.ClientStats) hvac.ClientStats {
	a.RemoteReads -= b.RemoteReads
	a.ServedRAM -= b.ServedRAM
	a.ServedNVMe -= b.ServedNVMe
	a.ServedPFS -= b.ServedPFS
	a.Timeouts -= b.Timeouts
	a.FailoverReads -= b.FailoverReads
	return a
}

// telSnap sums every series of the Default telemetry registry by name;
// a histogram contributes name+".count" and name+".sum".
type telSnap map[string]float64

func snapTelemetry() telSnap {
	s := make(telSnap)
	for _, m := range telemetry.Default().Snapshot() {
		if m.Hist != nil {
			s[m.Name+".count"] += float64(m.Hist.Count)
			s[m.Name+".sum"] += float64(m.Hist.Sum)
			continue
		}
		s[m.Name] += float64(m.Value)
	}
	return s
}

func (s telSnap) delta(before telSnap, name string) float64 { return s[name] - before[name] }

// procSnap is the process's CPU time, allocation and GC count.
type procSnap struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func snapProc() procSnap {
	var ru syscall.Rusage
	var s procSnap
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.gcs = ms.TotalAlloc, ms.NumGC
	return s
}

func fillProc(v map[string]float64, before, after procSnap, ops int64) {
	v["proc.cpu_us_per_op"] = ratio(float64(after.cpu-before.cpu)/float64(time.Microsecond), float64(ops))
	v["proc.alloc_bytes_per_op"] = ratio(float64(after.alloc-before.alloc), float64(ops))
	v["proc.gc_cycles"] = float64(after.gcs - before.gcs)
}

// liveHeapMB is the heap still in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// replay describes the workload a micro-replay re-runs against one layer
// function at a time: its key stream in access order, the distinct keys
// with their object size, the node set and the failure victim, and the
// payload of the frame the workload sends most.
type replay struct {
	nodes   []cluster.NodeID
	victim  cluster.NodeID
	stream  []string // keys in the order the workload's callers touch them
	keys    []string // distinct keys
	objSize int
	frame   wire.Frame // the workload's dominant frame
}

// microReps is how many times each micro-replay runs; the median counts.
const microReps = 5

// timeReps runs fn microReps times and returns the median nanoseconds
// per op, where fn performs ops operations.
func timeReps(spans *spanLog, name string, ops int, fn func()) float64 {
	xs := make([]float64, microReps)
	for i := range xs {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		spans.add(name, t0, d, fmt.Sprintf("ops=%d", ops))
		xs[i] = float64(d) / float64(ops)
	}
	return median(xs)
}

// sink keeps replayed results alive so the compiler cannot drop a call.
var sink int

// runMicro replays the workload against the ring, wire codec, NVMe
// store, RAM tier and hot-key sketch, each alone.
func runMicro(v map[string]float64, rp replay, spans *spanLog) {
	ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: virtualNodes}, rp.nodes)

	v["hashring.owner_ns"] = timeReps(spans, "micro.ring_owner", len(rp.stream), func() {
		for _, k := range rp.stream {
			n, _ := ring.Owner(k)
			sink += len(n)
		}
	})
	var plan hashring.RecachePlan
	v["hashring.plan_recache_ms"] = timeReps(spans, "micro.plan_recache", 1, func() {
		plan = ring.PlanRecache(rp.victim, rp.keys)
	}) / 1e6
	// A workload that lost a node has set the count it really moved.
	if _, ok := v["hashring.keys_moved"]; !ok {
		v["hashring.keys_moved"] = float64(plan.Lost)
	}

	const frames = 20000
	enc := wire.AppendFrame(nil, &rp.frame)
	buf := make([]byte, 0, len(enc))
	v["wire.encode_ns"] = timeReps(spans, "micro.wire_encode", frames, func() {
		for i := 0; i < frames; i++ {
			buf = wire.AppendFrame(buf[:0], &rp.frame)
		}
	})
	rd := bytes.NewReader(enc)
	v["wire.decode_ns"] = timeReps(spans, "micro.wire_decode", frames, func() {
		for i := 0; i < frames; i++ {
			rd.Reset(enc)
			f, lease, err := wire.ReadFramePooled(rd, 0)
			if err == nil {
				sink += len(f.Payload)
				lease.Release()
			}
		}
	})

	obj := make([]byte, rp.objSize)
	nv := storage.NewNVMe(0)
	tier := memtier.New(int64(len(rp.keys)+1)*int64(rp.objSize)*2, nil)
	for _, k := range rp.keys {
		_ = nv.Put(k, obj) // unbounded store: Put cannot fail
		tier.Admit(k, obj)
	}
	v["storage.nvme_get_ns"] = timeReps(spans, "micro.nvme_get", len(rp.stream), func() {
		for _, k := range rp.stream {
			b, _ := nv.Get(k)
			sink += len(b)
		}
	})
	const batch, batches = 64, 200
	entries := make([]storage.BatchEntry, batch)
	v["storage.nvme_putbatch_us"] = timeReps(spans, "micro.nvme_putbatch", batches, func() {
		dst := storage.NewNVMe(0)
		for b := 0; b < batches; b++ {
			for i := range entries {
				entries[i] = storage.BatchEntry{Path: rp.keys[(b*batch+i)%len(rp.keys)], Data: obj}
			}
			sink += len(dst.PutBatch(entries))
		}
	}) / 1e3
	v["memtier.get_ns"] = timeReps(spans, "micro.memtier_get", len(rp.stream), func() {
		for _, k := range rp.stream {
			if l, ok := tier.Get(k); ok {
				sink += len(l.Bytes())
				l.Release()
			}
		}
	})

	var sk *loadctl.Sketch
	v["loadctl.sketch_touch_ns"] = timeReps(spans, "micro.sketch_touch", len(rp.stream), func() {
		sk = loadctl.NewSketch(loadctl.Config{})
		for _, k := range rp.stream {
			if sk.Touch(k) {
				sink++
			}
		}
	})
	v["loadctl.sketch_hot_keys"] = float64(sk.HotCount())
}

// rpcRoundTrips times rpc.Client.Call of OpRead against the live
// cluster over the workload's own transport: one connection per alive
// node, each key sent to its owner, keys in workload order.
func rpcRoundTrips(ctx context.Context, v map[string]float64, c *core.Cluster, network rpc.Network, keys []string, spans *spanLog) error {
	alive := c.AliveNodes()
	ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: virtualNodes}, alive)
	clients := make(map[cluster.NodeID]*rpc.Client, len(alive))
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for _, n := range alive {
		conn, err := network.Dial(string(n))
		if err != nil {
			return fmt.Errorf("dial %s: %w", n, err)
		}
		clients[n] = rpc.NewClient(conn)
	}
	const calls = 3000
	lat := make([]float64, 0, calls)
	for i := 0; i < calls && i < len(keys); i++ {
		owner, _ := ring.Owner(keys[i])
		req := hvac.ReadReq{Path: keys[i], Length: -1}
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		t0 := time.Now()
		_, status, err := clients[owner].Call(cctx, hvac.OpRead, req.Marshal())
		d := time.Since(t0)
		cancel()
		if err != nil || status != rpc.StatusOK {
			return fmt.Errorf("rpc round trip %s: status %d: %v", keys[i], status, err)
		}
		spans.add("micro.rpc_call", t0, d, string(owner))
		lat = append(lat, float64(d)/float64(time.Microsecond))
	}
	v["rpc.roundtrip_p50_us"] = quantile(lat, 0.50)
	v["rpc.roundtrip_p99_us"] = quantile(lat, 0.99)
	return nil
}

// fillWrites sets the per-write rpc metrics from a probe network and the
// client frame counter.
func fillWrites(v map[string]float64, p *probeNet, before, after telSnap, ops int64) {
	w := float64(p.writes.Load())
	v["rpc.writes_per_op"] = ratio(w, float64(ops))
	v["rpc.frames_per_write"] = ratio(after.delta(before, "ftc_rpc_client_frames_total"), w)
	v["rpc.bytes_per_write"] = ratio(float64(p.bytes.Load()), w)
	v["rpc.conn_write_us"] = ratio(float64(p.writeNs.Load())/float64(time.Microsecond), w)
}
