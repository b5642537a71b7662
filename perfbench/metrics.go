package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit. The lists below
// are the benchmark's contract and must match BENCHMARK.json (a test
// checks both directions).
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the cache sees. Every workload
// reports all of them, each in its own terms: an "epoch" is one pass of
// the workload's readers over its read set (a training epoch on
// train-failover, NumFiles consecutive reads on the other two).
var endToEnd = []metricSpec{
	{"setup_s", "s"},       // boot + stage + warm, median of several set-ups
	{"live_heap_mb", "MB"}, // heap after a final GC, stack still up
	{"epoch_s", "s"},       // median fault-free epoch after warm-up
	{"reads_per_s", "1/s"}, // verified reads per second in fault-free epochs
	{"read_p50_us", "us"},  // median read latency
	// 90th-percentile read latency: the p99 of train-failover spread by
	// 0.17 (quartile distance over median) across ten seeds, the p90 by
	// far less. The p99 is a per-layer value of traced runs.
	{"read_p90_us", "us"},
}

// perLayer are the numbers of single layers, printed by traced runs.
// Layers idle on a workload report 0.
var perLayer = []metricSpec{
	{"hashring.owner_ns", "ns"},
	{"hashring.plan_recache_ms", "ms"},
	{"hashring.keys_moved", "count"},
	{"cluster.detect_ms", "ms"},
	{"cluster.timeouts", "count"},
	{"dltrain.restarts", "count"},
	{"dltrain.steps_per_epoch", "count"},
	{"dltrain.failover_epoch_s", "s"},
	{"hvac.served_ram_frac", "ratio"},
	{"hvac.served_nvme_frac", "ratio"},
	{"hvac.served_pfs_frac", "ratio"},
	{"hvac.failover_reads", "count"},
	{"hvac.mover_fills", "count"},
	{"hvac.inline_fills", "count"},
	{"hvac.fill_drops", "count"},
	{"hvac.pfs_reads_per_lost_file", "ratio"},
	{"hvac.max_node_share", "ratio"},
	{"hvac.putasync_ns", "ns"},
	{"hvac.ingest_entries_per_batch", "count"},
	{"hvac.ingest_flush_size", "count"},
	{"hvac.ingest_flush_age", "count"},
	{"hvac.ingest_flush_sync", "count"},
	{"hvac.puts_per_s", "1/s"},
	{"hvac.flush_p50_ms", "ms"},
	{"hvac.flush_p99_ms", "ms"},
	{"rpc.roundtrip_p50_us", "us"},
	{"rpc.roundtrip_p99_us", "us"},
	{"rpc.writes_per_op", "ratio"},
	{"rpc.frames_per_write", "ratio"},
	{"rpc.bytes_per_write", "B"},
	{"rpc.conn_write_us", "us"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"storage.nvme_get_ns", "ns"},
	{"storage.nvme_putbatch_us", "us"},
	{"storage.nvme_hit_ratio", "ratio"},
	{"storage.nvme_evictions", "count"},
	{"storage.nvme_spills", "count"},
	{"storage.pfs_reads", "count"},
	{"memtier.hit_ratio", "ratio"},
	{"memtier.admits", "count"},
	{"memtier.evictions", "count"},
	{"memtier.demotions", "count"},
	{"memtier.get_ns", "ns"},
	{"memtier.leases_end", "count"},
	{"loadctl.sketch_touch_ns", "ns"},
	{"loadctl.sketch_hot_keys", "count"},
	{"core.boot_s", "s"},
	{"core.stage_s", "s"},
	{"core.warm_s", "s"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cycles", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.failed_frac", "ratio"},
	{"bench.read_p99_us", "us"},
	{"bench.read_samples", "count"},
	{"bench.epoch_samples", "count"},
	{"bench.flush_samples", "count"},
	{"bench.sleep_floor_us", "us"},
}

// result is one run's outcome: operation counts, correctness evidence
// and the measured values keyed by metric name.
type result struct {
	attempted, failed int64
	wrong             int64    // reads that returned wrong bytes
	violations        []string // broken invariants (exact counts, ack visibility, …)
	values            map[string]float64
	spans             *spanLog
}

func newResult() *result {
	return &result{values: make(map[string]float64), spans: newSpanLog(false)}
}

// violate records a broken invariant; the run then exits non-zero.
func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.wrong == 0 && len(r.violations) == 0 }

// line renders the result line: every metric of the selected list, with
// its unit. An end-to-end value must be a positive finite number; a
// per-layer value may be 0 but never NaN or infinite.
func (r *result) line(traced bool) ([]byte, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
		r.values["bench.failed_frac"] = ratio(r.failed, r.attempted)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
			return nil, fmt.Errorf("metric %s has no usable value (%v)", s.name, v)
		}
		metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
}

// ratio is num/den, 0 when den is 0.
func ratio[T int64 | float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// quantile returns the q-quantile of xs by the nearest-rank rule (an
// observed value, never an interpolation). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, so xs keeps its order.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
