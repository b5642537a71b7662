package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/wire"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark implements.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics (with units) this program measures.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(specs))
		}
		for i := range min(len(listed), len(specs)) {
			if listed[i].Name != specs[i].name || listed[i].Unit != specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resultLine is the shape of the line a run prints last.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smokeSeconds is each workload's shortest run that completes at least
// one pass over its read set.
var smokeSeconds = map[string]time.Duration{
	"train-failover": time.Second,
	"zipf-tiered":    4 * time.Second,
	"ingest-mixed":   time.Second,
}

// smoke runs one workload briefly and checks that the run is correct
// and that its result line carries exactly the listed metrics.
func smoke(t *testing.T, name string, traced bool) {
	wl := workloads[name]
	if wl.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	}
	cfg := runConfig{seed: 7, seconds: smokeSeconds[name], floor: sleepFloor(), trace: traced}
	res, err := wl.run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.failed != 0 {
		t.Fatalf("run not correct: %d wrong, %d failed, %v", res.wrong, res.failed, res.violations)
	}
	b, err := res.line(traced)
	if err != nil {
		t.Fatal(err)
	}
	var line resultLine
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil || len(raw) != 4 {
		t.Fatalf("result line has keys %v, want correct, attempted, failed, metrics", raw)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, s := range specs {
		m, ok := line.Metrics[s.name]
		if !ok {
			t.Errorf("metric %s not emitted", s.name)
		} else if m.Unit != s.unit {
			t.Errorf("metric %s unit %s, want %s", s.name, m.Unit, s.unit)
		}
	}
	if len(line.Metrics) != len(specs) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(specs))
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if traced {
		for _, k := range layerMustMove[name] {
			if line.Metrics[k].Value <= 0 {
				t.Errorf("%s: per-layer metric %s = %v, want > 0", name, k, line.Metrics[k].Value)
			}
		}
	}
}

// layerMustMove names per-layer metrics each workload exercises, which
// a traced run must therefore report above zero.
var layerMustMove = map[string][]string{
	"train-failover": {"hashring.keys_moved", "cluster.detect_ms", "dltrain.restarts", "dltrain.failover_epoch_s",
		"hvac.served_pfs_frac", "hvac.mover_fills", "hvac.pfs_reads_per_lost_file", "storage.pfs_reads",
		"rpc.roundtrip_p50_us", "rpc.writes_per_op", "rpc.conn_write_us", "wire.decode_ns", "core.stage_s"},
	"zipf-tiered": {"hvac.served_ram_frac", "hvac.served_nvme_frac", "memtier.hit_ratio", "memtier.admits",
		"memtier.get_ns", "loadctl.sketch_touch_ns", "hvac.max_node_share", "rpc.frames_per_write"},
	"ingest-mixed": {"hvac.puts_per_s", "hvac.flush_p99_ms", "hvac.putasync_ns", "hvac.ingest_entries_per_batch",
		"hvac.ingest_flush_sync", "storage.nvme_putbatch_us", "rpc.bytes_per_write", "proc.cpu_us_per_op"},
}

func TestSmokeTrainFailover(t *testing.T)       { smoke(t, "train-failover", false) }
func TestSmokeTrainFailoverTraced(t *testing.T) { smoke(t, "train-failover", true) }
func TestSmokeZipfTiered(t *testing.T)          { smoke(t, "zipf-tiered", false) }
func TestSmokeZipfTieredTraced(t *testing.T)    { smoke(t, "zipf-tiered", true) }
func TestSmokeIngestMixed(t *testing.T)         { smoke(t, "ingest-mixed", false) }
func TestSmokeIngestMixedTraced(t *testing.T)   { smoke(t, "ingest-mixed", true) }

// TestFrameStreamReassembles feeds two frames split at every byte
// boundary and checks both come out whole.
func TestFrameStreamReassembles(t *testing.T) {
	a := readRespFrame([]byte("hello"))
	b := readRespFrame(make([]byte, 300))
	b.ID = 2
	enc := wire.AppendFrame(wire.AppendFrame(nil, &a), &b)
	for cut := 0; cut <= len(enc); cut++ {
		var got []uint64
		s := frameStream{onFrame: func(f frame) { got = append(got, f.id) }}
		s.feed(enc[:cut])
		s.feed(enc[cut:])
		if len(got) != 2 || got[0] != 1 || got[1] != 2 || s.bad || len(s.buf) != 0 {
			t.Fatalf("cut %d: frames %v bad=%v left=%d", cut, got, s.bad, len(s.buf))
		}
	}
}
