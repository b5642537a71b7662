package hvac

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// clientSeries maps every ClientStats field to its client-labeled
// series.
var clientSeries = []struct {
	name  string
	field func(ClientStats) int64
}{
	{"ftc_client_remote_reads_total", func(s ClientStats) int64 { return s.RemoteReads }},
	{"ftc_client_remote_bytes_total", func(s ClientStats) int64 { return s.RemoteBytes }},
	{"ftc_client_served_ram_total", func(s ClientStats) int64 { return s.ServedRAM }},
	{"ftc_client_served_nvme_total", func(s ClientStats) int64 { return s.ServedNVMe }},
	{"ftc_client_served_pfs_total", func(s ClientStats) int64 { return s.ServedPFS }},
	{"ftc_client_direct_pfs_total", func(s ClientStats) int64 { return s.DirectPFS }},
	{"ftc_client_direct_bytes_total", func(s ClientStats) int64 { return s.DirectBytes }},
	{"ftc_client_timeouts_total", func(s ClientStats) int64 { return s.Timeouts }},
	{"ftc_client_failover_reads_total", func(s ClientStats) int64 { return s.FailoverReads }},
	{"ftc_client_replica_pushes_total", func(s ClientStats) int64 { return s.ReplicaPushes }},
	{"ftc_client_coalesced_reads_total", func(s ClientStats) int64 { return s.CoalescedReads }},
	{"ftc_client_hedged_reads_total", func(s ClientStats) int64 { return s.HedgedReads }},
	{"ftc_client_hedge_wins_total", func(s ClientStats) int64 { return s.HedgeWins }},
	{"ftc_client_hot_pushes_total", func(s ClientStats) int64 { return s.HotPushes }},
	{"ftc_client_shed_redirects_total", func(s ClientStats) int64 { return s.ShedRedirects }},
}

// seriesByName sums every ftc_client_* counter series by base name (the
// process-wide view, as Prometheus sum() and perfbench compute it) and
// keeps the client-labeled values apart.
func seriesByName() (sums map[string]int64, labeled map[string]map[string]int64) {
	sums = make(map[string]int64)
	labeled = make(map[string]map[string]int64)
	for _, m := range telemetry.Default().Snapshot() {
		if !strings.HasPrefix(m.Name, "ftc_client_") || m.Hist != nil {
			continue
		}
		sums[m.Name] += m.Value
		if m.Labels != "" {
			if labeled[m.Name] == nil {
				labeled[m.Name] = make(map[string]int64)
			}
			labeled[m.Name][m.Labels] += m.Value
		}
	}
	return sums, labeled
}

// failoverRouter sends direct/ paths to the PFS, failover/ paths to a
// node with no listener until the detector declares it failed, and
// everything else to node-00.
type failoverRouter struct{ declared atomic.Bool }

func (r *failoverRouter) Name() string { return "failover" }
func (r *failoverRouter) Route(path string) Decision {
	switch {
	case strings.HasPrefix(path, "direct/"):
		return Decision{Kind: RoutePFS}
	case strings.HasPrefix(path, "failover/") && !r.declared.Load():
		return Decision{Kind: RouteNode, Node: "node-dead"}
	}
	return Decision{Kind: RouteNode, Node: "node-00"}
}
func (r *failoverRouter) NodeFailed(n cluster.NodeID) {
	if n == "node-dead" {
		r.declared.Store(true)
	}
}

// TestClientStatsAreTheLabeledSeries runs two clients against the same
// in-process server (RAM tier on) with reads served from RAM, NVMe, a
// server-side PFS fallback, the client-side PFS, and one read that
// fails over from a dead node. Each client's Stats must equal its own
// client-labeled series, and the process-wide sum of every series must
// move by exactly the two clients' Stats: a double or a missed count
// on any event site breaks one of the two.
func TestClientStatsAreTheLabeledSeries(t *testing.T) {
	if n := reflect.TypeOf(ClientStats{}).NumField(); n != len(clientSeries) {
		t.Fatalf("ClientStats has %d fields, clientSeries maps %d", n, len(clientSeries))
	}
	srv, network, pfs := newRAMServer(t, 1<<20)
	files := map[string][]byte{
		"data/cold-0": []byte("cold-payload-0"),
		"data/cold-1": []byte("cold-payload-1"),
		"data/hot":    []byte(strings.Repeat("hot-payload.", 32)),
		"direct/f":    []byte("direct-payload"),
		"failover/f":  []byte("failover-payload"),
	}
	for p, b := range files {
		pfs.Put(p, b)
	}
	newClient := func() *Client {
		c, err := NewClient(ClientConfig{
			Endpoints:    map[cluster.NodeID]string{"node-00": "node-00", "node-dead": "node-dead"},
			Network:      network,
			Router:       &failoverRouter{},
			PFS:          pfs,
			RPCTimeout:   time.Second,
			TimeoutLimit: 2,
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		t.Cleanup(c.Close)
		return c
	}

	before, _ := seriesByName()
	a, b := newClient(), newClient()
	ctx := context.Background()
	var reads, readBytes [2]int64
	read := func(i int, c *Client, path string) {
		t.Helper()
		got, err := c.Read(ctx, path)
		if err != nil || string(got) != string(files[path]) {
			t.Fatalf("client %d read %s: %q, %v", i, path, got, err)
		}
		reads[i]++
		readBytes[i] += int64(len(got))
	}
	for i, c := range []*Client{a, b} {
		cold := fmt.Sprintf("data/cold-%d", i)
		read(i, c, cold) // PFS fallback on the server
		srv.Mover().Flush()
		read(i, c, cold) // NVMe hit
		for j := 0; j < 64 && !srv.RAM().Has("data/hot"); j++ {
			read(i, c, "data/hot")
		}
		read(i, c, "data/hot") // RAM hit
		read(i, c, "direct/f") // client-side PFS
		read(i, c, "failover/f")
		if i == 1 {
			read(i, c, "direct/f") // the clients must differ
		}
	}

	after, labeled := seriesByName()
	want := make(map[string]int64)
	for i, c := range []*Client{a, b} {
		st := c.Stats()
		if st.ServedRAM == 0 || st.ServedNVMe == 0 || st.ServedPFS == 0 || st.DirectPFS == 0 {
			t.Errorf("client %d: a serving tier went unexercised: %+v", i, st)
		}
		if st.Timeouts != 2 || st.FailoverReads != 1 {
			t.Errorf("client %d: want 2 timeouts and 1 failover read: %+v", i, st)
		}
		if got := st.RemoteReads + st.DirectPFS; got != reads[i] {
			t.Errorf("client %d: %d remote + direct reads counted, %d issued", i, got, reads[i])
		}
		if got := st.ServedRAM + st.ServedNVMe + st.ServedPFS; got != st.RemoteReads {
			t.Errorf("client %d: %d reads by source, %d remote reads", i, got, st.RemoteReads)
		}
		if got := st.RemoteBytes + st.DirectBytes; got != readBytes[i] {
			t.Errorf("client %d: %d bytes counted, %d read", i, got, readBytes[i])
		}
		label := `client="` + c.ctr.id + `"`
		for _, s := range clientSeries {
			if got, ok := labeled[s.name][label]; !ok || got != s.field(st) {
				t.Errorf("client %d: %s{%s} = %d (present %v), Stats says %d", i, s.name, label, got, ok, s.field(st))
			}
			want[s.name] += s.field(st)
		}
	}
	if a.Stats() == b.Stats() {
		t.Error("the two clients' Stats are identical; their reads differ")
	}
	for _, s := range clientSeries {
		if got := after[s.name] - before[s.name]; got != want[s.name] {
			t.Errorf("sum of %s moved by %d, the clients' Stats sum to %d", s.name, got, want[s.name])
		}
	}
}

// catalogueRow matches a DESIGN.md §9.4 table row for the client
// prefix: the first cell (which says whether the row carries the client
// label) and the list of names.
var catalogueRow = regexp.MustCompile("^\\| `ftc_client_\\*`([^|]*)\\|[^|]*\\|([^|]*)\\|$")

// TestClientMetricCatalogue holds DESIGN.md §9.4 to the registry: the
// ftc_client_* names listed there are exactly the names the client
// registers, and the row that says `client` lists exactly the labeled
// ones.
func TestClientMetricCatalogue(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.client(staticRouter{node: "node-00"}, time.Second)
	cliMetrics()

	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	documented := make(map[string]bool) // name -> documented as client-labeled
	inCatalogue := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "### ") {
			inCatalogue = strings.HasPrefix(line, "### 9.4 ")
		}
		m := catalogueRow.FindStringSubmatch(line)
		if !inCatalogue || m == nil {
			continue
		}
		for _, tok := range strings.Split(m[2], "`")[1:] {
			tok = strings.Trim(tok, ", ")
			if tok != "" {
				documented["ftc_client_"+tok] = strings.Contains(m[1], "`client`")
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(documented) == 0 {
		t.Fatal("DESIGN.md §9.4 has no ftc_client_* row")
	}

	registered := make(map[string]bool) // name -> registered with a client label
	for _, m := range telemetry.Default().Snapshot() {
		if strings.HasPrefix(m.Name, "ftc_client_") {
			registered[m.Name] = registered[m.Name] || strings.HasPrefix(m.Labels, `client="`)
		}
	}
	var diffs []string
	for name, lab := range registered {
		if doc, ok := documented[name]; !ok {
			diffs = append(diffs, "registered but not in DESIGN.md: "+name)
		} else if doc != lab {
			diffs = append(diffs, "client label documented wrongly: "+name)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			diffs = append(diffs, "in DESIGN.md but not registered: "+name)
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Error(d)
	}
}
