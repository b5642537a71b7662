package ftcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/storage"
)

func nodes(n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(fmt.Sprintf("node-%02d", i))
	}
	return out
}

func paths(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cosmoUniverse/train/univ_%06d.tfrecord", i)
	}
	return out
}

// newNoFT and newPFSRedirect unwrap the static router NewRouter builds
// for the two modulo-placed strategies.
func newNoFT(ns []cluster.NodeID) *Static {
	return NewRouter(KindNoFT, ns, 0).(terminal).Router.(*Static)
}

func newPFSRedirect(ns []cluster.NodeID) *Static {
	return NewRouter(KindPFS, ns, 0).(*Static)
}

func TestNoFTRoutesThenAborts(t *testing.T) {
	r := newNoFT(nodes(4))
	if r.Name() != "NoFT" {
		t.Errorf("name = %q", r.Name())
	}
	d := r.Route("file-a")
	if d.Kind != hvac.RouteNode {
		t.Fatalf("healthy route kind = %v", d.Kind)
	}
	if r.Aborted() {
		t.Error("aborted before any failure")
	}
	r.NodeFailed("node-02")
	if !r.Aborted() {
		t.Error("not aborted after failure")
	}
	for _, p := range paths(10) {
		if got := r.Route(p); got.Kind != hvac.RouteAbort {
			t.Fatalf("route after failure = %+v, want abort", got)
		}
	}
}

func TestNoFTAbortsEvenIfFailedNodeOwnedNothingRelevant(t *testing.T) {
	// NoFT aborts on ANY node failure, not only for keys it owned —
	// the baseline job dies wholesale.
	r := newNoFT(nodes(2))
	r.NodeFailed("node-01")
	if d := r.Route("any"); d.Kind != hvac.RouteAbort {
		t.Error("NoFT must abort for every path after any failure")
	}
}

func TestPFSRedirectOnlyVictimTrafficMoves(t *testing.T) {
	ns := nodes(8)
	r := newPFSRedirect(ns)
	if r.Name() != "FT w/ PFS" {
		t.Errorf("name = %q", r.Name())
	}
	ps := paths(400)
	before := map[string]hvac.Decision{}
	for _, p := range ps {
		before[p] = r.Route(p)
		if before[p].Kind != hvac.RouteNode {
			t.Fatalf("healthy route = %+v", before[p])
		}
	}
	victim := cluster.NodeID("node-03")
	r.NodeFailed(victim)
	if r.FailedCount() != 1 {
		t.Errorf("failed count = %d", r.FailedCount())
	}
	redirected := 0
	for _, p := range ps {
		after := r.Route(p)
		if before[p].Node == victim {
			if after.Kind != hvac.RoutePFS {
				t.Fatalf("victim-owned %q not redirected: %+v", p, after)
			}
			redirected++
			continue
		}
		// Everyone else's placement is untouched — no recaching happens.
		if after != before[p] {
			t.Fatalf("placement of %q changed: %+v -> %+v", p, before[p], after)
		}
	}
	if redirected == 0 {
		t.Error("victim owned no paths; test degenerate")
	}
}

func TestPFSRedirectAllNodesFailed(t *testing.T) {
	ns := nodes(3)
	r := newPFSRedirect(ns)
	for _, n := range ns {
		r.NodeFailed(n)
	}
	for _, p := range paths(20) {
		if d := r.Route(p); d.Kind != hvac.RoutePFS {
			t.Fatalf("route with all failed = %+v", d)
		}
	}
}

func TestRingRecacheRemapsOnlyVictimKeys(t *testing.T) {
	ns := nodes(16)
	r := NewRingRecache(ns, 100)
	if r.Name() != "FT w/ NVMe" {
		t.Errorf("name = %q", r.Name())
	}
	ps := paths(2000)
	before := map[string]cluster.NodeID{}
	for _, p := range ps {
		d := r.Route(p)
		if d.Kind != hvac.RouteNode {
			t.Fatalf("healthy route = %+v", d)
		}
		before[p] = d.Node
	}
	victim := cluster.NodeID("node-09")
	r.NodeFailed(victim)
	moved := 0
	for _, p := range ps {
		d := r.Route(p)
		if d.Kind != hvac.RouteNode {
			t.Fatalf("route after failure = %+v", d)
		}
		if d.Node == victim {
			t.Fatalf("path %q still routed to failed node", p)
		}
		if before[p] == victim {
			moved++
		} else if d.Node != before[p] {
			t.Fatalf("surviving placement changed for %q: %s -> %s", p, before[p], d.Node)
		}
	}
	if moved == 0 {
		t.Error("victim owned no paths; test degenerate")
	}
	if r.Ring().Len() != 15 {
		t.Errorf("ring members = %d", r.Ring().Len())
	}
}

func TestRingRecacheFallsBackToPFSWhenRingEmpty(t *testing.T) {
	ns := nodes(2)
	r := NewRingRecache(ns, 10)
	r.NodeFailed(ns[0])
	r.NodeFailed(ns[1])
	if d := r.Route("p"); d.Kind != hvac.RoutePFS {
		t.Errorf("empty-ring route = %+v, want PFS", d)
	}
}

func TestRingRecacheDefaultVirtualNodes(t *testing.T) {
	r := NewRingRecache(nodes(2), 0)
	if r.Ring().PointCount() != 200 {
		t.Errorf("points = %d, want 200 (100/node default)", r.Ring().PointCount())
	}
}

func TestNewRouterFactory(t *testing.T) {
	ns := nodes(3)
	cases := []struct {
		kind StrategyKind
		name string
	}{
		{KindNoFT, "NoFT"},
		{KindPFS, "FT w/ PFS"},
		{KindNVMe, "FT w/ NVMe"},
		{StrategyKind("bogus"), "NoFT"}, // unknown → safe baseline
	}
	for _, c := range cases {
		r := NewRouter(c.kind, ns, 50)
		if r.Name() != c.name {
			t.Errorf("NewRouter(%q).Name() = %q, want %q", c.kind, r.Name(), c.name)
		}
	}
}

func TestRepeatedFailuresRingKeepsWorking(t *testing.T) {
	// The paper's motivation for the ring includes "handling repeated
	// node failures" cleanly; fail half the cluster sequentially.
	ns := nodes(8)
	r := NewRingRecache(ns, 64)
	ps := paths(500)
	for i := 0; i < 4; i++ {
		victim := r.Ring().Nodes()[0]
		prev := map[string]cluster.NodeID{}
		for _, p := range ps {
			prev[p] = r.Route(p).Node
		}
		r.NodeFailed(victim)
		for _, p := range ps {
			d := r.Route(p)
			if d.Kind != hvac.RouteNode || d.Node == victim {
				t.Fatalf("failure %d: bad route %+v", i, d)
			}
			if prev[p] != victim && d.Node != prev[p] {
				t.Fatalf("failure %d: collateral move of %q", i, p)
			}
		}
	}
}

// The paper's baseline job dies for good: NewRouter(KindNoFT) is not
// RecoveryAware, so reviving the failed node (a heartbeat with
// ReviveThreshold > 0 does this) leaves every read aborted. The
// adaptive noft member, by contrast, routes again once the whole fleet
// has recovered.
func TestNoFTAbortIsTerminal(t *testing.T) {
	ns := nodes(4)
	network := rpc.NewInprocNetwork()
	pfs := storage.NewPFS()
	endpoints := make(map[cluster.NodeID]string, len(ns))
	for _, n := range ns {
		srv := hvac.NewServer(hvac.ServerConfig{Node: n}, pfs)
		lis, err := network.Listen(string(n))
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lis)
		t.Cleanup(srv.Close)
		endpoints[n] = string(n)
	}
	for _, p := range paths(10) {
		pfs.Put(p, []byte(p))
	}
	newClient := func(r hvac.Router) *hvac.Client {
		cli, err := hvac.NewClient(hvac.ClientConfig{Endpoints: endpoints, Network: network, Router: r})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	ctx := context.Background()

	noft := NewRouter(KindNoFT, ns, 0)
	if _, ok := noft.(hvac.RecoveryAware); ok {
		t.Fatal("NoFT router is RecoveryAware; its abort would not be terminal")
	}
	cli := newClient(noft)
	for _, p := range paths(10) {
		if _, err := cli.Read(ctx, p); err != nil {
			t.Fatalf("healthy read %q: %v", p, err)
		}
	}
	cli.Tracker().MarkFailed(ns[1])
	if !cli.ReviveNode(ns[1]) {
		t.Fatal("ReviveNode did not revive the failed node")
	}
	for _, p := range paths(10) {
		if _, err := cli.Read(ctx, p); !errors.Is(err, hvac.ErrAborted) {
			t.Fatalf("read %q after revive: err = %v, want ErrAborted", p, err)
		}
	}

	sw := NewSwitchable(ns, 100, KindNVMe)
	cli = newClient(sw)
	path := paths(1)[0]
	healthy := sw.Route(path)
	cli.Tracker().MarkFailed(ns[1])
	if d := sw.Member(KindNoFT).Route(path); d.Kind != hvac.RouteAbort {
		t.Fatalf("noft member after failure: %+v, want RouteAbort", d)
	}
	cli.ReviveNode(ns[1])
	if _, ok := sw.SwitchTo(KindNoFT); !ok {
		t.Fatal("SwitchTo(noft) did not swap")
	}
	if d := sw.Route(path); d != healthy || sw.Kind() != KindNoFT {
		t.Fatalf("route after recovery = %+v on %s, want %+v on noft", d, sw.Kind(), healthy)
	}
}

// TestMovementComparison is paper §IV-B on the shipped placements: when
// a node fails the ring moves only the victim's keys, while modulo
// re-partitioned over the N-1 survivors relocates at least half of all
// keys between survivors.
func TestMovementComparison(t *testing.T) {
	const n = 32
	ns := nodes(n)
	victim := ns[n/2]
	survivors := append(append([]cluster.NodeID(nil), ns[:n/2]...), ns[n/2+1:]...)
	ps := paths(4000)
	// moved counts the victim's keys and the keys that changed owner
	// between two survivors (collateral) from before to after.
	moved := func(before, after Placement) (fromVictim, collateral int) {
		for _, p := range ps {
			was, _ := before.Owner(p)
			now, _ := after.Owner(p)
			switch {
			case now == victim:
				t.Fatalf("%q still owned by the failed node", p)
			case was == victim:
				fromVictim++
			case now != was:
				collateral++
			}
		}
		return fromVictim, collateral
	}

	ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: 100}, ns)
	shrunk := hashring.NewWithNodes(hashring.Config{VirtualNodes: 100}, ns)
	shrunk.Remove(victim)
	if v, c := moved(ring, shrunk); v == 0 || c != 0 {
		t.Errorf("ring: %d victim keys, %d collateral moves; want >0 and 0", v, c)
	}
	if v, c := moved(NewModulo(ns), NewModulo(survivors)); v == 0 || c < len(ps)/2 {
		t.Errorf("modulo: %d victim keys, %d/%d collateral moves; want >0 and at least half", v, c, len(ps))
	}
}

// TestRingMovementIsTheoreticalMinimum: the ring's total movement on a
// failure equals exactly the victim's key count — nothing more can be
// saved.
func TestRingMovementIsTheoreticalMinimum(t *testing.T) {
	ns := nodes(16)
	victim := ns[7]
	ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: 100}, ns)
	shrunk := hashring.NewWithNodes(hashring.Config{VirtualNodes: 100}, ns)
	shrunk.Remove(victim)
	ps := paths(2000)
	ownedByVictim, moved := 0, 0
	for _, p := range ps {
		was, _ := ring.Owner(p)
		now, _ := shrunk.Owner(p)
		if was == victim {
			ownedByVictim++
		}
		if now != was {
			moved++
		}
	}
	if ownedByVictim == 0 || moved != ownedByVictim {
		t.Errorf("ring moved %d keys, theoretical minimum is %d", moved, ownedByVictim)
	}
	if frac := float64(moved) / float64(len(ps)); frac > 2.0/16.0 {
		t.Errorf("ring moved fraction %.3f suspiciously high for 16 nodes", frac)
	}
}

// Run under -race: Static's failed set is published copy-on-write, so
// routes racing a flapping node see either the old or the new set —
// only the flapping node's paths ever go to the PFS.
func TestStaticConcurrentFailRecoverRoute(t *testing.T) {
	ns := nodes(8)
	r := newPFSRedirect(ns)
	place := NewModulo(ns)
	victim := ns[3]
	stop := make(chan struct{})
	flapped := make(chan struct{})
	go func() {
		defer close(flapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.NodeFailed(victim)
			r.NodeRecovered(victim)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range paths(5000) {
				owner, _ := place.Owner(p)
				d := r.Route(p)
				if d.Kind == hvac.RoutePFS && owner == victim {
					continue
				}
				if d.Kind != hvac.RouteNode || d.Node != owner {
					t.Errorf("route %q = %+v, owner %s", p, d, owner)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-flapped
}
