// Package ftcache implements the fault-tolerance policies the paper
// evaluates (§IV, §V-A). A policy is a placement crossed with a failure
// reaction. Placement is HVAC's static modulo or the consistent-hash
// ring; the reaction to a declared failure is abort, redirect to the
// PFS, or re-own on the ring:
//
//   - NoFT — the original HVAC baseline: modulo placement, abort. The
//     first declared node failure aborts the job ("the baseline HVAC
//     lacks fault-tolerant aspects, resulting in immediate job
//     termination upon failure").
//   - FT w/ PFS (§IV-A) — modulo placement, PFS redirect: once a node is
//     declared failed, every read that hashes to it goes to the PFS
//     directly, for the remainder of the job.
//   - FT w/ NVMe (§IV-B) — ring placement, re-own: a failure removes the
//     node from the ring, so its files re-map to clockwise successors.
//     The new owner misses once, fetches from PFS, recaches on its NVMe —
//     one extra PFS access per lost file, total.
//
// Static serves every pairing whose placement never changes (abort or
// PFS redirect); RingRecache is the re-own reaction. Switchable
// (switchable.go) runs the ring-placed family under live policy
// control. All implement hvac.Router and are driven by the client's
// timeout-based failure detector.
package ftcache

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/telemetry"
	"repro/internal/xhash"
)

// Placement maps a path to its owning node; ok is false when there are
// no members. *hashring.Ring and Modulo implement it.
type Placement interface {
	Owner(path string) (cluster.NodeID, bool)
}

// Modulo is HVAC's original static placement: FNV-1a of the path modulo
// N, indexed into the sorted membership. It never changes once built,
// so Owner takes no lock.
type Modulo []cluster.NodeID

// NewModulo builds the modulo placement over a sorted copy of nodes.
func NewModulo(nodes []cluster.NodeID) Modulo {
	m := slices.Clone(Modulo(nodes))
	slices.Sort(m)
	return m
}

// Owner implements Placement.
//
//ftc:hotpath
func (m Modulo) Owner(path string) (cluster.NodeID, bool) {
	if len(m) == 0 {
		return "", false
	}
	return m[xhash.FNV1aString(path)%uint64(len(m))], true
}

// Static routes on a placement that never changes, so a failure moves
// no key: it only decides what reads get once a node is declared
// failed. With the RoutePFS reaction a failed owner's reads go to the
// PFS, which is why every post-failure access to a lost file pays the
// PFS price again; with RouteAbort any failure anywhere ends the job.
// Recovery lifts a node's redirect, and an abort once no node is
// failed.
type Static struct {
	name  string
	place Placement
	react hvac.DecisionKind

	mu     sync.Mutex                              // serialises failed-set writers
	failed atomic.Pointer[map[cluster.NodeID]bool] // copy-on-write; Route never locks
}

// NewStatic creates a router over place that answers react — RouteAbort
// or RoutePFS — for the reads a failure takes away, and for every read
// when place has no members.
func NewStatic(name string, place Placement, react hvac.DecisionKind) *Static {
	s := &Static{name: name, place: place, react: react}
	s.failed.Store(&map[cluster.NodeID]bool{})
	return s
}

// Name implements hvac.Router.
func (s *Static) Name() string { return s.name }

// Route implements hvac.Router.
//
//ftc:hotpath
func (s *Static) Route(path string) hvac.Decision {
	owner, ok := s.place.Owner(path)
	failed := *s.failed.Load()
	if !ok || len(failed) > 0 && (s.react == hvac.RouteAbort || failed[owner]) {
		return hvac.Decision{Kind: s.react}
	}
	return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
}

// NodeFailed implements hvac.Router.
func (s *Static) NodeFailed(node cluster.NodeID) { s.mark(node, true) }

// NodeRecovered implements hvac.RecoveryAware: stop bypassing the node.
// Its cache may be stale-empty, but the server's miss path repopulates
// it transparently.
func (s *Static) NodeRecovered(node cluster.NodeID) { s.mark(node, false) }

// mark publishes a copy of the failed set with node added or removed.
func (s *Static) mark(node cluster.NodeID, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := maps.Clone(*s.failed.Load())
	if failed {
		next[node] = true
	} else {
		delete(next, node)
	}
	s.failed.Store(&next)
}

// FailedCount returns the number of members currently marked failed.
func (s *Static) FailedCount() int { return len(*s.failed.Load()) }

// Aborted reports whether an abort-reaction router has a failure in
// force.
func (s *Static) Aborted() bool { return s.react == hvac.RouteAbort && s.FailedCount() > 0 }

// terminal shows only hvac.Router's methods of the router it wraps, so
// the client never reports a recovery to it: the paper's NoFT job stays
// dead even when a revived node comes back.
type terminal struct{ hvac.Router }

// RingRecache is the FT w/ NVMe router: consistent-hash-ring placement
// with elastic recaching on failure.
type RingRecache struct {
	ring *hashring.Ring
}

// NewRingRecache creates the FT w/ NVMe router. virtualNodes <= 0 selects
// the paper's production value of 100 per physical node.
func NewRingRecache(nodes []cluster.NodeID, virtualNodes int) *RingRecache {
	r := &RingRecache{
		ring: hashring.NewWithNodes(hashring.Config{VirtualNodes: virtualNodes}, nodes),
	}
	// Latest-wins: a process normally runs one routing policy, and the
	// debug endpoint wants the live ring.
	telemetry.Default().RegisterDebug("ring", func() any {
		nodes := r.ring.Nodes()
		members := make([]string, len(nodes))
		for i, n := range nodes {
			members[i] = string(n)
		}
		return map[string]any{
			"strategy": r.Name(),
			"members":  members,
			"points":   r.ring.PointCount(),
		}
	})
	return r
}

// Name implements hvac.Router.
func (r *RingRecache) Name() string { return "FT w/ NVMe" }

// Route implements hvac.Router: the current ring owner. Only when every
// server is gone does the client fall back to the PFS.
func (r *RingRecache) Route(path string) hvac.Decision {
	owner, ok := r.ring.Owner(path)
	if !ok {
		return hvac.Decision{Kind: hvac.RoutePFS}
	}
	return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
}

// NodeFailed implements hvac.Router: drop the node from the ring; its
// arcs flow to the clockwise successors. The recache itself is elastic —
// the new owners fill on miss — so the "plan" here is implicit; the
// event marks the moment recaching became the routing policy's answer
// for the lost arcs.
func (r *RingRecache) NodeFailed(node cluster.NodeID) {
	r.ring.Remove(node)
	telemetry.TraceEvent(telemetry.EventRecachePlanned, string(node), "elastic", int64(r.ring.Len()))
}

// NodeRecovered implements hvac.RecoveryAware: re-adding the node
// restores its original virtual points, so it reclaims exactly the arcs
// it owned before failing — by the minimal-movement property only those
// keys move back, and the node re-warms via its server's miss path.
func (r *RingRecache) NodeRecovered(node cluster.NodeID) { r.ring.Add(node) }

// PlanRejoin implements hvac.RejoinPlanner: the keys node will own once
// re-added — the warm set the client fills onto the node's NVMe before
// NodeRecovered commits the ring swap, so a rejoining node starts hot.
func (r *RingRecache) PlanRejoin(node cluster.NodeID, keys []string) []string {
	return r.ring.PlanRejoin(node, keys).Keys
}

// Ring exposes the underlying hash ring for analysis and tests.
func (r *RingRecache) Ring() *hashring.Ring { return r.ring }

// Replicas implements hvac.Replicator: up to n distinct live owners in
// ring order, the first being the primary. This enables the replication
// extension: with the copy already on the clockwise successor, a primary
// failure re-routes to a node that *has the data* — zero PFS reads.
func (r *RingRecache) Replicas(path string, n int) []cluster.NodeID {
	owners, ok := r.ring.Owners(path, n)
	if !ok {
		return nil
	}
	return owners
}

var (
	_ Placement          = Modulo(nil)
	_ Placement          = (*hashring.Ring)(nil)
	_ hvac.Router        = (*Static)(nil)
	_ hvac.RecoveryAware = (*Static)(nil)
	_ hvac.Router        = (*RingRecache)(nil)
	_ hvac.Replicator    = (*RingRecache)(nil)
	_ hvac.RecoveryAware = (*RingRecache)(nil)
	_ hvac.RejoinPlanner = (*RingRecache)(nil)
)

// StrategyKind enumerates the three policies for config surfaces.
type StrategyKind string

// The three evaluated strategies.
const (
	KindNoFT StrategyKind = "noft"
	KindPFS  StrategyKind = "ftpfs"
	KindNVMe StrategyKind = "ftnvme"
)

// Known reports whether k names a strategy NewRouter builds. Config
// surfaces check it where a kind enters, since NewRouter itself falls
// back to the baseline.
func (k StrategyKind) Known() bool {
	switch k {
	case KindNoFT, KindPFS, KindNVMe, KindAdaptive:
		return true
	}
	return false
}

// NewRouter constructs the named strategy. virtualNodes applies to
// KindNVMe and KindAdaptive (the ring-placement strategies). An unknown
// kind builds the NoFT baseline.
func NewRouter(kind StrategyKind, nodes []cluster.NodeID, virtualNodes int) hvac.Router {
	switch kind {
	case KindPFS:
		return NewStatic("FT w/ PFS", NewModulo(nodes), hvac.RoutePFS)
	case KindNVMe:
		return NewRingRecache(nodes, virtualNodes)
	case KindAdaptive:
		return NewSwitchable(nodes, virtualNodes, KindNVMe)
	default:
		return terminal{NewStatic("NoFT", NewModulo(nodes), hvac.RouteAbort)}
	}
}
