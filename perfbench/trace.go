package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hvac"
	"repro/internal/storage"
)

// maxSpans bounds the in-memory span log of a traced run; later spans
// are counted as dropped.
const maxSpans = 200_000

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one benchmark operation share
// its id: Parent names the operation span that caused the call (0 when
// the caller is not known, as for a connection write that carries
// frames of several operations).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	Dur    int64  `json:"dur_ns"`
	Attr   string `json:"attr,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A disabled log
// records nothing and costs one branch per call.
type spanLog struct {
	on      bool
	base    time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, base: time.Now()} }

// newID reserves a span id, so an operation can name itself as the
// parent of the layer calls it makes before its own span ends.
func (l *spanLog) newID() uint64 {
	if l == nil || !l.on {
		return 0
	}
	return l.nextID.Add(1)
}

// addID records a finished span under id (0 allocates one).
func (l *spanLog) addID(id, parent uint64, name string, start time.Time, d time.Duration, attr string) {
	if l == nil || !l.on {
		return
	}
	if id == 0 {
		id = l.nextID.Add(1)
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
			Start: int64(start.Sub(l.base)), Dur: int64(d), Attr: attr})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// add records a finished span with no known parent.
func (l *spanLog) add(name string, start time.Time, d time.Duration, attr string) {
	l.addID(0, 0, name, start, d, attr)
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// merge appends other's spans (a traced phase's log) to l.
func (l *spanLog) merge(other *spanLog) {
	other.mu.Lock()
	spans, dropped := other.spans, other.dropped
	other.mu.Unlock()
	l.mu.Lock()
	l.spans = append(l.spans, spans...)
	l.dropped += dropped
	l.mu.Unlock()
}

// write stores the log as one JSON document.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	b, err := json.Marshal(map[string]any{"spans": l.spans, "dropped": l.dropped})
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedRouter wraps the hvac.Router of a client the benchmark builds,
// timing every Route. cur holds the id of the operation in flight on the
// client's single caller loop, so route spans link to it.
type tracedRouter struct {
	hvac.Router
	spans *spanLog
	cur   atomic.Uint64
}

func (r *tracedRouter) Route(path string) hvac.Decision {
	t0 := time.Now()
	d := r.Router.Route(path)
	r.spans.addID(0, r.cur.Load(), "hvac.route", t0, time.Since(t0), string(d.Node))
	return d
}

// tracedStore wraps the storage.Store a client reads the PFS through
// directly (the redirect path), timing every Get.
type tracedStore struct {
	storage.Store
	spans *spanLog
}

func (s *tracedStore) Get(path string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.Store.Get(path)
	s.spans.add("storage.pfs_get", t0, time.Since(t0), path)
	return b, err
}
