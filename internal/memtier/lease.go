package memtier

import (
	"sync"
	"sync/atomic"
)

// buffer is one pooled, refcounted backing array. refs starts at 1
// (the residency reference); each outstanding Lease adds one. The
// bytes return to the pool when the count reaches zero — so an entry
// evicted mid-read keeps its bytes alive until the reader's flush
// completes, without copying.
type buffer struct {
	b    []byte
	refs atomic.Int32
}

// maxPooledBuffer caps what the pool retains, mirroring the wire
// package's bound: one giant object must not pin a slab for the
// process lifetime.
const maxPooledBuffer = 1 << 20

var bufferPool = sync.Pool{New: func() any { return new(buffer) }}

func acquireBuffer(n int) *buffer {
	buf := bufferPool.Get().(*buffer)
	if cap(buf.b) < n {
		buf.b = make([]byte, n)
	} else {
		buf.b = buf.b[:n]
	}
	buf.refs.Store(1)
	return buf
}

// pin adds a lease reference.
func (buf *buffer) pin() { buf.refs.Add(1) }

func (buf *buffer) decRef() {
	if buf.refs.Add(-1) != 0 {
		return
	}
	if cap(buf.b) > maxPooledBuffer {
		buf.b = nil // let the GC take the oversized backing array
	}
	bufferPool.Put(buf)
}

// Lease is a zero-copy reference into the tier's pooled buffers,
// returned by Get. Exactly one Release per lease: after Release the
// bytes (and anything aliasing them) must no longer be touched — the
// backing array may be reused for a different object immediately. The
// poollease analyzer enforces the exactly-one-Release discipline at
// lint time, the same way it does for wire.ReadFramePooled.
type Lease struct {
	tier     *Tier
	buf      *buffer
	released atomic.Bool
}

// Bytes returns the leased object bytes. Read-only.
func (l *Lease) Bytes() []byte { return l.buf.b }

// Size returns the object's byte length.
func (l *Lease) Size() int64 { return int64(len(l.buf.b)) }

// Release drops the lease. Double-release is a no-op (defensive, like
// wire.Buf), but callers must not rely on it — the analyzer flags
// paths that release twice as readily as paths that never release.
func (l *Lease) Release() {
	if l == nil || l.released.Swap(true) {
		return
	}
	l.tier.leases.Add(-1)
	l.buf.decRef()
}
