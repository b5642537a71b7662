package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// loopback is an rpc.Network over real TCP on 127.0.0.1. core names its
// nodes "node-NNNN", which rpc.TCPNetwork cannot listen on, so every
// logical name binds an ephemeral loopback port at Listen time and
// dials resolve through this registry. It also remembers when each
// node's listener first closed — the moment a FailKill took it down.
type loopback struct {
	mu       sync.Mutex
	addrs    map[string]string
	closedAt map[string]time.Time
}

func newLoopback() *loopback {
	return &loopback{addrs: make(map[string]string), closedAt: make(map[string]time.Time)}
}

// Listen implements rpc.Network.
func (l *loopback) Listen(name string) (net.Listener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.addrs[name] = lis.Addr().String()
	l.mu.Unlock()
	return &closeNotifier{Listener: lis, onClose: func() { l.noteClose(name) }}, nil
}

// Dial implements rpc.Network.
func (l *loopback) Dial(name string) (net.Conn, error) {
	l.mu.Lock()
	addr, ok := l.addrs[name]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("loopback: unknown node %q", name)
	}
	return net.DialTimeout("tcp", addr, rpc.DefaultDialTimeout)
}

func (l *loopback) noteClose(name string) {
	l.mu.Lock()
	if _, ok := l.closedAt[name]; !ok {
		l.closedAt[name] = time.Now()
	}
	l.mu.Unlock()
}

// ClosedAt reports when name's listener first closed.
func (l *loopback) ClosedAt(name string) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.closedAt[name]
	return t, ok
}

type closeNotifier struct {
	net.Listener
	once    sync.Once
	onClose func()
}

func (c *closeNotifier) Close() error {
	c.once.Do(c.onClose)
	return c.Listener.Close()
}

// probeNet wraps the rpc.Network the stack dials through. Every client
// connection it hands out counts its writes and bytes; with timed set it
// also times each Write and records a span; with check set it parses
// both directions of the stream and verifies every read response
// against the expected file content.
type probeNet struct {
	rpc.Network
	timed bool
	check *readCheck
	spans *spanLog

	writes  atomic.Int64
	bytes   atomic.Int64
	writeNs atomic.Int64
}

// reset zeroes the write counters (at the start of a measurement).
func (p *probeNet) reset() {
	p.writes.Store(0)
	p.bytes.Store(0)
	p.writeNs.Store(0)
}

// Dial implements rpc.Network.
func (p *probeNet) Dial(name string) (net.Conn, error) {
	c, err := p.Network.Dial(name)
	if err != nil {
		return nil, err
	}
	pc := &probeConn{Conn: c, net: p, node: name}
	if p.check != nil {
		pc.pending = make(map[uint64]pendingRead)
		pc.out.onFrame = pc.onRequest
		pc.in.onFrame = pc.onResponse
	}
	return pc, nil
}

type pendingRead struct {
	path string
	sent time.Time
}

type probeConn struct {
	net.Conn
	net  *probeNet
	node string

	out, in frameStream // request and response streams (check only)
	mu      sync.Mutex
	pending map[uint64]pendingRead
}

func (c *probeConn) Write(b []byte) (int, error) {
	if c.net.check != nil {
		c.out.feed(b)
	}
	var t0 time.Time
	if c.net.timed {
		t0 = time.Now()
	}
	n, err := c.Conn.Write(b)
	if c.net.timed {
		d := time.Since(t0)
		c.net.writeNs.Add(int64(d))
		c.net.spans.add("rpc.conn_write", t0, d, c.node)
	}
	c.net.writes.Add(1)
	c.net.bytes.Add(int64(n))
	return n, err
}

func (c *probeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.net.check != nil {
		c.in.feed(b[:n])
	}
	return n, err
}

func (c *probeConn) onRequest(f frame) {
	if f.typ != wire.TypeRequest || f.op != hvac.OpRead || len(f.payload) < 4 {
		return
	}
	n := int(binary.LittleEndian.Uint32(f.payload))
	if len(f.payload) < 4+n {
		return
	}
	c.mu.Lock()
	c.pending[f.id] = pendingRead{path: string(f.payload[4 : 4+n]), sent: time.Now()}
	c.mu.Unlock()
}

func (c *probeConn) onResponse(f frame) {
	if f.typ != wire.TypeResponse || f.op != hvac.OpRead {
		return
	}
	c.mu.Lock()
	req, ok := c.pending[f.id]
	delete(c.pending, f.id)
	c.mu.Unlock()
	if ok && f.status == rpc.StatusOK {
		c.net.check.verify(req, f.payload)
	}
}

// frame is one decoded wire frame; payload aliases the stream buffer
// and is only valid during the callback.
type frame struct {
	typ     uint8
	id      uint64
	op      uint16
	status  uint16
	payload []byte
}

// frameStream reassembles frames from arbitrary byte chunks. It decodes
// the frame layout itself rather than calling package wire, so a wire
// bug cannot hide from the check.
type frameStream struct {
	buf     []byte
	onFrame func(frame)
	bad     bool
}

const frameHeader = 4 + 16 // length prefix + fixed header

func (s *frameStream) feed(p []byte) {
	if s.bad {
		return
	}
	s.buf = append(s.buf, p...)
	off := 0
	for len(s.buf)-off >= frameHeader {
		b := s.buf[off:]
		total := 4 + int(binary.LittleEndian.Uint32(b))
		if total < frameHeader || binary.LittleEndian.Uint16(b[4:]) != wire.Magic {
			s.bad = true // a corrupt stream: the rpc layer drops the conn too
			return
		}
		if len(b) < total {
			break
		}
		s.onFrame(frame{
			typ:     b[7],
			id:      binary.LittleEndian.Uint64(b[8:]),
			op:      binary.LittleEndian.Uint16(b[16:]),
			status:  binary.LittleEndian.Uint16(b[18:]),
			payload: b[frameHeader:total],
		})
		off += total
	}
	s.buf = s.buf[:copy(s.buf, s.buf[off:])]
}

// readCheck verifies read responses seen on the wire against the
// expected content of each path, and records each verified read's wire
// round-trip time (request written → response read).
type readCheck struct {
	expected map[string][]byte
	base     time.Time

	ok, wrong, stray atomic.Int64

	mu      sync.Mutex
	samples []wireSample
}

type wireSample struct {
	at, lat time.Duration // response time since base, and round trip
}

func newReadCheck(expected map[string][]byte) *readCheck {
	return &readCheck{expected: expected, base: time.Now()}
}

// verify checks one OpRead response payload: u8 source, i64 file size,
// u32 length, data.
func (rc *readCheck) verify(req pendingRead, payload []byte) {
	now := time.Now()
	want, known := rc.expected[req.path]
	if !known {
		rc.stray.Add(1)
		return
	}
	if len(payload) < 13 || int(binary.LittleEndian.Uint32(payload[9:])) != len(payload)-13 ||
		!bytes.Equal(payload[13:], want) {
		rc.wrong.Add(1)
		return
	}
	rc.ok.Add(1)
	rc.mu.Lock()
	rc.samples = append(rc.samples, wireSample{at: now.Sub(rc.base), lat: now.Sub(req.sent)})
	rc.mu.Unlock()
}
