package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"embera/internal/monitor"
)

// Conn frames an underlying byte stream (TCP or unix socket). Writes are
// serialized under a mutex into a reusable buffer, so concurrent flows can
// share one conn; reads are single-reader (each peer runs one reader
// goroutine). The frame counters make the wire itself observable: the
// conformance flow invariant counts frames alongside message operations,
// and the cluster machine reports them as in-flight losses when a worker
// dies.
type Conn struct {
	rw io.ReadWriteCloser

	wmu  sync.Mutex
	wbuf []byte

	rbuf []byte
	rhdr [4]byte

	framesOut atomic.Uint64
	framesIn  atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps rw in frame framing.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{rw: rw}
}

// WriteFrame encodes and writes one frame. Safe for concurrent use.
func (c *Conn) WriteFrame(f *Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := AppendFrame(c.wbuf[:0], f)
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	if _, err := c.rw.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame type %d: %w", f.Type, err)
	}
	c.framesOut.Add(1)
	return nil
}

// ReadFrame reads and decodes the next frame into f. Only one goroutine may
// read. io.EOF is returned unwrapped on a clean end of stream.
func (c *Conn) ReadFrame(f *Frame) error { return c.read(f, DecodeFrame) }

// ReadRelay is ReadFrame for a relay: a data frame decodes only its type
// and edge and keeps its body in f.Raw, which WriteFrame forwards
// unchanged; every other frame type decodes in full.
func (c *Conn) ReadRelay(f *Frame) error { return c.read(f, decodeRelay) }

func (c *Conn) read(f *Frame, decode func([]byte, *Frame) error) error {
	if _, err := io.ReadFull(c.rw, c.rhdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("wire: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(c.rhdr[:])
	if n == 0 || n > MaxFrameBytes {
		return fmt.Errorf("wire: frame body of %d bytes out of range (max %d)", n, MaxFrameBytes)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	body := c.rbuf[:n]
	if _, err := io.ReadFull(c.rw, body); err != nil {
		return fmt.Errorf("wire: read frame body: %w", err)
	}
	if err := decode(body, f); err != nil {
		return err
	}
	c.framesIn.Add(1)
	return nil
}

// Close tears the underlying stream down. Idempotent: concurrent teardown
// paths (orchestrator shutdown racing a reader error) share one close.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.rw.Close() })
	return c.closeErr
}

// FramesOut reports frames successfully written.
func (c *Conn) FramesOut() uint64 { return c.framesOut.Load() }

// FramesIn reports frames successfully read and decoded.
func (c *Conn) FramesIn() uint64 { return c.framesIn.Load() }

// WindowSink is the remote monitor sink flavor: each window the worker's
// pump flushes is framed and written to the coordinator, which ingests it
// into its own monitor so sharded windows join the same WindowRecord stream
// embera-serve already brokers. It satisfies monitor.Sink.
type WindowSink struct {
	conn  *Conn
	shard uint32
}

// NewWindowSink builds the remote sink for one worker's monitor.
func NewWindowSink(conn *Conn, shard int) *WindowSink {
	return &WindowSink{conn: conn, shard: uint32(shard)}
}

// WriteWindow implements monitor.Sink.
func (s *WindowSink) WriteWindow(w monitor.WindowStats) error {
	f := Frame{Type: TypeWindows, Shard: s.shard, Windows: []monitor.WindowStats{w}}
	return s.conn.WriteFrame(&f)
}
