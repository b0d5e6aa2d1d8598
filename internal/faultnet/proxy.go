// Package faultnet is a fault-injecting TCP proxy for chaos tests: it
// forwards byte streams to a real backend while letting the test add
// latency, drop live connections, partition the link entirely, or
// corrupt bytes in flight. Pointing a client (or a replication
// follower) at the proxy instead of the backend turns "what if the
// network misbehaves here?" into a deterministic test step.
//
//	p, _ := faultnet.Listen("127.0.0.1:0", backendAddr)
//	defer p.Close()
//	client := provclient.New("http://" + p.Addr())
//	p.SetLatency(50 * time.Millisecond) // every byte delayed
//	p.Partition()                       // new conns refused, old ones cut
//	p.Heal()                            // traffic flows again
//
// The proxy is transport-level only: it never parses HTTP, so it
// exercises exactly the failure modes real networks produce — stalled
// reads, mid-body resets, half-transferred frames.
package faultnet

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is one listening socket forwarding to one backend address.
type Proxy struct {
	backend string
	ln      net.Listener

	mu          sync.Mutex
	conns       map[net.Conn]struct{} // live accepted conns (client side)
	partitioned bool
	closed      bool

	latency   atomic.Int64 // per-read injected delay, nanoseconds
	mangle    atomic.Bool  // corrupt one byte per forwarded read chunk
	mangleN   atomic.Int64 // chunks mangled; varies the corrupted offset
	accepted  atomic.Int64
	bytesUp   atomic.Int64 // client -> backend
	bytesDown atomic.Int64 // backend -> client
}

// Listen starts a proxy on addr (use "127.0.0.1:0" for an ephemeral
// port) forwarding to backend.
func Listen(addr, backend string) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{backend: backend, ln: ln, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listening address ("host:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetLatency delays every forwarded read by d (both directions). Zero
// removes the delay.
func (p *Proxy) SetLatency(d time.Duration) { p.latency.Store(int64(d)) }

// SetMangle corrupts one byte of every forwarded chunk while enabled —
// the torn-frame generator for CRC/checksum paths.
func (p *Proxy) SetMangle(on bool) { p.mangle.Store(on) }

// Partition cuts the link: every live connection is closed and new
// connections are accepted then immediately closed (connection refused
// semantics without releasing the port). Heal restores service.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	p.dropLocked()
	p.mu.Unlock()
}

// Heal ends a partition; subsequent connections flow normally.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// DropConnections closes every live connection once (clients see a
// reset) without partitioning: the next dial succeeds.
func (p *Proxy) DropConnections() {
	p.mu.Lock()
	p.dropLocked()
	p.mu.Unlock()
}

func (p *Proxy) dropLocked() {
	for c := range p.conns {
		_ = c.Close()
	}
}

// Stats reports accepted connection and forwarded byte counts; a chunk
// counts from just before it is written to the far side.
func (p *Proxy) Stats() (accepted, bytesUp, bytesDown int64) {
	return p.accepted.Load(), p.bytesUp.Load(), p.bytesDown.Load()
}

// Close shuts the listener and every live connection down.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	p.dropLocked()
	p.mu.Unlock()
	return p.ln.Close()
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed || p.partitioned {
			p.mu.Unlock()
			_ = client.Close()
			continue
		}
		p.conns[client] = struct{}{}
		p.mu.Unlock()
		p.accepted.Add(1)
		go p.serve(client)
	}
}

// serve bridges one client connection to a fresh backend connection,
// pumping both directions until either side (or a fault) closes.
func (p *Proxy) serve(client net.Conn) {
	defer p.forget(client)
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		_ = client.Close()
		return
	}
	// Track the backend side too, so Partition cuts streams that are
	// mid-transfer from the backend.
	p.mu.Lock()
	if p.closed || p.partitioned {
		p.mu.Unlock()
		_ = client.Close()
		_ = backend.Close()
		return
	}
	p.conns[backend] = struct{}{}
	p.mu.Unlock()
	defer p.forget(backend)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(backend, client, &p.bytesUp)
		// Half-close toward the backend so it sees EOF and can finish
		// its response; full close happens after both pumps end.
		if tc, ok := backend.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()
	go func() {
		defer wg.Done()
		p.pump(client, backend, &p.bytesDown)
		if tc, ok := client.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()
	wg.Wait()
	_ = client.Close()
	_ = backend.Close()
}

func (p *Proxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	_ = c.Close()
}

// pump copies src to dst one chunk at a time, applying the configured
// faults to each chunk.
func (p *Proxy) pump(dst io.Writer, src io.Reader, counter *atomic.Int64) {
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if d := time.Duration(p.latency.Load()); d > 0 {
				time.Sleep(d)
			}
			chunk := buf[:n]
			if p.mangle.Load() {
				// Flip one bit at a rotating offset: enough to break any
				// checksum without desynchronizing chunk sizes, and two
				// passes through the proxy (e.g. an echo round trip)
				// corrupt different bytes instead of cancelling out.
				i := int(p.mangleN.Add(1))
				chunk[i%n] ^= byte(1) << (i % 8)
			}
			// Counted before it is forwarded: the peer can act on the
			// chunk, and a caller read Stats, the moment Write returns.
			counter.Add(int64(n))
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}
