// Package chaosnet is a byte-level TCP chaos proxy: it sits between the
// router and a serving backend and damages the stream the way real
// networks do — connection resets mid-response, half-open stalls where
// bytes stop flowing but the connection stays up, truncated bodies under
// a longer Content-Length, flipped bytes, injected latency.
//
// Fault decisions come from a seeded internal/faults Injector consulted
// once per forwarded chunk per kind, so a soak run is replayable from
// its seed. The injector itself is not concurrency-safe; the proxy
// serializes all consults behind one mutex, which also lets several
// proxies (one per backend) share a single injector and a single seed.
//
// chaosnet exists to prove a negative: that no byte-level damage can
// surface as a wrong answer or a duplicate execution. The serving tiers'
// end-to-end digests and the dedup layer are the mechanisms; the route
// stack soak with bytes chaos (internal/harness) is the proof.
package chaosnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// Config parameterizes a Proxy.
type Config struct {
	// Target is the backend address (host:port) to proxy to. Required.
	Target string
	// Listen is the address to listen on (default 127.0.0.1:0).
	Listen string
	// Faults decides which chunks get damaged; consults are serialized by
	// the proxy, so one injector may be shared across proxies. A nil
	// injector makes the proxy transparent.
	Faults *faults.Injector
	// StallFor bounds a NetStall freeze (default 2s). Set it above the
	// caller's request timeout: the point of a stall is that only a
	// deadline, never an error, unsticks the victim.
	StallFor time.Duration
	// Delay is the latency a NetDelay fault injects (default 20ms).
	Delay time.Duration
	// MaxCorrupt bounds bytes flipped per NetCorrupt fault (default 4).
	MaxCorrupt int
}

// Proxy is one listening chaos proxy in front of one backend.
type Proxy struct {
	cfg Config

	ln net.Listener
	// injMu serializes injector consults (the Injector is single-threaded
	// by contract) across this proxy's connection goroutines and any
	// sibling proxies sharing the injector via the same mutex-owning
	// group; see Group.
	injMu *sync.Mutex

	// done closes on Close, unsticking stalled connections.
	done chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed atomic.Bool

	accepted atomic.Uint64
	wg       sync.WaitGroup
}

// New starts a proxy for cfg. The listener is live when New returns;
// Addr reports where.
func New(cfg Config) (*Proxy, error) {
	return newProxy(cfg, &sync.Mutex{})
}

// Group builds one proxy per target, all sharing one injector and one
// consult mutex — the fleet-facing configuration: a single seed drives
// byte chaos across every backend.
func Group(targets []string, cfg Config) ([]*Proxy, error) {
	mu := &sync.Mutex{}
	proxies := make([]*Proxy, 0, len(targets))
	for _, tgt := range targets {
		c := cfg
		c.Target = tgt
		p, err := newProxy(c, mu)
		if err != nil {
			for _, q := range proxies {
				_ = q.Close()
			}
			return nil, err
		}
		proxies = append(proxies, p)
	}
	return proxies, nil
}

func newProxy(cfg Config, injMu *sync.Mutex) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, errors.New("chaosnet: Config.Target required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.StallFor <= 0 {
		cfg.StallFor = 2 * time.Second
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 20 * time.Millisecond
	}
	if cfg.MaxCorrupt <= 0 {
		cfg.MaxCorrupt = 4
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("chaosnet: listen: %w", err)
	}
	p := &Proxy{
		cfg:   cfg,
		ln:    ln,
		injMu: injMu,
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Accepted returns how many client connections the proxy has taken.
func (p *Proxy) Accepted() uint64 { return p.accepted.Load() }

// Close stops the listener, force-closes every live connection
// (including stalled ones), and waits for the pumps to drain.
func (p *Proxy) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(p.done)
	err := p.ln.Close()
	p.connMu.Lock()
	for c := range p.conns {
		_ = c.Close()
	}
	p.connMu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(c net.Conn) {
	p.connMu.Lock()
	p.conns[c] = struct{}{}
	p.connMu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.connMu.Lock()
	delete(p.conns, c)
	p.connMu.Unlock()
	_ = c.Close()
}

// fire consults the shared injector for kind k, serialized.
func (p *Proxy) fire(k faults.Kind) bool {
	p.injMu.Lock()
	defer p.injMu.Unlock()
	return p.cfg.Faults.Should(k)
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		p.wg.Add(1)
		go p.handleConn(client)
	}
}

func (p *Proxy) handleConn(client net.Conn) {
	defer p.wg.Done()
	p.track(client)
	defer p.untrack(client)

	// A dead backend refuses the dial: the client's connection to the
	// proxy succeeded, so from the router's view the failure is
	// mid-flight (connection closed before any response byte) — exactly
	// what a crashed replica behind a still-up load-balancer port looks
	// like.
	server, err := net.DialTimeout("tcp", p.cfg.Target, 2*time.Second)
	if err != nil {
		return
	}
	p.track(server)
	defer p.untrack(server)

	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() {
		defer pumps.Done()
		p.pump(server, client, false) // request direction
	}()
	go func() {
		defer pumps.Done()
		p.pump(client, server, true) // response direction
	}()
	pumps.Wait()
}

// pump copies src to dst chunk by chunk, consulting the injector per
// chunk. The response direction carries the full fault menu; the request
// direction only corrupts (a damaged request must bounce off the
// backend's X-Content-Digest check as a 422, which the router retries).
func (p *Proxy) pump(dst, src net.Conn, response bool) {
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if response {
				if p.fire(faults.NetReset) {
					// RST, not FIN: linger 0 discards the send queue so
					// the peer sees "connection reset" mid-exchange.
					if tc, ok := dst.(*net.TCPConn); ok {
						_ = tc.SetLinger(0)
					}
					_ = dst.Close()
					_ = src.Close()
					return
				}
				if p.fire(faults.NetStall) {
					// Half-open freeze: stop forwarding but keep both
					// connections up. Only the victim's own deadline (or
					// proxy shutdown) ends the wait.
					select {
					case <-time.After(p.cfg.StallFor):
					case <-p.done:
					}
					_ = dst.Close()
					_ = src.Close()
					return
				}
				if p.fire(faults.NetDelay) {
					select {
					case <-time.After(p.cfg.Delay):
					case <-p.done:
					}
				}
				if n > 1 && p.fire(faults.NetTruncate) {
					// Forward a prefix, then slam the connection: a short
					// body under the declared Content-Length.
					_, _ = dst.Write(chunk[:n/2])
					_ = dst.Close()
					_ = src.Close()
					return
				}
			}
			if p.fire(faults.NetCorrupt) {
				p.corrupt(chunk)
			}
			if _, werr := dst.Write(chunk); werr != nil {
				_ = src.Close()
				return
			}
		}
		if err != nil {
			// Propagate half-close so keep-alive exchanges finish
			// cleanly: the peer's read side learns this direction is
			// done without killing the other direction.
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			} else {
				_ = dst.Close()
			}
			return
		}
	}
}

// corrupt flips up to MaxCorrupt bytes at deterministic, spread-out
// positions in chunk.
func (p *Proxy) corrupt(chunk []byte) {
	k := p.cfg.MaxCorrupt
	if k > len(chunk) {
		k = len(chunk)
	}
	step := len(chunk) / (k + 1)
	for i := 1; i <= k; i++ {
		chunk[step*i] ^= 0xFF
	}
}
