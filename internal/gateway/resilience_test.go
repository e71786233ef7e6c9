package gateway

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"choir/internal/obs"
)

// waitNoLeaks waits for the goroutine count to fall back to baseline.
func waitNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestServeTCPConnFloodSheds pins the MaxConns satellite: with both handler
// slots pinned by slow peers, a flood of further connections is shed with
// an immediate error reply and a gateway.conn.shed count — no goroutine per
// flooding peer — and everything unwinds leak-free on shutdown.
func TestServeTCPConnFloodSheds(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	baseline := runtime.NumGoroutine()
	shedBefore := mConnShed.Value()

	g, err := build(Config{Queue: 8, MaxConns: 2, ConnTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ServeTCP(ctx, g, ln) }()

	// Pin both slots: peers that connect, send one byte, and stall.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("{")); err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
	}
	time.Sleep(50 * time.Millisecond) // let both handlers start reading

	// The flood: every additional connection must get a reply line and be
	// closed promptly, whether shed at the cap or (if a race briefly freed
	// a slot) rejected for its garbage payload.
	shedReplies := 0
	for i := 0; i < 6; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		reply, err := bufio.NewReader(c).ReadString('\n')
		c.Close()
		if err != nil {
			t.Fatalf("flood conn %d: no reply: %v", i, err)
		}
		if strings.Contains(reply, "too many connections") {
			shedReplies++
		}
	}
	if shedReplies == 0 {
		t.Error("no flood connection was shed at the MaxConns cap")
	}
	if got := mConnShed.Value() - shedBefore; got < int64(shedReplies) {
		t.Errorf("gateway.conn.shed rose by %d, want >= %d", got, shedReplies)
	}

	for _, c := range held {
		c.Close()
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeTCP returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCP did not return")
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
	waitNoLeaks(t, baseline)
}

// TestServeTCPStalledPeerTimesOut pins the ConnTimeout satellite: a peer
// that connects and then goes silent (the half-open shape) is cut loose by
// the read deadline with an error reply instead of pinning its handler
// goroutine forever.
func TestServeTCPStalledPeerTimesOut(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g, err := build(Config{Queue: 4, ConnTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ServeTCP(ctx, g, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Say nothing. The handler's read deadline must fire and reply.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if err != nil {
		t.Fatalf("stalled peer never got a reply: %v", err)
	}
	if !strings.HasPrefix(reply, "error: ") {
		t.Fatalf("reply = %q, want timeout error line", reply)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeTCP returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCP did not return")
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
	waitNoLeaks(t, baseline)
}

// TestIngestFilesEmptyDirErrNoTraces pins the distinct "directory exists
// but holds no traces" error.
func TestIngestFilesEmptyDirErrNoTraces(t *testing.T) {
	g, err := build(Config{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	accepted, errs := IngestFiles(context.Background(), g, []string{t.TempDir()})
	if accepted != 0 {
		t.Errorf("accepted = %d, want 0", accepted)
	}
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want exactly one", errs)
	}
	if !errors.Is(errs[0], ErrNoTraces) {
		t.Errorf("errs = %v, want ErrNoTraces", errs)
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}
