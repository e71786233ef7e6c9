package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/trace"
)

// syncBuffer is a goroutine-safe bytes.Buffer for daemon stderr/stdout.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// writeTrace renders one SF7 collision trace into dir.
func writeTrace(t *testing.T, dir, name string, scSeed uint64) string {
	t.Helper()
	p := lora.DefaultParams()
	p.SF = lora.SF7
	sc := sim.Scenario{Params: p, PayloadLen: 4, SNRsDB: []float64{15, 12}, Seed: scSeed}
	sig, _ := sc.Synthesize()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, trace.Header{Params: p, PayloadLen: 4}, sig); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFileMode pins the batch path: ingest a directory, decode
// everything, print one terminal outcome per frame, exit 0.
func TestRunFileMode(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, "a.iq", 1)
	writeTrace(t, dir, "b.iq", 2)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-backoff", "1us", dir}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "frame "); n != 2 {
		t.Errorf("got %d outcome lines, want 2\nstdout: %s", n, stdout.String())
	}
	if !strings.Contains(stderr.String(), "accepted 2, decoded 2") {
		t.Errorf("summary missing from stderr: %s", stderr.String())
	}
}

// TestRunBreakerThresholdZeroDisables pins the -breaker-threshold help
// text: 0 disables the breakers, so a run of undecodable frames attempts
// every one of them instead of shedding the tail as circuit-broken.
func TestRunBreakerThresholdZeroDisables(t *testing.T) {
	dir := t.TempDir()
	p := lora.DefaultParams()
	p.SF = lora.SF7
	for i := 0; i < 12; i++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("empty%02d.iq", i)))
		if err != nil {
			t.Fatal(err)
		}
		err = trace.Write(f, trace.Header{Params: p, PayloadLen: 4}, nil)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	run(context.Background(), []string{"-ladder", "strongest", "-breaker-threshold", "0", "-backoff", "1us", dir}, &stdout, &stderr)
	if n := strings.Count(stdout.String(), "frame "); n != 12 {
		t.Fatalf("got %d outcome lines, want 12\nstdout: %s\nstderr: %s", n, stdout.String(), stderr.String())
	}
	if strings.Contains(stdout.String(), "circuit-broken") {
		t.Errorf("-breaker-threshold 0 still tripped a breaker:\n%s", stdout.String())
	}
}

// TestRunUsage pins the usage exit code.
func TestRunUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), nil, &stdout, &stderr); code != exitUsage {
		t.Fatalf("exit = %d, want %d", code, exitUsage)
	}
	if code := run(context.Background(), []string{"-shed-policy", "bogus", "x.iq"}, &stdout, &stderr); code != exitUsage {
		t.Fatalf("bogus policy exit = %d, want %d", code, exitUsage)
	}
}

// TestRunInterruptedExits130 pins the signal path: a dead context stops
// ingest, the queue still drains, and the daemon exits 130.
func TestRunInterruptedExits130(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, "a.iq", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{dir}, &stdout, &stderr)
	if code != exitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitInterrupted, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr missing interrupted notice: %s", stderr.String())
	}
}

// TestRunTCPMode drives the daemon end to end over TCP: submit one trace,
// read the accept reply, watch its outcome print, then shut down via the
// signal context and expect exit 130 with balanced accounting.
func TestRunTCPMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-listen", "127.0.0.1:0", "-backoff", "1us"}, &stdout, &stderr)
	}()

	// The bound address is announced on stderr.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		for _, line := range strings.Split(stderr.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "choir-gatewayd: listening on "); ok {
				addr = strings.TrimSpace(rest)
				// Drop the "(mode)" suffix after the address.
				if i := strings.IndexByte(addr, ' '); i >= 0 {
					addr = addr[:i]
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address\nstderr: %s", stderr.String())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := lora.DefaultParams()
	p.SF = lora.SF7
	sc := sim.Scenario{Params: p, PayloadLen: 4, SNRsDB: []float64{15, 12}, Seed: 1}
	sig, _ := sc.Synthesize()
	if err := trace.Write(conn, trace.Header{Params: p, PayloadLen: 4}, sig); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if err != nil || !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q (%v), want accepted <id>", reply, err)
	}

	cancel()
	select {
	case code := <-exit:
		if code != exitInterrupted {
			t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitInterrupted, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after shutdown signal")
	}
	if !strings.Contains(stderr.String(), "accepted 1, decoded 1") {
		t.Errorf("summary missing from stderr: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "frame 1") {
		t.Errorf("outcome line missing from stdout: %s", stdout.String())
	}
}

// TestRunTCPStreamMode drives the framed streaming listener end to end:
// the frame is acknowledged as soon as its header lands, the decode
// finishes after the remaining samples stream in, and shutdown stays
// clean with balanced accounting.
func TestRunTCPStreamMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-listen-stream", "127.0.0.1:0", "-conn-timeout", "5s", "-backoff", "1us"}, &stdout, &stderr)
	}()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		for _, line := range strings.Split(stderr.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "choir-gatewayd: listening on "); ok {
				addr = strings.TrimSpace(rest)
				if i := strings.IndexByte(addr, ' '); i >= 0 {
					addr = addr[:i]
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address\nstderr: %s", stderr.String())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := lora.DefaultParams()
	p.SF = lora.SF7
	sc := sim.Scenario{Params: p, PayloadLen: 4, SNRsDB: []float64{15, 12}, Seed: 1}
	sig, _ := sc.Synthesize()
	var fb bytes.Buffer
	if err := trace.WriteFramed(&fb, trace.Header{Params: p, PayloadLen: 4}, sig); err != nil {
		t.Fatal(err)
	}
	b := fb.Bytes()
	// Send the preface and half the samples, expect the admission reply
	// before delivering the rest.
	if _, err := conn.Write(b[:len(b)/2]); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q (%v), want accepted <id>", reply, err)
	}
	if _, err := conn.Write(b[len(b)/2:]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Wait for the decode to print before shutting down, so the summary
	// check is deterministic.
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(stdout.String(), "frame 1") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case code := <-exit:
		if code != exitInterrupted {
			t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitInterrupted, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after shutdown signal")
	}
	if !strings.Contains(stderr.String(), "accepted 1, decoded 1") {
		t.Errorf("summary missing from stderr: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "frame 1") {
		t.Errorf("outcome line missing from stdout: %s", stdout.String())
	}
}
