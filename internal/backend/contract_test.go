package backend_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/trace"
)

func loadFixture(t *testing.T, name string) (trace.Header, []complex128) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "choir", "testdata", "golden", name+".iq"))
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	defer f.Close()
	h, samples, err := trace.Read(f)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return h, samples
}

func sameResult(t *testing.T, label string, got, want *choir.Result) {
	t.Helper()
	if len(got.Users) != len(want.Users) {
		t.Fatalf("%s: %d users, want %d", label, len(got.Users), len(want.Users))
	}
	for i := range want.Users {
		g, w := got.Users[i], want.Users[i]
		if math.Float64bits(g.Offset) != math.Float64bits(w.Offset) {
			t.Errorf("%s user %d: offset %v != %v", label, i, g.Offset, w.Offset)
		}
		if string(g.Payload) != string(w.Payload) {
			t.Errorf("%s user %d: payload %x != %x", label, i, g.Payload, w.Payload)
		}
		if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
			t.Errorf("%s user %d: err %v != %v", label, i, g.Err, w.Err)
		}
	}
}

func sameErr(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Errorf("%s: err %v, want %v", label, got, want)
	}
}

// TestReusedBackendMatchesFreshForEveryBackend pins the reuse contract
// backend.Pool relies on, registry-wide: one instance reseeded per frame
// decodes every frame — including a malformed one that fails — exactly as a
// fresh instance given the same seed, whatever it decoded before.
func TestReusedBackendMatchesFreshForEveryBackend(t *testing.T) {
	h, samples := loadFixture(t, "collide2_sf7")
	frames := [][]complex128{samples, samples[:10], samples}
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			reused := backend.MustNew(name, h.Params)
			for i, frame := range frames {
				seed := uint64(101 + i)
				fresh := backend.MustNew(name, h.Params)
				fresh.Reseed(seed)
				want := &choir.Result{}
				wantErr := fresh.DecodeCtxInto(context.Background(), want, frame, h.PayloadLen)

				reused.Reseed(seed)
				got := &choir.Result{}
				gotErr := reused.DecodeCtxInto(context.Background(), got, frame, h.PayloadLen)

				label := fmt.Sprintf("%s frame %d", name, i)
				sameErr(t, label, gotErr, wantErr)
				if wantErr == nil {
					sameResult(t, label, got, want)
				}
			}
		})
	}
}

// TestChoirBackendImplementsCapabilities: the Choir-pipeline backend
// advertises the streaming capability, and it is bit-identical to the
// serial decode of the completed frame.
func TestChoirBackendImplementsCapabilities(t *testing.T) {
	h, samples := loadFixture(t, "collide2_sf7")
	b := backend.MustNew("choir", h.Params)
	sd, ok := b.(backend.StreamDecoder)
	if !ok {
		t.Fatal("choir backend does not implement StreamDecoder")
	}

	want := &choir.Result{}
	if err := b.DecodeCtxInto(context.Background(), want, samples, h.PayloadLen); err != nil {
		t.Fatalf("serial: %v", err)
	}

	// Stream the same frame in two installments: preamble prefix, then rest.
	buf := make([]complex128, len(samples))
	var mu sync.Mutex
	have := 0
	fill := func(n int) {
		mu.Lock()
		copy(buf[have:n], samples[have:n])
		have = n
		mu.Unlock()
	}
	prefix := backend.Decoder(b).PreambleSamples()
	fill(prefix)
	avail := func(ctx context.Context, need int) error {
		mu.Lock()
		ok := have >= need
		mu.Unlock()
		if !ok {
			fill(len(buf)) // deliver the remainder on first demand
		}
		return nil
	}
	b.Reseed(choir.DefaultConfig(h.Params).Seed)
	got := &choir.Result{}
	if err := sd.DecodeStreamCtxInto(context.Background(), got, buf, h.PayloadLen, avail); err != nil {
		t.Fatalf("stream: %v", err)
	}
	sameResult(t, "stream", got, want)
}
