package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's public functions. Ref names the frame ID or run the span belongs
// to; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Ref    string `json:"ref"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. Only the traced pass
// has one, so untraced passes carry no span bookkeeping. Spans are recorded
// from one goroutine, after the calls they time have returned.
type recorder struct {
	epoch time.Time
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span ID, so children recorded before their parent ends can
// name it.
func (r *recorder) id() int64 {
	r.next++
	return r.next
}

// add records a finished span under a reserved id (0 reserves one).
func (r *recorder) add(id, parent int64, name, ref string, start, end time.Time) {
	if id == 0 {
		id = r.id()
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Ref: ref,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
}

// byName returns the durations of every span with the given name.
func (r *recorder) byName(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals.
func (r *recorder) selfTimes() map[int64]int64 {
	kids := map[int64][]interval{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(r.spans))
	for _, s := range r.spans {
		out[s.ID] = selfTime(interval{s.Start, s.End}, kids[s.ID])
	}
	return out
}

// write stores every span as one JSON document.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(struct {
		Epoch string `json:"epoch"`
		Spans []span `json:"spans"`
	}{r.epoch.Format(time.RFC3339Nano), r.spans})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// spansPath is where a traced run writes its spans, under the benchmark's
// build directory in the checkout.
func spansPath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
}
