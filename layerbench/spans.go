package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Times are nanoseconds since the
// recorder was created; Parent 0 marks a root, and every span of one
// workload op shares Op.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder holds a traced run's spans in memory until the run ends. A
// nil *recorder is the untraced mode: every method is a no-op, so the
// workloads call it unconditionally.
type recorder struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active is an open span; end closes and stores it.
type active struct {
	r *recorder
	s span
}

// begin opens a span named name under parent within op.
func (r *recorder) begin(name string, op, parent int64) active {
	if r == nil {
		return active{}
	}
	return active{r: r, s: span{
		Name:   name,
		ID:     r.ids.Add(1),
		Parent: parent,
		Op:     op,
		Start:  int64(time.Since(r.t0)),
	}}
}

// add stores a span whose interval was measured elsewhere (the
// scenario engine times its own points).
func (r *recorder) add(name string, op, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, ID: r.ids.Add(1), Parent: parent, Op: op,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// id is the span's identifier, 0 when untraced.
func (a active) id() int64 { return a.s.ID }

func (a active) end() {
	if a.r == nil {
		return
	}
	a.s.End = int64(time.Since(a.r.t0))
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, index-aligned with spans, each span's duration
// minus the part of its interval covered by its children. Children
// may overlap one another (a wave's parallel exchanges), so the
// covered part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	index := make(map[int64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped
// to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// spanStats collects the durations and self times of every span with
// the given name.
func spanStats(spans []span, self []time.Duration, name string) (durs, selfs []time.Duration) {
	for i, s := range spans {
		if s.Name == name {
			durs = append(durs, s.dur())
			selfs = append(selfs, self[i])
		}
	}
	return durs, selfs
}

// maxSpansWritten caps the spans file: a traced rekey-wave run records
// hundreds of thousands of record spans, and the first ops already
// show every boundary.
const maxSpansWritten = 20000

// writeSpans writes the first maxSpansWritten spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i == maxSpansWritten {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
