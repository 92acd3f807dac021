package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share trace; parent indexes the enclosing span in the same
// recorder, -1 for an operation's root.
type span struct {
	name       string
	trace      uint64
	parent     int
	start, end time.Time
}

// recorder keeps one load goroutine's spans in memory. A nil recorder
// records nothing, so untraced runs pay one nil check per span.
type recorder struct {
	spans []span
}

// add records a span and returns its index, the parent handle for its
// children.
func (r *recorder) add(name string, trace uint64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, trace: trace, parent: parent, start: start, end: end})
	return len(r.spans) - 1
}

// traceSummary is what a traced pass yields: each layer span's median
// self time, and the share of an operation's latency that layer self
// times cover.
type traceSummary struct {
	medianUS map[string]float64
	coverage float64
}

// summarize computes self times (a span's duration minus the part its
// children cover; the children of one operation never overlap, as each
// runs on its load goroutine) and the coverage: median over operations
// of the layer self times' total, divided by the median root duration.
func summarize(recs []*recorder) traceSummary {
	durs := map[string][]float64{}
	var rootDur, covered []float64
	for _, r := range recs {
		child := make([]time.Duration, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end.Sub(s.start)
			}
		}
		for i, s := range r.spans {
			d := s.end.Sub(s.start)
			if s.parent < 0 {
				rootDur = append(rootDur, float64(d))
				covered = append(covered, float64(child[i]))
				continue
			}
			durs[s.name] = append(durs[s.name], float64(d-child[i])/1e3)
		}
	}
	out := traceSummary{medianUS: map[string]float64{}}
	for name, v := range durs {
		out.medianUS[name] = median(v)
	}
	if m := median(rootDur); m > 0 {
		out.coverage = median(covered) / m
	}
	return out
}

// writeSpans writes every span as one JSON line, with times in
// nanoseconds since the earliest span.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var base time.Time
	for _, r := range recs {
		for _, s := range r.spans {
			if base.IsZero() || s.start.Before(base) {
				base = s.start
			}
		}
	}
	type line struct {
		Name    string `json:"name"`
		Trace   uint64 `json:"trace"`
		Parent  int    `json:"parent"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(line{s.name, s.trace, s.parent, s.start.Sub(base).Nanoseconds(), s.end.Sub(base).Nanoseconds()}); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// median returns the middle of v (the mean of the two middle values for
// an even count), 0 for none. It sorts v.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks. It sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

// end sets span i's end time.
func (r *recorder) end(i int, t time.Time) {
	if r != nil {
		r.spans[i].end = t
	}
}
