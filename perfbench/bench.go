package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mbd/internal/obs"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // measured load time
	trace    bool
	spans    string // where a traced run writes its spans
	setups   int    // stack set-ups timed for setup_s
	warmup   time.Duration
	// inject makes that many operations expect a wrong value, so tests
	// can prove the checks count a wrong output as a failure.
	inject int64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxFailedShare is the share of operations that may fail (time out,
// or lose an event or a view change) before the run counts as
// incorrect; a single wrong output always does.
const maxFailedShare = 0.01

// run sets the stack up cfg.setups times, warms the last one up, loads
// it, checks it and reports. log receives one human-readable line per
// metric.
func run(cfg config, log io.Writer) (*result, error) {
	// Every call made under ctx fails rather than hangs past the
	// deadline, so a stuck server cannot outlive the run.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	var setupTimes []float64
	var st *stack
	var w workload
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		var err error
		st, w, err = build(ctx, cfg)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			w.close()
			st.close()
		}
	}
	defer func() {
		w.close()
		st.close()
	}()

	runPass(w, st, cfg.warmup, false) // warm-up operations are not reported
	w.begin(cfg.inject)
	tally := &tally{}

	metrics := map[string]metric{}
	var p90, p99 float64
	var samples int
	if !cfg.trace {
		passes := make([]pass, e2eSlices)
		for i := range passes {
			passes[i] = runPass(w, st, cfg.seconds/e2eSlices, false)
			tally.add(passes[i])
		}
		p90, p99, samples = e2e(metrics, passes)
		metrics["setup_s"] = metric{median(setupTimes), unitOf(endToEnd, "setup_s")}
		// Measured once the latency samples are garbage, so the heap is
		// the stack's and the clients', not the benchmark's records.
		metrics["heap_mb"] = metric{liveHeapMB(), unitOf(endToEnd, "heap_mb")}
	} else {
		if err := traced(ctx, cfg, w, st, tally, metrics); err != nil {
			return nil, err
		}
	}

	lost, err := w.finish()
	if err != nil {
		return nil, err
	}
	tally.failed += lost
	res := &result{
		Attempted: tally.ok + tally.failed,
		Failed:    tally.failed,
		Metrics:   metrics,
	}
	res.Correct = tally.wrong == 0 && res.Attempted > 0 &&
		float64(res.Failed) <= maxFailedShare*float64(res.Attempted)
	if tally.firstErr != nil {
		fmt.Fprintf(log, "first failure: %v\n", tally.firstErr)
	}
	if lost > 0 {
		fmt.Fprintf(log, "lost events or changes: %d\n", lost)
	}
	fmt.Fprintf(log, "%-40s %16d\n", "attempted", res.Attempted)
	fmt.Fprintf(log, "%-40s %16.6f ratio\n", "failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	if !cfg.trace {
		// Too few samples on domain, and too noisy a tail on a shared
		// host, to bound p90 or p99; they are printed for reading only.
		fmt.Fprintf(log, "%-40s %16d\n", "latency_samples", samples)
		fmt.Fprintf(log, "%-40s %16.4f ms\n", "latency_p90_ms", p90)
		fmt.Fprintf(log, "%-40s %16.4f ms\n", "latency_p99_ms", p99)
	}
	for _, defs := range [][]unitDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := metrics[d.name]; ok {
				fmt.Fprintf(log, "%-40s %16.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	return res, nil
}

// build sets up one stack and the workload's state on it.
func build(ctx context.Context, cfg config) (*stack, workload, error) {
	st, err := newStack(cfg.seed, cfg.workload == "domain")
	if err != nil {
		return nil, nil, err
	}
	w, err := newWorkload(ctx, cfg.workload, cfg.seed)
	if err != nil {
		st.close()
		return nil, nil, err
	}
	if err := w.setup(st); err != nil {
		w.close()
		st.close()
		return nil, nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
	}
	return st, w, nil
}

// pass is what one timed stretch of load yields.
type pass struct {
	lat               []float64 // ms, successful operations
	ok, failed, wrong int64
	firstErr          error
	elapsed           time.Duration
	cpu               time.Duration
	mallocs           uint64
	wire              uint64
	recs              []*recorder
}

// runPass loads w from its clients for d. With traced set each client
// records spans into its own recorder.
func runPass(w workload, st *stack, d time.Duration, traced bool) pass {
	var p pass
	var stop atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	if traced {
		p.recs = make([]*recorder, clients)
		for c := range p.recs {
			p.recs[c] = &recorder{}
		}
	}
	cpu0, ms0, wire0 := cpuTime(), mallocs(), st.wire()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec *recorder
			if traced {
				rec = p.recs[c]
			}
			var lat []float64
			var ok, failed, wrong int64
			var firstErr error
			for seq := uint64(1); !stop.Load(); seq++ {
				mark := 0
				if rec != nil {
					mark = len(rec.spans)
				}
				dt, err := w.op(c, rec, uint64(c)<<48|seq)
				if err == nil {
					ok++
					lat = append(lat, float64(dt.Nanoseconds())/1e6)
					continue
				}
				failed++
				if errors.Is(err, errWrong) {
					wrong++
				}
				if firstErr == nil {
					firstErr = err
				}
				if rec != nil {
					rec.spans = rec.spans[:mark] // keep whole operations only
				}
			}
			mu.Lock()
			defer mu.Unlock()
			p.lat = append(p.lat, lat...)
			p.ok += ok
			p.failed += failed
			p.wrong += wrong
			if p.firstErr == nil {
				p.firstErr = firstErr
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.mallocs = mallocs() - ms0
	p.wire = st.wire() - wire0
	return p
}

// tally accumulates operation outcomes across passes.
type tally struct {
	ok, failed, wrong int64
	firstErr          error
}

func (t *tally) add(p pass) {
	t.ok += p.ok
	t.failed += p.failed
	t.wrong += p.wrong
	if t.firstErr == nil {
		t.firstErr = p.firstErr
	}
}

// e2eSlices is how many consecutive stretches an untraced run splits its
// load time into. Each end-to-end metric but setup_s and heap_mb is the
// median over the stretches, so interference from elsewhere on the host
// that lasts less than half the run does not move it.
const e2eSlices = 10

// e2e fills the end-to-end metrics but setup_s and heap_mb from the
// stretches of an untraced run, and returns the p90 and p99 latencies
// and the sample count over all of them.
func e2e(out map[string]metric, passes []pass) (p90, p99 float64, samples int) {
	per := func(f func(p pass, n float64) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p, float64(max(p.ok, 1)))
		}
		return median(v)
	}
	set := func(name string, v float64) { out[name] = metric{v, unitOf(endToEnd, name)} }
	set("ops_per_s", per(func(p pass, n float64) float64 { return float64(p.ok) / p.elapsed.Seconds() }))
	set("latency_p50_ms", per(func(p pass, n float64) float64 { return quantile(p.lat, 0.5) }))
	set("latency_p75_ms", per(func(p pass, n float64) float64 { return quantile(p.lat, 0.75) }))
	set("cpu_us_per_op", per(func(p pass, n float64) float64 { return float64(p.cpu.Nanoseconds()) / 1e3 / n }))
	set("allocs_per_op", per(func(p pass, n float64) float64 { return float64(p.mallocs) / n }))
	set("wire_bytes_per_op", per(func(p pass, n float64) float64 { return float64(p.wire) / n }))
	var all []float64
	for _, p := range passes {
		all = append(all, p.lat...)
	}
	return quantile(all, 0.9), quantile(all, 0.99), len(all)
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func unitOf(defs []unitDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// traceSlices is how many untraced and traced stretches a traced run
// splits its load time into, in the order untraced, traced, traced,
// untraced, repeated. The order puts both kinds at the same mean
// position in the run, so a workload whose cost drifts (delegate's
// grows with the instances it leaves behind) does not pass the drift
// off as tracing overhead.
const traceSlices = 10

// traced runs the untraced and traced stretches of load, then the side
// measurements, and fills the per-layer metrics.
func traced(ctx context.Context, cfg config, w workload, st *stack, t *tally, out map[string]metric) error {
	var plainLat, tracedLat []float64
	var recs []*recorder
	var ops float64
	delta := map[string]float64{}
	for i := 0; i < traceSlices; i++ {
		if i%4 == 0 || i%4 == 3 {
			p := runPass(w, st, cfg.seconds/traceSlices, false)
			t.add(p)
			plainLat = append(plainLat, p.lat...)
			continue
		}
		before := snapshot(w, st)
		p := runPass(w, st, cfg.seconds/traceSlices, true)
		for k, v := range snapshot(w, st) {
			delta[k] += v - before[k]
		}
		t.add(p)
		tracedLat = append(tracedLat, p.lat...)
		recs = append(recs, p.recs...)
		ops += float64(p.ok)
	}
	ops = max(ops, 1)
	ratio := func(num, den string) float64 {
		if delta[den] == 0 {
			return 0
		}
		return delta[num] / delta[den]
	}
	delta["cache"] = delta["cacheHits"] + delta["cacheMisses"]
	vals := map[string]float64{
		"rds.events_sent_per_op":                delta["eventsSent"] / ops,
		"rds.bytes_out_per_op":                  delta["bytesOut"] / ops,
		"elastic.progcache_hit_ratio":           ratio("cacheHits", "cache"),
		"federation.members_visited_per_report": ratio("membersVisited", "rollupReports"),
		"federation.recombines_per_report":      ratio("recombines", "rollupReports"),
		"incr.deltas_folded_per_op":             delta["deltasFolded"] / ops,
		"incr.recomputes":                       delta["recomputes"],
		"incr.changes_lost":                     delta["changesLost"],
		"domain.view_polls_per_op":              delta["viewPolls"] / ops,
		"snmp.requests_per_op":                  delta["snmpRequests"] / ops,
	}

	sum := summarize(recs)
	for span, name := range spanMetrics {
		vals[name] = sum.medianUS[span]
	}
	vals["trace.coverage"] = sum.coverage
	if p50 := quantile(plainLat, 0.5); p50 > 0 {
		vals["trace.overhead"] = quantile(tracedLat, 0.5) / p50
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, recs); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}

	if err := side(ctx, cfg.seed, vals); err != nil {
		return fmt.Errorf("side measurements: %w", err)
	}
	for _, d := range perLayer {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return nil
}

// snapshot reads the program's own counters, around each traced
// stretch.
func snapshot(w workload, st *stack) map[string]float64 {
	rs := st.rdsSrv.Stats()
	reg := st.srv.Process().Obs()
	vs := st.srv.Views().Stats()
	c := map[string]float64{
		"eventsSent":   float64(rs.EventsSent),
		"bytesOut":     float64(rs.BytesOut),
		"cacheHits":    series(reg, "elastic_progcache_hits_total"),
		"cacheMisses":  series(reg, "elastic_progcache_misses_total"),
		"deltasFolded": float64(vs.DeltasFolded),
		"recomputes":   float64(vs.Recomputes),
		"changesLost":  float64(vs.ChangesLost),
	}
	if node := st.srv.Federation(); node != nil {
		s := node.Rollup().Stats()
		c["rollupReports"] = float64(s.Reports)
		c["membersVisited"] = float64(s.MembersVisited)
		c["recombines"] = float64(s.Recombines)
	}
	switch w := w.(type) {
	case *domainLoad:
		for i := range w.polls {
			c["viewPolls"] += float64(w.polls[i].Load())
		}
	case *pollLoad:
		for _, t := range w.trs {
			c["snmpRequests"] += float64(t.n.Load())
		}
	}
	return c
}

// series reads the named series of reg, 0 when it is absent.
func series(reg *obs.Registry, name string) float64 {
	for _, s := range reg.Flatten() {
		if s.Name == name {
			return float64(s.Value())
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
