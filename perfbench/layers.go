package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
	"mbd/internal/elastic"
	"mbd/internal/federation"
	"mbd/internal/mbd"
	"mbd/internal/mib"
	"mbd/internal/rds"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
	"mbd/internal/vdl/incr"
)

// unitDef names a metric and its unit.
type unitDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports. The failure ratio is
// not among them: it is 0 on a healthy run, and the result line carries
// it as failed over attempted.
var endToEnd = []unitDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p75_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"wire_bytes_per_op", "B"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a traced run prints. Path metrics (span
// medians and counts taken during the traced load) read 0 on a workload
// whose operations do not cross that layer; side metrics time direct
// calls into one layer with the run's seeded inputs and are measured
// on every workload.
var perLayer = []unitDef{
	// Path: spans around the benchmark's own calls.
	{"rds.delegate_rtt_us", "us"},
	{"rds.instantiate_rtt_us", "us"},
	{"rds.exit_event_us", "us"},
	{"rds.send_rtt_us", "us"},
	{"rds.event_deliver_us", "us"},
	{"rds.peer_sync_rtt_us", "us"},
	{"rds.view_query_rtt_us", "us"},
	{"snmp.get_rtt_us", "us"},
	// Path: counts during the traced load.
	{"rds.events_sent_per_op", "count"},
	{"rds.bytes_out_per_op", "B"},
	{"elastic.progcache_hit_ratio", "ratio"},
	{"federation.members_visited_per_report", "count"},
	{"federation.recombines_per_report", "count"},
	{"incr.deltas_folded_per_op", "count"},
	{"incr.recomputes", "count"},
	{"incr.changes_lost", "count"},
	{"domain.view_polls_per_op", "count"},
	{"snmp.requests_per_op", "count"},
	// Side: direct calls into one layer.
	{"elastic.admit_cached_us", "us"},
	{"elastic.admit_cold_us", "us"},
	{"elastic.instantiate_to_exit_us", "us"},
	{"elastic.send_to_emit_us", "us"},
	{"dpl.parse_us", "us"},
	{"dpl.analyze_us", "us"},
	{"dpl.compile_us", "us"},
	{"dpl.verify_us", "us"},
	{"dpl.vm_sample_us", "us"},
	{"mib.get_us", "us"},
	{"mib.walk_us", "us"},
	{"mib.getnext_us", "us"},
	{"rds.event_encode_us", "us"},
	{"rds.msg_decode_us", "us"},
	{"federation.peer_sync_us", "us"},
	{"federation.rollup_report_us", "us"},
	{"incr.rollup_refresh_us", "us"},
	{"incr.query_us", "us"},
	{"incr.query_json_us", "us"},
	{"snmp.agent_handle_us", "us"},
	{"snmp.encode_us", "us"},
	{"snmp.decode_us", "us"},
	// The trace itself.
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// spanMetrics maps the span names the workloads record to the path
// metric of each span's median self time.
var spanMetrics = map[string]string{
	"rds.delegate":      "rds.delegate_rtt_us",
	"rds.instantiate":   "rds.instantiate_rtt_us",
	"rds.exit_event":    "rds.exit_event_us",
	"rds.send":          "rds.send_rtt_us",
	"rds.event_deliver": "rds.event_deliver_us",
	"rds.peer_sync":     "rds.peer_sync_rtt_us",
	"rds.view_query":    "rds.view_query_rtt_us",
	"snmp.request":      "snmp.get_rtt_us",
}

// sideBudget bounds the time spent timing one side metric.
const sideBudget = 150 * time.Millisecond

// timeCalls times fn in batches of batch calls, at least 5 and at most
// maxSamples batches within sideBudget, and returns the median
// microseconds per call.
func timeCalls(batch, maxSamples int, fn func(i int) error) (float64, error) {
	var samples []float64
	start := time.Now()
	for i := 0; len(samples) < maxSamples && (len(samples) < 5 || time.Since(start) < sideBudget); {
		t0 := time.Now()
		for j := 0; j < batch; j, i = j+1, i+1 {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3/float64(batch))
	}
	return median(samples), nil
}

// side times direct calls into each layer on a side server that has
// no sockets, using inputs drawn from seed the way the workloads draw
// theirs, and stores each median in out.
func side(ctx context.Context, seed int64, out map[string]float64) error {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "side-router", Interfaces: interfaces, Seed: seed})
	if err != nil {
		return err
	}
	srv, err := mbd.New(mbd.Config{Device: dev, MaxDPIs: 256})
	if err != nil {
		return err
	}
	defer srv.Stop()
	rng := rand.New(rand.NewSource(seed + 7))
	steps := []func(*sideEnv) error{sideAdmission, sideDPL, sideInstances, sideMIB, sideCodecs, sideFederation, sideViews}
	env := &sideEnv{ctx: ctx, seed: seed, rng: rng, srv: srv, proc: srv.Process(), out: out}
	for _, step := range steps {
		if err := step(env); err != nil {
			return err
		}
	}
	return nil
}

type sideEnv struct {
	ctx  context.Context
	seed int64
	rng  *rand.Rand
	srv  *mbd.Server
	proc *elastic.Process
	out  map[string]float64
}

// measure stores the median of timeCalls under name.
func (e *sideEnv) measure(name string, batch, maxSamples int, fn func(i int) error) error {
	us, err := timeCalls(batch, maxSamples, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	e.out[name] = us
	return nil
}

// coldSources draws n fresh programs, as the delegate workload's cold
// share does.
func (e *sideEnv) coldSources(n int, tag string) []prog {
	ps := make([]prog, n)
	for i := range ps {
		ps[i] = randProg(e.rng, fmt.Sprintf("%s-%d", tag, i))
	}
	return ps
}

func sideAdmission(e *sideEnv) error {
	hot := hotProgs(e.seed)
	for _, p := range hot {
		if err := e.proc.Delegate("mgr", "side-hot", "dpl", p.src); err != nil {
			return err
		}
	}
	if err := e.measure("elastic.admit_cached_us", 1, 2000, func(i int) error {
		return e.proc.Delegate("mgr", "side-hot", "dpl", hot[i%hotSet].src)
	}); err != nil {
		return err
	}
	cold := e.coldSources(300, "side-cold")
	return e.measure("elastic.admit_cold_us", 1, len(cold), func(i int) error {
		return e.proc.Delegate("mgr", "side-cold", "dpl", cold[i].src)
	})
}

func sideDPL(e *sideEnv) error {
	b := e.proc.Bindings()
	cold := e.coldSources(300, "side-dpl")
	progs := make([]*dpl.Program, len(cold))
	cps := make([]*dpl.CompiledProgram, len(cold))
	for i, p := range cold {
		var err error
		if progs[i], err = dpl.Parse(p.src); err != nil {
			return err
		}
		if cps[i], err = e.proc.CompileProgram("dpl", p.src); err != nil {
			return err
		}
	}
	if err := e.measure("dpl.parse_us", 1, len(cold), func(i int) error {
		_, err := dpl.Parse(cold[i].src)
		return err
	}); err != nil {
		return err
	}
	if err := e.measure("dpl.compile_us", 1, len(cold), func(i int) error {
		_, err := dpl.Compile(progs[i], b)
		return err
	}); err != nil {
		return err
	}
	if err := e.measure("dpl.analyze_us", 1, len(cold), func(i int) error {
		if rep := analysis.Analyze(progs[i], b); analysis.HasErrors(rep.Diags) {
			return fmt.Errorf("analysis rejected %s", cold[i].src)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := e.measure("dpl.verify_us", 1, len(cold), func(i int) error {
		return verify.Verify(cps[i], b).Err()
	}); err != nil {
		return err
	}

	// The observe agent's sample function on a VM over the process
	// bindings, reading the side device's MIB.
	ast, err := dpl.Parse(agentSrc)
	if err != nil {
		return err
	}
	obj, err := dpl.Compile(ast, b)
	if err != nil {
		return err
	}
	dpl.Optimize(obj)
	vm := dpl.NewVM(obj, b)
	return e.measure("dpl.vm_sample_us", 10, 10000, func(int) error {
		v, err := vm.Run(e.ctx, "sample")
		if err != nil {
			return err
		}
		if a, ok := v.(*dpl.Array); !ok || len(a.Elems) != 3 || a.Elems[2] != int64(interfaces) {
			return fmt.Errorf("%w: sample() = %s", errWrong, dpl.FormatValue(v))
		}
		return nil
	})
}

func sideInstances(e *sideEnv) error {
	hot := hotProgs(e.seed)
	p := hot[0]
	if err := e.proc.Delegate("mgr", "side-run", "dpl", p.src); err != nil {
		return err
	}
	if err := e.measure("elastic.instantiate_to_exit_us", 1, 5000, func(i int) error {
		a := int64(i % 1000)
		d, err := e.proc.Instantiate("mgr", "side-run", "main", a)
		if err != nil {
			return err
		}
		v, err := d.Wait(e.ctx)
		e.proc.Remove(d.ID)
		if err != nil {
			return err
		}
		if v != p.eval(a) {
			return fmt.Errorf("%w: exit %v, want %d", errWrong, v, p.eval(a))
		}
		return nil
	}); err != nil {
		return err
	}

	if err := e.proc.Delegate("mgr", "side-agent", "dpl", agentSrc); err != nil {
		return err
	}
	d, err := e.proc.Instantiate("mgr", "side-agent", "main")
	if err != nil {
		return err
	}
	reports := make(chan string, 1)
	cancel := e.proc.Subscribe(func(ev elastic.Event) {
		if ev.DPI == d.ID && ev.Kind == elastic.EventReport {
			select {
			case reports <- ev.Payload:
			default: // a report after its timeout; never block the emitter
			}
		}
	})
	defer cancel()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	return e.measure("elastic.send_to_emit_us", 1, 5000, func(i int) error {
		tag := "s" + strconv.Itoa(i)
		if err := e.proc.Send("mgr", d.ID, tag); err != nil {
			return err
		}
		timer.Reset(eventWait)
		select {
		case got := <-reports:
			timer.Stop()
			if !strings.HasPrefix(got, tag+" ") {
				return fmt.Errorf("%w: report %q for tag %s", errWrong, got, tag)
			}
			return nil
		case <-timer.C:
			return fmt.Errorf("no report for tag %s", tag)
		}
	})
}

func sideMIB(e *sideEnv) error {
	tree := e.srv.Device().Tree()
	if err := e.measure("mib.get_us", 100, 10000, func(int) error {
		_, err := tree.Get(oidSysUpTime0)
		return err
	}); err != nil {
		return err
	}
	if err := e.measure("mib.walk_us", 10, 10000, func(int) error {
		if n := readMIB(tree).n; n != interfaces {
			return fmt.Errorf("%w: walked %d rows", errWrong, n)
		}
		return nil
	}); err != nil {
		return err
	}
	first := oidIfInOctets.Append(1)
	return e.measure("mib.getnext_us", 100, 10000, func(int) error {
		next, _, err := tree.GetNext(oidIfInOctets)
		if err == nil && !next.Equal(first) {
			err = fmt.Errorf("%w: GetNext gave %s", errWrong, next)
		}
		return err
	})
}

func sideCodecs(e *sideEnv) error {
	ev := rds.Message{Op: rds.OpEvent, Name: "agent#3", Entry: "report",
		Payload: []byte("c0.1234 56789 1234567890 8"), TimeMS: 1234, Principal: "mgr0"}
	var frame []byte
	if err := e.measure("rds.event_encode_us", 100, 10000, func(int) error {
		var err error
		frame, err = ev.AppendFrame(frame[:0])
		return err
	}); err != nil {
		return err
	}
	body := ev.Encode()
	if err := e.measure("rds.msg_decode_us", 100, 10000, func(int) error {
		m, err := rds.Decode(body)
		if err == nil && m.Name != ev.Name {
			err = fmt.Errorf("%w: decoded %q", errWrong, m.Name)
		}
		return err
	}); err != nil {
		return err
	}

	req := snmp.Message{Community: "public", Type: snmp.PDUGetNextRequest, RequestID: 7,
		VarBinds: []snmp.VarBind{{Name: oidIfInOctets.Append(3), Value: mib.Null()}}}
	var pkt []byte
	if err := e.measure("snmp.encode_us", 100, 10000, func(int) error {
		var err error
		pkt, err = req.AppendEncode(pkt[:0])
		return err
	}); err != nil {
		return err
	}
	agent := e.srv.Agent()
	var resp []byte
	if err := e.measure("snmp.agent_handle_us", 100, 10000, func(int) error {
		if resp = agent.HandlePacketAppend(resp[:0], pkt); resp == nil {
			return fmt.Errorf("%w: agent dropped a GetNext", errWrong)
		}
		return nil
	}); err != nil {
		return err
	}
	var dec snmp.Decoder
	var m snmp.Message
	want := oidIfInOctets.Append(4)
	return e.measure("snmp.decode_us", 100, 10000, func(int) error {
		err := dec.Decode(resp, &m)
		if err == nil && (len(m.VarBinds) != 1 || !m.VarBinds[0].Name.Equal(want)) {
			err = fmt.Errorf("%w: decoded %v", errWrong, m.VarBinds)
		}
		return err
	})
}

// domainInputs draws the domain workload's shape: members, keys and
// per-frame deltas.
type domainInputs struct {
	members, keys []string
}

func newDomainInputs() domainInputs {
	var in domainInputs
	for m := 0; m < clients*membersPer; m++ {
		in.members = append(in.members, fmt.Sprintf("m%d", m))
	}
	for k := 0; k < clients*keysPer; k++ {
		in.keys = append(in.keys, fmt.Sprintf("k%02d", k))
	}
	return in
}

func (in domainInputs) batch(rng *rand.Rand) *rds.SyncBatch {
	b := &rds.SyncBatch{}
	for _, k := range rng.Perm(len(in.keys))[:deltasPer] {
		b.Reports = append(b.Reports, rds.SyncReport{Key: in.keys[k], Value: strconv.FormatInt(rng.Int63n(1000), 10), TimeMS: 1})
	}
	return b
}

func sideFederation(e *sideEnv) error {
	in := newDomainInputs()
	node, err := federation.New(federation.Config{Name: "side-noc", Domain: "side", Proc: e.proc,
		Combiner: federation.Sum(), HeartbeatInterval: heartbeat})
	if err != nil {
		return err
	}
	for _, m := range in.members {
		if err := node.PeerJoin("mgr", m, "lan-"+m, "127.0.0.1:0"); err != nil {
			return err
		}
	}
	batches := make([]*rds.SyncBatch, 2000)
	for i := range batches {
		batches[i] = in.batch(e.rng)
	}
	for i, m := range in.members {
		if err := node.PeerSync("mgr", m, batches[i]); err != nil {
			return err
		}
	}
	if err := e.measure("federation.peer_sync_us", 1, len(batches), func(i int) error {
		return node.PeerSync("mgr", in.members[i%len(in.members)], batches[i])
	}); err != nil {
		return err
	}

	r := federation.NewRollup(federation.Sum())
	for _, m := range in.members {
		for _, k := range in.keys {
			r.Report(m, k, strconv.Itoa(e.rng.Intn(1000)), 1)
		}
	}
	return e.measure("federation.rollup_report_us", 10, 10000, func(i int) error {
		r.Report(in.members[i%len(in.members)], in.keys[(i*7)%len(in.keys)], strconv.Itoa(i%1000), 1)
		return nil
	})
}

// sideViews keeps the domain workload's views over a bare rollup on a
// side tree and times one report's refresh and the queries.
func sideViews(e *sideEnv) error {
	in := newDomainInputs()
	tree := &mib.Tree{}
	r := federation.NewRollup(federation.Sum())
	if err := federation.MountRollup(tree, r, federation.OIDFederation); err != nil {
		return err
	}
	a := incr.New(incr.Config{Tree: tree, Schema: vdl.MIB2().AddFederation()})
	defer a.Close()
	if _, err := a.DefineAll(domainViews); err != nil {
		return err
	}
	for _, k := range in.keys {
		r.Report(in.members[0], k, strconv.Itoa(e.rng.Intn(1000)), 1)
	}
	a.Pump()
	if err := e.measure("incr.rollup_refresh_us", 1, 2000, func(i int) error {
		// i+1000 never repeats a value, so every report changes the key.
		r.Report(in.members[i%len(in.members)], in.keys[e.rng.Intn(len(in.keys))], strconv.Itoa(i+1000), 1)
		if a.Pump() == 0 {
			return fmt.Errorf("%w: a rollup change folded no delta", errWrong)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := e.measure("incr.query_us", 10, 10000, func(int) error {
		res, err := a.Query("domainKeys")
		if err == nil && len(res.Rows) != len(in.keys) {
			err = fmt.Errorf("%w: view has %d rows", errWrong, len(res.Rows))
		}
		return err
	}); err != nil {
		return err
	}
	return e.measure("incr.query_json_us", 10, 10000, func(int) error {
		_, err := a.QueryJSON("domainKeys")
		return err
	})
}
