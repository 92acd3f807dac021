package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/rds"
	"mbd/internal/snmp"
	"mbd/internal/vdl/incr"
)

// clients is the number of manager connections and load goroutines:
// one per CPU of the 2-vCPU host the benchmark was sized on.
const clients = 2

// eventWait bounds how long an operation waits for an event or a fresh
// view before it counts as failed.
const eventWait = 2 * time.Second

// errWrong marks an operation whose output was wrong, as opposed to
// one that failed to complete.
var errWrong = errors.New("wrong output")

var (
	oidSysUpTime0 = oid.MustParse("1.3.6.1.2.1.1.3.0")
	oidIfInOctets = oid.MustParse("1.3.6.1.2.1.2.2.1.10")
)

// workload is one traffic mix. Every workload is a closed loop: each of
// its clients sends its next operation only after the previous one
// completed.
type workload interface {
	// setup connects the clients to st and installs the workload's
	// state on it.
	setup(st *stack) error
	// op runs one operation for client c and returns its latency. rec
	// (nil when untraced) receives the operation's spans under trace.
	op(c int, rec *recorder, trace uint64) (time.Duration, error)
	// finish runs the end-of-run checks once the load has stopped and
	// returns how many events or changes were lost.
	finish() (lost int64, err error)
	// close disconnects the clients.
	close()
	// begin marks the start of the measured load, from which finish
	// counts losses, and makes the next inject operations expect a
	// wrong value.
	begin(inject int64)
}

// base holds what every workload shares: the run context, the stack,
// one seeded random source per client, and the count of expected
// values still to be skewed (set only by tests, to prove a wrong
// output is caught).
type base struct {
	ctx    context.Context
	st     *stack
	rngs   [clients]*rand.Rand
	timers [clients]*time.Timer
	skews  atomic.Int64
	// dropped0 is droppedEvents at begin.
	dropped0 int64
}

func (b *base) prepare(ctx context.Context, seed int64) {
	b.ctx = ctx
	for c := range b.rngs {
		b.rngs[c] = rand.New(rand.NewSource(seed*1000 + int64(c)))
		b.timers[c] = time.NewTimer(time.Hour)
		b.timers[c].Stop()
	}
}

func (b *base) begin(inject int64) {
	b.skews.Store(inject)
	b.dropped0 = b.droppedEvents()
}

// skew returns 1 while injected wrong expectations remain, else 0.
func (b *base) skew() int64 {
	if b.skews.Load() > 0 && b.skews.Add(-1) >= 0 {
		return 1
	}
	return 0
}

// dial opens client c's RDS connection.
func (b *base) dial(c int) (*rds.Client, error) {
	return rds.Dial(b.st.rdsAddr, fmt.Sprintf("mgr%d", c))
}

// next returns the next event on ch, failing after eventWait.
func (b *base) next(c int, ch <-chan rds.Event) (rds.Event, error) {
	t := b.timers[c]
	t.Reset(eventWait)
	defer t.Stop()
	select {
	case ev, ok := <-ch:
		if !ok {
			return ev, errors.New("event stream closed")
		}
		return ev, nil
	case <-t.C:
		return rds.Event{}, errors.New("timed out waiting for an event")
	case <-b.ctx.Done():
		return rds.Event{}, b.ctx.Err()
	}
}

// droppedEvents counts events the RDS server dropped or shed since it
// started.
func (b *base) droppedEvents() int64 {
	s := b.st.rdsSrv.Stats()
	return int64(s.EventsDropped + s.EventsShed)
}

func closeAll(cls []*rds.Client) {
	for _, cl := range cls {
		if cl != nil {
			cl.Close()
		}
	}
}

func newWorkload(ctx context.Context, name string, seed int64) (workload, error) {
	var w interface {
		workload
		prepare(context.Context, int64)
	}
	switch name {
	case "delegate":
		w = &delegateLoad{seed: seed}
	case "observe":
		w = &observeLoad{}
	case "domain":
		w = &domainLoad{}
	case "poll":
		w = &pollLoad{}
	default:
		return nil, fmt.Errorf("unknown workload %q (want delegate, observe, domain or poll)", name)
	}
	w.prepare(ctx, seed)
	return w, nil
}

// ---- delegate ----

// hotSet is how many distinct programs make up the delegate workload's
// cached working set; coldShare of delegations are fresh programs.
const (
	hotSet    = 16
	coldShare = 0.1
	loopTrips = 40
)

// prog is one delegated program: a bounded loop whose constants k1, k2
// vary between programs while the instruction count does not, so a hot
// and a cold program cost the same to run.
type prog struct {
	k1, k2 int64
	src    string
}

func newProg(k1, k2 int64, variant string) prog {
	return prog{k1: k1, k2: k2, src: fmt.Sprintf(`// variant %s
func main(a) {
	var s = 0;
	for (var i = 0; i < %d; i += 1) {
		s = (s * %d + a + i) %% %d;
	}
	return s;
}
`, variant, loopTrips, k1, k2)}
}

func randProg(rng *rand.Rand, variant string) prog {
	return newProg(2+rng.Int63n(997), 1000+rng.Int63n(90000), variant)
}

// hotProgs draws the delegate workload's hot set from seed.
func hotProgs(seed int64) []prog {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]prog, hotSet)
	for i := range hot {
		hot[i] = randProg(rng, "hot-"+strconv.Itoa(i))
	}
	return hot
}

// eval is the program's result computed here, the expected exit value.
func (p prog) eval(a int64) int64 {
	s := int64(0)
	for i := int64(0); i < loopTrips; i++ {
		s = (s*p.k1 + a + i) % p.k2
	}
	return s
}

// delegateLoad: each operation delegates a program, instantiates it and
// waits for the instance's exit event on the client's own
// prefix-filtered subscription.
type delegateLoad struct {
	base
	seed     int64
	cl       [clients]*rds.Client
	hot      []prog
	hotNames [clients][]string
	cold     [clients]int
}

func (w *delegateLoad) setup(st *stack) error {
	w.st = st
	w.hot = hotProgs(w.seed)
	for c := range w.cl {
		cl, err := w.dial(c)
		if err != nil {
			return err
		}
		w.cl[c] = cl
		prefix := fmt.Sprintf("c%d-", c)
		if err := cl.Subscribe(w.ctx, prefix); err != nil {
			return err
		}
		w.hotNames[c] = make([]string, hotSet)
		for i := range w.hotNames[c] {
			w.hotNames[c][i] = fmt.Sprintf("%shot%02d", prefix, i)
		}
	}
	return nil
}

func (w *delegateLoad) op(c int, rec *recorder, trace uint64) (time.Duration, error) {
	rng, cl := w.rngs[c], w.cl[c]
	var p prog
	var name string
	if rng.Float64() < coldShare {
		w.cold[c]++
		p = randProg(rng, fmt.Sprintf("c%d-%d", c, w.cold[c]))
		name = fmt.Sprintf("c%d-cold", c)
	} else {
		i := rng.Intn(hotSet)
		p, name = w.hot[i], w.hotNames[c][i]
	}
	a := rng.Int63n(1000)
	want := strconv.FormatInt(p.eval(a)+w.skew(), 10)

	t0 := time.Now()
	root := rec.add("delegate.op", trace, -1, t0, t0)
	if err := cl.Delegate(w.ctx, name, p.src); err != nil {
		return 0, err
	}
	t1 := time.Now()
	rec.add("rds.delegate", trace, root, t0, t1)
	id, err := cl.Instantiate(w.ctx, name, "main", strconv.FormatInt(a, 10))
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	rec.add("rds.instantiate", trace, root, t1, t2)
	// An event of another instance is the late exit of an earlier
	// operation that timed out, already counted as failed: skip it.
	var ev rds.Event
	for ev.DPI != id {
		if ev, err = w.next(c, cl.Events()); err != nil {
			return 0, err
		}
	}
	t3 := time.Now()
	rec.add("rds.exit_event", trace, root, t2, t3)
	rec.end(root, t3)
	if ev.Kind != "exit" || ev.Payload != want {
		return 0, fmt.Errorf("%w: %s %s %q, want exit %q", errWrong, ev.DPI, ev.Kind, ev.Payload, want)
	}
	return t3.Sub(t0), nil
}

func (w *delegateLoad) finish() (int64, error) { return w.droppedEvents() - w.dropped0, nil }

func (w *delegateLoad) close() { closeAll(w.cl[:]) }

// ---- shared MIB generator for observe and poll ----

// agentSrc is the observe workload's resident agent: on each message it
// samples sysUpTime and the ifInOctets column and reports them, tagged.
const agentSrc = `func sample() {
	var up = mibGet("1.3.6.1.2.1.1.3.0");
	var rows = mibWalk("1.3.6.1.2.1.2.2.1.10");
	var sum = 0;
	for (var i = 0; i < len(rows); i += 1) {
		sum += rows[i][1];
	}
	return [up, sum, len(rows)];
}

func main() {
	while (true) {
		var tag = recv(-1);
		var v = sample();
		report(tag + " " + str(v[0]) + " " + str(v[1]) + " " + str(v[2]));
	}
}
`

// interfaces is the device's interface count: the ifInOctets column
// length both observe and poll read.
const interfaces = 8

// tick is the virtual time a client moves the device on after each of
// its operations, so MIB writes and change capture run beside the reads.
const tick = 10 * time.Millisecond

// reading is what the agent samples, read straight from the tree.
type reading struct {
	up, sum int64
	n       int
}

// readMIB reads the tree just before a request and again just after its
// answer. sysUpTime and every ifInOctets counter only grow under
// Device.Advance (a Counter32 at the device's load wraps after some
// 10^5 s of virtual time, far beyond a run's), so a correct answer lies
// between the two readings, whatever the other client advanced
// meanwhile.
func readMIB(t *mib.Tree) reading {
	var r reading
	if v, err := t.Get(oidSysUpTime0); err == nil {
		r.up = int64(v.Uint)
	}
	r.n = t.Walk(oidIfInOctets, func(_ oid.OID, v mib.Value) bool {
		r.sum += int64(v.Uint)
		return true
	})
	return r
}

// checkDevice fails unless the device has the interfaces both observe
// and poll expect.
func checkDevice(dev *mib.Device) error {
	if n := readMIB(dev.Tree()).n; n != interfaces {
		return fmt.Errorf("device has %d interfaces, want %d", n, interfaces)
	}
	return nil
}

// matches reports whether an answer of n rows with sysUpTime up and
// ifInOctets sum lies between readings lo and hi. skew, when 1, shifts
// the expected sum just past every correct one.
func matches(lo, hi reading, up, sum int64, n int, skew int64) bool {
	d := skew * (hi.sum - lo.sum + 1)
	return n == interfaces && lo.up <= up && up <= hi.up && lo.sum+d <= sum && sum <= hi.sum+d
}

// ---- observe ----

// residents is the number of resident agent instances in observe.
const residents = 16

// observeLoad: each operation sends a tag to one of 16 resident agents
// and waits for the agent's tagged report. Both connections subscribe
// to every event, so each report fans out to both. Like any manager
// that subscribes, each connection has a reader that takes its events as
// they arrive: it counts every report and hands each client the copies
// of its own. A client's latency ends at the copy on its own
// connection; it starts its next operation once the copy has reached
// the other subscriber too, so no subscriber falls more than one report
// per client behind.
type observeLoad struct {
	base
	cl   [clients]*rds.Client
	dpis []string
	seq  [clients]int64
	// own[c] carries the reports answering client c's requests that
	// arrived on connection c, peer[c] those that arrived on the other
	// connections.
	own  [clients]chan rds.Event
	peer [clients]chan rds.Event
	// sent[c] counts client c's requests; seen[c][o] the reports
	// connection c received for client o's requests; bad[c] the events
	// on connection c that are no tagged report.
	sent    [clients]atomic.Int64
	seen    [clients][clients]atomic.Int64
	bad     [clients]atomic.Int64
	readers sync.WaitGroup
}

func (w *observeLoad) setup(st *stack) error {
	w.st = st
	if err := checkDevice(st.dev); err != nil {
		return err
	}
	for c := range w.cl {
		cl, err := w.dial(c)
		if err != nil {
			return err
		}
		w.cl[c] = cl
		w.own[c] = make(chan rds.Event, 64)
		w.peer[c] = make(chan rds.Event, 64)
		w.readers.Add(1)
		go w.read(c, cl)
		if err := cl.Subscribe(w.ctx, ""); err != nil {
			return err
		}
	}
	if err := w.cl[0].Delegate(w.ctx, "agent", agentSrc); err != nil {
		return err
	}
	for i := 0; i < residents; i++ {
		id, err := w.cl[i%clients].Instantiate(w.ctx, "agent", "main")
		if err != nil {
			return err
		}
		w.dpis = append(w.dpis, id)
	}
	return nil
}

// read takes connection c's events until the connection closes.
func (w *observeLoad) read(c int, cl *rds.Client) {
	defer w.readers.Done()
	for ev := range cl.Events() {
		src, ok := w.source(ev.Payload)
		if ev.Kind != "report" || !ok {
			w.bad[c].Add(1)
			continue
		}
		w.seen[c][src].Add(1)
		to := w.peer[src]
		if src == c {
			to = w.own[c]
		}
		select {
		case to <- ev:
		default: // full only of reports to operations that timed out
		}
	}
}

func (w *observeLoad) op(c int, rec *recorder, trace uint64) (time.Duration, error) {
	cl := w.cl[c]
	w.seq[c]++
	// Client c uses the residents whose index has parity c.
	dpi := w.dpis[(int(w.seq[c])*clients+c)%residents]
	tag := fmt.Sprintf("c%d.%d", c, w.seq[c])

	lo := readMIB(w.st.dev.Tree())
	t0 := time.Now()
	root := rec.add("observe.op", trace, -1, t0, t0)
	err := cl.Send(w.ctx, dpi, tag)
	if err == nil {
		w.sent[c].Add(1)
	}
	t1 := time.Now()
	rec.add("rds.send", trace, root, t0, t1)
	var got string
	if err == nil {
		got, err = w.await(c, w.own[c], tag)
	}
	t2 := time.Now()
	hi := readMIB(w.st.dev.Tree())
	for i := 1; i < clients && err == nil; i++ {
		var dup string
		if dup, err = w.await(c, w.peer[c], tag); err == nil && dup != got {
			err = fmt.Errorf("%w: subscribers got %q and %q for one report", errWrong, got, dup)
		}
	}
	w.st.dev.Advance(tick)
	if err != nil {
		return 0, err
	}
	rec.add("rds.event_deliver", trace, root, t1, t2)
	rec.end(root, t2)
	if n := w.bad[c].Swap(0); n > 0 {
		return 0, fmt.Errorf("%w: %d events that are no tagged report", errWrong, n)
	}
	f := strings.Fields(got)
	if len(f) != 4 || !matches(lo, hi, atoi(f[1]), atoi(f[2]), int(atoi(f[3])), w.skew()) {
		return 0, fmt.Errorf("%w: report %q, want sysUpTime in [%d, %d], %d rows summing to [%d, %d]",
			errWrong, got, lo.up, hi.up, interfaces, lo.sum, hi.sum)
	}
	return t2.Sub(t0), nil
}

// await returns the payload of the report to tag on ch. A report to
// another tag answers an earlier operation that timed out, already
// counted as failed: it is skipped.
func (w *observeLoad) await(c int, ch <-chan rds.Event, tag string) (string, error) {
	for {
		ev, err := w.next(c, ch)
		if err != nil {
			return "", err
		}
		if strings.HasPrefix(ev.Payload, tag+" ") {
			return ev.Payload, nil
		}
	}
}

// atoi parses a reported number; -1 when it is none, which no check
// accepts.
func atoi(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// source returns which client's request a report answers.
func (w *observeLoad) source(payload string) (int, bool) {
	if len(payload) < 2 || payload[0] != 'c' {
		return 0, false
	}
	c := int(payload[1] - '0')
	return c, c < clients
}

// finish waits, at most eventWait, until every report has reached both
// subscribers, and counts those that did not as lost.
func (w *observeLoad) finish() (int64, error) {
	deadline := time.Now().Add(eventWait)
	for w.missing() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lost := w.droppedEvents() - w.dropped0 + w.missing()
	for c := range w.bad {
		lost += w.bad[c].Load()
	}
	return lost, nil
}

// missing counts the reports a subscriber has not received.
func (w *observeLoad) missing() int64 {
	n := int64(0)
	for c := range w.seen {
		for o := range w.sent {
			if d := w.sent[o].Load() - w.seen[c][o].Load(); d > 0 {
				n += d
			}
		}
	}
	return n
}

func (w *observeLoad) close() {
	closeAll(w.cl[:])
	w.readers.Wait()
}

// ---- domain ----

// Domain shape: each client is a federation child owning membersPer of
// the joined members and keysPer of the rollup keys; a sync frame
// carries deltasPer deltas.
const (
	membersPer = 8
	keysPer    = 32
	deltasPer  = 4
)

// domainLoad: each operation is one PeerSync frame of deltas from one
// of the client's members, then view queries until the federation-scoped
// view shows the client's model of the combined (Sum) values, then one
// query of the aggregate view.
type domainLoad struct {
	base
	cl      [clients]*rds.Client
	members [clients][]string
	keys    [clients][]string
	// model[c][key][member] is the latest value member reported for key.
	model [clients]map[string]map[string]int64
	seq   [clients]int
	polls [clients]atomic.Int64
	// views0 is the view engine's counters at begin. Set-up inserts
	// rollup rows while the engine rescans the table, which can tear a
	// scan and force a recompute before the measured load starts.
	views0 incr.Stats
}

func (w *domainLoad) begin(inject int64) {
	w.base.begin(inject)
	w.views0 = w.st.srv.Views().Stats()
}

func (w *domainLoad) setup(st *stack) error {
	w.st = st
	for c := range w.cl {
		cl, err := w.dial(c)
		if err != nil {
			return err
		}
		w.cl[c] = cl
		w.model[c] = map[string]map[string]int64{}
		for k := 0; k < keysPer; k++ {
			key := fmt.Sprintf("k%02d", c*keysPer+k)
			w.keys[c] = append(w.keys[c], key)
			w.model[c][key] = map[string]int64{}
		}
		for m := 0; m < membersPer; m++ {
			name := fmt.Sprintf("c%d-m%d", c, m)
			if err := cl.PeerJoin(w.ctx, name, "lan-"+name, "127.0.0.1:0"); err != nil {
				return err
			}
			w.members[c] = append(w.members[c], name)
		}
		// Seed every key so the rollup holds all of them from the start.
		batch := &rds.SyncBatch{}
		for _, key := range w.keys[c] {
			v := w.rngs[c].Int63n(1000)
			w.model[c][key][w.members[c][0]] = v
			batch.Reports = append(batch.Reports, rds.SyncReport{Key: key, Value: strconv.FormatInt(v, 10), TimeMS: time.Now().UnixMilli()})
		}
		if err := cl.PeerSync(w.ctx, w.members[c][0], batch); err != nil {
			return err
		}
	}
	return nil
}

// viewRows is the part of a ViewQuery reply the check reads.
type viewRows struct {
	Rows [][]any `json:"rows"`
}

func (w *domainLoad) op(c int, rec *recorder, trace uint64) (time.Duration, error) {
	rng, cl := w.rngs[c], w.cl[c]
	member := w.members[c][w.seq[c]%membersPer]
	w.seq[c]++
	batch := &rds.SyncBatch{Reports: make([]rds.SyncReport, 0, deltasPer)}
	for _, k := range rng.Perm(keysPer)[:deltasPer] {
		key := w.keys[c][k]
		v := rng.Int63n(1000)
		w.model[c][key][member] = v
		batch.Reports = append(batch.Reports, rds.SyncReport{Key: key, Value: strconv.FormatInt(v, 10), TimeMS: time.Now().UnixMilli()})
	}
	skew := w.skew()

	t0 := time.Now()
	root := rec.add("domain.op", trace, -1, t0, t0)
	if err := cl.PeerSync(w.ctx, member, batch); err != nil {
		return 0, err
	}
	t1 := time.Now()
	rec.add("rds.peer_sync", trace, root, t0, t1)
	deadline := t1.Add(eventWait)
	for {
		q0 := time.Now()
		js, err := cl.ViewQuery(w.ctx, "domainKeys")
		if err != nil {
			return 0, err
		}
		q1 := time.Now()
		rec.add("rds.view_query", trace, root, q0, q1)
		w.polls[c].Add(1)
		diff, err := w.compare(c, js, skew)
		if err != nil {
			return 0, err
		}
		if diff == "" {
			break
		}
		if q1.After(deadline) {
			return 0, fmt.Errorf("%w: view never matched the Sum model: %s", errWrong, diff)
		}
	}
	// The aggregate view must still count every key.
	q0 := time.Now()
	js, err := cl.ViewQuery(w.ctx, "domainSize")
	if err != nil {
		return 0, err
	}
	q1 := time.Now()
	rec.add("rds.view_query", trace, root, q0, q1)
	var v viewRows
	if err := json.Unmarshal([]byte(js), &v); err != nil {
		return 0, fmt.Errorf("decoding view: %w", err)
	}
	if len(v.Rows) != 1 || len(v.Rows[0]) != 2 || fmt.Sprint(v.Rows[0][0]) != strconv.Itoa(clients*keysPer) {
		return 0, fmt.Errorf("%w: domainSize rows %v, want %d keys", errWrong, v.Rows, clients*keysPer)
	}
	rec.end(root, q1)
	return q1.Sub(t0), nil
}

// compare checks the view rows of client c's keys against its model:
// the Sum of its members' latest values and the number of contributors.
// It returns a description of the first difference, "" when none.
func (w *domainLoad) compare(c int, js string, skew int64) (string, error) {
	var v viewRows
	if err := json.Unmarshal([]byte(js), &v); err != nil {
		return "", fmt.Errorf("decoding view: %w", err)
	}
	rows := make(map[string][]any, len(v.Rows))
	for _, r := range v.Rows {
		if len(r) == 3 {
			rows[fmt.Sprint(r[0])] = r
		}
	}
	for i, key := range w.keys[c] {
		sum := int64(0)
		for _, x := range w.model[c][key] {
			sum += x
		}
		if i == 0 {
			sum += skew
		}
		// JSON numbers decode as float64, which fmt prints as integers
		// below 1e6; a sum is at most membersPer*999.
		want := fmt.Sprintf("[%s %d %d]", key, sum, len(w.model[c][key]))
		if got := fmt.Sprint(rows[key]); got != want {
			return fmt.Sprintf("%s: got %s, want %s", key, got, want), nil
		}
	}
	return "", nil
}

// finish checks that the view engine kept up without losing a change or
// falling back to a full recompute.
func (w *domainLoad) finish() (int64, error) {
	st := w.st.srv.Views().Stats()
	return w.droppedEvents() - w.dropped0 + int64(st.ChangesLost-w.views0.ChangesLost+st.Recomputes-w.views0.Recomputes), nil
}

func (w *domainLoad) close() { closeAll(w.cl[:]) }

// ---- poll ----

// pollLoad: the centralized counterpart of observe. Each operation reads
// the same data over SNMP: a Get of sysUpTime and a Walk of the
// ifInOctets column.
type pollLoad struct {
	base
	sc  [clients]*snmp.Client
	trs [clients]*timedTripper
}

// timedTripper is a poll manager's transport: the repository's
// snmp.UDPTripper, with each request of the current operation timed and
// counted.
type timedTripper struct {
	*snmp.UDPTripper
	rec    *recorder
	trace  uint64
	parent int
	n      atomic.Int64
}

// RoundTrip implements snmp.RoundTripper.
func (t *timedTripper) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	t0 := time.Now()
	resp, err := t.UDPTripper.RoundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	t.rec.add("snmp.request", t.trace, t.parent, t0, time.Now())
	t.n.Add(1)
	return resp, nil
}

func (w *pollLoad) setup(st *stack) error {
	w.st = st
	if err := checkDevice(st.dev); err != nil {
		return err
	}
	for c := range w.sc {
		tr, err := snmp.DialUDP(st.snmpAddr)
		if err != nil {
			return err
		}
		w.trs[c] = &timedTripper{UDPTripper: tr}
		w.sc[c] = snmp.NewClient(w.trs[c], "public", snmp.WithTimeout(eventWait), snmp.WithRetries(0))
	}
	return nil
}

func (w *pollLoad) op(c int, rec *recorder, trace uint64) (time.Duration, error) {
	sc, tr := w.sc[c], w.trs[c]
	lo := readMIB(w.st.dev.Tree())
	t0 := time.Now()
	tr.rec, tr.trace = rec, trace
	tr.parent = rec.add("poll.op", trace, -1, t0, t0)
	vbs, err := sc.Get(w.ctx, oidSysUpTime0)
	var sum int64
	var n int
	if err == nil {
		n, err = sc.Walk(w.ctx, oidIfInOctets, func(vb snmp.VarBind) bool {
			sum += int64(vb.Value.Uint)
			return true
		})
	}
	t1 := time.Now()
	hi := readMIB(w.st.dev.Tree())
	w.st.dev.Advance(tick)
	if err != nil {
		return 0, err
	}
	rec.end(tr.parent, t1)
	if len(vbs) != 1 || !matches(lo, hi, int64(vbs[0].Value.Uint), sum, n, w.skew()) {
		return 0, fmt.Errorf("%w: polled %v, %d rows summing to %d; want sysUpTime in [%d, %d], %d rows summing to [%d, %d]",
			errWrong, vbs, n, sum, lo.up, hi.up, interfaces, lo.sum, hi.sum)
	}
	return t1.Sub(t0), nil
}

func (w *pollLoad) finish() (int64, error) { return 0, nil }

func (w *pollLoad) close() {
	for _, t := range w.trs {
		if t != nil {
			t.Close()
		}
	}
}
