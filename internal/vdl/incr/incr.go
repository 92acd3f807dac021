// Package incr maintains VDL views incrementally. Where the MCVA
// re-evaluates a view's full table scan on every query, the IncrMCVA
// subscribes to the tree's change-capture hub, mirrors each base table
// once, and folds every MIB write into the affected views with
// O(delta) work: selections re-check one row, joins consult per-key
// index maps, and aggregates add/retract with decline-and-recombine
// for the non-invertible cases (min/max retractions, float sums).
// Results are byte-identical to a from-scratch Eval; on subscription
// overflow, evaluation errors, or self-join changes the engine falls
// back to a full recompute, counted in vdl_view_recomputes_total.
package incr

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"mbd/internal/mib"
	"mbd/internal/obs"
	"mbd/internal/oid"
	"mbd/internal/vdl"
)

// Config parameterizes an IncrMCVA.
type Config struct {
	Tree   *mib.Tree
	Schema *vdl.Schema
	// QueueDepth bounds the change subscription (default 4096); on
	// overflow the oldest deltas are dropped and the engine resyncs by
	// rescanning every mirror.
	QueueDepth int
	// Obs, when set, registers vdl_deltas_folded_total,
	// vdl_view_recomputes_total and vdl_changes_lost_total.
	Obs *obs.Registry
}

// IncrMCVA is the incremental MIB Computations-of-Views Agent.
type IncrMCVA struct {
	tree *mib.Tree
	ev   *vdl.Evaluator
	sub  *mib.ChangeSub

	mu       sync.Mutex
	schema   *vdl.Schema
	tables   map[string]*baseTable // by table name
	byEntry  map[string][]*baseTable
	views    map[string]*matview
	order    []string
	lostSeen uint64

	folded     atomic.Uint64
	recomputes atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// New builds an IncrMCVA and subscribes it to the tree's change hub.
func New(cfg Config) *IncrMCVA {
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4096
	}
	a := &IncrMCVA{
		tree:    cfg.Tree,
		ev:      vdl.NewEvaluator(cfg.Tree, cfg.Schema),
		sub:     cfg.Tree.Changes().Subscribe(depth),
		schema:  cfg.Schema,
		tables:  make(map[string]*baseTable),
		byEntry: make(map[string][]*baseTable),
		views:   make(map[string]*matview),
	}
	if cfg.Obs != nil {
		cfg.Obs.FuncCounter("vdl_deltas_folded_total",
			"MIB change deltas folded into incrementally-maintained views.", a.folded.Load)
		cfg.Obs.FuncCounter("vdl_view_recomputes_total",
			"Full view recomputes forced by overflow, errors or schema changes.", a.recomputes.Load)
		cfg.Obs.FuncCounter("vdl_changes_lost_total",
			"Change events dropped by the bounded subscription queue.", a.sub.Lost)
	}
	return a
}

// Close detaches the engine from the change hub. Stop any Start()ed
// pump first.
func (a *IncrMCVA) Close() {
	a.Stop()
	a.sub.Close()
}

// Define parses, installs and eagerly materializes a view, replacing
// any previous view of the same name.
func (a *IncrMCVA) Define(src string) (*vdl.ViewDef, error) {
	v, err := vdl.Parse(src)
	if err != nil {
		return nil, err
	}
	return v, a.install(v)
}

// DefineAll installs every view in a multi-view VDL document.
func (a *IncrMCVA) DefineAll(src string) ([]*vdl.ViewDef, error) {
	defs, err := vdl.ParseAll(src)
	if err != nil {
		return nil, err
	}
	for _, v := range defs {
		if err := a.install(v); err != nil {
			return nil, fmt.Errorf("view %s: %w", v.Name, err)
		}
	}
	return defs, nil
}

func (a *IncrMCVA) install(v *vdl.ViewDef) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pumpLocked()
	left, err := a.ensureTableLocked(v.From.Table)
	if err != nil {
		return err
	}
	var right *baseTable
	if v.Join != nil {
		if right, err = a.ensureTableLocked(v.Join.Right.Table); err != nil {
			return err
		}
	}
	mv := newMatview(v, left, right)
	if err := mv.rebuild(); err != nil {
		return err
	}
	if old := a.views[v.Name]; old != nil {
		a.dropUsesLocked(old)
	} else {
		a.order = append(a.order, v.Name)
	}
	a.views[v.Name] = mv
	if mv.selfJoin {
		left.views = append(left.views, &tableUse{mv: mv, side: -1})
	} else {
		left.views = append(left.views, &tableUse{mv: mv, side: 0})
		if right != nil {
			right.views = append(right.views, &tableUse{mv: mv, side: 1})
		}
	}
	return nil
}

// Views lists installed view names in definition order.
func (a *IncrMCVA) Views() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.order))
	copy(out, a.order)
	return out
}

// Query folds any pending deltas and returns the named view's current
// result. Broken views are repaired by a counted full recompute. The
// returned Result is shared and must not be mutated.
func (a *IncrMCVA) Query(name string) (*vdl.Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pumpLocked()
	return a.queryLocked(name)
}

func (a *IncrMCVA) queryLocked(name string) (*vdl.Result, error) {
	mv, ok := a.views[name]
	if !ok {
		return nil, fmt.Errorf("vdl: no view %q", name)
	}
	if mv.broken || mv.needRebuild {
		a.recomputes.Add(1)
		mv.recomputes++
		if err := mv.rebuild(); err != nil {
			return nil, err
		}
	}
	return mv.result()
}

// Pump drains pending change events into the maintained views,
// returning how many row deltas were folded.
func (a *IncrMCVA) Pump() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pumpLocked()
}

func (a *IncrMCVA) pumpLocked() int {
	if lost := a.sub.Lost(); lost != a.lostSeen {
		a.lostSeen = lost
		for {
			if _, ok := a.sub.Next(); !ok {
				break
			}
		}
		a.resyncLocked()
		return 0
	}
	n := 0
	for {
		c, ok := a.sub.Next()
		if !ok {
			return n
		}
		n += a.applyLocked(c)
	}
}

// resyncLocked rescans every mirror and schedules every view for a
// full recompute — the overflow fallback.
func (a *IncrMCVA) resyncLocked() {
	for _, t := range a.tables {
		t.rows = t.scan(a.tree)
		t.orderCache = nil
	}
	for _, mv := range a.views {
		if !mv.broken && !mv.needRebuild {
			mv.needRebuild = true
		}
		mv.cached = nil
	}
}

// applyLocked folds one change event into every table mirroring its
// entry, returning the number of row deltas it produced.
func (a *IncrMCVA) applyLocked(c mib.Change) int {
	tabs := a.byEntry[c.Table.String()]
	if len(tabs) == 0 {
		return 0
	}
	n := 0
	for _, t := range tabs {
		if c.Kind == mib.ChangeReset || len(c.Index) == 0 {
			n += a.diffTableLocked(t)
		} else {
			n += a.refreshRowLocked(t, c.Index)
		}
	}
	return n
}

// refreshRowLocked re-reads one row from the tree and, if it differs
// from the mirror, dispatches the delta to every dependent view.
func (a *IncrMCVA) refreshRowLocked(t *baseTable, index oid.OID) int {
	key := index.String()
	old := t.rows[key]
	cur := t.readRow(a.tree, index)
	if old == nil && cur == nil {
		return 0
	}
	if old != nil && cur != nil && sameCells(old, cur) {
		return 0
	}
	a.applyRowLocked(t, key, old, cur)
	return 1
}

func (a *IncrMCVA) applyRowLocked(t *baseTable, key string, old, cur *brow) {
	if cur != nil {
		t.rows[key] = cur
	} else {
		delete(t.rows, key)
	}
	if old == nil || cur == nil || !sameColumns(old, cur) {
		t.orderCache = nil
	}
	for _, use := range t.views {
		use.mv.cached = nil
		use.mv.rowDelta(use.side, old, cur)
	}
	a.folded.Add(1)
}

// diffTableLocked rescans a whole table (ChangeReset events — e.g. the
// federation rollup, whose 1-based row positions shift when a key is
// inserted or deleted) and folds the per-row differences.
func (a *IncrMCVA) diffTableLocked(t *baseTable) int {
	fresh := t.scan(a.tree)
	type rowChange struct {
		key      string
		old, cur *brow
	}
	var changes []rowChange
	for key, old := range t.rows {
		cur := fresh[key]
		if cur == nil || !sameCells(old, cur) {
			changes = append(changes, rowChange{key, old, cur})
		}
	}
	for key, cur := range fresh {
		if t.rows[key] == nil {
			changes = append(changes, rowChange{key, nil, cur})
		}
	}
	for _, ch := range changes {
		a.applyRowLocked(t, ch.key, ch.old, ch.cur)
	}
	return len(changes)
}

// ensureTableLocked returns the mirror for a schema table, scanning it
// on first use.
func (a *IncrMCVA) ensureTableLocked(name string) (*baseTable, error) {
	if t, ok := a.tables[name]; ok {
		return t, nil
	}
	ts, ok := a.schema.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("vdl: unknown table %q", name)
	}
	t := newBaseTable(ts)
	t.rows = t.scan(a.tree)
	a.tables[name] = t
	a.byEntry[ts.Entry.String()] = append(a.byEntry[ts.Entry.String()], t)
	return t, nil
}

// dropUsesLocked unlinks a replaced view from its table mirrors.
func (a *IncrMCVA) dropUsesLocked(mv *matview) {
	for _, t := range a.tables {
		kept := t.views[:0]
		for _, use := range t.views {
			if use.mv != mv {
				kept = append(kept, use)
			}
		}
		t.views = kept
	}
}

// Start launches a background pump that folds deltas as they arrive,
// keeping views continuously materialized between queries.
func (a *IncrMCVA) Start() {
	a.mu.Lock()
	if a.stop != nil {
		a.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	a.stop, a.done = stop, done
	a.mu.Unlock()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-a.sub.Wake():
				// Changes are popped only under a.mu, so a concurrent
				// Query either folds them itself or waits for this pump.
				a.mu.Lock()
				a.pumpLocked()
				a.mu.Unlock()
			}
		}
	}()
}

// Stop halts the background pump (if running).
func (a *IncrMCVA) Stop() {
	a.mu.Lock()
	stop, done := a.stop, a.done
	a.stop, a.done = nil, nil
	a.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Stats reports the engine's maintenance counters.
type Stats struct {
	Views        int    `json:"views"`
	DeltasFolded uint64 `json:"deltas_folded"`
	Recomputes   uint64 `json:"recomputes"`
	ChangesLost  uint64 `json:"changes_lost"`
}

// Stats returns current counters.
func (a *IncrMCVA) Stats() Stats {
	a.mu.Lock()
	n := len(a.views)
	a.mu.Unlock()
	return Stats{
		Views:        n,
		DeltasFolded: a.folded.Load(),
		Recomputes:   a.recomputes.Load(),
		ChangesLost:  a.sub.Lost(),
	}
}

// ViewStatus describes one maintained view for management clients.
type ViewStatus struct {
	Name       string   `json:"name"`
	Columns    []string `json:"columns"`
	Rows       int      `json:"rows"`
	BaseRows   int      `json:"base_rows"`
	Recomputes uint64   `json:"recomputes"`
	Error      string   `json:"error,omitempty"`
	Source     string   `json:"source,omitempty"`
}

// Status reports every maintained view after folding pending deltas.
func (a *IncrMCVA) Status() []ViewStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pumpLocked()
	out := make([]ViewStatus, 0, len(a.order))
	for _, name := range a.order {
		mv := a.views[name]
		st := ViewStatus{Name: name, Recomputes: mv.recomputes, Source: mv.def.Source}
		for _, s := range mv.def.Select {
			st.Columns = append(st.Columns, s.Name)
		}
		if res, err := a.queryLocked(name); err != nil {
			st.Error = err.Error()
		} else {
			st.Rows = len(res.Rows)
			st.BaseRows = res.BaseRows
			st.Recomputes = mv.recomputes
		}
		out = append(out, st)
	}
	return out
}

// StatusJSON renders engine status for the RDS view op.
func (a *IncrMCVA) StatusJSON() ([]byte, error) {
	type payload struct {
		Views []ViewStatus `json:"views"`
		Stats Stats        `json:"stats"`
	}
	return json.Marshal(payload{Views: a.Status(), Stats: a.Stats()})
}

// DefineJSON installs a view from VDL source and renders its
// definition for the RDS view op.
func (a *IncrMCVA) DefineJSON(src string) ([]byte, error) {
	v, err := a.Define(src)
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, len(v.Select))
	for _, s := range v.Select {
		cols = append(cols, s.Name)
	}
	type payload struct {
		Name    string   `json:"name"`
		Columns []string `json:"columns"`
	}
	return json.Marshal(payload{Name: v.Name, Columns: cols})
}

// QueryJSON renders one view's current rows for the RDS view op.
func (a *IncrMCVA) QueryJSON(name string) ([]byte, error) {
	res, err := a.Query(name)
	if err != nil {
		return nil, err
	}
	type payload struct {
		View     string   `json:"view"`
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
		BaseRows int      `json:"base_rows"`
	}
	p := payload{View: res.View, Columns: res.Columns, BaseRows: res.BaseRows, Rows: make([][]any, 0, len(res.Rows))}
	for _, r := range res.Rows {
		cells := make([]any, len(r.Cells))
		copy(cells, r.Cells)
		p.Rows = append(p.Rows, cells)
	}
	return json.Marshal(p)
}
