package federation

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/rds"
)

// MemberValue is one member's latest contribution to a rollup key.
type MemberValue struct {
	Member string
	Value  string
	TimeMS int64
}

// Combiner merges the per-member latest values of one rollup key into
// a single upstream value. Values arrive sorted by member name, so a
// deterministic combiner yields a deterministic rollup.
type Combiner interface {
	// Name identifies the combiner in status documents.
	Name() string
	// Combine merges vals (never empty) into the published value.
	Combine(vals []MemberValue) string
}

// KeyState is a DeltaCombiner's materialized per-key state: whatever
// the combiner needs to fold one member delta without revisiting the
// other members. Num and Best cover the built-in combiners; Valid is
// managed by the Rollup (false forces the next change through a full
// recombine).
type KeyState struct {
	Num   float64
	Best  MemberValue
	Valid bool
}

// DeltaCombiner is the incremental capability: a combiner that can
// seed per-key state from the full contribution set once, then fold
// individual member deltas in O(1) — the property that lets a
// 10k-member tree converge without O(members) recomputation per
// report. A fold may decline (ok=false) when the delta invalidates the
// materialized state (e.g. the current max winner degrades); the
// Rollup then falls back to one full recombine and reseeds.
type DeltaCombiner interface {
	Combiner
	// Seed materializes st from vals (never empty, sorted by member)
	// and returns the combined value.
	Seed(st *KeyState, vals []MemberValue) string
	// Fold applies one member delta to st: prev/had is the member's
	// displaced contribution, next/have its new one (have=false is a
	// removal). It returns the new combined value, or ok=false when the
	// state cannot absorb this delta and a full recombine is needed.
	Fold(st *KeyState, prev MemberValue, had bool, next MemberValue, have bool) (combined string, ok bool)
}

// CombinerFunc adapts a function to the Combiner interface. It has no
// delta capability: every change recombines the full contribution set.
type CombinerFunc struct {
	Label string
	Fn    func(vals []MemberValue) string
}

// Name implements Combiner.
func (c CombinerFunc) Name() string { return c.Label }

// Combine implements Combiner.
func (c CombinerFunc) Combine(vals []MemberValue) string { return c.Fn(vals) }

// numeric parses s as a float, treating unparseable values as 0 — a
// rollup must stay total even when one member misreports.
func numeric(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

// renderNumber formats a combined numeric value: integral results print
// without a decimal point so counter rollups read like counters.
func renderNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// sumCombiner adds values numerically; folds adjust a running total.
type sumCombiner struct{}

func (sumCombiner) Name() string { return "sum" }

func (sumCombiner) Combine(vals []MemberValue) string {
	total := 0.0
	for _, v := range vals {
		total += numeric(v.Value)
	}
	return renderNumber(total)
}

func (sumCombiner) Seed(st *KeyState, vals []MemberValue) string {
	total := 0.0
	for _, v := range vals {
		total += numeric(v.Value)
	}
	st.Num = total
	return renderNumber(total)
}

func (sumCombiner) Fold(st *KeyState, prev MemberValue, had bool, next MemberValue, have bool) (string, bool) {
	if had {
		st.Num -= numeric(prev.Value)
	}
	if have {
		st.Num += numeric(next.Value)
	}
	return renderNumber(st.Num), true
}

// Sum adds the members' values numerically.
func Sum() Combiner { return sumCombiner{} }

// maxCombiner keeps the largest value; folds track the winning member
// so only a winner's degrade or departure forces a recombine.
type maxCombiner struct{}

func (maxCombiner) Name() string { return "max" }

func (maxCombiner) Combine(vals []MemberValue) string {
	best := numeric(vals[0].Value)
	for _, v := range vals[1:] {
		if f := numeric(v.Value); f > best {
			best = f
		}
	}
	return renderNumber(best)
}

func (maxCombiner) Seed(st *KeyState, vals []MemberValue) string {
	st.Best = vals[0]
	st.Num = numeric(vals[0].Value)
	for _, v := range vals[1:] {
		if f := numeric(v.Value); f > st.Num {
			st.Best, st.Num = v, f
		}
	}
	return renderNumber(st.Num)
}

func (maxCombiner) Fold(st *KeyState, prev MemberValue, had bool, next MemberValue, have bool) (string, bool) {
	if !have {
		if prev.Member == st.Best.Member {
			return "", false // the winner left: recombine
		}
		return renderNumber(st.Num), true
	}
	f := numeric(next.Value)
	if next.Member == st.Best.Member {
		if f < st.Num {
			return "", false // the winner degraded: recombine
		}
		st.Best, st.Num = next, f
	} else if f > st.Num {
		st.Best, st.Num = next, f
	}
	return renderNumber(st.Num), true
}

// Max keeps the numerically largest member value.
func Max() Combiner { return maxCombiner{} }

// latestCombiner keeps the most recent report; folds track the holder.
type latestCombiner struct{}

func (latestCombiner) Name() string { return "latest" }

func (latestCombiner) Combine(vals []MemberValue) string {
	best := vals[0]
	for _, v := range vals[1:] {
		if v.TimeMS > best.TimeMS {
			best = v
		}
	}
	return best.Value
}

func (latestCombiner) Seed(st *KeyState, vals []MemberValue) string {
	st.Best = vals[0]
	for _, v := range vals[1:] {
		if v.TimeMS > st.Best.TimeMS {
			st.Best = v
		}
	}
	return st.Best.Value
}

func (latestCombiner) Fold(st *KeyState, prev MemberValue, had bool, next MemberValue, have bool) (string, bool) {
	if !have {
		if prev.Member == st.Best.Member {
			return "", false // the holder left: recombine
		}
		return st.Best.Value, true
	}
	if next.Member == st.Best.Member {
		if next.TimeMS < st.Best.TimeMS {
			return "", false // holder's clock went backwards: recombine
		}
		st.Best = next
		return st.Best.Value, true
	}
	// Ties break on the smaller member name, matching the sorted-order
	// semantics of Combine.
	if next.TimeMS > st.Best.TimeMS || (next.TimeMS == st.Best.TimeMS && next.Member < st.Best.Member) {
		st.Best = next
	}
	return st.Best.Value, true
}

// Latest keeps the most recently reported value (ties break on member
// name, keeping the result deterministic).
func Latest() Combiner { return latestCombiner{} }

// dpCombineTimeout bounds one custom-DP combination run.
const dpCombineTimeout = 5 * time.Second

// DPCombiner merges values by delegating the combination itself: the
// DPL program source is evaluated on proc with entry(values) where
// values is an array of the members' values (each interpreted like a
// wire argument — see rds.ParseArg). The program passes the same
// static-analysis admission gate as any evaluation. Errors fall back to
// Latest semantics so a broken combiner never blanks the rollup. A DP
// combiner sees the full set on every change (no delta capability: the
// program is opaque).
func DPCombiner(proc *elastic.Process, principal, source, entry string) Combiner {
	return CombinerFunc{Label: "dp:" + entry, Fn: func(vals []MemberValue) string {
		args := &dpl.Array{}
		for _, v := range vals {
			args.Elems = append(args.Elems, rds.ParseArg(v.Value))
		}
		ctx, cancel := context.WithTimeout(context.Background(), dpCombineTimeout)
		defer cancel()
		v, err := proc.Evaluate(ctx, principal, "dpl", source, entry, args)
		if err != nil {
			return Latest().Combine(vals)
		}
		return dpl.FormatValue(v)
	}}
}

// RollupRow is one key's state in a rollup snapshot.
type RollupRow struct {
	Key          string
	Value        string
	Combiner     string
	Contributors int
	Updates      uint64
	UpdatedAt    time.Time
}

// RollupStats counts the aggregation work a rollup has done. The
// fleet-scale invariant lives in MembersVisited: with a DeltaCombiner
// it grows by 1 per folded report instead of by the contributor count,
// so work per report is O(delta), not O(members).
type RollupStats struct {
	// Reports counts Report calls.
	Reports uint64
	// Folds counts deltas absorbed incrementally (O(1) work).
	Folds uint64
	// Recombines counts full recomputations (first sight of a key,
	// declined folds, combiner swaps).
	Recombines uint64
	// MembersVisited totals contributions examined across folds and
	// recombines.
	MembersVisited uint64
}

// rollupKey holds one key's per-member latest values, its combined
// result, and the combiner's materialized delta state.
type rollupKey struct {
	name      string
	vals      map[string]MemberValue
	state     KeyState
	combined  string
	updates   uint64
	updatedAt time.Time
}

// Rollup is a domain root's aggregation point: the latest value each
// member reported per key, merged by that key's combiner. Because each
// member holds exactly one slot per key, a member that re-joins after a
// crash replaces its old contribution instead of double-counting, and a
// member declared dead is dropped so the rollup converges back to the
// live membership.
//
// Keys are also kept in a sorted slice, so the rollup table's row i
// (1-based) is sorted[i-1] and cells are served by position without a
// snapshot or a sort.
type Rollup struct {
	mu        sync.Mutex
	def       Combiner
	combiners map[string]Combiner
	keys      map[string]*rollupKey
	sorted    []*rollupKey // ascending by name
	stats     RollupStats

	// hub and entry are the Watch target; changes are published under
	// mu, so a subscriber's queue order is the mutation order.
	hub   *mib.ChangeHub
	entry oid.OID
}

// NewRollup returns a rollup whose keys default to def (nil = Latest).
func NewRollup(def Combiner) *Rollup {
	if def == nil {
		def = Latest()
	}
	return &Rollup{
		def:       def,
		combiners: make(map[string]Combiner),
		keys:      make(map[string]*rollupKey),
	}
}

// SetCombiner installs c for key (nil restores the default).
func (r *Rollup) SetCombiner(key string, c Combiner) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c == nil {
		delete(r.combiners, key)
	} else {
		r.combiners[key] = c
	}
	if k, ok := r.keys[key]; ok {
		if next := r.combineLocked(key, k); next != k.combined {
			k.combined = next
			r.publishLocked(r.posLocked(key))
		}
	}
}

func (r *Rollup) combinerFor(key string) Combiner {
	if c, ok := r.combiners[key]; ok {
		return c
	}
	return r.def
}

// combineLocked recomputes a key's merged value from its current
// contributions and reseeds the delta state (caller holds r.mu).
func (r *Rollup) combineLocked(key string, k *rollupKey) string {
	vals := make([]MemberValue, 0, len(k.vals))
	for _, v := range k.vals {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Member < vals[j].Member })
	r.stats.Recombines++
	r.stats.MembersVisited += uint64(len(vals))
	c := r.combinerFor(key)
	k.state = KeyState{}
	if dc, ok := c.(DeltaCombiner); ok {
		combined := dc.Seed(&k.state, vals)
		k.state.Valid = true
		return combined
	}
	return c.Combine(vals)
}

// foldLocked tries to absorb one member delta incrementally, falling
// back to a full recombine when the combiner has no delta capability or
// declines the fold (caller holds r.mu; k.vals already reflects the
// delta).
func (r *Rollup) foldLocked(key string, k *rollupKey, prev MemberValue, had bool, next MemberValue, have bool) string {
	if k.state.Valid {
		if dc, ok := r.combinerFor(key).(DeltaCombiner); ok {
			if combined, ok := dc.Fold(&k.state, prev, had, next, have); ok {
				r.stats.Folds++
				r.stats.MembersVisited++
				return combined
			}
		}
	}
	return r.combineLocked(key, k)
}

// Watch registers the change hub and the rollup table's entry prefix
// under which row changes are published, in the idiom of
// mib.MemRows.Watch: one target, replaced by a later Watch (a nil hub
// stops publishing). A change to an
// existing key's row is one ChangeRow at its 1-based position; a key
// insert or delete shifts positions and is one ChangeReset.
func (r *Rollup) Watch(hub *mib.ChangeHub, table oid.OID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hub, r.entry = hub, table.Clone()
}

// publishLocked reports a change to the row at 0-based position pos,
// or with pos < 0 that rows were renumbered. Caller holds r.mu:
// publishing under the lock makes every subscriber's queue order equal
// the mutation order, so a consumer re-reading rows in queue order
// converges on the table.
func (r *Rollup) publishLocked(pos int) {
	if r.hub == nil || !r.hub.Active() {
		return
	}
	c := mib.Change{Kind: mib.ChangeReset, Table: r.entry}
	if pos >= 0 {
		c.Kind, c.Index = mib.ChangeRow, oid.OID{uint32(pos + 1)}
	}
	r.hub.Publish(c)
}

// posLocked returns key's 0-based position in r.sorted, or where it
// would be inserted.
func (r *Rollup) posLocked(key string) int {
	return sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].name >= key })
}

// Report merges one member report and returns the key's combined value
// with whether it changed. The key's table row is published whenever
// any of its cells moves — the value, or the contributor count when a
// new member reports a value that leaves the combination unchanged.
func (r *Rollup) Report(member, key, value string, timeMS int64) (combined string, changed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Reports++
	k, ok := r.keys[key]
	if !ok {
		k = &rollupKey{name: key, vals: make(map[string]MemberValue)}
		r.keys[key] = k
		r.sorted = slices.Insert(r.sorted, r.posLocked(key), k)
	}
	prev, had := k.vals[member]
	nv := MemberValue{Member: member, Value: value, TimeMS: timeMS}
	k.vals[member] = nv
	var next string
	if !ok {
		next = r.combineLocked(key, k)
	} else {
		next = r.foldLocked(key, k, prev, had, nv, true)
	}
	changed = !ok || next != k.combined
	k.combined = next
	if changed {
		k.updates++
		k.updatedAt = time.Now()
	}
	switch {
	case !ok:
		r.publishLocked(-1)
	case changed || !had:
		r.publishLocked(r.posLocked(key))
	}
	return next, changed
}

// KeyUpdate describes one key whose combined value changed outside a
// Report — currently only when a dead member's contributions drop out.
type KeyUpdate struct {
	Key   string
	Value string
	// Removed marks a key left with no contributors at all.
	Removed bool
}

// DropMember removes every contribution by member — called when the
// failure detector declares it dead — and returns the keys whose
// combined values changed so the node can re-publish them.
func (r *Rollup) DropMember(member string) []KeyUpdate {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []KeyUpdate
	var touched []int // new 0-based positions of rows that lost a contributor
	shifted := false  // a key lost its last contributor: rows renumber
	kept := r.sorted[:0]
	for _, k := range r.sorted {
		prev, ok := k.vals[member]
		if !ok {
			kept = append(kept, k)
			continue
		}
		delete(k.vals, member)
		if len(k.vals) == 0 {
			delete(r.keys, k.name)
			shifted = true
			out = append(out, KeyUpdate{Key: k.name, Removed: true})
			continue
		}
		touched = append(touched, len(kept))
		kept = append(kept, k)
		next := r.foldLocked(k.name, k, prev, true, MemberValue{}, false)
		if next != k.combined {
			k.combined = next
			k.updates++
			k.updatedAt = time.Now()
			out = append(out, KeyUpdate{Key: k.name, Value: next})
		}
	}
	clear(r.sorted[len(kept):])
	r.sorted = kept
	if shifted {
		r.publishLocked(-1)
		return out
	}
	for _, pos := range touched {
		r.publishLocked(pos)
	}
	return out
}

// Stats snapshots the aggregation-work counters.
func (r *Rollup) Stats() RollupStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Rows snapshots the rollup sorted by key.
func (r *Rollup) Rows() []RollupRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RollupRow, len(r.sorted))
	for i, k := range r.sorted {
		out[i] = r.rowLocked(k)
	}
	return out
}

// rowLocked renders one key as a RollupRow (caller holds r.mu).
func (r *Rollup) rowLocked(k *rollupKey) RollupRow {
	return RollupRow{
		Key:          k.name,
		Value:        k.combined,
		Combiner:     r.combinerFor(k.name).Name(),
		Contributors: len(k.vals),
		Updates:      k.updates,
		UpdatedAt:    k.updatedAt,
	}
}

// Value returns the combined value for key, if present.
func (r *Rollup) Value(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.keys[key]
	if !ok {
		return "", false
	}
	return k.combined, true
}

// String renders a short rollup summary for logs.
func (r *Rollup) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("rollup(%d keys)", len(r.sorted))
}
