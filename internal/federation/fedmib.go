package federation

import (
	"mbd/internal/mib"
	"mbd/internal/obs/obsmib"
	"mbd/internal/oid"
	"mbd/internal/rds"
)

// OIDFederation is the default mount point for the federation subtree,
// a sibling of the MCVA view arc (…1) and the self-stats arc (…2).
var OIDFederation = oid.MustParse("1.3.6.1.4.1.424242.3")

// The subtree holds three tables, walked in order:
//
//	<prefix>.1.<col>.<i>  members  (rows: members sorted by name)
//	  col 1 fedMemberName    OCTET STRING
//	  col 2 fedMemberState   OCTET STRING  (alive|suspect|dead)
//	  col 3 fedMemberAge     TimeTicks     (hundredths since join)
//	  col 4 fedMemberReports Counter64
//	<prefix>.2.<col>.<i>  rollup   (rows: keys sorted)
//	  col 1 fedRollupKey     OCTET STRING
//	  col 2 fedRollupValue   OCTET STRING  (combined value)
//	  col 3 fedRollupMembers Gauge32       (contributors)
//	  col 4 fedRollupUpdates Counter64
//	<prefix>.3.<col>.<i>  bundles  (rows: lineages sorted)
//	  col 1 fedBundleLineage OCTET STRING
//	  col 2 fedBundleActive  OCTET STRING  (active hash, "" if none)
//	  col 3 fedBundleVersion Gauge32       (active publisher version)
//	  col 4 fedBundleStaged  Gauge32       (staged version count)
//
// Like the self-stats subtree, row indexes are 1-based positions in the
// current sorted snapshot; the name/key column makes walks
// self-describing even as membership changes renumber rows.
const (
	tableMembers = 1
	tableRollup  = 2
	tableBundles = 3

	memberCols = 4
	rollupCols = 4
	bundleCols = 4
)

// Handler serves a Node as a MIB subtree. Create with NewHandler; mount
// with mib.Tree.Mount (or the Mount convenience). Each operation reads
// only the tables it touches; the rollup arc is a RollupHandler.
type Handler struct {
	node   *Node
	rollup RollupHandler
}

// NewHandler returns a handler over node.
func NewHandler(node *Node) *Handler {
	return &Handler{node: node, rollup: RollupHandler{r: node.rollup}}
}

// Mount attaches node's federation tables under prefix in tree and has
// the rollup publish its row changes into the tree's change hub, so
// federation-scoped views refresh incrementally as reports arrive.
func Mount(tree *mib.Tree, node *Node, prefix oid.OID) error {
	if err := tree.Mount(prefix, NewHandler(node)); err != nil {
		return err
	}
	node.rollup.Watch(tree.Changes(), append(prefix.Clone(), tableRollup))
	return nil
}

// MountRollup mounts a bare Rollup's table under prefix — the
// manager-side mount when no Node exists (a harness or top-level
// manager aggregating reports directly) — and has it publish its row
// changes into the tree's hub. The subtree shape matches a full
// federation mount: only the rollup table (<prefix>.2) is populated.
func MountRollup(tree *mib.Tree, r *Rollup, prefix oid.OID) error {
	if err := tree.Mount(prefix, &RollupHandler{r: r}); err != nil {
		return err
	}
	r.Watch(tree.Changes(), append(prefix.Clone(), tableRollup))
	return nil
}

// RollupHandler serves a Rollup as the federation rollup table. Gets
// and GetNexts read one cell by position under the rollup lock; a walk
// reads one locked snapshot, so it never sees a half-inserted key.
type RollupHandler struct{ r *Rollup }

// GetRel implements mib.Handler. rel is <table>.<col>.<idx> with table
// fixed at the rollup arc.
func (h *RollupHandler) GetRel(rel oid.OID) (mib.Value, bool) {
	if len(rel) != 3 || rel[0] != tableRollup {
		return mib.Value{}, false
	}
	return h.r.Cell(rel[1], rel[2])
}

// NextRel implements mib.Handler.
func (h *RollupHandler) NextRel(rel oid.OID) (oid.OID, mib.Value, bool) {
	return h.AppendNextRel(nil, rel)
}

// AppendNextRel implements mib.AppendNexter.
func (h *RollupHandler) AppendNextRel(dst oid.OID, rel oid.OID) (oid.OID, mib.Value, bool) {
	if table, sub := splitRel(rel, tableRollup, tableRollup); table != 0 {
		return h.appendNext(dst, sub)
	}
	return nil, mib.Value{}, false
}

// appendNext appends the first rollup cell strictly after sub (relative
// to the table arc) to dst.
func (h *RollupHandler) appendNext(dst, sub oid.OID) (oid.OID, mib.Value, bool) {
	r := h.r
	r.mu.Lock()
	defer r.mu.Unlock()
	col, idx := obsmib.NextCell(sub, rollupCols, len(r.sorted))
	if col == 0 {
		return nil, mib.Value{}, false
	}
	v, ok := rollupCell(r.rowLocked(r.sorted[idx-1]), col)
	return append(dst, tableRollup, col, idx), v, ok
}

// NextRelN implements mib.BulkHandler.
func (h *RollupHandler) NextRelN(rel oid.OID, max int, visit func(rel oid.OID, v mib.Value) bool) int {
	w := &walker{visit: visit, max: max}
	if table, sub := splitRel(rel, tableRollup, tableRollup); table != 0 {
		walkRows(w, tableRollup, sub, rollupCols, h.r.Rows(), rollupCell)
	}
	return w.n
}

// Cell returns the rollup-table value at column col of 1-based row idx.
func (r *Rollup) Cell(col, idx uint32) (mib.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx < 1 || int(idx) > len(r.sorted) {
		return mib.Value{}, false
	}
	return rollupCell(r.rowLocked(r.sorted[idx-1]), col)
}

// splitRel returns the table in [first, last] that the successor of rel
// lies in, with rel's remainder within that table; table 0 means rel
// lies past the last table.
func splitRel(rel oid.OID, first, last uint32) (uint32, oid.OID) {
	switch {
	case len(rel) == 0 || rel[0] < first:
		return first, nil
	case rel[0] > last:
		return 0, nil
	}
	return rel[0], rel[1:]
}

// cellAt returns column col of 1-based row idx of rows.
func cellAt[R any](rows []R, cell func(R, uint32) (mib.Value, bool), col, idx uint32) (mib.Value, bool) {
	if idx < 1 || int(idx) > len(rows) {
		return mib.Value{}, false
	}
	return cell(rows[idx-1], col)
}

// nextAt appends the first cell of a table snapshot strictly after sub
// (relative to the table arc) to dst.
func nextAt[R any](dst oid.OID, table uint32, sub oid.OID, cols int, rows []R, cell func(R, uint32) (mib.Value, bool)) (oid.OID, mib.Value, bool) {
	col, idx := obsmib.NextCell(sub, cols, len(rows))
	if col == 0 {
		return nil, mib.Value{}, false
	}
	v, ok := cell(rows[idx-1], col)
	return append(dst, table, col, idx), v, ok
}

// walker carries one bulk walk across table snapshots: the visit
// callback, the instance budget (max <= 0 means none) and the count.
type walker struct {
	visit    func(oid.OID, mib.Value) bool
	max, n   int
	finished bool // visit declined or the budget is spent
}

// walkRows visits the cells of one table snapshot strictly after sub
// (relative to the table arc) in column-major order.
func walkRows[R any](w *walker, table uint32, sub oid.OID, cols int, rows []R, cell func(R, uint32) (mib.Value, bool)) {
	rel := oid.OID{table, 0, 0}
	for col, idx := obsmib.NextCell(sub, cols, len(rows)); col != 0 && !w.finished; col, idx = obsmib.NextCell(rel[1:], cols, len(rows)) {
		rel[1], rel[2] = col, idx
		v, _ := cell(rows[idx-1], col)
		w.n++
		w.finished = !w.visit(rel, v) || w.n == w.max
	}
}

// memberCell returns column col of a members-table row.
func memberCell(m MemberStatus, col uint32) (mib.Value, bool) {
	switch col {
	case 1:
		return mib.Str(m.Name), true
	case 2:
		return mib.Str(m.State), true
	case 3:
		return mib.TimeTicks(uint64(m.AgeMS / 10)), true
	case 4:
		return mib.Counter64(m.Reports), true
	}
	return mib.Value{}, false
}

// rollupCell returns column col of a rollup-table row.
func rollupCell(r RollupRow, col uint32) (mib.Value, bool) {
	switch col {
	case 1:
		return mib.Str(r.Key), true
	case 2:
		return mib.Str(r.Value), true
	case 3:
		return mib.Gauge32(uint64(r.Contributors)), true
	case 4:
		return mib.Counter64(r.Updates), true
	}
	return mib.Value{}, false
}

// bundleCell returns column col of a bundles-table row.
func bundleCell(b rds.BundleStatus, col uint32) (mib.Value, bool) {
	switch col {
	case 1:
		return mib.Str(b.Lineage), true
	case 2:
		return mib.Str(b.Hash), true
	case 3:
		return mib.Gauge32(b.Version), true
	case 4:
		return mib.Gauge32(b.Staged), true
	}
	return mib.Value{}, false
}

// GetRel implements mib.Handler. rel is <table>.<col>.<idx>.
func (h *Handler) GetRel(rel oid.OID) (mib.Value, bool) {
	if len(rel) != 3 {
		return mib.Value{}, false
	}
	switch rel[0] {
	case tableMembers:
		return cellAt(h.node.MembersSnapshot(), memberCell, rel[1], rel[2])
	case tableRollup:
		return h.rollup.GetRel(rel)
	case tableBundles:
		return cellAt(h.node.BundleStatuses(), bundleCell, rel[1], rel[2])
	}
	return mib.Value{}, false
}

// NextRel implements mib.Handler.
func (h *Handler) NextRel(rel oid.OID) (oid.OID, mib.Value, bool) {
	return h.AppendNextRel(nil, rel)
}

// AppendNextRel implements mib.AppendNexter. Tables walk in order,
// each column-major via obsmib.NextCell; an exhausted (or empty) table
// falls into the next one from its start.
func (h *Handler) AppendNextRel(dst oid.OID, rel oid.OID) (oid.OID, mib.Value, bool) {
	table, sub := splitRel(rel, tableMembers, tableBundles)
	if table == tableMembers {
		if out, v, ok := nextAt(dst, tableMembers, sub, memberCols, h.node.MembersSnapshot(), memberCell); ok {
			return out, v, true
		}
		table, sub = tableRollup, nil
	}
	if table == tableRollup {
		if out, v, ok := h.rollup.appendNext(dst, sub); ok {
			return out, v, true
		}
		table, sub = tableBundles, nil
	}
	if table == tableBundles {
		return nextAt(dst, tableBundles, sub, bundleCols, h.node.BundleStatuses(), bundleCell)
	}
	return nil, mib.Value{}, false
}

// NextRelN implements mib.BulkHandler: one snapshot per table walked,
// taken only when the walk reaches that table.
func (h *Handler) NextRelN(rel oid.OID, max int, visit func(rel oid.OID, v mib.Value) bool) int {
	table, sub := splitRel(rel, tableMembers, tableBundles)
	w := &walker{visit: visit, max: max, finished: table == 0}
	if table == tableMembers && !w.finished {
		walkRows(w, tableMembers, sub, memberCols, h.node.MembersSnapshot(), memberCell)
		table, sub = tableRollup, nil
	}
	if table == tableRollup && !w.finished {
		walkRows(w, tableRollup, sub, rollupCols, h.node.rollup.Rows(), rollupCell)
		table, sub = tableBundles, nil
	}
	if table == tableBundles && !w.finished {
		walkRows(w, tableBundles, sub, bundleCols, h.node.BundleStatuses(), bundleCell)
	}
	return w.n
}
