package federation

import (
	"fmt"
	"reflect"
	"testing"

	"mbd/internal/mib"
	"mbd/internal/vdl"
	"mbd/internal/vdl/incr"
)

// TestFedRollupOIDAligned keeps vdl's duplicated rollup-entry OID (vdl
// must not import federation) in sync with the actual mount layout.
func TestFedRollupOIDAligned(t *testing.T) {
	want := append(OIDFederation.Clone(), tableRollup)
	if !vdl.OIDFedRollup.Equal(want) {
		t.Fatalf("vdl.OIDFedRollup = %v, federation rollup entry = %v", vdl.OIDFedRollup, want)
	}
}

// TestRollupOnChange checks the rollup publishes into a watched hub on
// accepted changes only: one row event at the key's 1-based position
// when a row's cells move, one reset when a key insert or delete
// renumbers rows.
func TestRollupOnChange(t *testing.T) {
	var hub mib.ChangeHub
	sub := hub.Subscribe(64)
	defer sub.Close()
	entry := append(OIDFederation.Clone(), tableRollup)
	r := NewRollup(Sum())
	r.Watch(&hub, entry)
	expect := func(what string, want ...string) {
		t.Helper()
		var got []string
		for {
			c, ok := sub.Next()
			if !ok {
				break
			}
			if !c.Table.Equal(entry) {
				t.Fatalf("%s: change under %v, want %v", what, c.Table, entry)
			}
			got = append(got, c.Kind.String()+c.Index.String())
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: changes %v, want %v", what, got, want)
		}
	}
	r.Report("a", "conns", "3", 1)
	expect("first report", "reset")
	r.Report("a", "conns", "3", 2) // same combined value: no change
	expect("no-op report")
	r.Report("b", "conns", "2", 3)
	expect("second member", "row1")
	r.Report("a", "alpha", "1", 4) // sorts before conns
	expect("new key", "reset")
	if upd := r.DropMember("b"); len(upd) != 1 {
		t.Fatalf("drop upd=%v", upd)
	}
	expect("drop", "row2")
	if upd := r.DropMember("nobody"); len(upd) != 0 {
		t.Fatalf("vacuous drop upd=%v", upd)
	}
	expect("vacuous drop")
	r.SetCombiner("conns", Max()) // single contributor: value unchanged
	expect("no-op combiner swap")
	r.DropMember("a")
	expect("last member", "reset")
}

// TestRollupNewContributorSameValue: a second member whose report
// leaves the Sum unchanged still changes the row's contributor count,
// and a maintained view must show it.
func TestRollupNewContributorSameValue(t *testing.T) {
	tree := &mib.Tree{}
	r := NewRollup(Sum())
	if err := MountRollup(tree, r, OIDFederation); err != nil {
		t.Fatal(err)
	}
	a := incr.New(incr.Config{Tree: tree, Schema: vdl.MIB2().AddFederation()})
	defer a.Close()
	if _, err := a.Define(`view keys {
  from fedRollupTable;
  select fedRollupKey, fedRollupValue, fedRollupMembers;
}`); err != nil {
		t.Fatal(err)
	}
	expect := func(want string) {
		t.Helper()
		res, err := a.Query("keys")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0].Cells) != want {
			t.Fatalf("view rows %+v, want %s", res.Rows, want)
		}
	}
	r.Report("a", "load", "5", 1)
	expect("[load 5 1]")
	if _, changed := r.Report("b", "load", "0", 2); changed {
		t.Fatal("a zero under Sum moved the combined value")
	}
	expect("[load 5 2]")
}

// TestFederationScopedViewIncremental mounts a bare rollup on a manager
// tree and keeps a VDL view over fedRollupTable continuously
// materialized: every accepted report drives an incremental refresh,
// and results stay byte-identical to a from-scratch Eval.
func TestFederationScopedViewIncremental(t *testing.T) {
	tree := &mib.Tree{}
	r := NewRollup(Sum())
	if err := MountRollup(tree, r, OIDFederation); err != nil {
		t.Fatal(err)
	}

	schema := vdl.MIB2().AddFederation()
	a := incr.New(incr.Config{Tree: tree, Schema: schema})
	defer a.Close()
	ev := vdl.NewEvaluator(tree, schema)
	def, err := a.Define(`view domainHot {
  from fedRollupTable;
  select fedRollupKey, fedRollupValue, fedRollupMembers;
  where fedRollupMembers > 1;
}`)
	if err != nil {
		t.Fatal(err)
	}
	aggDef, err := a.Define(`view domainSize {
  from fedRollupTable;
  select count() as keys, sum(fedRollupMembers) as contribs;
}`)
	if err != nil {
		t.Fatal(err)
	}

	check := func() {
		t.Helper()
		for _, d := range []*vdl.ViewDef{def, aggDef} {
			got, err := a.Query(d.Name)
			if err != nil {
				t.Fatalf("incremental %s: %v", d.Name, err)
			}
			want, err := ev.Eval(d)
			if err != nil {
				t.Fatalf("full %s: %v", d.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s diverged:\n got %+v\nwant %+v", d.Name, got, want)
			}
		}
	}

	check() // empty rollup
	for i := 0; i < 8; i++ {
		for _, key := range []string{"conns", "errors", "health"} {
			r.Report(fmt.Sprintf("leaf-%d", i), key, fmt.Sprintf("%d", i+1), int64(i))
		}
		check()
	}
	res, err := a.Query("domainHot")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 keys with >1 contributor", len(res.Rows))
	}
	// Member death changes rows in place (row events), and the last
	// contributor's death deletes keys (a reset); both must converge.
	r.DropMember("leaf-3")
	check()
	r.Report("solo", "audit", "1", 99)
	check()
	r.DropMember("solo")
	check()
	st := a.Stats()
	if st.DeltasFolded == 0 {
		t.Fatal("no deltas folded from rollup changes")
	}
	if st.Recomputes != 0 {
		t.Fatalf("recomputes = %d, want 0", st.Recomputes)
	}
}
