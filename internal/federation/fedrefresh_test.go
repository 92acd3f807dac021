package federation

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"mbd/internal/elastic"
	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/vdl"
	"mbd/internal/vdl/incr"
)

// mountedRollup returns a tree serving a Sum rollup at OIDFederation,
// through a full Node's Handler or a bare MountRollup.
func mountedRollup(t *testing.T, viaNode bool) (*mib.Tree, *Rollup) {
	t.Helper()
	tree := &mib.Tree{}
	if !viaNode {
		r := NewRollup(Sum())
		if err := MountRollup(tree, r, OIDFederation); err != nil {
			t.Fatal(err)
		}
		return tree, r
	}
	n := newSumNode(t)
	if err := Mount(tree, n, OIDFederation); err != nil {
		t.Fatal(err)
	}
	return tree, n.Rollup()
}

// newSumNode returns an unstarted Node with a Sum rollup.
func newSumNode(t *testing.T) *Node {
	t.Helper()
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	n, err := New(Config{Name: "root", Domain: "d", Proc: proc, Combiner: Sum()})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fedViews are the views the refresh tests maintain: a filtered
// projection of every column, and an aggregate.
const fedViews = `view keys {
  from fedRollupTable;
  select fedRollupKey, fedRollupValue, fedRollupMembers, fedRollupUpdates;
  where fedRollupMembers > 0;
}
view size {
  from fedRollupTable;
  select count() as keys, sum(fedRollupMembers) as contribs, max(fedRollupUpdates) as most;
}`

// startViews defines fedViews on a Start()ed engine over tree.
func startViews(t *testing.T, tree *mib.Tree) (*incr.IncrMCVA, []*vdl.ViewDef) {
	t.Helper()
	a := incr.New(incr.Config{Tree: tree, Schema: vdl.MIB2().AddFederation(), QueueDepth: 1 << 16})
	t.Cleanup(a.Close)
	defs, err := a.DefineAll(fedViews)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	return a, defs
}

// sameAsEval fails unless every view's maintained result encodes to the
// same bytes as a from-scratch Eval over the tree.
func sameAsEval(t *testing.T, a *incr.IncrMCVA, tree *mib.Tree, defs []*vdl.ViewDef, where string) {
	t.Helper()
	ev := vdl.NewEvaluator(tree, vdl.MIB2().AddFederation())
	for _, d := range defs {
		got, err := a.Query(d.Name)
		if err != nil {
			t.Fatalf("%s: incremental %s: %v", where, d.Name, err)
		}
		want, err := ev.Eval(d)
		if err != nil {
			t.Fatalf("%s: eval %s: %v", where, d.Name, err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("%s: %s diverged:\n got %s\nwant %s", where, d.Name, gb, wb)
		}
	}
}

// TestIncrStartReportThenQuery: with the background pump running, a
// Query issued after a Report returns must reflect that report — the
// pump may not hold a popped change where the Query cannot fold it.
func TestIncrStartReportThenQuery(t *testing.T) {
	tree, r := mountedRollup(t, false)
	a, _ := startViews(t, tree)
	n := 10000
	if testing.Short() {
		n = 1000
	}
	r.Report("m", "k", "0", 0)
	for i := 1; i <= n; i++ {
		v := strconv.Itoa(i)
		r.Report("m", "k", v, int64(i))
		res, err := a.Query("keys")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0].Cells[1] != v {
			t.Fatalf("report %d: view rows %+v, want value %s", i, res.Rows, v)
		}
	}
}

// TestRollupScanUnderInserts: keys inserted while a view is maintained
// must never tear the table scan a reset triggers. The view needs no
// recompute and ends byte-identical to Eval, under both mounts.
func TestRollupScanUnderInserts(t *testing.T) {
	for _, viaNode := range []bool{false, true} {
		t.Run(fmt.Sprintf("node=%v", viaNode), func(t *testing.T) {
			tree, r := mountedRollup(t, viaNode)
			a, defs := startViews(t, tree)
			const writers, inserts = 4, 150
			var wg sync.WaitGroup
			stop := make(chan struct{})
			queried := make(chan error, 1)
			go func() {
				for {
					select {
					case <-stop:
						queried <- nil
						return
					default:
					}
					for _, d := range defs {
						if _, err := a.Query(d.Name); err != nil {
							queried <- err
							return
						}
					}
				}
			}()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					member := fmt.Sprintf("m%d", w)
					for i := 0; i < inserts; i++ {
						r.Report(member, fmt.Sprintf("k%d-%03d", w, i), strconv.Itoa(i), int64(i))
						r.Report(member, fmt.Sprintf("k%d-%03d", w, i/2), strconv.Itoa(i+1), int64(i))
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			if err := <-queried; err != nil {
				t.Fatal(err)
			}
			sameAsEval(t, a, tree, defs, "after inserts")
			if st := a.Stats(); st.Recomputes != 0 || st.ChangesLost != 0 {
				t.Fatalf("stats %+v, want no recompute and no lost change", st)
			}
		})
	}
}

// TestFedViewCrosscheck is a seed-reproducible randomized crosscheck:
// concurrent reporters, new keys and member drops run against a
// Start()ed engine, and after each round quiesces every view is
// byte-identical to Eval. Each reporter's operations derive from the
// seed; a failure names the seed and round.
func TestFedViewCrosscheck(t *testing.T) {
	const reporters, rounds, ops = 4, 25, 40
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tree, r := mountedRollup(t, seed%2 == 0)
			r.SetCombiner("k00", Max())
			a, defs := startViews(t, tree)
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				for w := 0; w < reporters; w++ {
					rng := rand.New(rand.NewSource(seed*1_000_000 + int64(round)*100 + int64(w)))
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for op := 0; op < ops; op++ {
							member := fmt.Sprintf("m%d", rng.Intn(8))
							switch p := rng.Intn(20); {
							case p == 0:
								r.DropMember(member)
							case p < 4:
								r.Report(member, fmt.Sprintf("n%d-%d-%d", w, round, op), strconv.Itoa(rng.Intn(9)), int64(op))
							default:
								r.Report(member, fmt.Sprintf("k%02d", rng.Intn(16)), strconv.Itoa(rng.Intn(5)), int64(round*ops+op))
							}
						}
					}(w)
				}
				wg.Wait()
				sameAsEval(t, a, tree, defs, fmt.Sprintf("seed %d round %d", seed, round))
			}
		})
	}
}

// TestRollupNextRelNBudget: a bounded bulk walk visits exactly the
// first max instances of the GetNext chain, under both mounts.
func TestRollupNextRelNBudget(t *testing.T) {
	for _, viaNode := range []bool{false, true} {
		tree := &mib.Tree{}
		r := NewRollup(Sum())
		var h mib.BulkHandler = &RollupHandler{r: r}
		if viaNode {
			n := newSumNode(t)
			r, h = n.Rollup(), NewHandler(n)
		}
		if err := tree.Mount(OIDFederation, h.(mib.Handler)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			r.Report("m", fmt.Sprintf("k%d", i), strconv.Itoa(i), int64(i))
		}
		var chain []string
		cur := OIDFederation
		for {
			next, _, err := tree.GetNext(cur)
			if err != nil || !next.HasPrefix(OIDFederation) {
				break
			}
			chain = append(chain, next.String())
			cur = next
		}
		if len(chain) != 5*rollupCols {
			t.Fatalf("node=%v: GetNext chain has %d instances, want %d", viaNode, len(chain), 5*rollupCols)
		}
		for _, max := range []int{1, 7, 20} {
			var got []string
			n := h.NextRelN(nil, max, func(rel oid.OID, _ mib.Value) bool {
				got = append(got, append(OIDFederation.Clone(), rel...).String())
				return true
			})
			if n != max || fmt.Sprint(got) != fmt.Sprint(chain[:max]) {
				t.Fatalf("node=%v max=%d: visited %d %v, want %v", viaNode, max, n, got, chain[:max])
			}
		}
	}
}
