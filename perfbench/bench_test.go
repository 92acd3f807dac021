package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var workloads = []string{"delegate", "observe", "domain", "poll"}

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func shortConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  500 * time.Millisecond,
		trace:    traced,
		spans:    filepath.Join(t.TempDir(), "spans.jsonl"),
		setups:   1,
		warmup:   100 * time.Millisecond,
	}
}

// TestShortRunPrintsEveryMetric runs each workload briefly, untraced and
// traced, and checks that it passes its output checks and reports
// exactly the metrics BENCHMARK.json declares, each printed with its
// unit.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				cfg := shortConfig(t, w, traced)
				var out strings.Builder
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(out.String()) {
						t.Errorf("text output lacks %s with unit %s", m.Name, m.Unit)
					}
				}
				if traced {
					if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
						t.Errorf("no spans written: %v", err)
					}
				}
			})
		}
	}
}

// TestWrongExpectationCounted makes one operation of each workload
// expect a wrong value and checks the run counts it as a failure and as
// incorrect.
func TestWrongExpectationCounted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := shortConfig(t, w, false)
			cfg.inject = 1
			var out strings.Builder
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != 1 {
				t.Fatalf("correct=%v failed=%d, want an incorrect run with 1 failure\n%s", res.Correct, res.Failed, out.String())
			}
			if !strings.Contains(out.String(), errWrong.Error()) {
				t.Errorf("output does not report the wrong output:\n%s", out.String())
			}
		})
	}
}

// TestSelfTimes checks self time and coverage on a hand-built trace.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	r := &recorder{}
	root := r.add("op", 1, -1, at(0), at(100))
	r.add("a", 1, root, at(0), at(60))
	r.add("b", 1, root, at(60), at(90))
	sum := summarize([]*recorder{r})
	if sum.medianUS["a"] != 60 || sum.medianUS["b"] != 30 {
		t.Errorf("self times %v", sum.medianUS)
	}
	if sum.coverage != 0.9 {
		t.Errorf("coverage %v, want 0.9", sum.coverage)
	}
}
