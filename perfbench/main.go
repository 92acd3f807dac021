// Command perfbench is the end-to-end benchmark of the MbD server. It
// builds the server cmd/mbdserver runs — an MbD server with views on
// (plus a federation node for the domain workload), RDS on loopback TCP
// and the SNMP agent on loopback UDP — inside its own process, loads it
// from two closed-loop manager connections, checks every operation's
// output, and prints one metric per line followed by a JSON result
// line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload delegate|observe|domain|poll \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, and the
// spans go to .bench_build/spans-<workload>.jsonl. perfbench/README.md
// says what each metric measures and which end-to-end number it should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workload := flag.String("workload", "", "delegate, observe, domain or poll")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured load time in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run and per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spans:    ".bench_build/spans-" + *workload + ".jsonl",
		setups:   30,
		warmup:   time.Second,
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
