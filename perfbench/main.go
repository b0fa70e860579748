// Command perfbench is the repository's benchmark. It runs one named
// workload against the HALO packages in-process and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (throughput, median and
// tail op latency, CPU and heap allocation per op, set-up time and the
// layout-quality figures); with -trace 1 they are the per-layer self times
// and counts of a traced run. Usage, from the repository root:
//
//	bash perfbench/run.sh --workload evaluate --seed 1 --seconds 20 --trace 0
//
// A run is a fixed sequence of ops with identical inputs, derived from the
// seed; the op count is the requested seconds over the workload's nominal
// op time, so it never depends on how fast the machine happens to be.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A bench is one workload after set-up.
type bench interface {
	// op runs op i, through the traced layer composition when t is
	// non-nil (t's current root span is the op).
	// The returned check verifies the op's outputs; it is called outside
	// the op's timing window and drops the outputs when it returns.
	op(i int, t *tracer) (check func() error, err error)
	// finish makes the checks that run once after the measured ops,
	// returning how many ops they failed, and measures layout quality.
	finish() (failed int, q quality, err error)
	close()
}

// spec describes a workload.
type spec struct {
	// gcEachOp collects garbage and returns it to the kernel before each
	// op, for workloads whose ops are long enough to afford it.
	gcEachOp bool
	// procs, when nonzero, is GOMAXPROCS during set-up and the ops.
	procs int
	// opsPerSecond sets the op count: --seconds times this, at least
	// minOps. It is the nominal throughput on a 2-vCPU x86 VM unless the
	// spec says otherwise.
	opsPerSecond float64
	// setups is how many times an untraced run sets the workload up; it
	// reports the median.
	setups int
	// rounds splits the ops into that many consecutive rounds of equal
	// size. Each timing metric is the median of its per-round values, so
	// a slow spell of the host that covers one round does not move it.
	rounds int
	// prepare derives the inputs of rounds of perRound ops from the seed
	// and returns the workload's set-up, which builds a bench and runs one
	// untimed warm-up op.
	prepare func(seed uint64, perRound int) (setup func() (bench, error), err error)
}

// minOps puts op_tail_s, the op with tailBeyond ops slower than it, at
// the 67th percentile or above.
const minOps = 30

var specs = map[string]spec{
	"pipeline": pipelineSpec,
	"evaluate": evaluateSpec,
	"service":  serviceSpec,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(specNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "nominal measured seconds; sets the op count")
	traced := fs.Int("trace", 0, "1 runs the traced composition and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "file for the traced run's spans (default perfbench-trace-<workload>.json in $CARGO_TARGET_DIR or .bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(specNames(), ", "))
		return 2
	}
	out := *traceOut
	if out == "" {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		out = filepath.Join(dir, "perfbench-trace-"+*workload+".json")
	}
	res, notes, err := execute(sp, options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		traceOut: out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func specNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
