// Command layerbench is the layer-ledger benchmark of the ECQV-STS
// reproduction: three closed-loop workloads that time the program end
// to end and, in a separate traced run, per layer — from the field
// arithmetic up to a scenario sweep. It drives the program only
// through the public functions of its layers and modifies none of
// them.
//
// Usage (from the repository root):
//
//	bash layerbench/run.sh --workload rekey-wave --seed 1 --seconds 10 --trace 0
//
// --workload is rekey-wave, cold-bringup, can-sweep, or all (each
// workload in its own child process). --trace 0 prints the end-to-end
// metrics; --trace 1 prints the per-layer metrics of a traced run and
// the tracing overhead against an untraced run of the same length.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for what each
// metric means.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
	spansDir string
}

// workloads lists the runnable workloads in reporting order.
var workloads = []struct {
	name string
	run  func(o options, rec *recorder) (*outcome, error)
}{
	{"rekey-wave", runRekeyWave},
	{"cold-bringup", runColdBringup},
	{"can-sweep", runCanSweep},
}

// metric is one reported figure with its sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: every figure with its sample
// count, the host fingerprint and, for traced runs, the count ledger.
type report struct {
	Workload        string      `json:"workload"`
	Seed            uint64      `json:"seed"`
	Seconds         float64     `json:"seconds"`
	Trace           bool        `json:"trace"`
	Host            host        `json:"host"`
	Metrics         []metric    `json:"metrics"`
	WorkloadMetrics []metric    `json:"workload_metrics"`
	Ledger          []ledgerRow `json:"ledger,omitempty"`
	Caches          *cacheDelta `json:"caches,omitempty"`
	Problems        []string    `json:"problems,omitempty"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
	}
	os.Exit(code)
}

// run executes one invocation and returns the exit code: 0 on a
// correct run, 1 when an output was wrong, 2 when the run could not
// be made at all.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "rekey-wave, cold-bringup, can-sweep or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		return 2, errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	o.trace = trace == 1
	o.spansDir = filepath.Join(".bench_build", "spans")
	o.workers = runtime.NumCPU()
	if o.workload == "all" {
		return runAll(o, stdout)
	}
	for _, w := range workloads {
		if w.name == o.workload {
			return runOne(o, w.run, stdout)
		}
	}
	return 2, fmt.Errorf("unknown workload %q", o.workload)
}

// runOne measures one workload in this process. A traced run first
// measures the same workload untraced in a child process, so the
// overhead of tracing can be reported against it.
func runOne(o options, fn func(options, *recorder) (*outcome, error), stdout io.Writer) (int, error) {
	var ref *result
	if o.trace {
		o.seconds /= 2
		var err error
		if ref, err = child(o, false, io.Discard); err != nil {
			return 2, fmt.Errorf("untraced reference run: %w", err)
		}
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	out, err := fn(o, rec)
	if err != nil {
		return 2, err
	}

	rep := report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: fingerprint(), WorkloadMetrics: append(tailMetrics(out), out.extra...), Problems: out.check.problems,
	}
	if o.trace {
		if rep.Metrics, err = perLayerMetrics(o, out, rec, ref); err != nil {
			return 2, err
		}
		rep.Ledger = out.ledger.rows()
		rep.Caches = &out.caches
	} else {
		rep.Metrics = endToEndMetrics(out)
	}
	res := result{
		Correct:   out.check.failed.Load() == 0,
		Attempted: out.check.attempted.Load(),
		Failed:    out.check.failed.Load(),
		Metrics:   make(map[string]metricValue, len(rep.Metrics)),
	}
	if res.Attempted == 0 {
		return 2, errors.New("no operation completed in the measured window")
	}
	for _, m := range rep.Metrics {
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	if err := printRun(stdout, rep, res); err != nil {
		return 2, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("%s: %d of %d checks failed", o.workload, res.Failed, res.Attempted)
	}
	return 0, nil
}

// printRun writes the human-readable table, the report line and the
// result line, in that order.
func printRun(w io.Writer, rep report, res result) error {
	var b bytes.Buffer
	h := rep.Host
	fmt.Fprintf(&b, "layerbench %s seed=%d seconds=%g trace=%t\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(&b, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s backend=%s\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Commit, h.Backend)
	for _, group := range [][]metric{rep.Metrics, rep.WorkloadMetrics} {
		for _, m := range group {
			fmt.Fprintf(&b, "  %-28s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(&b, "  problem: %s\n", p)
	}
	for _, v := range []any{map[string]report{"report": rep}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	_, err := w.Write(b.Bytes())
	return err
}

// runAll runs every workload in its own child process, so the
// process-global table caches never carry state from one workload to
// the next, and prints each child's output followed by one combined
// result line.
func runAll(o options, stdout io.Writer) (int, error) {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		o.workload = w.name
		res, err := child(o, o.trace, stdout)
		if res == nil {
			return 2, fmt.Errorf("%s: %w", w.name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for _, m := range sortedNames(res.Metrics) {
			all.Metrics[w.name+"/"+m] = res.Metrics[m]
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		return 1, errors.New("a workload failed its correctness checks")
	}
	return 0, nil
}

// child runs this binary on one workload and returns the parsed last
// line; its whole standard output is copied to w. A non-nil result
// comes back with an error when the child reported a failed check.
func child(o options, trace bool, w io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", tr)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, w)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return &res, runErr
}

// sortedNames returns the metric names in sorted order.
func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// outcome is everything one workload run measured.
type outcome struct {
	warm   time.Duration   // process-global warm-up, paid once
	setups []time.Duration // each repetition of the workload set-up
	wall   time.Duration   // the measured closed loop
	// clients is how many ops run at once: the closed loop's callers,
	// or the sweep's workers.
	clients int

	mu         sync.Mutex
	opTimes    []time.Duration
	opRates    []float64       // per op: handshakes per second of op time
	handshakes int             // completed in the measured window
	hsTimes    []time.Duration // per handshake: host time
	allocBytes uint64
	check      checker

	extra  []metric           // workload-specific figures, report only
	layers map[string]float64 // per-layer figures the workload measured
	ledger *ledger
	caches cacheDelta
	prof   []byte // CPU profile of the traced loop
	keys   ladderKeys
}

// ladderKeys is the workload's own key material the ladder times on.
type ladderKeys struct {
	net         *core.Network
	party, peer *core.Party
}

// noteOp records one completed op's latency and the handshakes it
// completed.
func (o *outcome) noteOp(d time.Duration, handshakes int) {
	o.mu.Lock()
	o.opTimes = append(o.opTimes, d)
	o.opRates = append(o.opRates, float64(handshakes)/d.Seconds())
	o.handshakes += handshakes
	o.mu.Unlock()
}

// checker counts attempted and failed operations and keeps the first
// few failure descriptions.
type checker struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	problems          []string
}

const maxProblems = 8

// ok counts one checked operation and records it as failed unless
// good; it returns good.
func (c *checker) ok(good bool, format string, args ...any) bool {
	bad := 0
	if !good {
		bad = 1
	}
	c.add(1, bad, format, args...)
	return good
}

// add counts attempted operations of which failed went wrong,
// describing the failure with format when there is one.
func (c *checker) add(attempted, failed int, format string, args ...any) {
	c.attempted.Add(int64(attempted))
	if failed == 0 {
		return
	}
	c.failed.Add(int64(failed))
	c.mu.Lock()
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// warmGlobals builds the lazily built process-global state every
// workload shares — the per-curve fixed-base tables — so the measured
// loop never pays for it. Its time counts toward set-up.
func warmGlobals(out *outcome) {
	t0 := time.Now()
	for _, c := range ec.Curves() {
		sinkPoint = c.ScalarBaseMult(c.N)
	}
	out.warm = time.Since(t0)
}

// setupReps is how many times a workload's set-up runs; setup_s
// reports the median (plus the one-time global warm-up) and the last
// set-up is the one measured.
const setupReps = 9

// repeatSetup runs fn setupReps times, recording each duration, and
// returns the last result.
func repeatSetup[T any](out *outcome, fn func() (T, error)) (T, error) {
	var st T
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if st, err = fn(); err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	return st, nil
}

// measure runs the closed loop: clients concurrent callers each
// invoke op until the run's time is up, an op started before the
// deadline finishing after it. It records the wall time, the bytes
// allocated and, when traced, a CPU profile of the loop.
func (out *outcome) measure(o options, clients int, op func(client int)) error {
	var prof bytes.Buffer
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	conc.ForEach(clients, clients, func(c int) {
		for time.Now().Before(deadline) {
			op(c)
		}
	})
	out.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	if o.trace {
		pprof.StopCPUProfile()
		out.prof = prof.Bytes()
	}
	return nil
}

// idTag is the seed's share of every generated identity. Identities
// are ecqv.IDSize (16) bytes, longer names are truncated, so every
// name the benchmark builds around the tag fits in 16 bytes.
func idTag(seed uint64) uint32 {
	return uint32(detrand.DeriveSeed(seed, []byte("layerbench/identities")))
}

// opIDs numbers workload ops for span grouping.
var opIDs atomic.Int64

func nextOp() int64 { return opIDs.Add(1) }
