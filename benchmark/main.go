// Command benchmark is snoopmva's benchmark of record: three workloads
// (sweep, detailed, serve) that together cross the solver, campaign and
// serving layers of the repository, with end-to-end metrics, correctness
// checks, and a traced mode that splits each op's time among the layers.
//
// One run of one workload:
//
//	benchmark -workload sweep -seed 1 -seconds 20 -trace 0
//
// prints each metric as "name value unit" and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With -trace 1
// the metrics are the per-layer ones and a per-layer table is printed.
// Without -workload every workload runs, each in a fresh child process;
// -repeat K runs each K times with consecutive seeds and prints every
// metric's median, quartiles and (max−min)/median.
//
// The command exits non-zero when a correctness check fails.
// README.md describes the workloads, the layers and the metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
)

// runConfig is one workload run.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Work is the directory for the snoopd binary, journals and the span
	// dump.
	Work string
	// Snoopd is the snoopd binary (serve).
	Snoopd string
	// Small shrinks every workload's inputs so the harness tests run in
	// seconds, and Plant corrupts the expected values the correctness
	// checks compare against, so a test can show the checks fail. The
	// command line sets neither.
	Small, Plant bool
}

// expect returns an expected value for a correctness check: v itself,
// or a wrong one when a test has planted it.
func (c runConfig) expect(v float64) float64 {
	if c.Plant {
		return 2 * v
	}
	return v
}

// workloads maps a name to its runner, in the order they run.
var workloads = []struct {
	Name       string
	NeedSnoopd bool
	Run        func(ctx context.Context, cfg runConfig, out io.Writer) (*report, error)
}{
	{"sweep", false, runSweep},
	{"detailed", false, runDetailed},
	{"serve", true, runServe},
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (sweep, detailed, serve); empty runs all, each in a child process")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured time per workload run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run each workload this many times with seeds seed, seed+1, … and print each metric's spread")
	work := fs.String("work", ".bench_build", "directory for built binaries, journals and span dumps")
	snoopdBin := fs.String("snoopd", "", "snoopd binary to serve from (empty builds ./cmd/snoopd into -work)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintln(stderr, "benchmark: want -workload NAME -seed N -seconds S -trace 0|1 [-repeat K]")
		return 2
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Snoopd: *snoopdBin}
	if cfg.Workload != "" && lookup(cfg.Workload) < 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", cfg.Workload)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	abs, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	cfg.Work = abs

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.Snoopd == "" && needsSnoopd(cfg.Workload) {
		bin, err := buildSnoopd(cfg.Work)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		cfg.Snoopd = bin
	}
	if *repeat > 0 {
		return runRepeat(ctx, cfg, *repeat, stdout, stderr)
	}
	if cfg.Workload == "" {
		return runAll(ctx, cfg, stdout, stderr)
	}
	return runOne(ctx, cfg, stdout, stderr)
}

func lookup(name string) int {
	for i, w := range workloads {
		if w.Name == name {
			return i
		}
	}
	return -1
}

func needsSnoopd(workload string) bool {
	if workload == "" {
		return true
	}
	return workloads[lookup(workload)].NeedSnoopd
}

// result is the last line of a workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its metrics and
// result line.
func runOne(ctx context.Context, cfg runConfig, stdout, stderr io.Writer) int {
	rep, err := workloads[lookup(cfg.Workload)].Run(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.Workload, err)
		return 1
	}
	res := toResult(cfg, rep)
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "# %s: CHECK FAILED: %s\n", cfg.Workload, f)
	}
	for _, d := range reported(cfg.Trace) {
		fmt.Fprintf(stdout, "%s %s %s\n", d.Name, strconv.FormatFloat(res.Metrics[d.Name].Value, 'g', -1, 64), d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res)
}

func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// toResult builds the result line: exactly the reported metrics, and
// correct only when every check held.
func toResult(cfg runConfig, rep *report) result {
	res := result{
		Correct:   len(rep.Failures) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range reported(cfg.Trace) {
		res.Metrics[d.Name] = metricValue{Value: rep.Metrics[d.Name], Unit: d.Unit}
	}
	if res.Attempted < 1 {
		res.Correct = false
	}
	return res
}

func exitCode(res result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh child process of this binary,
// copying its output to stdout, and returns its result line.
func runChild(ctx context.Context, cfg runConfig, stdout, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", cfg.Workload, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", trace,
		"-work", cfg.Work, "-snoopd", cfg.Snoopd)
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
	}
	_, _ = io.Copy(io.Discard, pipe)
	werr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if werr != nil {
			return result{}, fmt.Errorf("%s: %w", cfg.Workload, werr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", cfg.Workload, err)
	}
	return res, nil
}

// runAll runs every workload once, each in its own child process.
func runAll(ctx context.Context, cfg runConfig, stdout, stderr io.Writer) int {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		c := cfg
		c.Workload = w.Name
		res, err := runChild(ctx, c, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[w.Name+"/"+name] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(all)
}

// runRepeat runs each selected workload k times with consecutive seeds
// and prints, per metric, the median, quartiles, (max−min)/median and
// (Q3−Q1)/median.
func runRepeat(ctx context.Context, cfg runConfig, k int, stdout, stderr io.Writer) int {
	names := []string{cfg.Workload}
	if cfg.Workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			c := cfg
			c.Workload, c.Seed = name, cfg.Seed+uint64(i)
			res, err := runChild(ctx, c, io.Discard, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		metrics := make([]string, 0, len(values))
		for m := range values {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		fmt.Fprintf(stdout, "# %s: %d runs, seeds %d..%d\n", name, k, cfg.Seed, cfg.Seed+uint64(k-1))
		fmt.Fprintf(stdout, "%-12s %-28s %14s %14s %14s %9s %9s\n", "workload", "metric", "median", "q1", "q3", "range", "iqr")
		for _, m := range metrics {
			sp := spreadOf(values[m])
			iqr := 0.0
			if sp.Median != 0 {
				iqr = (sp.Q3 - sp.Q1) / sp.Median
			}
			fmt.Fprintf(stdout, "%-12s %-28s %14.6g %14.6g %14.6g %8.1f%% %8.1f%%\n",
				name, m, sp.Median, sp.Q1, sp.Q3, 100*sp.Range, 100*iqr)
		}
	}
	return code
}

var errNoOps = errors.New("no op completed within the measured time")
