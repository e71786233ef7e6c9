// Command perfbench is the repository benchmark. It runs one workload against
// the real gateway or city engine in this process, checks the outputs, and
// prints a report followed by one JSON line of metrics:
//
//	bash perfbench/run.sh --workload gw-mixed --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with obs recording off. --trace 1
// repeats the untraced pass, then runs the workload again with obs recording
// on and benchmark-side spans around each layer's public calls, and reports
// the per-layer metrics. Workload parameters live in spec.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"choir/internal/obs"
)

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

// report collects the human-readable lines printed before the JSON result.
type report struct{ lines []string }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see spec.json)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured duration of one pass")
	traced := fs.Int("trace", 0, "1 = add the traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var rep report
	rep.printf("workload %s seed %d seconds %g trace %d | nproc %d GOMAXPROCS %d %s",
		*workload, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var res *result
	if w, ok := sp.Gateway[*workload]; ok {
		res, err = benchGateway(&rep, sp, *workload, w, *seed, *seconds, *traced == 1)
	} else if w, ok := sp.City[*workload]; ok {
		res, err = benchCity(&rep, sp, *workload, w, *seed, *seconds, *traced == 1)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *traced == 1 {
		// Every per-layer metric is printed on every workload; a layer the
		// workload's path never reaches reads 0 (spec.json says which apply).
		for _, m := range sp.PerLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.Metrics[m.Name] = metric{0, m.Unit}
			}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// obsQuiet reports whether obs recording is off and has recorded nothing:
// the untraced passes must measure the program with telemetry disabled.
func obsQuiet() error {
	if obs.Enabled() {
		return fmt.Errorf("obs recording is on during an untraced pass")
	}
	snap := obs.TakeSnapshot()
	for name, v := range snap.Counters {
		if v != 0 {
			return fmt.Errorf("obs counter %s = %d during an untraced pass", name, v)
		}
	}
	for name, h := range snap.Histograms {
		if h.Count != 0 {
			return fmt.Errorf("obs histogram %s has %d samples during an untraced pass", name, h.Count)
		}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
