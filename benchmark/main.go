// Command benchmark is hybriddb's one wall-clock benchmark: four CH
// workloads, the end-to-end metrics a user of the system would see, and
// per-layer metrics timed from outside the engine. README.md says why
// each workload and metric exists and how to read the output.
//
//	go -C benchmark run . [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go -C benchmark run . -compare A.json B.json
//	go -C benchmark run . -seed 1 -update-golden
//
// BENCHMARK.json at the repository root runs it as
// `sh benchmark/run.sh --workload W --seed N --seconds S --trace T`;
// the last line printed is then one JSON object with the run's metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds, maxSeconds the most
// a run_seconds may be.
const (
	defaultSeconds = 15
	maxSeconds     = 60
)

// envBlock says where and how a run was taken.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Scale      string `json:"scale"`
	Traced     bool   `json:"traced"`
	Time       string `json:"time"`
}

// runRecord is one invocation's results; a result file holds a list of
// them so that -compare can take medians over runs.
type runRecord struct {
	Env       envBlock                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workloadFlag = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the data and the statement streams")
		seconds      = flag.Int("seconds", defaultSeconds, "nominal measured seconds per workload; sets the operation counts")
		trace        = flag.Int("trace", 0, "1 also runs each workload traced and reports the per-layer metrics")
		out          = flag.String("out", "", "result file to append this run to (default <benchmark>/out/results.json); trace files go beside it")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments: base, then change")
		updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-seed1.json from this run (needs -seed 1)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return err
		}
		if worse {
			os.Exit(2)
		}
		return nil
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *seconds > maxSeconds {
		return fmt.Errorf("-seconds must be between 1 and %d", maxSeconds)
	}
	if *updateGolden && *seed != goldenSeed {
		return fmt.Errorf("-update-golden needs -seed %d", goldenSeed)
	}
	names := workloadNames
	if *workloadFlag != "" {
		if _, ok := workloadDefs[*workloadFlag]; !ok {
			return fmt.Errorf("unknown workload %q", *workloadFlag)
		}
		names = []string{*workloadFlag}
	}
	if *out == "" {
		*out = filepath.Join(benchDir(), "out", "results.json")
	}

	// Two cores at most: parallel speed-up is not what is measured, and
	// the second core keeps the GC and the wire server off the client's.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	goldens, err := loadGoldens()
	if err != nil {
		return err
	}
	r := &runner{
		seed:         *seed,
		sc:           fullScale(*seconds, *trace == 1),
		traced:       *trace == 1,
		outDir:       filepath.Dir(*out),
		goldens:      goldens,
		updateGolden: *updateGolden,
	}
	rec := runRecord{
		Env: envBlock{
			Commit: buildCommit(), GoVersion: runtime.Version(), CPU: cpuModel(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: *seed, Seconds: *seconds, Scale: r.sc.name, Traced: r.traced,
			Time: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadResult{},
	}
	var last *workloadResult
	for i, name := range names {
		if i > 0 {
			if err := resetPeakRSS(); err != nil {
				return err
			}
		}
		res, err := r.run(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rec.Workloads[name] = res
		printResult(os.Stdout, res)
		last = res
	}
	if *updateGolden {
		if err := writeGoldens(goldens); err != nil {
			return err
		}
	}
	if err := appendRun(*out, rec); err != nil {
		return err
	}
	if *workloadFlag != "" {
		return printDriverLine(os.Stdout, last, r.traced)
	}
	return nil
}

// buildCommit is the commit the binary was built from, as the go command
// stamped it; a build outside a git checkout has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	commit, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			commit = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return commit + dirty
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// appendRun adds rec to the result file at path, creating it if needed.
func appendRun(path string, rec runRecord) error {
	var f resultFile
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	f.Runs = append(f.Runs, rec)
	b, err = json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric of a workload by name with its unit,
// and the sample count beside every median and percentile.
func printResult(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "== %s: %d statements, %.1f s wall, %d attempted, %d failed, machine probe %.2f ms\n",
		res.Workload, res.Ops["statements"], res.WallS, res.Attempted, res.Failed, res.ProbeMS)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	printMetrics(w, endToEnd, res.EndToEnd)
	if res.PerLayer != nil {
		printMetrics(w, perLayer, res.PerLayer)
	}
	names := make([]string, 0, len(res.Templates))
	for t := range res.Templates {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		s := res.Templates[t]
		fmt.Fprintf(w, "   template %-16s median %10.3f ms  n=%d\n", t, s.MedianMS, s.N)
	}
}

func printMetrics(w io.Writer, specs []metricSpec, got map[string]metricValue) {
	for _, m := range specs {
		v, ok := got[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("   %-36s %14.4f %-8s", m.Name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		fmt.Fprintln(w, line)
	}
}

// driverLine is the last line of a single-workload run, in the shape
// the driver behind BENCHMARK.json reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the gated end-to-end metrics of an untraced
// run, or every per-layer metric of a traced one.
func printDriverLine(w io.Writer, res *workloadResult, traced bool) error {
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverMetric{}}
	if traced {
		for _, m := range perLayer {
			v := res.PerLayer[m.Name]
			line.Metrics[m.Name] = driverMetric{v.Value, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.Gate > 0 {
				line.Metrics[m.Name] = driverMetric{res.EndToEnd[m.Name].Value, m.Unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
