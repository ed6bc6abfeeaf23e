// Command perfbench drives the Memex archive server through its public
// surfaces — the embedded engine (memex.Open) and its HTTP API served on
// loopback and reached with memex.NewClient — and prints one JSON line of
// figures. See README.md for the workloads, the metrics and what each
// layer figure should move.
//
//	perfbench --workload ingest|mining|browse --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records a span around every call it makes into a layer, writes the
// spans to .bench_build/trace/, and prints the per-layer metrics. Either
// set is the one BENCHMARK.json, in the directory it runs in, lists, on
// every workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"memex"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer
	root    string // scratch directory for this run's archives
	conns   int    // connection and load-goroutine limit: the CPU count
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// setupTimer times a workload's set-up setupRepeats times in a run:
// once before the measured phase, which uses that set-up, and the rest
// after it. The host's speed drifts in spells of seconds (README,
// Noise), so set-ups spread over the whole run give a steadier median
// than back-to-back ones.
type setupTimer struct {
	setup func(i int) error // builds set-up i
	undo  func() error      // releases the current set-up; a no-op when there is none
	cpu   []float64         // process CPU seconds of each set-up
	wall  []float64         // wall seconds of each set-up
}

// first builds the set-up the measured phase uses.
func (s *setupTimer) first() error { return s.once(0) }

// rest releases the measured phase's set-up, builds and releases the
// remaining ones, and sets setup_s to the median CPU time of all of
// them (user+sys, every thread of the process). Wall time, which on a
// shared host also holds the time the host ran other tenants (README,
// Noise), is printed beside it as setup_wall_s.
func (s *setupTimer) rest(rep *report) error {
	if err := s.undo(); err != nil {
		return err
	}
	for i := 1; i < setupRepeats; i++ {
		if err := s.once(i); err != nil {
			return err
		}
		if err := s.undo(); err != nil {
			return err
		}
	}
	rep.setE2E("setup_s", median(s.cpu), "s")
	rep.setDetail("setup_wall_s", median(s.wall), "s")
	return nil
}

// releaser returns a setupTimer's undo for a set-up that is an open
// archive: it closes *m, if open, and removes its directory *dir.
func releaser(m **memex.Memex, dir *string) func() error {
	return func() error {
		if *m == nil {
			return nil
		}
		err := (*m).Close()
		*m = nil
		if err != nil {
			return err
		}
		return os.RemoveAll(*dir)
	}
}

// once builds set-up i on a collected heap and records its CPU and
// wall time.
func (s *setupTimer) once(i int) error {
	runtime.GC()
	c, t := cpuTime(), time.Now()
	if err := s.setup(i); err != nil {
		return err
	}
	s.wall = append(s.wall, time.Since(t).Seconds())
	s.cpu = append(s.cpu, (cpuTime() - c).Seconds())
	return nil
}

var workloads = map[string]func(runConfig) (*report, error){
	"ingest": runIngest,
	"mining": runMining,
	"browse": runBrowse,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "ingest, mining or browse")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "how long the measured phase runs (whole rounds)")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|mining|browse --seed N --seconds S --trace 0|1")
		return 2
	}
	root := filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", *workload, os.Getpid()))
	defer os.RemoveAll(root)
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		tr:      newTracer(*trace == 1),
		root:    root,
		conns:   runtime.NumCPU(),
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		return 1
	}
	out := rep.e2e
	if cfg.tr.on {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
		out = rep.layer
	}
	if err := matchManifest("BENCHMARK.json", cfg.tr.on, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		return 1
	}
	for _, n := range rep.acct.notes {
		fmt.Fprintln(os.Stderr, "failed:", n)
	}
	printTable(*workload, rep, cfg.tr.on)
	blob, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.acct.wrong == 0, rep.acct.attempted, rep.acct.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	return 0
}

// printTable prints every figure by name with its unit, end-to-end
// first; the JSON line that follows carries the set the mode asks for.
func printTable(workload string, rep *report, traced bool) {
	fmt.Printf("workload %s: %d operations attempted, %d failed (%d by a check)\n",
		workload, rep.acct.attempted, rep.acct.failed, rep.acct.wrong)
	if traced {
		printSet("end to end (traced run, not for comparison)", rep.e2e)
		printSet("per layer", rep.layer)
		printSet("this workload only (not in the result line)", rep.detail)
		return
	}
	printSet("end to end", rep.e2e)
	printSet("this workload only (not in the result line)", rep.detail)
}

// matchManifest checks that out holds exactly the metrics the manifest
// at path lists for the mode, the per-layer ones when traced, each in
// its unit and as a finite number.
func matchManifest(path string, traced bool, out map[string]metric) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &man); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := man.EndToEnd
	if traced {
		want = man.PerLayer
	}
	for _, w := range want {
		m, ok := out[w.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s of %s was not measured", w.Name, path)
		case m.Unit != w.Unit:
			return fmt.Errorf("metric %s is in %s, %s says %s", w.Name, m.Unit, path, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", w.Name, m.Value)
		}
	}
	if len(out) != len(want) {
		return fmt.Errorf("%d metrics measured, %s lists %d", len(out), path, len(want))
	}
	return nil
}

func printSet(title string, m map[string]metric) {
	fmt.Printf("%s:\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
