// Command perfbench is GoBolt's end-to-end benchmark. One command runs
// one workload, checks its outputs, and prints every metric by name with
// its unit; the last line of standard output is the machine-readable
// result:
//
//	perfbench --workload monitor-serial --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics a user of GoBolt
// sees; with --trace 1 it times the calls into each layer's public
// functions, records a span per call and reports the per-layer metrics.
// README.md explains the workloads and which layer moves which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gobolt/internal/experiments"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"monitor_pps", "pkt/s"},
	{"alert_delay_pkts", "packets"},
	{"gen_s", "s"},
	{"load_s", "s"},
	{"store_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, with their units.
var perLayer = []metricDef{
	{"distill.replay_ns_per_pkt", "ns"},
	{"distill.allocs_per_pkt", "allocs"},
	{"nfir.reset_ns_per_pkt", "ns"},
	{"nfir.run_ns_per_pkt", "ns"},
	{"core.calls_per_pkt", "count"},
	{"core.classify_ns_per_pkt", "ns"},
	{"core.classes_seen", "count"},
	{"monitor.observe_ns_per_pkt", "ns"},
	{"monitor.allocs_per_pkt", "allocs"},
	{"monitor.new_ms", "ms"},
	{"monitor.calibrate_s", "s"},
	{"monitor.shard_delta_ns_per_pkt", "ns"},
	{"monitor.partial_flushes", "count"},
	{"monitor.merge_us", "us"},
	{"core.generate_s", "s"},
	{"core.compose_s", "s"},
	{"core.join_pairs", "count"},
	{"core.join_index_skipped", "count"},
	{"core.join_prefiltered", "count"},
	{"core.join_solver_refuted", "count"},
	{"core.join_kept", "count"},
	{"core.coalesce_merged", "count"},
	{"core.paths_out", "count"},
	{"core.join_kept_frac", "ratio"},
	{"core.encode_s", "s"},
	{"store.put_s", "s"},
	{"store.get_s", "s"},
	{"core.decode_s", "s"},
	{"core.reencode_s", "s"},
	{"store.objects", "count"},
	{"store.bytes_read", "bytes"},
	{"core.disk_hits", "count"},
	{"trace.monitor_overhead", "ratio"},
	{"trace.gen_overhead", "ratio"},
	{"trace.span_coverage", "ratio"},
}

type metricDef struct{ name, unit string }

// sizing fixes how much work one operation does.
type sizing struct {
	scale experiments.Scale
	// conversations is the number of L2 conversations in the monitored
	// trace; warmPer and measPer are each conversation's packets in the
	// warm-up and in the measured benign replay.
	conversations, warmPer, measPer int
	// setups is how many times a traced run sets up before it probes;
	// untraced runs set up again throughout the run instead.
	setups int
}

var sizes = map[string]sizing{
	"full": {
		scale:         experiments.DefaultScale(),
		conversations: 64, warmPer: 8, measPer: 64, setups: 21,
	},
	// small keeps the smoke test fast.
	"small": {
		scale:         experiments.QuickScale(),
		conversations: 16, warmPer: 4, measPer: 16, setups: 3,
	},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	out      string
	commit   string
}

// bench is one run's state: what it measured and which checks failed.
type bench struct {
	opt      options
	sz       sizing
	tr       *tracer
	log      io.Writer
	start    time.Time
	deadline time.Time
	tmp      string // scratch directory for stores, inside --out

	attempted, failed int
	metrics           map[string]metric
	env               map[string]any
}

var workloads = map[string]func(*bench) error{
	"monitor-serial":  func(b *bench) error { return runMonitorWorkload(b, 1) },
	"monitor-sharded": func(b *bench) error { return runMonitorWorkload(b, 2) },
	"chain-build":     runChainWorkload,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "monitor-serial, monitor-sharded or chain-build")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&opt.size, "size", "full", "full, or small for the smoke test")
	fs.StringVar(&opt.out, "out", ".bench_build", "directory for scratch stores and span files")
	fs.StringVar(&opt.commit, "commit", "none", "commit the binary was built from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	wl, ok := workloads[opt.workload]
	sz, szOK := sizes[opt.size]
	if !ok || !szOK || (trace != 0 && trace != 1) || opt.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q size %q trace %d seconds %g\n",
			opt.workload, opt.size, trace, opt.seconds)
		return 2
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(opt.out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		opt: opt, sz: sz, log: stdout, tmp: tmp,
		start:   time.Now(),
		metrics: make(map[string]metric),
		env:     make(map[string]any),
	}
	b.deadline = b.start.Add(time.Duration(opt.seconds * float64(time.Second)))
	if opt.trace {
		b.tr = newTracer()
	}
	b.stampEnv()
	if err := wl(b); err != nil {
		b.fail("%v", err)
	}
	if !opt.trace {
		b.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		spans := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := b.tr.write(spans); err != nil {
			b.fail("writing spans: %v", err)
		} else {
			b.env["spans_file"] = spans
		}
	}
	return b.finish(stdout)
}

// stampEnv records the environment every result is read against.
func (b *bench) stampEnv() {
	b.env["workload"] = b.opt.workload
	b.env["seed"] = b.opt.seed
	b.env["seconds"] = b.opt.seconds
	b.env["trace"] = b.opt.trace
	b.env["size"] = b.opt.size
	b.env["cpus"] = runtime.NumCPU()
	b.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.env["go_version"] = runtime.Version()
	b.env["commit"] = b.opt.commit
	b.env["os_arch"] = runtime.GOOS + "/" + runtime.GOARCH
}

// op runs one operation: it counts as attempted, and as failed when fn
// returns an error (a failed check or a failed call).
func (b *bench) op(what string, fn func() error) {
	b.attempted++
	if err := fn(); err != nil {
		b.fail("%s: %v", what, err)
	}
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.log, "# CHECK FAILED: %s\n", fmt.Sprintf(format, args...))
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// note prints one human-readable line; every such line starts with '#'
// so the result line stays the only JSON object on standard output.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.log, "# "+format+"\n", args...)
}

// report sets name to the median over groups of k consecutive samples
// of each group's mean, and prints the summary of the group means.
func (b *bench) report(name, unit string, s samples, k int) {
	g := s.groupMeans(k)
	b.note("%s: %s (means of %d consecutive samples)", name, g.summary(true), k)
	b.set(name, g.median(), unit)
}

// remaining is the time left until the run's deadline.
func (b *bench) remaining() time.Duration { return time.Until(b.deadline) }

// finish prints the environment, the metrics and the result line, and
// returns the exit code: 0 only when every check passed and every
// metric the mode promises was measured.
func (b *bench) finish(w io.Writer) int {
	want := endToEnd
	if b.opt.trace {
		want = perLayer
	}
	out := result{Metrics: make(map[string]metric, len(want))}
	for _, d := range want {
		m, ok := b.metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s was not measured", d.name)
			continue
		}
		out.Metrics[d.name] = m
	}
	if b.attempted == 0 {
		b.attempted = 1
	}
	if b.failed > b.attempted {
		b.attempted = b.failed
	}
	b.env["attempted"] = b.attempted
	b.env["failed"] = b.failed
	b.env["fail_frac"] = float64(b.failed) / float64(b.attempted)
	b.env["wall_s"] = time.Since(b.start).Seconds()
	env, err := json.Marshal(b.env)
	if err != nil {
		b.fail("encoding environment: %v", err)
	}
	fmt.Fprintf(w, "# env %s\n", env)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# metric %-34s %20s %s\n", n, strconv.FormatFloat(out.Metrics[n].Value, 'g', -1, 64), out.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "# fail_frac %g (%d of %d operations failed)\n", b.env["fail_frac"], b.failed, b.attempted)
	out.Correct = b.failed == 0
	out.Attempted, out.Failed = b.attempted, b.failed
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "# encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
