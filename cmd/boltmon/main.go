// Command boltmon is the online contract monitor (§5.2 run live): it
// replays a generated workload or a pcap through a monitored NF,
// classifying every packet to its contract path, checking observed cost
// against the predicted bound, and paging when predictions exceed the
// provisioned budget — the operator's early warning that adversarial
// traffic is steering the NF towards a performance cliff.
//
// Usage:
//
//	boltmon -trace attack   -expect alert   # §5.2: collision attack must page
//	boltmon -trace benign   -expect quiet   # equal-rate benign burst must not
//	boltmon -trace uniform                  # watch a uniform workload
//	boltmon -pcap trace.pcap [-inport P]    # watch a captured trace
//	boltmon -benchjson BENCH_monitor.json   # monitored-vs-bare overhead
//	boltmon -store DIR -nf N -key PREFIX    # monitor a stored contract
//	boltmon -bvm FILE [-expect quiet]       # interpreter-driven bytecode watch
//
// Watch mode monitors the attack-tuned bridge by default; -nf NAME
// watches a roster NF under uniform traffic instead (bytecode roster
// NFs run their compiled nfir like any builtin). -bvm FILE instead
// loads a bytecode program and drives the *interpreter* per packet,
// while the budget is calibrated on the compiled form — the two are
// equivalent by construction, so the monitor staying quiet on benign
// traffic is an end-to-end check of the frontend. With -store DIR
// contract generation is backed by the shared on-disk store, so a
// contract bolt or boltbench already generated is loaded, not rebuilt;
// with -key the contract MUST come from the store (wrong or missing keys
// error — no silent regeneration). -shards N fans classification out to
// N flow-hashed monitor shards over batched ingest (-batch) through
// per-shard channels (-queue sets the depth in batches);
// -cpuprofile/-memprofile write pprof profiles of whichever mode ran.
// -shard-aware additionally prices the N-shard deployment into the
// checks: cycle bounds include the contract's contention term at N
// shards, and a -clockhz/-pps-derived budget becomes the per-shard
// budget N·clockhz/pps (each of N cores need only sustain pps/N).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"

	"gobolt/internal/bvm"
	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/experiments"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/pcap"
	"gobolt/internal/perf"
	"gobolt/internal/store"
	"gobolt/internal/traffic"
)

func main() {
	var (
		scale     = flag.String("scale", "default", "experiment scale: default or quick")
		trace     = flag.String("trace", "attack", "trace to replay: attack, benign, uniform")
		pcapPath  = flag.String("pcap", "", "replay this pcap through the monitored bridge instead of a generated trace")
		inPort    = flag.Uint64("inport", 0, "arrival port for pcap packets")
		packets   = flag.Int("packets", 0, "override the scale's per-class packet count")
		parallel  = flag.Int("parallel", 0, "contract-generation worker pool (0 = one per CPU, 1 = serial)")
		budget    = flag.Uint64("budget", 0, "explicit overload budget (default: calibrated from benign traffic)")
		trigger   = flag.Int("trigger", 3, "consecutive over-budget packets before paging")
		clearN    = flag.Int("clear", 8, "consecutive calm packets before un-paging")
		metric    = flag.String("metric", "instructions", "budgeted metric: instructions, memaccesses, cycles")
		expect    = flag.String("expect", "", "exit nonzero unless the outcome matched: alert or quiet")
		benchjson = flag.String("benchjson", "", "run the monitor overhead benchmark and write its JSON here")
		benchruns = flag.Int("benchruns", 3, "benchmark passes per mode (best-of)")
		nfName    = flag.String("nf", "", "watch this roster NF instead of the attack-tuned bridge: "+nf.NamesList())
		bvmFile   = flag.String("bvm", "", "watch a .bvm bytecode program, driving the interpreter per packet")
		storeDir  = flag.String("store", "", "back contract generation with the on-disk store at this directory (shared with bolt/boltbench/boltctl)")
		shards    = flag.Int("shards", 0, "flow-hashed monitor shards (0 or 1 = serial pooled path)")
		batch     = flag.Int("batch", 0, "packets per shard ingest batch in sharded mode (0 = default)")
		queue     = flag.Int("queue", 0, "per-shard ingest queue depth in batches (0 = default 4)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		shAware   = flag.Bool("shard-aware", false, "price the -shards deployment into the checks: shard-aware cycle bounds, per-shard budget")
		clockHz   = flag.Float64("clockhz", 0, "core clock for a derived cycle budget (with -pps; overrides -budget calibration)")
		pps       = flag.Float64("pps", 0, "aggregate target packets/sec for a derived cycle budget (with -clockhz)")
		keyArg    = flag.String("key", "", "monitor with this stored contract (key or unambiguous prefix, requires -store and -nf); never regenerates")
	)
	flag.Parse()

	if err := startProfiles(*cpuProf, *memProf); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sc := experiments.DefaultScale()
	if *scale == "quick" {
		sc = experiments.QuickScale()
	}
	sc.Parallelism = *parallel
	if *packets > 0 {
		sc.Packets = *packets
	}
	sc.MonitorShards = *shards
	sc.MonitorBatch = *batch
	sc.MonitorQueue = *queue
	var st *store.Store
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		st = s
		sc.Cache = core.NewContractCache()
		sc.Cache.AttachDisk(s)
	}

	// -key mode: the contract is a durable artifact loaded by content key.
	// Generation is refused outright — a missing or wrong key is an error,
	// never a silent rebuild (the operator asked to monitor a *specific*
	// reviewed contract).
	var fixed *core.Contract
	if *keyArg != "" {
		if st == nil {
			fatal(fmt.Errorf("-key requires -store"))
		}
		if *nfName == "" {
			fatal(fmt.Errorf("-key requires -nf (the roster NF the stored contract describes)"))
		}
		key, err := st.Resolve(*keyArg)
		if err != nil {
			fatal(err)
		}
		payload, err := st.Get(key)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", key[:12], err))
		}
		a, err := core.DecodeArtifact(payload)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", key[:12], err))
		}
		fixed = a.Contract
		fmt.Printf("monitoring stored contract %s (%s, %d paths)\n", key[:12], a.Contract.NF, len(a.Contract.Paths))
	}

	if *benchjson != "" {
		res, err := experiments.MonitorBench(sc, *benchruns)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderMonitorBench(res))
		if err := experiments.WriteMonitorBenchJSON(*benchjson, res); err != nil {
			fatal(err)
		}
		fmt.Printf("(wrote %s)\n", *benchjson)
		return
	}

	m, err := perf.ParseMetric(*metric)
	if err != nil {
		fatal(err)
	}
	mcfg := monitor.Config{
		Metric: m, Budget: *budget, Trigger: *trigger, Clear: *clearN,
		Shards: *shards, Batch: *batch, Queue: *queue,
		ShardAware: *shAware, ClockHz: *clockHz, TargetPPS: *pps,
	}
	if *shAware && *shards <= 1 {
		fatal(fmt.Errorf("-shard-aware needs -shards N with N > 1 (there is no contention to price in)"))
	}

	var alerted bool
	switch {
	case *bvmFile != "":
		alerted, err = watchBVM(ctx, sc, mcfg, *bvmFile)
	case fixed != nil || *pcapPath != "" || *trace == "uniform":
		alerted, err = watch(ctx, sc, mcfg, *nfName, *pcapPath, *inPort, fixed)
	case *trace == "attack" || *trace == "benign":
		res, aerr := experiments.AttackDetection(sc)
		if aerr != nil {
			fatal(aerr)
		}
		fmt.Print(experiments.RenderAttackDetection(res))
		if *trace == "attack" {
			alerted = res.Detected()
		} else {
			alerted = res.BenignOverloads > 0 || res.Violations > 0
		}
	default:
		err = fmt.Errorf("unknown trace %q", *trace)
	}
	if err != nil {
		fatal(err)
	}

	switch *expect {
	case "":
	case "alert":
		if !alerted {
			fatal(fmt.Errorf("expected an alert, none fired"))
		}
		fmt.Println("expectation met: alerted")
	case "quiet":
		if alerted {
			fatal(fmt.Errorf("expected quiet, but the monitor alerted"))
		}
		fmt.Println("expectation met: quiet")
	default:
		fatal(fmt.Errorf("unknown -expect %q (want alert or quiet)", *expect))
	}
}

// watch replays a uniform workload or a pcap through a monitored NF,
// calibrating a budget from benign traffic when none was given. An
// empty nfName means the attack-tuned bridge the §5.2 experiments use;
// any roster name watches that NF under uniform UDP (or bridge-frame)
// traffic. A non-nil fixed contract (the -key mode) is used as-is —
// watch never generates one in that case.
func watch(ctx context.Context, sc experiments.Scale, mcfg monitor.Config, nfName, pcapPath string, inPort uint64, fixed *core.Contract) (bool, error) {
	// build returns a fresh instance each call: calibration and the
	// monitored run must not share mutable NF state.
	build := func() (*nf.Instance, *core.Contract, error) {
		if fixed != nil {
			inst, err := nf.Build(nfName, nf.BuildParams{Capacity: sc.TableCapacity})
			if err != nil {
				return nil, nil, err
			}
			return inst, fixed, nil
		}
		if nfName == "" {
			br, ct, err := experiments.AttackBridge(sc)
			if err != nil {
				return nil, nil, err
			}
			return br.Instance, ct, nil
		}
		inst, err := nf.Build(nfName, nf.BuildParams{Capacity: sc.TableCapacity})
		if err != nil {
			return nil, nil, err
		}
		ct, err := sc.Generator().Generate(inst.Prog, inst.Models)
		return inst, ct, err
	}
	gen := func(packets int, seed int64) []traffic.Packet {
		if nfName == "" || nfName == "bridge" {
			return traffic.BridgeFrames(traffic.BridgeConfig{
				Packets: packets, MACs: sc.TableCapacity / 4, Ports: 4,
				StartNS: 1_000, GapNS: 1_000, Seed: seed,
			})
		}
		return traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: packets, Flows: sc.TableCapacity / 4, NewFlowEvery: 16,
			StartNS: 1_000, GapNS: 1_000, Seed: seed, InPort: inPort,
		})
	}

	inst, ct, err := build()
	if err != nil {
		return false, err
	}
	// A -clockhz/-pps pair derives the budget inside monitor.New
	// (per-shard under -shard-aware); only budget-less, derivation-less
	// configs calibrate from benign traffic.
	if mcfg.Budget == 0 && (mcfg.ClockHz <= 0 || mcfg.TargetPPS <= 0) {
		calInst, calCt, err := build()
		if err != nil {
			return false, err
		}
		mcfg.Budget, err = monitor.Calibrate(ctx, calCt, mcfg, calInst, gen(sc.Packets, 41), 1.25)
		if err != nil {
			return false, err
		}
		fmt.Printf("calibrated budget: %d %s/pkt\n", mcfg.Budget, mcfg.Metric)
	}
	mon, err := monitor.New(ct, mcfg)
	if err != nil {
		return false, err
	}
	var pkts []traffic.Packet
	if pcapPath != "" {
		f, err := os.Open(pcapPath)
		if err != nil {
			return false, err
		}
		defer f.Close()
		recs, err := pcap.ReadAll(f)
		if err != nil {
			return false, err
		}
		pkts = traffic.FromPCAP(recs, inPort)
	} else {
		pkts = gen(sc.Packets*4, 13)
	}
	if _, err := mon.Run(ctx, inst, pkts); err != nil {
		return false, err
	}
	fmt.Print(mon.Report())
	for _, a := range mon.Alerts() {
		if a.Kind == monitor.AlertOverload || a.Kind == monitor.AlertViolation {
			return true, nil
		}
	}
	return false, nil
}

// watchBVM monitors a bytecode program with the interpreter in the data
// path: the contract is generated from the compiled nfir (as always) and
// the budget calibrated on a compiled-execution run, but the monitored
// run executes the bytecode directly — any compiler/interpreter
// disagreement shows up as unclassified packets or budget alerts.
func watchBVM(ctx context.Context, sc experiments.Scale, mcfg monitor.Config, path string) (bool, error) {
	build := func() (*bvm.Unit, *nf.Instance, *core.Contract, error) {
		unit, inst, err := nf.LoadBVMUnit(path, nf.BuildParams{Capacity: sc.TableCapacity})
		if err != nil {
			return nil, nil, nil, err
		}
		ct, err := sc.Generator().Generate(inst.Prog, inst.Models)
		return unit, inst, ct, err
	}
	gen := func(packets int, seed int64) []traffic.Packet {
		return traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: packets, Flows: sc.TableCapacity / 4, NewFlowEvery: 16,
			StartNS: 1_000, GapNS: 1_000, Seed: seed,
		})
	}

	unit, inst, ct, err := build()
	if err != nil {
		return false, err
	}
	fmt.Printf("watching %s (%s, %d paths, interpreter-driven)\n", ct.NF, unit.Source, len(ct.Paths))
	if mcfg.Budget == 0 {
		_, calInst, calCt, err := build()
		if err != nil {
			return false, err
		}
		mcfg.Budget, err = monitor.Calibrate(ctx, calCt, mcfg, calInst, gen(sc.Packets, 41), 1.25)
		if err != nil {
			return false, err
		}
		fmt.Printf("calibrated budget: %d %s/pkt\n", mcfg.Budget, mcfg.Metric)
	}
	mon, err := monitor.New(ct, mcfg)
	if err != nil {
		return false, err
	}
	if err := interpRun(ctx, unit, inst, mon, gen(sc.Packets*4, 13)); err != nil {
		return false, err
	}
	fmt.Print(mon.Report())
	for _, a := range mon.Alerts() {
		if a.Kind == monitor.AlertOverload || a.Kind == monitor.AlertViolation {
			return true, nil
		}
	}
	return false, nil
}

// interpRun is the interpreter's analogue of Monitor.Run: one bvm.Run
// per packet with the same metering, call logging and PCV capture the
// nfir runner provides, each observation fed to the monitor inline.
func interpRun(ctx context.Context, unit *bvm.Unit, inst *nf.Instance, mon *monitor.Monitor, pkts []traffic.Packet) error {
	var log core.CallLog
	core.AttachCallLog(inst.Env, &log)
	meter := perf.NewMeter(nil)
	inst.Env.Meter = meter
	for i, p := range pkts {
		if i%1024 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		inst.Env.ResetPacket(p.Data, p.InPort, p.Time)
		log.Reset()
		before := meter.Snapshot()
		act, err := bvm.Run(unit.BC, inst.Env)
		if err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
		delta := meter.Since(before)
		pcvs := make(map[string]uint64, len(inst.Env.PCVs()))
		for k, v := range inst.Env.PCVs() {
			pcvs[k] = v
		}
		rec := distill.Record{Action: act, IC: delta.Instructions, MA: delta.MemAccesses, PCVs: pcvs}
		mon.Observe(p, &rec, log.Records())
	}
	return nil
}

// profileStop finalises any active profiles exactly once; fatal() runs
// it too, so -cpuprofile/-memprofile survive error exits.
var (
	profileStop func()
	profileOnce sync.Once
)

// startProfiles begins CPU profiling and/or arranges a heap profile at
// exit. Either path may be empty.
func startProfiles(cpuPath, memPath string) error {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}
	profileStop = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "boltmon: wrote CPU profile to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "boltmon:", err)
				return
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "boltmon:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "boltmon: wrote heap profile to %s\n", memPath)
		}
	}
	return nil
}

func stopProfiles() {
	if profileStop != nil {
		profileOnce.Do(profileStop)
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "boltmon:", err)
	os.Exit(1)
}
