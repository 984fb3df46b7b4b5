package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/dslib"
	"gobolt/internal/experiments"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/store"
	"gobolt/internal/traffic"
)

// burstFrames is the length of the §5.2 colliding-MAC burst: twice the
// attack bridge's rehash threshold, so the rehash cliff lies inside it.
const burstFrames = 32

// calibrationFactor is the operator's provisioning margin over the worst
// benign prediction.
const calibrationFactor = 1.25

// deployEvery is how many monitored replays an untraced monitor run
// makes per extra deployment.
const deployEvery = 10

// replayGroup and deployGroup are how many consecutive replays and
// deployments make one sample of the reported medians (see groupMeans).
const (
	replayGroup = 8
	deployGroup = 4
)

// perCallPasses bounds how many traced passes record a span per packet
// call, which keeps the in-memory span list small.
const perCallPasses = 4

var ctx = context.Background()

// monitorInputs is a seeded monitored trace: a warm-up that teaches the
// bridge every station, a benign replay of the same conversations, and
// the colliding-MAC burst after it.
type monitorInputs struct {
	warm, benign, attack, trace []traffic.Packet
}

// bridgeInputs builds the trace for a bridge whose MAC table is table.
// The table's hash seed decides which MACs collide, so every instance
// built with the same configuration is attacked by the same burst.
func bridgeInputs(b *bench, table *dslib.FlowTable) (monitorInputs, error) {
	sz, seed := b.sz, b.opt.seed
	streams := traffic.BridgeStreams(traffic.StreamConfig{
		Streams: sz.conversations, PacketsPerStream: sz.warmPer + sz.measPer, Seed: seed,
	})
	warm := make([][]traffic.Packet, len(streams))
	meas := make([][]traffic.Packet, len(streams))
	for i, s := range streams {
		warm[i], meas[i] = s[:sz.warmPer], s[sz.warmPer:]
	}
	var in monitorInputs
	in.warm = traffic.Interleave(seed, 1_000, 1_000, warm...)
	start := 1_000 + uint64(len(in.warm))*1_000
	in.benign = traffic.Interleave(seed+1, start, 1_000, meas...)
	start += uint64(len(in.benign)) * 1_000
	in.attack = traffic.CollidingFrames(table, burstFrames, start, 1_000, seed)
	if in.attack == nil {
		return in, errors.New("the collision search found no colliding MACs")
	}
	in.trace = append(append([]traffic.Packet(nil), in.benign...), in.attack...)
	b.env["conversations"] = sz.conversations
	b.env["warm_packets"] = len(in.warm)
	b.env["trace_packets"] = len(in.trace)
	b.env["attack_packets"] = len(in.attack)
	return in, nil
}

// monitorJob is one monitored bridge deployment: its contract, its
// monitor configuration, fresh instances of the NF, and the trace.
type monitorJob struct {
	b     *bench
	ct    *core.Contract
	cfg   monitor.Config
	fresh func() (*nf.Instance, error)
	in    monitorInputs
	// ref is the serial monitor's Report() and Alerts() on the trace;
	// every replay, sharded or not, must render exactly this.
	ref string
}

// calibrate sets the overload budget from the benign traffic, replayed
// on an instance of its own.
func (j *monitorJob) calibrate() error {
	inst, err := j.fresh()
	if err != nil {
		return err
	}
	benign := append(append([]traffic.Packet(nil), j.in.warm...), j.in.benign...)
	h := j.b.tr.begin("monitor.Calibrate")
	budget, err := monitor.Calibrate(ctx, j.ct, j.cfg, inst, benign, calibrationFactor)
	j.b.tr.end(h)
	if err != nil {
		return err
	}
	j.cfg.Budget = budget
	j.b.env["budget_ic"] = budget
	return nil
}

// ready builds a monitor over a fresh, warmed instance.
func (j *monitorJob) ready(cfg monitor.Config) (*monitor.Monitor, *nf.Instance, error) {
	inst, err := j.fresh()
	if err != nil {
		return nil, nil, err
	}
	h := j.b.tr.begin("monitor.New")
	mon, err := monitor.New(j.ct, cfg)
	j.b.tr.end(h)
	if err != nil {
		return nil, nil, err
	}
	if err := mon.Warm(ctx, inst, j.in.warm); err != nil {
		return nil, nil, err
	}
	return mon, inst, nil
}

// replayResult is one monitored replay of the trace.
type replayResult struct {
	run, merge time.Duration // Monitor.Run; Report() + Alerts()
	allocs     uint64        // heap allocations during Monitor.Run
	rendered   string        // Report() followed by every alert
	delay      int           // packets from attack start to the first page
	flushes    int
}

// replay runs the trace once through a fresh monitor with cfg and checks
// what the paper promises for it: every packet classified and within its
// bound, no page on the benign prefix, and a page inside the burst
// before the rehash cliff.
func (j *monitorJob) replay(cfg monitor.Config) (replayResult, error) {
	var r replayResult
	mon, inst, err := j.ready(cfg)
	if err != nil {
		return r, err
	}
	runtime.GC() // start every timed replay without the set-up's GC debt
	var before, after runtime.MemStats
	if j.b.tr != nil {
		runtime.ReadMemStats(&before)
	}
	h := j.b.tr.begin(runSpan(cfg))
	t0 := time.Now()
	recs, err := mon.Run(ctx, inst, j.in.trace)
	t1 := time.Now()
	j.b.tr.end(h)
	if j.b.tr != nil {
		runtime.ReadMemStats(&after)
	}
	h = j.b.tr.begin("monitor.Monitor.Report")
	report := mon.Report()
	j.b.tr.end(h)
	h = j.b.tr.begin("monitor.Monitor.Alerts")
	alerts := mon.Alerts()
	j.b.tr.end(h)
	r.run, r.merge = t1.Sub(t0), time.Since(t1)
	r.allocs = after.Mallocs - before.Mallocs
	if err != nil {
		return r, err
	}
	r.flushes = mon.PartialFlushes()
	r.rendered, r.delay, err = j.verdict(mon, report, alerts, recs)
	return r, err
}

// verdict renders the monitor's output and checks it against the
// trace's expectations.
func (j *monitorJob) verdict(mon *monitor.Monitor, report string, alerts []monitor.Alert, recs []distill.Record) (string, int, error) {
	var sb strings.Builder
	sb.WriteString(report)
	for _, a := range alerts {
		sb.WriteString(a.String())
		sb.WriteByte('\n')
	}
	if v, u := mon.Violations(), mon.Unclassified(); v != 0 || u != 0 {
		return sb.String(), 0, fmt.Errorf("%d violations and %d unclassified packets, want none", v, u)
	}
	nb := len(j.in.benign)
	page := -1
	for _, a := range alerts {
		if a.Kind != monitor.AlertOverload {
			continue
		}
		if a.PacketIndex < nb {
			return sb.String(), 0, fmt.Errorf("overload page at benign packet %d", a.PacketIndex)
		}
		page = a.PacketIndex
		break
	}
	if page < 0 || page >= len(j.in.trace) {
		return sb.String(), 0, errors.New("the colliding burst raised no overload page")
	}
	for i := nb; i < len(recs); i++ {
		if recs[i].PCVs["o"] > 0 {
			if page >= i {
				return sb.String(), 0, fmt.Errorf("page at packet %d is not before the rehash cliff at %d", page, i)
			}
			break
		}
	}
	return sb.String(), page - nb, nil
}

// reference replays the trace through the default serial monitor and
// keeps its output as the one every later replay must match.
func (j *monitorJob) reference() error {
	r, err := j.replay(monitor.Config{Budget: j.cfg.Budget})
	j.ref = r.rendered
	return err
}

// replayOnce is one measured operation: a monitored replay that must
// render the reference output; it adds the replay's time per packet and
// alert delay to the samples.
func (j *monitorJob) replayOnce(nsPerPkt, delay *samples) {
	j.b.op("monitored replay", func() error {
		r, err := j.replay(j.cfg)
		if err != nil {
			return err
		}
		if r.rendered != j.ref {
			return errors.New("Report() and Alerts() differ from the serial monitor's on the same trace")
		}
		nsPerPkt.add(float64((r.run + r.merge).Nanoseconds()) / float64(len(j.in.trace)))
		delay.add(float64(r.delay))
		return nil
	})
}

func shardsOf(cfg monitor.Config) int {
	if cfg.Shards < 1 {
		return 1
	}
	return cfg.Shards
}

// runSpan names the Monitor.Run span of a configuration.
func runSpan(cfg monitor.Config) string {
	return fmt.Sprintf("monitor.Monitor.Run[shards=%d]", shardsOf(cfg))
}

// setMonitorMetrics reports the end-to-end monitor figures: packets
// per second over groups of replayGroup consecutive replays, and the
// alert delay.
func (j *monitorJob) setMonitorMetrics(nsPerPkt, delay samples) {
	var pps samples
	for _, ns := range nsPerPkt.groupMeans(replayGroup) {
		pps.add(1e9 / ns)
	}
	j.b.note("monitor_pps: %s (groups of %d consecutive replays)", pps.summary(false), replayGroup)
	j.b.note("alert_delay_pkts: %s", delay.summary(true))
	j.b.set("monitor_pps", pps.median(), "pkt/s")
	j.b.set("alert_delay_pkts", delay.median(), "packets")
}

// probe runs the monitor-side layer probes until the deadline: the bare
// replay, the workload's Monitor.Run and its merge, the same trace under
// the other shard count, and — on the first passes — one span per
// packet call into nfir, core and monitor.
func (j *monitorJob) probe() {
	b, tr := j.b, j.b.tr
	n := float64(len(j.in.trace))
	var replayNs, replayAllocs, monAllocs, mergeUs, serialNs, shardedNs samples
	var untracedPPS, tracedPPS, resetNs, runNs, observeNs, classifyNs, callsPerPkt samples
	classes := make(map[string]bool)
	flushes := 0
	shards := shardsOf(j.cfg)
	other := j.cfg
	other.Shards = 3 - shards // the serial/2-shard counterpart
	runNsBy := map[int]*samples{1: &serialNs, 2: &shardedNs}
	for pass := 0; pass == 0 || b.remaining() > 0; pass++ {
		tr.nextRun()
		b.op("bare replay", func() error {
			ns, allocs, err := j.bareReplay()
			replayNs.add(ns)
			replayAllocs.add(allocs)
			return err
		})
		b.op("traced monitored replay", func() error {
			r, err := j.replay(j.cfg)
			if err == nil && r.rendered != j.ref {
				err = errors.New("Report() and Alerts() differ from the serial monitor's on the same trace")
			}
			untracedPPS.add(n / (r.run + r.merge).Seconds())
			monAllocs.add(float64(r.allocs) / n)
			mergeUs.add(float64(r.merge.Nanoseconds()) / 1e3)
			flushes = r.flushes
			runNsBy[shards].add(float64(r.run.Nanoseconds()) / n)
			return err
		})
		b.op("shard counterpart replay", func() error {
			r, err := j.replay(other)
			if err == nil && r.rendered != j.ref {
				err = errors.New("Report() and Alerts() differ between shard counts")
			}
			runNsBy[other.Shards].add(float64(r.run.Nanoseconds()) / n)
			return err
		})
		if pass >= perCallPasses {
			continue
		}
		b.op("per-call replay", func() error {
			mark := tr.mark()
			calls, wall, err := j.perCallReplay()
			if err != nil {
				return err
			}
			ss := tr.since(mark)
			tracedPPS.add(n / wall.Seconds())
			resetNs.add(float64(total(ss, "nfir.Env.ResetPacket").Nanoseconds()) / n)
			runNs.add(float64(total(ss, "nfir.Env.Run").Nanoseconds()) / n)
			observeNs.add(float64(total(ss, "monitor.Monitor.Observe").Nanoseconds()) / n)
			callsPerPkt.add(float64(calls) / n)
			return nil
		})
		b.op("per-call classification", func() error {
			mark := tr.mark()
			if err := j.classifyPass(classes); err != nil {
				return err
			}
			classifyNs.add(float64(total(tr.since(mark), "core.Classifier.ClassifyKeyed").Nanoseconds()) / n)
			return nil
		})
	}
	b.set("distill.replay_ns_per_pkt", replayNs.median(), "ns")
	b.set("distill.allocs_per_pkt", replayAllocs.median(), "allocs")
	b.set("nfir.reset_ns_per_pkt", resetNs.median(), "ns")
	b.set("nfir.run_ns_per_pkt", runNs.median(), "ns")
	b.set("core.calls_per_pkt", callsPerPkt.median(), "count")
	b.set("core.classify_ns_per_pkt", classifyNs.median(), "ns")
	b.set("core.classes_seen", float64(len(classes)), "count")
	b.set("monitor.observe_ns_per_pkt", observeNs.median(), "ns")
	b.set("monitor.allocs_per_pkt", monAllocs.median(), "allocs")
	b.set("monitor.shard_delta_ns_per_pkt", shardedNs.median()-serialNs.median(), "ns")
	b.set("monitor.partial_flushes", float64(flushes), "count")
	b.set("monitor.merge_us", mergeUs.median(), "us")
	b.set("trace.monitor_overhead", untracedPPS.median()/tracedPPS.median()-1, "ratio")
	b.note("untraced monitor_pps %s; per-call traced %s", untracedPPS.summary(false), tracedPPS.summary(false))
	b.note("Monitor.Run ns/pkt: serial %s; 2 shards %s", serialNs.summary(true), shardedNs.summary(true))
}

// bareReplay times distill.Runner.Run over the trace on a warmed
// instance, with no monitor attached.
func (j *monitorJob) bareReplay() (nsPerPkt, allocsPerPkt float64, err error) {
	inst, err := j.fresh()
	if err != nil {
		return 0, 0, err
	}
	runner := &distill.Runner{}
	if _, err := runner.Run(inst, j.in.warm); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := j.b.tr.begin("distill.Runner.Run")
	t0 := time.Now()
	_, err = runner.Run(inst, j.in.trace)
	d := time.Since(t0)
	j.b.tr.end(h)
	runtime.ReadMemStats(&after)
	n := float64(len(j.in.trace))
	return float64(d.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n, err
}

// perCallReplay drives the monitored pipeline one public call at a
// time — Env.ResetPacket, Env.Run with the call log attached, and
// Monitor.Observe — with a span around each, and checks that the monitor
// it fed renders the reference output. It returns the recorded calls
// and the pass's wall time.
func (j *monitorJob) perCallReplay() (calls int, wall time.Duration, err error) {
	tr := j.b.tr
	mon, inst, err := j.ready(j.cfg)
	if err != nil {
		return 0, 0, err
	}
	var log core.CallLog
	restore := core.AttachCallLog(inst.Env, &log)
	defer restore()
	meter := perf.NewMeter(nil)
	inst.Env.Meter = meter
	runtime.GC()
	t0 := time.Now()
	root := tr.begin("monitor.replay-per-call")
	recs := make([]distill.Record, 0, len(j.in.trace))
	for _, p := range j.in.trace {
		log.Reset()
		h := tr.begin("nfir.Env.ResetPacket")
		inst.Env.ResetPacket(p.Data, p.InPort, p.Time)
		tr.end(h)
		before := meter.Snapshot()
		h = tr.begin("nfir.Env.Run")
		act, err := inst.Env.Run(inst.Prog)
		tr.end(h)
		if err != nil {
			tr.end(root)
			return 0, 0, err
		}
		delta := meter.Since(before)
		rec := distill.Record{
			Action: act, IC: delta.Instructions, MA: delta.MemAccesses,
			PCVs: make(map[string]uint64, len(inst.Env.PCVs())),
		}
		for k, v := range inst.Env.PCVs() {
			rec.PCVs[k] = v
		}
		calls += len(log.Records())
		h = tr.begin("monitor.Monitor.Observe")
		mon.Observe(p, &rec, log.Records())
		tr.end(h)
		recs = append(recs, rec)
	}
	tr.end(root)
	wall = time.Since(t0)
	rendered, _, err := j.verdict(mon, mon.Report(), mon.Alerts(), recs)
	if err == nil && rendered != j.ref {
		err = errors.New("Monitor.Observe fed one call at a time renders other output than Monitor.Run")
	}
	return calls, wall, err
}

// classifyPass replays the trace and classifies every packet with the
// contract's classifier, a span around each ClassifyKeyed call.
func (j *monitorJob) classifyPass(classes map[string]bool) error {
	tr := j.b.tr
	inst, err := j.fresh()
	if err != nil {
		return err
	}
	if _, err := (&distill.Runner{}).Run(inst, j.in.warm); err != nil {
		return err
	}
	cls, err := core.NewClassifier(j.ct)
	if err != nil {
		return err
	}
	var log core.CallLog
	restore := core.AttachCallLog(inst.Env, &log)
	defer restore()
	inst.Env.Meter = perf.NewMeter(nil)
	var key []byte
	root := tr.begin("core.classify-pass")
	defer tr.end(root)
	for i, p := range j.in.trace {
		log.Reset()
		inst.Env.ResetPacket(p.Data, p.InPort, p.Time)
		act, err := inst.Env.Run(inst.Prog)
		if err != nil {
			return err
		}
		pktLen := uint64(len(p.Data))
		if pktLen > nfir.MaxPacket {
			pktLen = nfir.MaxPacket
		}
		obs := core.PacketObservation{
			Pkt: p.Data, InPort: p.InPort, Time: p.Time, PktLen: pktLen,
			Action: act.Kind, Calls: log.Records(),
		}
		h := tr.begin("core.Classifier.ClassifyKeyed")
		pc, ok := cls.ClassifyKeyed(&obs, &key)
		tr.end(h)
		if !ok {
			return fmt.Errorf("packet %d matched no contract path", i)
		}
		classes[pc.Class()] = true
	}
	return nil
}

// runMonitorWorkload is monitor-serial (shards 1) and monitor-sharded
// (shards 2): the attack-tuned bridge, deployed from nothing several
// times, then replaying the seeded trace until the deadline.
func runMonitorWorkload(b *bench, shards int) error {
	cfg := monitor.Config{}
	if shards > 1 {
		cfg.Shards = shards
	}
	probe := b.sz.scale
	probe.Cache = core.NewContractCache()
	br, _, err := experiments.AttackBridge(probe)
	if err != nil {
		return err
	}
	in, err := bridgeInputs(b, br.Table)
	if err != nil {
		return err
	}

	var setupS, genS, loadS samples
	var job *monitorJob
	var storeMB float64
	deploy := func(i int) {
		b.tr.nextRun()
		b.op("deploy", func() error {
			dir := filepath.Join(b.tmp, fmt.Sprintf("bridge-%d", i))
			defer os.RemoveAll(dir)
			d, err := deployBridge(b, cfg, in, dir)
			if d == nil {
				return err
			}
			setupS.addDur(d.setup)
			genS.addDur(d.gen)
			loadS.addDur(d.load)
			storeMB = float64(d.storeBytes) / 1e6
			if job == nil {
				job = d.job
			}
			return err
		})
	}
	deploy(0)
	if job == nil {
		return errors.New("the first deployment failed")
	}
	b.op("serial reference replay", job.reference)
	setDeployMetrics := func(k int) {
		b.report("setup_s", "s", setupS, k)
		b.report("gen_s", "s", genS, k)
		b.report("load_s", "s", loadS, k)
		b.set("store_mb", storeMB, "MB")
	}
	if b.tr == nil {
		// Deploy again every deployEvery replays, so set-up, generation
		// and load are sampled across the whole run, as the replays are.
		var nsPerPkt, delay samples
		for n := 0; n == 0 || b.remaining() > 0; n++ {
			if n%deployEvery == deployEvery-1 {
				deploy(n)
			}
			job.replayOnce(&nsPerPkt, &delay)
		}
		setDeployMetrics(deployGroup)
		job.setMonitorMetrics(nsPerPkt, delay)
		return nil
	}
	for i := 1; i < b.sz.setups; i++ {
		deploy(i)
	}
	setDeployMetrics(1)
	traceStart := b.tr.now()
	job.probe()
	// The monitored NF is a single bridge: nothing is composed.
	setChainLayers(b, nil)
	finishTraced(b, traceStart)
	return nil
}

// finishTraced reports the monitor set-up calls' mean times and the
// share of the traced section (from traceStart on) that spans cover, and
// prints the self-time table.
func finishTraced(b *bench, traceStart int64) {
	ss := b.tr.since(0)
	mean := func(name string) time.Duration {
		return total(ss, name) / time.Duration(count(ss, name))
	}
	b.set("monitor.new_ms", float64(mean("monitor.New").Nanoseconds())/1e6, "ms")
	b.set("monitor.calibrate_s", mean("monitor.Calibrate").Seconds(), "s")
	b.set("trace.span_coverage", b.tr.coverage(traceStart, b.tr.now()), "ratio")
	renderSelf(b.log, ss)
}

// deployment is one bridge set-up from nothing to a warmed monitor.
type deployment struct {
	job              *monitorJob
	setup, gen, load time.Duration
	storeBytes       int64
}

// deployBridge sets the bridge's monitor up from nothing: build the NF
// and generate its contract on a fresh memory-only cache (gen),
// calibrate, build and warm the monitor (setup). It then persists the
// contract as a -store deployment would, untimed: a cold generation
// writing through to a fresh store in dir. Last comes the restart: a
// fresh cache over that store must serve the contract from disk (load).
// Traced runs also probe generation, the codec and the store on the
// bridge's object.
func deployBridge(b *bench, cfg monitor.Config, in monitorInputs, dir string) (*deployment, error) {
	tr := b.tr
	runtime.GC()
	t0 := time.Now()
	sc := b.sz.scale
	sc.Cache = core.NewContractCache()
	h := tr.begin("experiments.AttackBridge")
	tg := time.Now()
	br, ct, err := experiments.AttackBridge(sc)
	gen := time.Since(tg)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	job := &monitorJob{
		b: b, ct: ct, cfg: cfg, in: in,
		fresh: func() (*nf.Instance, error) {
			br, _, err := experiments.AttackBridge(sc)
			if err != nil {
				return nil, err
			}
			return br.Instance, nil
		},
	}
	if err := job.calibrate(); err != nil {
		return nil, err
	}
	h = tr.begin("monitor.New")
	mon, err := monitor.New(ct, job.cfg)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	if err := mon.Warm(ctx, br.Instance, in.warm); err != nil {
		return nil, err
	}
	d := &deployment{job: job, setup: time.Since(t0), gen: gen}

	st, err := store.Open(dir)
	if err != nil {
		return d, err
	}
	persist := core.NewContractCache()
	persist.AttachDisk(st)
	psc := b.sz.scale
	psc.Cache = persist
	if _, _, err := experiments.AttackBridge(psc); err != nil {
		return d, err
	}
	if d.storeBytes, err = dirBytes(dir); err != nil {
		return d, err
	}
	restart := core.NewContractCache()
	restart.AttachDisk(st)
	rsc := b.sz.scale
	rsc.Cache = restart
	runtime.GC()
	h = tr.begin("experiments.AttackBridge[restart]")
	tl := time.Now()
	_, lct, err := experiments.AttackBridge(rsc)
	d.load = time.Since(tl)
	tr.end(h)
	if err != nil {
		return d, err
	}
	if err := sameContract(ct, lct); err != nil {
		return d, fmt.Errorf("restart: %w", err)
	}
	if ts := restart.TierStats(); ts.Misses != 0 || ts.DiskHits == 0 {
		return d, fmt.Errorf("restart was not served from the store (%d misses, %d disk hits)", ts.Misses, ts.DiskHits)
	}
	if tr == nil {
		return d, nil
	}
	// Generation alone, on a fresh memory-only cache.
	g := b.sz.scale.Generator()
	g.Cache = core.NewContractCache()
	h = tr.begin("core.Generator.Generate")
	tg = time.Now()
	_, err = g.Generate(br.Prog, br.Models)
	traced := time.Since(tg)
	tr.end(h)
	if err != nil {
		return d, err
	}
	cs, err := probeCodec(b, st, dir+"-scratch")
	if err != nil {
		return d, err
	}
	b.set("core.generate_s", traced.Seconds(), "s")
	cs.set(b, restart.TierStats().DiskHits)
	b.set("trace.gen_overhead", traced.Seconds()/gen.Seconds()-1, "ratio")
	return d, nil
}

// sameContract checks that two contracts encode to identical bytes.
func sameContract(want, got *core.Contract) error {
	wb, err := core.EncodeArtifact(&core.Artifact{Contract: want})
	if err != nil {
		return err
	}
	gb, err := core.EncodeArtifact(&core.Artifact{Contract: got})
	if err != nil {
		return err
	}
	if !bytes.Equal(wb, gb) {
		return errors.New("the loaded contract's EncodeArtifact bytes differ from the generated one's")
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
