package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/dslib"
	"gobolt/internal/experiments"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/store"
)

// chainShare is the part of a traced chain-build run spent building and
// reloading the chain; the rest probes the monitor of its bridge stage.
const chainShare = 0.7

// Per chain round, an untraced run also sets up setupsPerRound times
// and replays the bridge stage's trace replaysPerRound times, so every
// metric is sampled across the whole run.
const (
	setupsPerRound  = 2
	replaysPerRound = 16
)

// chainPaths is the 8-stage coalesced composite's path count at both
// sizes; a different count means composition now keeps other paths.
const chainPaths = 329

// chainGenerator is the deep-chain configuration: the default worker
// pool (one worker per CPU), the join index, and coalescing.
func chainGenerator(cache *core.ContractCache) *core.Generator {
	g := core.NewGenerator()
	g.Coalesce = true
	g.Cache = cache
	return g
}

// runChainWorkload is chain-build: the 8-stage chainbench roster built
// cold through a store and then reloaded by a restarted cache, over and
// over; afterwards the restarted deployment resumes monitoring the
// chain's bridge stage with the contract the store holds for it.
func runChainWorkload(b *bench) error {
	tr := b.tr
	var setupS samples
	var stages []core.ChainStage
	setup := func(i int) {
		tr.nextRun()
		b.op("setup", func() error {
			dir := filepath.Join(b.tmp, fmt.Sprintf("setup-%d", i))
			defer os.RemoveAll(dir)
			runtime.GC()
			t0 := time.Now()
			h := tr.begin("experiments.ChainBenchStages")
			s, _, err := experiments.ChainBenchStages(b.sz.scale)
			tr.end(h)
			if err != nil {
				return err
			}
			h = tr.begin("store.Open")
			_, err = store.Open(dir)
			tr.end(h)
			setupS.addDur(time.Since(t0))
			stages = s
			return err
		})
	}

	var genS, loadS samples
	var want []byte // the first round's cold composite bytes
	var last *store.Store
	var lastDir string
	var storeMB float64
	round := func(n int) {
		tr.nextRun()
		dir := filepath.Join(b.tmp, fmt.Sprintf("chain-%d", n))
		b.op("cold build and restart", func() error {
			r, err := buildAndReload(b, stages, dir, want)
			if r == nil {
				return err
			}
			genS.addDur(r.gen)
			loadS.addDur(r.load)
			storeMB = float64(r.storeBytes) / 1e6
			if want == nil {
				want = r.bytes
			}
			if lastDir != "" {
				os.RemoveAll(lastDir)
			}
			last, lastDir = r.st, dir
			return err
		})
	}
	setChainMetrics := func(setupGroup int) {
		b.report("setup_s", "s", setupS, setupGroup)
		b.report("gen_s", "s", genS, 1)
		b.report("load_s", "s", loadS, 1)
		b.set("store_mb", storeMB, "MB")
	}

	setup(0)
	if stages == nil {
		return errors.New("the first set-up failed")
	}
	b.env["chain_stages"] = len(stages)
	traceStart := tr.now()
	round(0)
	if last == nil {
		return errors.New("the first chain build failed")
	}
	// The restarted deployment resumes monitoring its bridge stage with
	// the contract the chain's store holds for it.
	job, err := stageMonitor(b, last)
	if err != nil {
		return err
	}
	b.op("serial reference replay", job.reference)

	if tr == nil {
		var nsPerPkt, delay samples
		for n := 1; n == 1 || b.remaining() > 0; n++ {
			round(n)
			for i := 0; i < setupsPerRound; i++ {
				setup(setupsPerRound*n + i)
			}
			for i := 0; i < replaysPerRound; i++ {
				job.replayOnce(&nsPerPkt, &delay)
			}
		}
		setChainMetrics(setupsPerRound)
		job.setMonitorMetrics(nsPerPkt, delay)
		return nil
	}
	for i := 1; i < b.sz.setups; i++ {
		setup(i)
	}
	chainUntil := b.start.Add(time.Duration(chainShare * b.opt.seconds * float64(time.Second)))
	for n := 1; time.Now().Before(chainUntil); n++ {
		round(n)
	}
	setChainMetrics(1)
	job.probe()
	finishTraced(b, traceStart)
	return nil
}

// chainRound is one cold build and restart of the chain.
type chainRound struct {
	gen, load  time.Duration
	storeBytes int64
	bytes      []byte // the cold composite's EncodeArtifact bytes
	st         *store.Store
}

// buildAndReload composes the chain cold through a fresh cache writing
// through to a fresh store in dir (gen), then composes it again through
// a fresh cache over the same store (load), and checks the restart: the
// same bytes as the cold composite (and as want, when set), no misses,
// at least one disk hit, and the pinned path count. Traced
// runs then break the round down by layer.
func buildAndReload(b *bench, stages []core.ChainStage, dir string, want []byte) (*chainRound, error) {
	tr := b.tr
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cold := core.NewContractCache()
	cold.AttachDisk(st)
	runtime.GC()
	h := tr.begin("core.ComposeManyStats[cold]")
	t0 := time.Now()
	ct, _, err := core.ComposeManyStats(ctx, chainGenerator(cold), stages)
	gen := time.Since(t0)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	r := &chainRound{gen: gen, st: st}
	restart := core.NewContractCache()
	restart.AttachDisk(st)
	runtime.GC()
	h = tr.begin("core.ComposeManyStats[restart]")
	t0 = time.Now()
	rct, _, err := core.ComposeManyStats(ctx, chainGenerator(restart), stages)
	r.load = time.Since(t0)
	tr.end(h)
	if err != nil {
		return r, err
	}
	if r.storeBytes, err = dirBytes(dir); err != nil {
		return r, err
	}
	if r.bytes, err = core.EncodeArtifact(&core.Artifact{Contract: ct}); err != nil {
		return r, err
	}
	if len(ct.Paths) != chainPaths {
		return r, fmt.Errorf("the composite has %d paths, want %d", len(ct.Paths), chainPaths)
	}
	if want != nil && !bytes.Equal(r.bytes, want) {
		return r, errors.New("the cold composite's bytes differ from the first round's")
	}
	if err := sameContract(ct, rct); err != nil {
		return r, fmt.Errorf("restart: %w", err)
	}
	ts := restart.TierStats()
	if ts.Misses != 0 || ts.DiskHits == 0 {
		return r, fmt.Errorf("restart was not served from the store (%d misses, %d disk hits)", ts.Misses, ts.DiskHits)
	}
	if tr == nil {
		return r, nil
	}
	return r, probeChain(b, stages, st, dir+"-scratch", ts.DiskHits, gen)
}

// probeChain breaks a chain build down by layer: the 8 stage
// generations on a fresh cache, the folds alone with the stages cached
// in memory, and the codec and store on every stored object.
func probeChain(b *bench, stages []core.ChainStage, st *store.Store, scratch string, diskHits uint64, gen time.Duration) error {
	tr := b.tr
	g := chainGenerator(core.NewContractCache())
	mark := tr.mark()
	for _, s := range stages {
		h := tr.begin("core.Generator.Generate")
		_, err := g.Generate(s.Prog, s.Models)
		tr.end(h)
		if err != nil {
			return err
		}
	}
	h := tr.begin("core.ComposeManyStats[folds]")
	ct, stats, err := core.ComposeManyStats(ctx, g, stages)
	tr.end(h)
	if err != nil {
		return err
	}
	if len(stats) != len(stages)-1 || len(ct.Paths) != chainPaths {
		return fmt.Errorf("folds-only compose ran %d folds into %d paths", len(stats), len(ct.Paths))
	}
	ss := tr.since(mark)
	genT, composeT := total(ss, "core.Generator.Generate"), total(ss, "core.ComposeManyStats[folds]")
	b.set("core.generate_s", genT.Seconds(), "s")
	b.set("core.compose_s", composeT.Seconds(), "s")
	setChainLayers(b, stats)
	cs, err := probeCodec(b, st, scratch)
	if err != nil {
		return err
	}
	cs.set(b, diskHits)
	traced := genT + composeT + cs.encode + cs.put
	b.set("trace.gen_overhead", traced.Seconds()/gen.Seconds()-1, "ratio")
	return nil
}

// setChainLayers reports the join pruning summed over the folds; with no
// folds (a single NF) every count is zero.
func setChainLayers(b *bench, stats []core.JoinStats) {
	var sum core.JoinStats
	for _, f := range stats {
		sum.Pairs += f.Pairs
		sum.IndexSkipped += f.IndexSkipped
		sum.PreFiltered += f.PreFiltered
		sum.SolverRefuted += f.SolverRefuted
		sum.Kept += f.Kept
		sum.CoalesceMerged += f.CoalesceMerged
		sum.PathsOut += f.PathsOut
	}
	b.set("core.join_pairs", float64(sum.Pairs), "count")
	b.set("core.join_index_skipped", float64(sum.IndexSkipped), "count")
	b.set("core.join_prefiltered", float64(sum.PreFiltered), "count")
	b.set("core.join_solver_refuted", float64(sum.SolverRefuted), "count")
	b.set("core.join_kept", float64(sum.Kept), "count")
	b.set("core.coalesce_merged", float64(sum.CoalesceMerged), "count")
	b.set("core.paths_out", float64(sum.PathsOut), "count")
	frac := 0.0
	if sum.Pairs > 0 {
		frac = float64(sum.Kept) / float64(sum.Pairs)
	}
	b.set("core.join_kept_frac", frac, "ratio")
	if stats == nil {
		b.set("core.compose_s", 0, "s")
	}
}

// codecStats is the codec and store work on every object of a store.
type codecStats struct {
	objects, bytesRead                 int
	get, decode, reencode, encode, put time.Duration
}

func (cs codecStats) set(b *bench, diskHits uint64) {
	b.set("core.encode_s", cs.encode.Seconds(), "s")
	b.set("store.put_s", cs.put.Seconds(), "s")
	b.set("store.get_s", cs.get.Seconds(), "s")
	b.set("core.decode_s", cs.decode.Seconds(), "s")
	b.set("core.reencode_s", cs.reencode.Seconds(), "s")
	b.set("store.objects", float64(cs.objects), "count")
	b.set("store.bytes_read", float64(cs.bytesRead), "bytes")
	b.set("core.disk_hits", float64(diskHits), "count")
}

// probeCodec reads every object of st (Store.Get), decodes it
// (DecodeArtifact, which includes its re-encode gate), re-encodes the
// decoded artifact at its version (the gate's share), encodes it as a
// write would (EncodeArtifact) and puts it into a scratch store.
func probeCodec(b *bench, st *store.Store, scratchDir string) (codecStats, error) {
	tr := b.tr
	var cs codecStats
	keys, err := st.Keys()
	if err != nil {
		return cs, err
	}
	scratch, err := store.Open(scratchDir)
	if err != nil {
		return cs, err
	}
	defer os.RemoveAll(scratchDir)
	mark := tr.mark()
	for _, k := range keys {
		h := tr.begin("store.Store.Get")
		payload, err := st.Get(k)
		tr.end(h)
		if err != nil {
			return cs, err
		}
		cs.bytesRead += len(payload)
		h = tr.begin("core.DecodeArtifact")
		a, err := core.DecodeArtifact(payload)
		tr.end(h)
		if err != nil {
			return cs, err
		}
		h = tr.begin("core.EncodeArtifactAt")
		re, err := core.EncodeArtifactAt(a, a.Version)
		tr.end(h)
		if err != nil {
			return cs, err
		}
		h = tr.begin("core.EncodeArtifact")
		enc, err := core.EncodeArtifact(a)
		tr.end(h)
		if err != nil {
			return cs, err
		}
		if !bytes.Equal(re, payload) || !bytes.Equal(enc, payload) {
			return cs, fmt.Errorf("object %s does not re-encode to its stored bytes", k[:12])
		}
		h = tr.begin("store.Store.Put")
		err = scratch.Put(k, enc, store.Meta{Kind: "contract", NF: a.Contract.NF, Level: a.Contract.Level, Paths: len(a.Contract.Paths)})
		tr.end(h)
		if err != nil {
			return cs, err
		}
	}
	ss := tr.since(mark)
	cs.objects = len(keys)
	cs.get = total(ss, "store.Store.Get")
	cs.decode = total(ss, "core.DecodeArtifact")
	cs.reencode = total(ss, "core.EncodeArtifactAt")
	cs.encode = total(ss, "core.EncodeArtifact")
	cs.put = total(ss, "store.Store.Put")
	return cs, nil
}

// stageMonitor deploys a monitor for the chain's bridge stage, with the
// contract a restarted cache loads from the chain's store.
func stageMonitor(b *bench, st *store.Store) (*monitorJob, error) {
	params := nf.BuildParams{Capacity: b.sz.scale.TableCapacity}
	fresh := func() (*nf.Instance, error) { return nf.Build("bridge", params) }
	inst, err := fresh()
	if err != nil {
		return nil, err
	}
	table, ok := inst.Env.DS["mac"].(*dslib.FlowTable)
	if !ok {
		return nil, errors.New("the bridge stage has no MAC flow table")
	}
	in, err := bridgeInputs(b, table)
	if err != nil {
		return nil, err
	}
	resume := core.NewContractCache()
	resume.AttachDisk(st)
	ct, err := chainGenerator(resume).Generate(inst.Prog, inst.Models)
	if err != nil {
		return nil, err
	}
	if ts := resume.TierStats(); ts.Misses != 0 || ts.DiskHits != 1 {
		return nil, fmt.Errorf("the bridge stage's contract was not loaded from the chain's store (%d misses, %d disk hits)", ts.Misses, ts.DiskHits)
	}
	job := &monitorJob{b: b, ct: ct, cfg: monitor.Config{}, fresh: fresh, in: in}
	return job, job.calibrate()
}
