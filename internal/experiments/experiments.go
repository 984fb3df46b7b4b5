// Package experiments defines the paper's evaluation (§5) as runnable
// scenarios: the 14 NF/packet-class accuracy measurements of Figure 1
// and Table 3, the P1–P3 hardware-model microbenchmarks, the bridge
// rehash analysis (Table 4, Figure 2), the firewall+router chain
// (Table 5, Figure 3), the VigNAT expiry-batching study (Tables 6–8,
// Figure 4), and the allocator comparison (Figures 5–7).
//
// Every experiment follows the paper's methodology: BOLT generates the
// contract from the code alone; the workload generator produces a
// packet class; the production build measures; the Distiller binds the
// PCVs; and the report compares the conservative prediction with the
// measurement.
package experiments

import (
	"fmt"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/hwmodel"
	"gobolt/internal/par"
	"gobolt/internal/perf"
)

// Scale sizes the experiments. The paper's testbed used tables of tens
// of thousands of entries; Default keeps runs in seconds on a laptop
// while preserving every qualitative effect, and tests use Quick.
type Scale struct {
	// TableCapacity sizes flow/MAC tables for the typical classes.
	TableCapacity int
	// PathoEntries is the synthesized-state size for Br1/NAT1/LB1; the
	// expiry work grows quadratically in it.
	PathoEntries int
	// Packets per measured class.
	Packets int
	// Warmup packets before measurement.
	Warmup int
	// Parallelism bounds the worker pool for contract generation and the
	// independent scenario runs: 0 means one worker per CPU, 1 reproduces
	// the serial harness exactly.
	Parallelism int
	// NoCache disables the process-wide contract cache, forcing every
	// generation through the full pipeline (used by the cold benchmarks).
	NoCache bool
	// Cache, when non-nil, is used instead of the process-wide
	// SharedCache (and overrides NoCache). The -store tooling and the
	// warm-restart tests inject a disk-backed cache this way.
	Cache *core.ContractCache
	// MonitorShards and MonitorBatch configure the online monitor the
	// attack experiments build (boltmon -shards/-batch): shard count for
	// the flow-hashed engines and packets per ingest batch. Zero means
	// the monitor defaults (serial, batch 64).
	MonitorShards int
	MonitorBatch  int
	// MonitorQueue is the per-shard ingest queue depth in batches
	// (boltmon -queue; zero means the default of 4).
	MonitorQueue int
}

// Generator returns the production generator configured for this scale:
// the padded NewGenerator defaults plus the scale's worker pool and —
// unless NoCache is set — the process-wide contract cache, so the many
// experiments that regenerate the same NF share one pipeline run.
func (sc Scale) Generator() *core.Generator {
	g := core.NewGenerator()
	g.Parallelism = sc.Parallelism
	switch {
	case sc.Cache != nil:
		g.Cache = sc.Cache
	case !sc.NoCache:
		g.Cache = core.SharedCache()
	}
	return g
}

// workers resolves Parallelism the same way core.Generator does, for the
// harness-level fan-out over independent scenarios.
func (sc Scale) workers() int { return par.Workers(sc.Parallelism) }

// DefaultScale is used by cmd/boltbench and the benchmarks.
func DefaultScale() Scale {
	return Scale{TableCapacity: 8192, PathoEntries: 4096, Packets: 2000, Warmup: 1500}
}

// QuickScale keeps the unit-test suite fast.
func QuickScale() Scale {
	return Scale{TableCapacity: 512, PathoEntries: 192, Packets: 250, Warmup: 200}
}

// ClassResult is one row of Figure 1 / Table 3: a packet class's
// predicted bounds versus its measured worst case.
type ClassResult struct {
	Scenario string
	// Predicted vs measured dynamic instruction count.
	PredictedIC, MeasuredIC uint64
	// Predicted vs measured memory accesses.
	PredictedMA, MeasuredMA uint64
	// Predicted (conservative model) vs measured (detailed model) cycles.
	PredictedCycles, MeasuredCycles uint64
	// Packets measured in the class.
	Packets int
}

// OverIC is the relative IC over-estimation in percent.
func (r ClassResult) OverIC() float64 { return overPct(r.PredictedIC, r.MeasuredIC) }

// OverMA is the relative MA over-estimation in percent.
func (r ClassResult) OverMA() float64 { return overPct(r.PredictedMA, r.MeasuredMA) }

// CycleRatio is predicted ÷ measured cycles (Table 3's "Ratio").
func (r ClassResult) CycleRatio() float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.PredictedCycles) / float64(r.MeasuredCycles)
}

func overPct(pred, meas uint64) float64 {
	if meas == 0 {
		return 0
	}
	return 100 * (float64(pred) - float64(meas)) / float64(meas)
}

// measureScenario runs one packet class against its instance and
// compares it with the contract: the prediction is the contract's worst
// matching path evaluated at the Distiller-observed PCVs; the
// measurement is the worst packet observed. It errors if any packet
// beats the bound (soundness violation).
func measureScenario(s Scenario) (ClassResult, error) {
	name, ct, filter := s.Name, s.Contract, s.Filter
	det := hwmodel.NewDetailed()
	runner := &distill.Runner{Detailed: det}
	if len(s.Warmup) > 0 {
		if _, err := runner.Run(s.Instance, s.Warmup); err != nil {
			return ClassResult{}, fmt.Errorf("%s warmup: %w", name, err)
		}
	}
	if s.Prepare != nil {
		if err := s.Prepare(); err != nil {
			return ClassResult{}, fmt.Errorf("%s prepare: %w", name, err)
		}
	}
	recs, err := runner.Run(s.Instance, s.Measure)
	if err != nil {
		return ClassResult{}, fmt.Errorf("%s: %w", name, err)
	}
	rep := &distill.Report{Records: recs}

	// Per-packet predictions: the Distiller reports which assumptions
	// (PCV values) held for each packet (§4); the contract predicts the
	// worst matching path under exactly those assumptions. The class row
	// is the worst packet on each side. Soundness is checked per packet.
	res := ClassResult{Scenario: name, Packets: len(recs)}
	pcvNames := make(map[string]bool)
	for _, p := range ct.Paths {
		for v := range p.PCVRanges {
			pcvNames[v] = true
		}
	}
	for i, rec := range recs {
		binding := make(map[string]uint64, len(pcvNames))
		for v := range pcvNames {
			binding[v] = rec.PCVs[v] // unobserved PCVs held at 0
		}
		predIC, _ := ct.Bound(perf.Instructions, filter, binding)
		predMA, _ := ct.Bound(perf.MemAccesses, filter, binding)
		predCyc, _ := ct.Bound(perf.Cycles, filter, binding)
		if rec.IC > predIC {
			return res, fmt.Errorf("%s packet %d: SOUNDNESS VIOLATION: measured IC %d > predicted %d (pcvs %v)",
				name, i, rec.IC, predIC, binding)
		}
		if rec.MA > predMA {
			return res, fmt.Errorf("%s packet %d: SOUNDNESS VIOLATION: measured MA %d > predicted %d",
				name, i, rec.MA, predMA)
		}
		if rec.Cycles > predCyc {
			return res, fmt.Errorf("%s packet %d: SOUNDNESS VIOLATION: measured cycles %d > predicted %d",
				name, i, rec.Cycles, predCyc)
		}
		if predIC > res.PredictedIC {
			res.PredictedIC = predIC
		}
		if predMA > res.PredictedMA {
			res.PredictedMA = predMA
		}
		if predCyc > res.PredictedCycles {
			res.PredictedCycles = predCyc
		}
	}
	res.MeasuredIC = distill.Max(rep.Series(perf.Instructions))
	res.MeasuredMA = distill.Max(rep.Series(perf.MemAccesses))
	res.MeasuredCycles = distill.Max(rep.Series(perf.Cycles))
	return res, nil
}
