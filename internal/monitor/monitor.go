package monitor

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/dpdk"
	"gobolt/internal/expr"
	"gobolt/internal/hwmodel"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// AlertKind distinguishes what a fired alert means.
type AlertKind int

const (
	// AlertViolation: a packet's measured cost exceeded the bound its own
	// contract path predicts at the observed PCVs — the contract's
	// soundness promise is broken (a modelling bug or the wrong contract
	// for the deployed build). Fired immediately, no hysteresis.
	AlertViolation AlertKind = iota
	// AlertOverload: the contract-predicted bound for the traffic being
	// received exceeds the provisioned budget — the §5.2 signal that
	// adversarial traffic is pushing the NF towards a performance cliff,
	// raised from the *prediction*, before throughput actually collapses.
	// Debounced by hysteresis.
	AlertOverload
	// AlertCleared: a previously raised overload page returned to quiet.
	AlertCleared
	// AlertUnclassified: a packet matched no contract path (traffic the
	// contract does not cover). Reported once, then counted.
	AlertUnclassified
)

func (k AlertKind) String() string {
	switch k {
	case AlertViolation:
		return "VIOLATION"
	case AlertOverload:
		return "OVERLOAD"
	case AlertCleared:
		return "cleared"
	case AlertUnclassified:
		return "unclassified"
	}
	return "?"
}

// Alert is one monitor event. Violation and overload alerts carry the
// observed PCVs and the predicted bound, so the report is reproducible
// offline: feed the PCVs to PathContract.BoundAt and the same numbers
// come out.
type Alert struct {
	Kind AlertKind
	// PacketIndex counts packets across the monitor's lifetime, in
	// arrival order — sharding never renumbers it.
	PacketIndex int
	// Time is the packet's arrival timestamp (ns).
	Time uint64
	// Class and PathID name the triggering contract path.
	Class  string
	PathID int
	Metric perf.Metric
	// Observed is the packet's measured cost; Predicted the contract
	// bound at the observed PCVs; Budget the provisioned threshold
	// (overload alerts only).
	Observed, Predicted, Budget uint64
	// PCVs are the Distiller-observed PCV values for the packet.
	PCVs map[string]uint64
	// Window is the class's recent observed-cost history, oldest first
	// (the owning shard's view in sharded mode).
	Window []uint64
}

func (a Alert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] pkt %d t=%d class %q path %d %s",
		a.Kind, a.PacketIndex, a.Time, a.Class, a.PathID, a.Metric)
	switch a.Kind {
	case AlertViolation:
		fmt.Fprintf(&b, " observed %d > predicted %d", a.Observed, a.Predicted)
	case AlertOverload:
		fmt.Fprintf(&b, " predicted %d > budget %d (observed %d)", a.Predicted, a.Budget, a.Observed)
	case AlertCleared:
		fmt.Fprintf(&b, " predicted %d <= budget %d", a.Predicted, a.Budget)
	}
	if len(a.PCVs) > 0 {
		fmt.Fprintf(&b, " pcvs %s", renderPCVs(a.PCVs))
	}
	return b.String()
}

// Config tunes a Monitor.
type Config struct {
	// Metric is the budgeted metric (default Instructions — deterministic
	// and hardware-independent, the paper's headline metric).
	Metric perf.Metric
	// Budget is the overload threshold on the *predicted* bound; 0
	// disables overload alerting (violation detection stays on).
	Budget uint64
	// ClockHz and TargetPPS derive a cycle budget when Budget is zero:
	// the per-packet cycles one core must not exceed to sustain
	// TargetPPS — Contract.Provision solved for cycles. Setting them
	// forces Metric to Cycles and Detailed on.
	ClockHz, TargetPPS float64
	// Trigger and Clear set the overload hysteresis: Trigger consecutive
	// over-budget packets page (default 3), Clear consecutive calm
	// packets un-page (default 8).
	Trigger, Clear int
	// RingSize bounds the per-class recent-sample window (default 32).
	RingSize int
	// Quantile is the per-class tail sketch's target (default 0.99).
	Quantile float64
	// Level selects NF-only or full-stack measurement for Run.
	Level dpdk.AnalysisLevel
	// Detailed attaches the detailed hardware model so cycles are
	// measured and checked.
	Detailed bool

	// Shards splits classification across this many flow-hashed shards
	// (default 1 — the serial monitor). Each shard owns its own
	// classifier scratch, per-class window/P²/hysteresis state and
	// compiled-bound value vector; Run feeds each shard fixed-size
	// batches over its own channel, recycling drained batches back over
	// a per-shard free channel, and Report/Alerts merge shard states
	// deterministically (classes by label, alerts by packet index). On a
	// trace whose flows are stream-consistent — every input class's
	// packets hash to one shard — the merged output is byte-identical to
	// the serial monitor's at any shard count.
	Shards int
	// Batch is the sharded ingest granularity in packets (default 64;
	// 1 hands every packet off individually). Batch size never changes
	// the merged output, only the amortization of the handoff.
	Batch int
	// Queue is each shard's ingest channel depth in batches (default 4,
	// used as given). Like Batch it is invisible in the merged output; it
	// trades producer stalls against buffered memory.
	Queue int
	// FlushStall bounds the adaptive flush: a partially-filled batch is
	// handed off once FlushStall further packets have been ingested
	// monitor-wide without it filling (default 4×Batch; the round-robin
	// stall probe adds at most Shards packets of slack). This bounds a
	// trickling class's worst-case detection delay — measured in ingest
	// progress — instead of letting a sub-Batch group sit until Close.
	// Never changes the merged output, only when alerts fire relative to
	// ingest.
	FlushStall int
	// FlowHash overrides the RSS-style flow hash assigning packets to
	// shards (default FlowKey). Packets with equal hashes share a shard;
	// the merge-layer identity guarantee is conditional on the hash
	// keeping each input class on one shard.
	FlowHash func(pkt []byte, inPort uint64) uint64
	// ShardAware prices the deployment's parallelism into the checks:
	// with S = Shards > 1, the cycle bound each packet is held to
	// becomes the contract's shard-aware bound (base plus the
	// contention term at S shards, expr.ShardPCV bound to S−1), and a
	// ClockHz/TargetPPS-derived budget becomes the per-shard budget
	// S·ClockHz/TargetPPS — S cores each need only sustain TargetPPS/S,
	// so every shard gets S× the per-packet cycle allowance. Default
	// false: bounds and budgets stay the serial ones and the sharded
	// monitor's output is byte-identical to the serial monitor's.
	ShardAware bool

	// OnAlert, when set, sees every alert as it fires (the pluggable
	// pager hook); alerts are also retained on the monitor. In sharded
	// mode it is called from shard goroutines — concurrently — as soon
	// as a shard pages; the hook must be safe for concurrent use there.
	OnAlert func(Alert)
	// OnClassify, when set, sees every packet's classification (path is
	// nil when no contract path matched) — the differential-test and
	// debugging tap. The observation is reused between packets; copy
	// anything retained past the call. Called from shard goroutines in
	// sharded mode.
	OnClassify func(obs *core.PacketObservation, path *core.PathContract)
}

// Monitor watches a packet stream against one contract, optionally
// sharded across flow-hashed engines.
type Monitor struct {
	ct       *core.Contract
	cfg      Config
	runner   *distill.Runner
	detailed *hwmodel.Detailed
	pcvNames []string
	// bounds holds each path's cost polynomials compiled onto the
	// pcvNames order (shared read-only across shards; CompiledPoly.Eval
	// is pure). BoundAt re-walks monomial strings and maps on every call
	// — far too slow for the per-packet hot path.
	bounds  map[*core.PathContract]*[perf.NumMetrics]*expr.CompiledPoly
	classOf map[*core.PathContract]string // Class() concatenates per call
	// shardIdx is expr.ShardPCV's slot in pcvNames when the monitor is
	// shard-aware (every engine pins it to Shards−1), -1 otherwise.
	shardIdx int

	engines []*engine
	// packets counts ingested packets across the monitor's lifetime and
	// assigns each its global index before sharding.
	packets int
	// partialFlushes counts batches the adaptive flush handed off
	// below Config.Batch, accumulated across Runs.
	partialFlushes int

	log core.CallLog // pooled per-packet call recorder scratch
	obs core.PacketObservation

	ing *ingester // non-nil while a sharded Run is draining
}

// New compiles the contract's classifier and returns a monitor.
func New(ct *core.Contract, cfg Config) (*Monitor, error) {
	if cfg.Trigger <= 0 {
		cfg.Trigger = 3
	}
	if cfg.Clear <= 0 {
		cfg.Clear = 8
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 32
	}
	if cfg.Quantile <= 0 || cfg.Quantile >= 1 {
		cfg.Quantile = 0.99
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > maxShards {
		return nil, fmt.Errorf("monitor: %d shards exceeds the %d-shard cap", cfg.Shards, maxShards)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = defaultBatch
	}
	if cfg.Queue <= 0 {
		cfg.Queue = defaultQueue
	}
	if cfg.Queue > maxQueue {
		return nil, fmt.Errorf("monitor: queue depth %d exceeds the %d-batch cap", cfg.Queue, maxQueue)
	}
	if cfg.FlushStall <= 0 {
		cfg.FlushStall = 4 * cfg.Batch
	}
	if cfg.FlowHash == nil {
		cfg.FlowHash = FlowKey
	}
	shardAware := cfg.ShardAware && cfg.Shards > 1
	if cfg.Budget == 0 && cfg.ClockHz > 0 && cfg.TargetPPS > 0 {
		cfg.Metric = perf.Cycles
		budget := cfg.ClockHz / cfg.TargetPPS
		if shardAware {
			// S cores each sustain TargetPPS/S, so the per-shard
			// per-packet allowance is S× the single-core one.
			budget *= float64(cfg.Shards)
		}
		cfg.Budget = uint64(budget)
		cfg.Detailed = true
	}
	m := &Monitor{ct: ct, cfg: cfg, shardIdx: -1}
	pcvSet := make(map[string]bool)
	for _, p := range ct.Paths {
		for v := range p.PCVRanges {
			pcvSet[v] = true
		}
	}
	if shardAware {
		pcvSet[expr.ShardPCV] = true
	}
	for v := range pcvSet {
		m.pcvNames = append(m.pcvNames, v)
	}
	sort.Strings(m.pcvNames)
	if shardAware {
		for i, v := range m.pcvNames {
			if v == expr.ShardPCV {
				m.shardIdx = i
			}
		}
	}
	m.bounds = make(map[*core.PathContract]*[perf.NumMetrics]*expr.CompiledPoly, len(ct.Paths))
	m.classOf = make(map[*core.PathContract]string, len(ct.Paths))
	for _, p := range ct.Paths {
		m.classOf[p] = p.Class()
		var cb [perf.NumMetrics]*expr.CompiledPoly
		for _, metric := range perf.Metrics {
			poly := p.Cost[metric]
			if shardAware && metric == perf.Cycles {
				poly = p.ShardCost(metric)
			}
			if cp, err := poly.Compile(m.pcvNames); err == nil {
				cb[metric] = cp
			}
			// else: the cost mentions a variable outside the contract's
			// PCV ranges; boundAt falls back to map-based BoundAt there.
		}
		m.bounds[p] = &cb
	}
	m.engines = make([]*engine, cfg.Shards)
	for i := range m.engines {
		e, err := newEngine(m)
		if err != nil {
			return nil, err
		}
		m.engines[i] = e
	}
	m.runner = &distill.Runner{Level: cfg.Level}
	if cfg.Detailed {
		m.detailed = hwmodel.NewDetailed()
		m.runner.Detailed = m.detailed
	}
	return m, nil
}

// Run replays a workload through the instance with monitoring on: every
// packet is measured, classified, and checked. State persists across
// calls (same-monitor Warm/Run sequences share hardware-model warmth).
// With Shards > 1 the classification work drains through the shard
// goroutines and is fully merged before Run returns.
func (m *Monitor) Run(ctx context.Context, inst *nf.Instance, pkts []traffic.Packet) ([]distill.Record, error) {
	restore := core.AttachCallLog(inst.Env, &m.log)
	defer restore()
	m.log.Reset()
	if m.cfg.Shards > 1 {
		m.startIngest()
	}
	m.runner.Observer = func(_ int, pkt traffic.Packet, rec *distill.Record) {
		if m.ing != nil {
			m.ing.enqueue(pkt, rec, m.log.Records())
		} else {
			m.observePooled(pkt, rec, m.log.Records())
		}
		m.log.Reset()
	}
	defer func() { m.runner.Observer = nil }()
	defer m.finishIngest() // idempotent; drains even on a cancelled run
	recs, err := m.runner.RunContext(ctx, inst, pkts)
	m.finishIngest()
	return recs, err
}

// Warm replays a workload with monitoring off: the instance's state and
// the monitor's hardware model see the traffic, but nothing is
// classified or checked. Use it for the warmup phase of a measurement.
func (m *Monitor) Warm(ctx context.Context, inst *nf.Instance, pkts []traffic.Packet) error {
	_, err := m.runner.RunContext(ctx, inst, pkts)
	return err
}

// Observe feeds one measured packet directly and synchronously (exposed
// for harnesses that drive their own runner). In sharded configurations
// the packet still lands on its flow-hashed shard's state, processed
// inline on the caller's goroutine.
func (m *Monitor) Observe(pkt traffic.Packet, rec *distill.Record, calls []core.CallRecord) {
	idx := m.packets
	m.packets++
	e := m.engines[m.shardOf(pkt.Data, pkt.InPort)]
	obs := &core.PacketObservation{
		Pkt: pkt.Data, InPort: pkt.InPort, Time: pkt.Time, PktLen: obsPktLen(pkt.Data),
		Action: rec.Action.Kind, Calls: calls,
	}
	e.observe(idx, obs, rec.IC, rec.MA, rec.Cycles, rec.PCVs)
}

// observePooled is Observe on the reused observation — the serial fast
// path Run drives.
func (m *Monitor) observePooled(pkt traffic.Packet, rec *distill.Record, calls []core.CallRecord) {
	idx := m.packets
	m.packets++
	e := m.engines[m.shardOf(pkt.Data, pkt.InPort)]
	m.obs = core.PacketObservation{
		Pkt: pkt.Data, InPort: pkt.InPort, Time: pkt.Time, PktLen: obsPktLen(pkt.Data),
		Action: rec.Action.Kind, Calls: calls,
	}
	e.observe(idx, &m.obs, rec.IC, rec.MA, rec.Cycles, rec.PCVs)
}

func (m *Monitor) shardOf(pkt []byte, inPort uint64) int {
	if len(m.engines) == 1 {
		return 0
	}
	return int(m.cfg.FlowHash(pkt, inPort) % uint64(len(m.engines)))
}

func obsPktLen(data []byte) uint64 {
	n := uint64(len(data))
	if n > nfir.MaxPacket {
		n = nfir.MaxPacket
	}
	return n
}

func metricValue(ic, ma, cycles uint64, metric perf.Metric) uint64 {
	switch metric {
	case perf.MemAccesses:
		return ma
	case perf.Cycles:
		return cycles
	}
	return ic
}

func renderPCVs(pcvs map[string]uint64) string {
	names := make([]string, 0, len(pcvs))
	for v := range pcvs {
		names = append(names, v)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, v := range names {
		parts[i] = fmt.Sprintf("%s=%d", v, pcvs[v])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Alerts returns every fired alert, merged across shards by packet
// index (per-shard firing order preserved; the unclassified page is
// deduplicated to the globally first uncovered packet).
func (m *Monitor) Alerts() []Alert { return m.mergedAlerts() }

// Violations counts soundness violations seen so far, across shards.
func (m *Monitor) Violations() int {
	n := 0
	for _, e := range m.engines {
		n += e.violations
	}
	return n
}

// Unclassified counts packets no contract path matched, across shards.
func (m *Monitor) Unclassified() int {
	n := 0
	for _, e := range m.engines {
		n += e.unclassified
	}
	return n
}

// Packets counts observed packets.
func (m *Monitor) Packets() int { return m.packets }

// PartialFlushes counts ingest batches the adaptive flush handed off
// before they filled (sharded Runs only) — the observable that a
// trickling class's detection delay was bounded by Config.FlushStall
// rather than by Batch.
func (m *Monitor) PartialFlushes() int { return m.partialFlushes }

// MaxPredicted reports the largest predicted bound observed on the
// budgeted metric — Calibrate uses it to turn a benign run into a
// budget.
func (m *Monitor) MaxPredicted() uint64 {
	var worst uint64
	for _, e := range m.engines {
		if e.maxPred > worst {
			worst = e.maxPred
		}
	}
	return worst
}

// Overloaded reports whether any class on any shard currently has a
// raised page — the fleet-level overload signal.
func (m *Monitor) Overloaded() bool {
	for _, e := range m.engines {
		for _, st := range e.classes {
			if st.hys.Paged() {
				return true
			}
		}
	}
	return false
}

// Calibrate derives an overload budget from a benign workload: replay it
// through an unbudgeted monitor and scale the worst predicted bound by
// factor (the operator's provisioning margin). This is the §5.2
// workflow: the contract plus expected traffic tells the operator what
// "normal" costs, and the monitor pages when predictions leave that
// envelope.
//
// The probe measures the same metric the budgeted monitor will: a
// ClockHz/TargetPPS configuration budgets Cycles on the detailed model,
// so the probe runs with Metric=Cycles and Detailed on before the
// derivation fields are cleared (clearing them first made the probe
// measure Instructions while the real monitor budgeted Cycles).
func Calibrate(ctx context.Context, ct *core.Contract, cfg Config, inst *nf.Instance, benign []traffic.Packet, factor float64) (uint64, error) {
	if cfg.ClockHz > 0 && cfg.TargetPPS > 0 {
		cfg.Metric = perf.Cycles
		cfg.Detailed = true
	}
	cfg.Budget = 0
	cfg.ClockHz, cfg.TargetPPS = 0, 0
	probe, err := New(ct, cfg)
	if err != nil {
		return 0, err
	}
	if _, err := probe.Run(ctx, inst, benign); err != nil {
		return 0, err
	}
	if probe.MaxPredicted() == 0 {
		return 0, fmt.Errorf("monitor: calibration run predicted nothing (no packets classified?)")
	}
	if factor < 1 {
		factor = 1
	}
	return uint64(float64(probe.MaxPredicted()) * factor), nil
}

// Report renders the monitor's state deterministically: classes sorted
// by label, alerts in packet order. Byte-identical for identical traces,
// and — on stream-consistent traces — byte-identical at any shard count.
func (m *Monitor) Report() string {
	var b strings.Builder
	alerts := m.mergedAlerts()
	fmt.Fprintf(&b, "Monitor report: %s (metric %s", m.ct.NF, m.cfg.Metric)
	if m.cfg.Budget > 0 {
		fmt.Fprintf(&b, ", budget %d", m.cfg.Budget)
	}
	fmt.Fprintf(&b, ")\n")
	fmt.Fprintf(&b, "  packets %d, unclassified %d, violations %d, alerts %d\n",
		m.packets, m.Unclassified(), m.Violations(), len(alerts))
	rows := m.mergedClasses()
	labels := make([]string, 0, len(rows))
	for l := range rows {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		st := rows[l]
		fmt.Fprintf(&b, "  class %-52s pkts %6d  max obs %8d  max pred %8d  p%02.0f %8.0f",
			l, st.packets, st.maxObserved, st.maxPred, m.cfg.Quantile*100, st.quantile)
		if m.cfg.Budget > 0 {
			fmt.Fprintf(&b, "  headroom %8d", st.minHeadroom)
		}
		if st.paged {
			fmt.Fprintf(&b, "  PAGED")
		}
		fmt.Fprintf(&b, "\n")
	}
	for _, a := range alerts {
		fmt.Fprintf(&b, "  %s\n", a.String())
	}
	return b.String()
}
