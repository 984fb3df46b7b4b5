package monitor

import (
	"sync"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// This file is the sharded half of the monitor: the per-shard engine
// (classifier scratch, per-class streaming state, compiled-bound value
// vector), the RSS-style flow hash, the batched ingest path, and the
// deterministic merge layer behind Report()/Alerts().
//
// The flow-hash contract: a packet's shard is FlowHash(pkt, inPort) mod
// Shards, fixed for the monitor's lifetime. Each shard processes its
// packets in global arrival order (the ingest path is order-preserving
// per shard), so per-class streaming state on a shard evolves exactly as
// the serial monitor's would — provided every packet of that class lands
// on that one shard. Traces with that property are *stream-consistent*,
// and on them the merged report is byte-identical to the serial
// monitor's at any shard count. On other traces the merge is still
// deterministic (and violation/unclassified accounting is still exact —
// those are per-packet signals), but hysteresis and tail sketches see
// per-shard subsequences.

const (
	maxShards    = 1024
	defaultBatch = 64
	// defaultQueue bounds each shard's ingest queue, in batches: enough
	// to keep a shard busy while the replay fills the next batch, small
	// enough to bound memory. Config.Queue overrides it.
	defaultQueue = 4
	// maxQueue caps Config.Queue; the queue is a hop, not a buffer.
	maxQueue = 1 << 16
)

// FlowKey is the default RSS-style flow hash (FNV-1a). IPv4 packets
// hash their L3 flow identity — source address, destination address,
// protocol — so one L3 stream stays one flow even as L4 ports churn
// (and so CASTAN-style attack streams varying only L2/L4 fields stay on
// one shard). Non-IPv4 frames hash the Ethernet header plus arrival
// port.
func FlowKey(pkt []byte, inPort uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if len(pkt) >= 34 && pkt[12] == 0x08 && pkt[13] == 0x00 {
		h = (h ^ uint64(pkt[23])) * prime64 // protocol
		for _, c := range pkt[26:34] {      // src, dst IPv4
			h = (h ^ uint64(c)) * prime64
		}
		return h
	}
	n := 14
	if len(pkt) < n {
		n = len(pkt)
	}
	for _, c := range pkt[:n] {
		h = (h ^ uint64(c)) * prime64
	}
	return (h ^ inPort) * prime64
}

// classState is the streaming state for one input class on one shard.
type classState struct {
	class       string
	packets     int
	violations  int
	maxObserved uint64
	maxPred     uint64
	minHeadroom int64
	win         *window
	sketch      *quantileSketch
	hys         hysteresis
}

// engine is one shard's worth of monitor: a classifier (matcher scratch
// is not goroutine-safe, so each shard compiles its own), the reused
// observation and PCV value vector, per-class streaming state, and the
// shard's alert log. An engine is only ever touched by one goroutine at
// a time: the caller's for the serial monitor, its shard worker during a
// sharded Run.
type engine struct {
	m      *Monitor
	cls    *core.Classifier
	keyBuf []byte
	vals   []uint64
	obs    core.PacketObservation

	packets      int
	unclassified int
	firstUnclass int
	violations   int
	maxPred      uint64
	classes      map[string]*classState
	alerts       []Alert
}

func newEngine(m *Monitor) (*engine, error) {
	cls, err := core.NewClassifier(m.ct)
	if err != nil {
		return nil, err
	}
	return &engine{
		m: m, cls: cls,
		vals:         make([]uint64, len(m.pcvNames)),
		firstUnclass: -1,
		classes:      make(map[string]*classState),
	}, nil
}

// observe classifies and checks one measured packet. idx is the global
// packet index assigned at ingest; pcvs is the Distiller's per-packet
// PCV observation map.
func (e *engine) observe(idx int, obs *core.PacketObservation, ic, ma, cycles uint64, pcvs map[string]uint64) {
	m := e.m
	e.packets++

	path, ok := e.cls.ClassifyKeyed(obs, &e.keyBuf)
	if m.cfg.OnClassify != nil {
		m.cfg.OnClassify(obs, path)
	}
	if !ok {
		e.unclassified++
		if e.firstUnclass < 0 {
			e.firstUnclass = idx
			e.fire(Alert{Kind: AlertUnclassified, PacketIndex: idx, Time: obs.Time, Metric: m.cfg.Metric})
		}
		return
	}

	// The observed-PCV vector, exactly as the offline soundness check
	// binds it: every PCV the contract mentions, 0 when unobserved.
	for i, v := range m.pcvNames {
		e.vals[i] = pcvs[v]
	}
	if m.shardIdx >= 0 {
		// Shard-aware checks price in the deployment's contenders.
		e.vals[m.shardIdx] = uint64(m.cfg.Shards - 1)
	}

	// Violation detection on every measured metric.
	checks := [perf.NumMetrics]struct {
		metric   perf.Metric
		observed uint64
	}{
		{perf.Instructions, ic},
		{perf.MemAccesses, ma},
	}
	nChecks := 2
	if m.detailed != nil {
		checks[nChecks] = struct {
			metric   perf.Metric
			observed uint64
		}{perf.Cycles, cycles}
		nChecks++
	}
	st := e.classState(m.classOf[path])
	st.packets++
	for _, c := range checks[:nChecks] {
		pred := e.boundAt(path, c.metric)
		if c.observed > pred {
			st.violations++
			e.violations++
			e.fire(Alert{
				Kind: AlertViolation, PacketIndex: idx, Time: obs.Time,
				Class: m.classOf[path], PathID: path.ID, Metric: c.metric,
				Observed: c.observed, Predicted: pred,
				PCVs: e.pcvMap(), Window: st.win.Snapshot(),
			})
		}
	}

	// Streaming per-class state and overload alerting on the budgeted
	// metric: the *predicted* bound at the observed PCVs is the signal —
	// it rises with the PCVs adversarial traffic inflates, ahead of any
	// measurable collapse.
	observed := metricValue(ic, ma, cycles, m.cfg.Metric)
	predicted := e.boundAt(path, m.cfg.Metric)
	st.win.Add(observed)
	st.sketch.Add(float64(observed))
	if observed > st.maxObserved {
		st.maxObserved = observed
	}
	if predicted > st.maxPred {
		st.maxPred = predicted
	}
	if predicted > e.maxPred {
		e.maxPred = predicted
	}
	if m.cfg.Budget > 0 {
		headroom := int64(m.cfg.Budget) - int64(predicted)
		if st.packets == 1 || headroom < st.minHeadroom {
			st.minHeadroom = headroom
		}
		fired, cleared := st.hys.Observe(predicted > m.cfg.Budget)
		if fired {
			e.fire(Alert{
				Kind: AlertOverload, PacketIndex: idx, Time: obs.Time,
				Class: m.classOf[path], PathID: path.ID, Metric: m.cfg.Metric,
				Observed: observed, Predicted: predicted, Budget: m.cfg.Budget,
				PCVs: e.pcvMap(), Window: st.win.Snapshot(),
			})
		}
		if cleared {
			e.fire(Alert{
				Kind: AlertCleared, PacketIndex: idx, Time: obs.Time,
				Class: m.classOf[path], PathID: path.ID, Metric: m.cfg.Metric,
				Predicted: predicted, Budget: m.cfg.Budget,
			})
		}
	}
}

func (e *engine) classState(class string) *classState {
	st, ok := e.classes[class]
	if !ok {
		st = &classState{
			class:  class,
			win:    newWindow(e.m.cfg.RingSize),
			sketch: newQuantileSketch(e.m.cfg.Quantile),
			hys:    hysteresis{Trigger: e.m.cfg.Trigger, Clear: e.m.cfg.Clear},
		}
		e.classes[class] = st
	}
	return st
}

func (e *engine) fire(a Alert) {
	e.alerts = append(e.alerts, a)
	if e.m.cfg.OnAlert != nil {
		e.m.cfg.OnAlert(a)
	}
}

// boundAt evaluates a path's bound at the engine's current PCV vector
// via the pre-compiled polynomial, falling back to BoundAt for the rare
// path whose cost mentions a variable outside the PCV-range set.
func (e *engine) boundAt(p *core.PathContract, metric perf.Metric) uint64 {
	if cp := e.m.bounds[p][metric]; cp != nil {
		return cp.Eval(e.vals)
	}
	if e.m.shardIdx >= 0 {
		return p.ShardBoundAt(metric, e.m.cfg.Shards, e.pcvMap())
	}
	return p.BoundAt(metric, e.pcvMap())
}

// pcvMap materialises the engine's current PCV vector as the map form
// alerts carry; BoundAt over it reproduces exactly what boundAt computed.
func (e *engine) pcvMap() map[string]uint64 {
	out := make(map[string]uint64, len(e.m.pcvNames))
	for i, v := range e.m.pcvNames {
		out[v] = e.vals[i]
	}
	return out
}

// pObs is one packet's worth of pooled observation state inside a batch:
// everything engine.observe needs, owned by the batch (call records are
// copied into the batch's arena; packet bytes reference the replayed
// trace, which the interpreter never mutates).
type pObs struct {
	idx          int
	pkt          []byte
	inPort, time uint64
	pktLen       uint64
	action       nfir.ActionKind
	ic, ma, cyc  uint64
	pcvs         map[string]uint64
	calls        []core.CallRecord
}

// batch is a fixed-size packet batch bound for one shard. Batches are
// recycled: reset keeps the observation slice and the call-record arenas.
type batch struct {
	obs  []pObs
	logs core.CallLog
}

func (b *batch) reset() {
	b.obs = b.obs[:0]
	b.logs.Reset()
}

// ingester is the batched fan-out state for one sharded Run: a batch
// channel and worker goroutine per shard, a free channel per shard
// recycling drained batches worker→replay, the under-construction batch
// per shard, and the adaptive-flush bookkeeping (DESIGN.md §5j).
type ingester struct {
	m    *Monitor
	pend []*batch
	// start[sh] is the global index of pend[sh]'s first packet, -1 when
	// no batch is pending; probe is the adaptive flush's round-robin
	// cursor over shards.
	start   []int
	probe   int
	partial int // batches handed off by the adaptive flush

	// queues carry filled batches replay→shard, Config.Queue deep; frees
	// return drained ones shard→replay.
	queues []chan *batch
	frees  []chan *batch

	wg sync.WaitGroup
}

func (m *Monitor) startIngest() {
	n := len(m.engines)
	ing := &ingester{
		m:      m,
		pend:   make([]*batch, n),
		start:  make([]int, n),
		queues: make([]chan *batch, n),
		frees:  make([]chan *batch, n),
	}
	for i := range ing.start {
		ing.start[i] = -1
	}
	for i, e := range m.engines {
		// Queue is the configured backpressure depth. The free channel
		// holds every buffer the shard can have in flight: the queue's
		// worth, the pending one, and the one being drained.
		q := make(chan *batch, m.cfg.Queue)
		f := make(chan *batch, m.cfg.Queue+2)
		ing.queues[i], ing.frees[i] = q, f
		ing.wg.Add(1)
		go func(e *engine, q <-chan *batch, f chan<- *batch) {
			defer ing.wg.Done()
			for b := range q {
				for j := range b.obs {
					e.observeP(&b.obs[j])
				}
				b.reset()
				select {
				case f <- b:
				default: // full by capacity only on a bug; let the GC have it
				}
			}
		}(e, q, f)
	}
	m.ing = ing
}

// observeP replays one pooled observation through the engine's reused
// core.PacketObservation.
func (e *engine) observeP(po *pObs) {
	e.obs = core.PacketObservation{
		Pkt: po.pkt, InPort: po.inPort, Time: po.time, PktLen: po.pktLen,
		Action: po.action, Calls: po.calls,
	}
	e.observe(po.idx, &e.obs, po.ic, po.ma, po.cyc, po.pcvs)
}

// acquire returns an empty batch for a shard: recycled off the shard's
// free channel, freshly allocated only when nothing has come back yet.
func (ing *ingester) acquire(sh int) *batch {
	select {
	case b := <-ing.frees[sh]:
		return b
	default:
		return &batch{}
	}
}

// handoff publishes a shard's pending batch to its worker, blocking
// while the shard is Queue batches behind.
func (ing *ingester) handoff(sh int) {
	b := ing.pend[sh]
	ing.pend[sh] = nil
	ing.start[sh] = -1
	ing.queues[sh] <- b
}

// enqueue adds one measured packet to its shard's pending batch,
// handing the batch off when full — or, via the adaptive flush, once it
// has stalled partially filled for FlushStall packets, so a trickling
// class's worst-case detection delay is bounded by ingest progress
// rather than by Batch (see Config.FlushStall). Runs on the replay
// goroutine.
func (ing *ingester) enqueue(pkt traffic.Packet, rec *distill.Record, calls []core.CallRecord) {
	m := ing.m
	idx := m.packets
	m.packets++
	sh := m.shardOf(pkt.Data, pkt.InPort)
	b := ing.pend[sh]
	if b == nil {
		b = ing.acquire(sh)
		ing.pend[sh] = b
		ing.start[sh] = idx
	}
	b.obs = append(b.obs, pObs{
		idx: idx, pkt: pkt.Data, inPort: pkt.InPort, time: pkt.Time,
		pktLen: obsPktLen(pkt.Data), action: rec.Action.Kind,
		ic: rec.IC, ma: rec.MA, cyc: rec.Cycles, pcvs: rec.PCVs,
		calls: b.logs.Append(calls),
	})
	if len(b.obs) >= m.cfg.Batch {
		ing.handoff(sh)
	}
	// Adaptive flush: probe one shard per ingested packet, round-robin,
	// and hand off any batch that has waited FlushStall packets without
	// filling. The probe is O(1) per packet and visits every shard
	// within Shards packets, so a stalled partial batch is in flight
	// within FlushStall+Shards packets of its first observation.
	ing.probe++
	if ing.probe >= len(ing.pend) {
		ing.probe = 0
	}
	if p := ing.probe; ing.pend[p] != nil && idx-ing.start[p] >= m.cfg.FlushStall {
		ing.partial++
		ing.handoff(p)
	}
}

// finishIngest flushes partial batches, closes the shard queues, and
// waits for every shard to drain. Idempotent; after it returns the
// merged accessors reflect every ingested packet.
func (m *Monitor) finishIngest() {
	ing := m.ing
	if ing == nil {
		return
	}
	for sh, b := range ing.pend {
		if b != nil && len(b.obs) > 0 {
			ing.handoff(sh)
		}
		ing.pend[sh] = nil
	}
	for _, q := range ing.queues {
		close(q)
	}
	ing.wg.Wait()
	m.partialFlushes += ing.partial
	m.ing = nil
}

// mergedAlerts merges the shards' alert logs by global packet index
// (each shard's log is already index-sorted: shards process their
// packets in arrival order). The per-shard "first unclassified" pages
// collapse to the globally first one, matching the serial monitor's
// report-once semantics.
func (m *Monitor) mergedAlerts() []Alert {
	if len(m.engines) == 1 {
		return m.engines[0].alerts
	}
	firstUnclass := -1
	for _, e := range m.engines {
		if e.firstUnclass >= 0 && (firstUnclass < 0 || e.firstUnclass < firstUnclass) {
			firstUnclass = e.firstUnclass
		}
	}
	idxs := make([]int, len(m.engines))
	total := 0
	for _, e := range m.engines {
		total += len(e.alerts)
	}
	out := make([]Alert, 0, total)
	for {
		best := -1
		for ei, e := range m.engines {
			for idxs[ei] < len(e.alerts) &&
				e.alerts[idxs[ei]].Kind == AlertUnclassified &&
				e.alerts[idxs[ei]].PacketIndex != firstUnclass {
				idxs[ei]++ // a later shard-local first; the global first covers it
			}
			if idxs[ei] >= len(e.alerts) {
				continue
			}
			if best < 0 || e.alerts[idxs[ei]].PacketIndex < m.engines[best].alerts[idxs[best]].PacketIndex {
				best = ei
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, m.engines[best].alerts[idxs[best]])
		idxs[best]++
	}
}

// classRow is one merged per-class line of Report().
type classRow struct {
	packets     int
	violations  int
	maxObserved uint64
	maxPred     uint64
	minHeadroom int64
	quantile    float64
	paged       bool
}

// mergedClasses combines per-shard class states by label: counts sum,
// maxima max, headroom min, paged ORs. The tail quantile is the shard's
// own estimate when the label lives on one shard (the stream-consistent
// case — byte-identical to serial); when a label straddles shards the
// merge takes the largest shard estimate, a conservative tail.
func (m *Monitor) mergedClasses() map[string]*classRow {
	rows := make(map[string]*classRow)
	for _, e := range m.engines {
		for l, st := range e.classes {
			r, ok := rows[l]
			if !ok {
				r = &classRow{minHeadroom: st.minHeadroom, quantile: st.sketch.Quantile()}
				rows[l] = r
			} else {
				if st.minHeadroom < r.minHeadroom {
					r.minHeadroom = st.minHeadroom
				}
				if q := st.sketch.Quantile(); q > r.quantile {
					r.quantile = q
				}
			}
			r.packets += st.packets
			r.violations += st.violations
			if st.maxObserved > r.maxObserved {
				r.maxObserved = st.maxObserved
			}
			if st.maxPred > r.maxPred {
				r.maxPred = st.maxPred
			}
			r.paged = r.paged || st.hys.Paged()
		}
	}
	return rows
}
