package monitor_test

import (
	"context"
	"errors"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/monitor"
	"gobolt/internal/traffic"
)

// This file pins the sharded ingest hop itself: its absence from
// report semantics against the synchronous Observe path, the queue
// depth and flush-stall levers' absence likewise, close/drain when a
// Run is cancelled mid-stream, and the adaptive flush's bounded
// detection delay.

// straddlingWorkload builds a warm/measure pair whose eight UDP flows
// deliberately straddle shards at every shard count — the hop must be
// invisible on ANY trace (same routing, same per-shard order), not just
// stream-consistent ones.
func straddlingWorkload() (warm, meas []traffic.Packet) {
	streams := traffic.UDPStreams(traffic.StreamConfig{Streams: 8, PacketsPerStream: 40, Seed: 3})
	var warmStreams, measStreams [][]traffic.Packet
	for _, s := range streams {
		warmStreams = append(warmStreams, s[:10])
		measStreams = append(measStreams, s[10:])
	}
	warm = traffic.Interleave(1, 1_000, 1_000, warmStreams...)
	meas = traffic.Interleave(2, 1_000+uint64(len(warm))*1_000, 1_000, measStreams...)
	return warm, meas
}

// TestIngestHopReportIdentity pins that the batched channel hop is a
// transport, not a detector: at every shard count, on a workload whose
// classes straddle shards, the sharded Run's report is byte-identical
// to driving the same sharded monitor synchronously through Observe.
func TestIngestHopReportIdentity(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	warm, meas := straddlingWorkload()
	for _, shards := range shardCounts {
		cfg := monitor.Config{Shards: shards, Budget: 600}
		_, hop := runMonitored(t, rebuildRoster(t, "nat"), ct, cfg, warm, meas)
		observed := runObserved(t, rebuildRoster(t, "nat"), ct, cfg, warm, meas)
		if hop != observed {
			t.Errorf("shards=%d: batched Run and synchronous Observe reports differ\nrun:\n%s\nobserve:\n%s",
				shards, hop, observed)
		}
	}
}

// TestQueueDepthAndFlushStallInvariance pins that the ingest levers —
// queue depth and the adaptive flush threshold — never appear in the
// merged output. FlushStall=1 degenerates nearly every batch to a
// partial handoff; the report must not care.
func TestQueueDepthAndFlushStallInvariance(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	warm, meas := straddlingWorkload()
	var want string
	for _, cfg := range []monitor.Config{
		{Shards: 4},
		{Shards: 4, Queue: 1},
		{Shards: 4, Queue: 3},
		{Shards: 4, Queue: 64},
		{Shards: 4, FlushStall: 1},
		{Shards: 4, FlushStall: 7},
		{Shards: 4, Queue: 1, FlushStall: 1},
		{Shards: 4, Batch: 5, Queue: 2, FlushStall: 3},
	} {
		_, got := runMonitored(t, rebuildRoster(t, "nat"), ct, cfg, warm, meas)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("config %+v report differs\nfirst:\n%s\nthis:\n%s", cfg, want, got)
		}
	}
}

// classPacketsRe reads a Report class row's packet count.
var classPacketsRe = regexp.MustCompile(`(?m)^  class .* pkts +(\d+) `)

// TestShardRunCancelDrains cancels a sharded Run from a shard worker
// mid-stream and pins the close/drain contract: Run reports the
// cancellation, every packet ingested before it was classified (the
// partial batches were flushed, the queues closed and drained), the
// monitor stays usable for another Run, and no shard goroutine
// outlives its Run.
func TestShardRunCancelDrains(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	_, flows := straddlingWorkload()
	// A lone leading frame owns shard 3 and, with the adaptive flush
	// off, sits in a partial batch until the Run's final flush: a Run
	// that drops its pending batches misses it.
	lone := traffic.NonIPv4(0, 0)
	meas := append([]traffic.Packet{lone}, flows...)
	loneKey := monitor.FlowKey(lone.Data, lone.InPort)
	inst := rebuildRoster(t, "nat")
	baseline := runtime.NumGoroutine()

	// Small batches and a one-batch queue keep the replay within a few
	// dozen packets of the shards, so the cancel lands mid-trace.
	const cancelAt = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var classified atomic.Int64
	mon, err := monitor.New(ct, monitor.Config{
		Shards: 4, Batch: 4, Queue: 1, FlushStall: 1 << 20,
		FlowHash: func(pkt []byte, inPort uint64) uint64 {
			if k := monitor.FlowKey(pkt, inPort); k != loneKey {
				return k % 3
			}
			return 3
		},
		OnClassify: func(*core.PacketObservation, *core.PathContract) {
			if classified.Add(1) == cancelAt {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// run fails the test instead of hanging when a Run never returns
	// (a queue left open leaves finishIngest waiting on its workers).
	run := func(ctx context.Context) error {
		done := make(chan error, 1)
		go func() {
			_, err := mon.Run(ctx, inst, meas)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(time.Minute):
			t.Fatal("sharded Run did not return")
			return nil
		}
	}
	drained := func(what string) {
		t.Helper()
		report := mon.Report()
		sum := mon.Unclassified()
		for _, m := range classPacketsRe.FindAllStringSubmatch(report, -1) {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatal(err)
			}
			sum += n
		}
		if sum != mon.Packets() {
			t.Errorf("%s: class packets + unclassified = %d, ingested %d\n%s", what, sum, mon.Packets(), report)
		}
		if got := classified.Load(); got != int64(mon.Packets()) {
			t.Errorf("%s: %d packets classified, %d ingested", what, got, mon.Packets())
		}
	}

	err = run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want an error wrapping context.Canceled", err)
	}
	if n := mon.Packets(); n < cancelAt || n >= len(meas) {
		t.Fatalf("cancelled Run ingested %d of %d packets; the cancel did not land mid-stream", n, len(meas))
	}
	drained("cancelled Run")
	first := mon.Packets()

	if err := run(context.Background()); err != nil {
		t.Fatalf("second Run on the cancelled monitor: %v", err)
	}
	if got := mon.Packets(); got != first+len(meas) {
		t.Errorf("second Run: %d packets total, want %d", got, first+len(meas))
	}
	drained("second Run")

	// Shard workers signal the WaitGroup just before they exit, so give
	// the scheduler a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after both Runs, %d before: shard workers leaked", n, baseline)
	}
}

// TestAdaptiveFlushBoundsDetection is the trailing-partial-batch
// latency fix's pin. The §5.2 attack trace is 32 packets of one flow;
// with Batch=64 the whole attack fits one never-full batch, which
// before the adaptive flush only reached its shard at Close — correct
// report, unbounded detection delay. The test routes the attack flow
// to shard 0 and a benign tail to shard 1, and asserts:
//
//   - with FlushStall=16 the attack batch is handed off partially
//     filled (PartialFlushes > 0) and the monitor still pages at
//     packet 7 — the same packet the serial monitor pages at;
//   - with the stall bound effectively off (huge FlushStall), no
//     partial handoff happens before Close, demonstrating the lever is
//     what bounds the delay.
func TestAdaptiveFlushBoundsDetection(t *testing.T) {
	sc := experiments.QuickScale()
	ctx := context.Background()

	// Mirror the §5.2 pipeline's shapes: quick scale has a 512-entry
	// table, a 128-MAC benign population, and a 200-packet warmup; the
	// budget is calibrated at 1.25× the worst benign prediction, exactly
	// as experiments.AttackDetection does it.
	benign := func(packets int, startNS uint64, seed int64) []traffic.Packet {
		return traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: packets, MACs: 128, Ports: 4,
			StartNS: startNS, GapNS: 1_000, Seed: seed,
		})
	}
	calBr, calCt, err := experiments.AttackBridge(sc)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := monitor.Calibrate(ctx, calCt, monitor.Config{Trigger: 3, Clear: 8},
		calBr.Instance, benign(200+sc.Packets, 1_000, 41), 1.25)
	if err != nil {
		t.Fatal(err)
	}

	run := func(cfg monitor.Config) (*monitor.Monitor, string) {
		cfg.Budget = budget
		br, ct, err := experiments.AttackBridge(sc)
		if err != nil {
			t.Fatal(err)
		}
		warm := benign(200, 1_000, 42)
		attackStart := 1_000 + uint64(len(warm))*1_000
		attack := traffic.CollidingFrames(br.Table, 32, attackStart, 1_000, 43)
		if attack == nil {
			t.Fatal("collision search found no attack trace")
		}
		tail := benign(192, attackStart+uint64(len(attack))*1_000, 45)
		trace := append(append([]traffic.Packet{}, attack...), tail...)
		if cfg.Shards > 1 {
			// Deterministic routing for the test: the attack flow owns
			// shard 0, everything else shard 1.
			attackKey := monitor.FlowKey(attack[0].Data, attack[0].InPort)
			cfg.FlowHash = func(pkt []byte, inPort uint64) uint64 {
				if monitor.FlowKey(pkt, inPort) == attackKey {
					return 0
				}
				return 1
			}
		}
		mon, err := monitor.New(ct, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Warm(ctx, br.Instance, warm); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.Run(ctx, br.Instance, trace); err != nil {
			t.Fatal(err)
		}
		return mon, mon.Report()
	}

	firstOverload := func(mon *monitor.Monitor) int {
		for _, a := range mon.Alerts() {
			if a.Kind == monitor.AlertOverload {
				return a.PacketIndex
			}
		}
		return -1
	}

	serial, _ := run(monitor.Config{Trigger: 3, Clear: 8})
	want := firstOverload(serial)
	if want != 7 {
		t.Fatalf("serial attack pages at packet %d, expected the pinned packet 7", want)
	}

	sharded, _ := run(monitor.Config{
		Trigger: 3, Clear: 8,
		Shards: 2, Batch: 64, FlushStall: 16,
	})
	if got := firstOverload(sharded); got != want {
		t.Errorf("sharded Batch=64 pages at packet %d, serial at %d", got, want)
	}
	if sharded.PartialFlushes() == 0 {
		t.Error("FlushStall=16 with a 32-packet sub-Batch attack handed off no partial batch; the adaptive flush never engaged")
	}
	if sharded.Violations() != serial.Violations() {
		t.Errorf("violations: sharded %d, serial %d", sharded.Violations(), serial.Violations())
	}

	lazy, _ := run(monitor.Config{
		Trigger: 3, Clear: 8,
		Shards: 2, Batch: 64, FlushStall: 1 << 20,
	})
	if got := firstOverload(lazy); got != want {
		t.Errorf("stall-unbounded run pages at packet %d, serial at %d (drain at Close must still merge identically)", got, want)
	}
	if lazy.PartialFlushes() != 0 {
		t.Errorf("FlushStall=2^20 handed off %d partial batches; the lever is not what bounds the delay", lazy.PartialFlushes())
	}
}

// TestPartialFlushCountsAccumulate pins PartialFlushes across multiple
// Runs of one monitor: each sharded Run's adaptive handoffs add up, and
// a serial monitor reports zero.
func TestPartialFlushCountsAccumulate(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	warm, meas := straddlingWorkload()
	inst := rebuildRoster(t, "nat")
	mon, err := monitor.New(ct, monitor.Config{Shards: 4, FlushStall: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := mon.Warm(ctx, inst, warm); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Run(ctx, inst, meas); err != nil {
		t.Fatal(err)
	}
	after1 := mon.PartialFlushes()
	if after1 == 0 {
		t.Fatal("FlushStall=4 over an 8-flow straddling trace produced no partial handoffs")
	}
	if _, err := mon.Run(ctx, inst, meas); err != nil {
		t.Fatal(err)
	}
	if after2 := mon.PartialFlushes(); after2 <= after1 {
		t.Errorf("second Run did not accumulate partial flushes: %d then %d", after1, after2)
	}

	serialMon, report := runMonitored(t, rebuildRoster(t, "nat"), ct, monitor.Config{}, warm, meas)
	if serialMon.PartialFlushes() != 0 {
		t.Errorf("serial monitor reports %d partial flushes, want 0\n%s", serialMon.PartialFlushes(), report)
	}
	if !strings.Contains(report, "packets") {
		t.Fatalf("sanity: report rendered empty:\n%s", report)
	}
}
