package monitor_test

import (
	"context"
	"strings"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/experiments"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// shardCounts is the sweep every identity test runs: serial (the default
// config) plus the sharded engine at 1, 2, 4, and 8 shards.
var shardCounts = []int{1, 2, 4, 8}

// buildRoster builds a roster NF with its contract (QuickScale, shared
// contract cache — generation runs once per NF per test binary).
func buildRoster(t *testing.T, name string) (*nf.Instance, *core.Contract) {
	t.Helper()
	sc := experiments.QuickScale()
	inst, err := nf.Build(name, nf.BuildParams{Capacity: sc.TableCapacity})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sc.Generator().Generate(inst.Prog, inst.Models)
	if err != nil {
		t.Fatal(err)
	}
	return inst, ct
}

// rebuildRoster returns a fresh instance of the same NF (replays mutate
// NF state, so every monitored run needs its own instance).
func rebuildRoster(t *testing.T, name string) *nf.Instance {
	t.Helper()
	inst, err := nf.Build(name, nf.BuildParams{Capacity: experiments.QuickScale().TableCapacity})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// streamConsistentCase is one NF plus a purpose-built stream-consistent
// workload: every input class's packets carry one constant flow
// identity, so monitor.FlowKey lands each class on exactly one shard at
// any shard count — the precondition for merged-report byte-identity.
type streamConsistentCase struct {
	nf         string
	warm, meas []traffic.Packet
}

// streamConsistentCases builds the Figure-1 roster coverage: each case
// mixes a single-flow stream (one steady class once warmed) with an
// invalid-frame stream (the contract's non-IPv4 class; every frame is
// byte-identical, hence one shard).
func streamConsistentCases() []streamConsistentCase {
	var cases []streamConsistentCase
	for _, name := range []string{"nat", "bridge", "firewall", "static-router"} {
		var flowStream []traffic.Packet
		if name == "bridge" {
			flowStream = traffic.BridgeStreams(traffic.StreamConfig{Streams: 1, PacketsPerStream: 160, Seed: 5})[0]
		} else {
			flowStream = traffic.UDPStreams(traffic.StreamConfig{Streams: 1, PacketsPerStream: 160, Seed: 5})[0]
		}
		warm, tail := flowStream[:60], flowStream[60:]
		for i := range warm {
			warm[i].Time = 1_000 + uint64(i)*1_000
		}
		invalid := make([]traffic.Packet, 40)
		for i := range invalid {
			invalid[i] = traffic.NonIPv4(0, 0)
		}
		meas := traffic.Interleave(9, 1_000+uint64(len(warm))*1_000, 1_000, tail, invalid)
		cases = append(cases, streamConsistentCase{nf: name, warm: warm, meas: meas})
	}
	return cases
}

// runMonitored replays warm then meas through a fresh monitor over inst
// and returns the rendered report.
func runMonitored(t *testing.T, inst *nf.Instance, ct *core.Contract, cfg monitor.Config, warm, meas []traffic.Packet) (*monitor.Monitor, string) {
	t.Helper()
	ctx := context.Background()
	mon, err := monitor.New(ct, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) > 0 {
		if err := mon.Warm(ctx, inst, warm); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon.Run(ctx, inst, meas); err != nil {
		t.Fatal(err)
	}
	return mon, mon.Report()
}

// runObserved is runMonitored's synchronous twin: it warms a fresh
// monitor the same way, then drives meas through Observe from its own
// runner with a plain call recorder — no pooled observation, no call-log
// arena, no batches, no shard goroutines. It is the reference the
// pooled serial path and the sharded ingest hop are pinned against.
func runObserved(t *testing.T, inst *nf.Instance, ct *core.Contract, cfg monitor.Config, warm, meas []traffic.Packet) string {
	t.Helper()
	ctx := context.Background()
	mon, err := monitor.New(ct, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) > 0 {
		if err := mon.Warm(ctx, inst, warm); err != nil {
			t.Fatal(err)
		}
	}
	var calls []core.CallRecord
	restore := core.AttachRecorder(inst.Env, &calls)
	defer restore()
	runner := &distill.Runner{Observer: func(_ int, pkt traffic.Packet, rec *distill.Record) {
		mon.Observe(pkt, rec, calls)
		calls = calls[:0]
	}}
	if _, err := runner.RunContext(ctx, inst, meas); err != nil {
		t.Fatal(err)
	}
	return mon.Report()
}

// TestShardReportIdentityStreamConsistent pins the merge layer's
// headline guarantee across the roster: on stream-consistent traces the
// sharded Report() is byte-identical to the serial monitor's at every
// shard count in {1,2,4,8}.
func TestShardReportIdentityStreamConsistent(t *testing.T) {
	for _, tc := range streamConsistentCases() {
		tc := tc
		t.Run(tc.nf, func(t *testing.T) {
			_, ct := buildRoster(t, tc.nf)
			_, want := runMonitored(t, rebuildRoster(t, tc.nf), ct, monitor.Config{}, tc.warm, tc.meas)
			if strings.Count(want, "class ") < 2 {
				t.Fatalf("workload exercised fewer than 2 classes — the merge has nothing to merge:\n%s", want)
			}
			for _, shards := range shardCounts {
				_, got := runMonitored(t, rebuildRoster(t, tc.nf), ct,
					monitor.Config{Shards: shards}, tc.warm, tc.meas)
				if got != want {
					t.Errorf("shards=%d report differs from serial\nserial:\n%s\nsharded:\n%s", shards, want, got)
				}
			}
		})
	}
}

// TestShardUnclassifiedDedupIdentity monitors an instance with the
// wrong contract (nat's contract over the bridge — the "wrong contract
// for the deployed build" scenario): every packet is unclassified, on
// every shard. The merged report must still be byte-identical to the
// serial one at every shard count — in particular the once-only
// unclassified page must dedup to the globally first packet, not fire
// once per shard.
func TestShardUnclassifiedDedupIdentity(t *testing.T) {
	_, natCT := buildRoster(t, "nat")
	streams := traffic.BridgeStreams(traffic.StreamConfig{Streams: 6, PacketsPerStream: 20, Seed: 21})
	meas := traffic.Interleave(22, 1_000, 1_000, streams...)
	serialMon, want := runMonitored(t, rebuildRoster(t, "bridge"), natCT, monitor.Config{}, nil, meas)
	if serialMon.Unclassified() != len(meas) {
		t.Fatalf("expected every packet unclassified, got %d of %d:\n%s",
			serialMon.Unclassified(), len(meas), want)
	}
	if !strings.Contains(want, "unclassified] pkt 0 ") {
		t.Fatalf("serial report should page on packet 0:\n%s", want)
	}
	for _, shards := range shardCounts {
		mon, got := runMonitored(t, rebuildRoster(t, "bridge"), natCT,
			monitor.Config{Shards: shards}, nil, meas)
		if got != want {
			t.Errorf("shards=%d report differs from serial\nserial:\n%s\nsharded:\n%s", shards, want, got)
		}
		if n := len(mon.Alerts()); n != 1 {
			t.Errorf("shards=%d: %d unclassified pages, want the deduped 1", shards, n)
		}
	}
}

// TestShardAttackReportIdentity runs the §5.2 collision-attack trace —
// fixed IP pair, so every frame is one flow — under a paging budget at
// every shard count: the overload/cleared alert stream and the PAGED
// class rows must merge byte-identically to the serial monitor.
func TestShardAttackReportIdentity(t *testing.T) {
	sc := experiments.QuickScale()
	ctx := context.Background()
	run := func(shards int) string {
		br, ct, err := experiments.AttackBridge(sc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := monitor.Config{Budget: 400, Trigger: 3, Clear: 8, Shards: shards}
		mon, err := monitor.New(ct, cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm := traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: 64, MACs: 16, Ports: 4, StartNS: 1_000, GapNS: 1_000, Seed: 42,
		})
		if err := mon.Warm(ctx, br.Instance, warm); err != nil {
			t.Fatal(err)
		}
		attack := traffic.CollidingFrames(br.Table, 32, 70_000, 1_000, 43)
		if attack == nil {
			t.Fatal("collision search found no attack trace")
		}
		if _, err := mon.Run(ctx, br.Instance, attack); err != nil {
			t.Fatal(err)
		}
		return mon.Report()
	}
	want := run(0) // serial
	if !strings.Contains(want, "OVERLOAD") {
		t.Fatalf("attack run never paged — budget too high for the identity test to bite:\n%s", want)
	}
	for _, shards := range shardCounts {
		if got := run(shards); got != want {
			t.Errorf("shards=%d attack report differs from serial\nserial:\n%s\nsharded:\n%s", shards, want, got)
		}
	}
}

// TestShardBatchInvariance pins that batch size is invisible in the
// merged output: the shard assignment and per-shard order never depend
// on batching, so shards=4 at batch {1,7,64} — and the synchronous
// Observe-driven ingest, which batches nothing — all produce the
// identical report, even on a workload whose classes straddle shards.
func TestShardBatchInvariance(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	warm, meas := straddlingWorkload()

	var want string
	for _, batch := range []int{1, 7, 64} {
		_, got := runMonitored(t, rebuildRoster(t, "nat"), ct,
			monitor.Config{Shards: 4, Batch: batch}, warm, meas)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("batch=%d report differs\nfirst:\n%s\nthis:\n%s", batch, want, got)
		}
	}

	// Synchronous ingest: drive the same sharded monitor through Observe
	// (no batches, no shard goroutines — routing and state only).
	got := runObserved(t, rebuildRoster(t, "nat"), ct, monitor.Config{Shards: 4}, warm, meas)
	if got != want {
		t.Errorf("Observe-driven ingest differs from batched Run\nbatched:\n%s\nobserve:\n%s", want, got)
	}
}

// TestPooledMatchesUnpooled pins the serial Run — reused observation,
// call-log arena, keyed classification — against the allocating
// Observe-driven path: they must agree byte-for-byte on the same
// workload.
func TestPooledMatchesUnpooled(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	streams := traffic.UDPStreams(traffic.StreamConfig{Streams: 4, PacketsPerStream: 50, Seed: 8})
	var warmStreams, measStreams [][]traffic.Packet
	for _, s := range streams {
		warmStreams = append(warmStreams, s[:15])
		measStreams = append(measStreams, s[15:])
	}
	warm := traffic.Interleave(4, 1_000, 1_000, warmStreams...)
	meas := traffic.Interleave(5, 1_000+uint64(len(warm))*1_000, 1_000, measStreams...)

	_, pooled := runMonitored(t, rebuildRoster(t, "nat"), ct, monitor.Config{Budget: 600}, warm, meas)
	unpooled := runObserved(t, rebuildRoster(t, "nat"), ct, monitor.Config{Budget: 600}, warm, meas)
	if pooled != unpooled {
		t.Errorf("pooled and unpooled reports differ\npooled:\n%s\nunpooled:\n%s", pooled, unpooled)
	}
}

// TestCalibrateMetricAgreement is the regression for the Calibrate
// metric bug: with ClockHz/TargetPPS set, New derives a Cycles budget on
// the detailed model — the calibration probe must measure Cycles too
// (it used to zero the derivation fields before New, so the probe
// measured Instructions and the budget landed in the wrong metric).
func TestCalibrateMetricAgreement(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	benign := traffic.UDPStreams(traffic.StreamConfig{Streams: 2, PacketsPerStream: 60, Seed: 11})
	trace := traffic.Interleave(12, 1_000, 1_000, benign...)
	ctx := context.Background()

	cfg := monitor.Config{ClockHz: 3e9, TargetPPS: 1e6}
	got, err := monitor.Calibrate(ctx, ct, cfg, rebuildRoster(t, "nat"), trace, 1.25)
	if err != nil {
		t.Fatal(err)
	}

	// The probe must agree with an explicit Cycles monitor over the same
	// replay: budget = ceil-free 1.25 × max predicted cycles.
	ref, err := monitor.New(ct, monitor.Config{Metric: perf.Cycles, Detailed: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(ctx, rebuildRoster(t, "nat"), trace); err != nil {
		t.Fatal(err)
	}
	want := uint64(float64(ref.MaxPredicted()) * 1.25)
	if got != want {
		t.Fatalf("calibrated budget %d, want %d (1.25 × max predicted cycles %d)", got, want, ref.MaxPredicted())
	}

	// Guard the regression is meaningful: the Instructions-metric answer
	// must actually differ, or the old bug would be invisible here.
	icRef, err := monitor.New(ct, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := icRef.Run(ctx, rebuildRoster(t, "nat"), trace); err != nil {
		t.Fatal(err)
	}
	if icBudget := uint64(float64(icRef.MaxPredicted()) * 1.25); icBudget == want {
		t.Skipf("IC and cycle bounds coincide on this workload (budget %d); regression not distinguishable", want)
	}
}

// FuzzShardMerge drives random stream compositions through the serial
// and sharded monitors. Invariants asserted on every input: packet,
// unclassified, and violation counts match, and the violation +
// unclassified alert sets match exactly (those are per-packet signals —
// partition-independent). When the run happens to be stream-consistent
// (every class's packets landed on one shard), the entire report must be
// byte-identical.
func FuzzShardMerge(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(12), true, uint8(0))
	f.Add(int64(7), uint8(4), uint8(1), uint8(30), false, uint8(1))
	f.Add(int64(42), uint8(8), uint8(5), uint8(8), true, uint8(3))
	f.Add(int64(99), uint8(3), uint8(2), uint8(20), false, uint8(64))

	sc := experiments.QuickScale()
	inst0, err := nf.Build("nat", nf.BuildParams{Capacity: sc.TableCapacity})
	if err != nil {
		f.Fatal(err)
	}
	ct, err := sc.Generator().Generate(inst0.Prog, inst0.Models)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()

	f.Fuzz(func(t *testing.T, seed int64, shardsIn, streamsIn, perStreamIn uint8, budgeted bool, queueIn uint8) {
		shards := int(shardsIn)%8 + 1
		nStreams := int(streamsIn)%6 + 1
		perStream := int(perStreamIn)%28 + 4
		streams := traffic.UDPStreams(traffic.StreamConfig{
			Streams: nStreams, PacketsPerStream: perStream, Seed: seed,
		})
		// Mix in an invalid-frame stream on odd seeds so the unclassified
		// dedup path gets fuzzed too (nat classifies non-IPv4 as its
		// invalid class; truly unclassifiable traffic needs a foreign
		// packet shape — UDP with options does it for the nat contract).
		if seed%2 != 0 {
			foreign := make([]traffic.Packet, 6)
			for i := range foreign {
				foreign[i] = traffic.WithOptions(2, 0, 0)
			}
			streams = append(streams, foreign)
		}
		trace := traffic.Interleave(seed+1, 1_000, 1_000, streams...)
		var budget uint64
		if budgeted {
			budget = 500
		}

		run := func(shardCount int) (*monitor.Monitor, map[int]string) {
			inst, err := nf.Build("nat", nf.BuildParams{Capacity: sc.TableCapacity})
			if err != nil {
				t.Fatal(err)
			}
			classes := make(map[int]string)
			idx := 0
			// Queue depth is a transport knob; the serial baseline never
			// sees it, so any divergence it causes fails the merge oracle
			// below.
			cfg := monitor.Config{
				Shards: shardCount, Budget: budget, Batch: 8,
				Queue: int(queueIn)%9 + 1,
			}
			if shardCount <= 1 {
				cfg.OnClassify = func(_ *core.PacketObservation, path *core.PathContract) {
					if path != nil {
						classes[idx] = path.Class()
					}
					idx++
				}
			}
			mon, err := monitor.New(ct, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mon.Run(ctx, inst, trace); err != nil {
				t.Fatal(err)
			}
			return mon, classes
		}

		serial, classes := run(1)
		sharded, _ := run(shards)

		if serial.Packets() != sharded.Packets() {
			t.Fatalf("packets: serial %d, sharded %d", serial.Packets(), sharded.Packets())
		}
		if serial.Unclassified() != sharded.Unclassified() {
			t.Fatalf("unclassified: serial %d, sharded %d", serial.Unclassified(), sharded.Unclassified())
		}
		if serial.Violations() != sharded.Violations() {
			t.Fatalf("violations: serial %d, sharded %d", serial.Violations(), sharded.Violations())
		}
		filter := func(alerts []monitor.Alert) []monitor.Alert {
			var out []monitor.Alert
			for _, a := range alerts {
				if a.Kind == monitor.AlertViolation || a.Kind == monitor.AlertUnclassified {
					out = append(out, a)
				}
			}
			return out
		}
		sa, ba := filter(serial.Alerts()), filter(sharded.Alerts())
		if len(sa) != len(ba) {
			t.Fatalf("per-packet alert count: serial %d, sharded %d", len(sa), len(ba))
		}
		for i := range sa {
			if sa[i].Kind != ba[i].Kind || sa[i].PacketIndex != ba[i].PacketIndex ||
				sa[i].Observed != ba[i].Observed || sa[i].Predicted != ba[i].Predicted {
				t.Fatalf("per-packet alert %d differs: serial %+v, sharded %+v", i, sa[i], ba[i])
			}
		}

		// Stream-consistency check from the serial run's ground truth:
		// does every class's packet set hash to one shard?
		consistent := true
		classShard := make(map[string]int)
		for i, p := range trace {
			class, ok := classes[i]
			if !ok {
				continue // unclassified: merge dedups, counts checked above
			}
			sh := int(monitor.FlowKey(p.Data, p.InPort) % uint64(shards))
			if prev, seen := classShard[class]; seen && prev != sh {
				consistent = false
				break
			}
			classShard[class] = sh
		}
		if consistent {
			if sr, br := serial.Report(), sharded.Report(); sr != br {
				t.Fatalf("stream-consistent trace, reports differ\nserial:\n%s\nsharded:\n%s", sr, br)
			}
		}
	})
}
