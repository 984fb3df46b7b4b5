package monitor_test

import (
	"context"
	"testing"

	"gobolt/internal/distill"
	"gobolt/internal/experiments"
	"gobolt/internal/monitor"
	"gobolt/internal/traffic"
)

// BenchmarkMonitoredReplay vs BenchmarkBareReplay is the per-packet
// price of online monitoring (classification + bound evaluation +
// streaming state); BENCH_monitor.json reports the same comparison via
// cmd/boltmon -benchjson. The Sharded variants add the flow-hashed
// batched fan-out.
func BenchmarkMonitoredReplay(b *testing.B) { benchMonitored(b, monitor.Config{}) }
func BenchmarkMonitoredReplaySharded2(b *testing.B) {
	benchMonitored(b, monitor.Config{Shards: 2, Batch: 64})
}
func BenchmarkMonitoredReplaySharded4(b *testing.B) {
	benchMonitored(b, monitor.Config{Shards: 4, Batch: 64})
}

func benchMonitored(b *testing.B, cfg monitor.Config) {
	sc := experiments.QuickScale()
	br, ct, err := experiments.AttackBridge(sc)
	if err != nil {
		b.Fatal(err)
	}
	mon, err := monitor.New(ct, cfg)
	if err != nil {
		b.Fatal(err)
	}
	pkts := benchFrames(sc, 2048)
	if err := mon.Warm(context.Background(), br.Instance, pkts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Run(context.Background(), br.Instance, pkts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
}

func BenchmarkBareReplay(b *testing.B) {
	sc := experiments.QuickScale()
	br, _, err := experiments.AttackBridge(sc)
	if err != nil {
		b.Fatal(err)
	}
	runner := &distill.Runner{}
	pkts := benchFrames(sc, 2048)
	if _, err := runner.Run(br.Instance, pkts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(br.Instance, pkts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
}

func benchFrames(sc experiments.Scale, n int) []traffic.Packet {
	return traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: n, MACs: 64, Ports: 4,
		StartNS: 1_000, GapNS: 1_000, Seed: 21,
	})
}
