package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at the small size on two seeds, untraced
// and traced, and checks that each run passes all its checks and prints
// every metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	sameDefs(t, "end_to_end", sp.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", sp.PerLayer, perLayer)
	out := t.TempDir()
	for _, seed := range []string{"7", "8"} {
		for _, w := range sp.Workloads {
			for _, trace := range []string{"0", "1"} {
				want := sp.EndToEnd
				if trace == "1" {
					want = sp.PerLayer
				}
				var stdout, stderr bytes.Buffer
				code := run([]string{
					"--workload", w.Name, "--seed", seed, "--seconds", "1",
					"--trace", trace, "--size", "small", "--out", out,
				}, &stdout, &stderr)
				name := w.Name + "/seed=" + seed + "/trace=" + trace
				checkOutput(t, name, code, stdout.String(), want)
				if t.Failed() {
					t.Logf("%s stderr:\n%s", name, stderr.String())
					return
				}
			}
		}
	}
}

func sameDefs(t *testing.T, key string, fromSpec []specMetric, fromCode []metricDef) {
	t.Helper()
	if len(fromSpec) != len(fromCode) {
		t.Fatalf("BENCHMARK.json %s has %d metrics, the benchmark %d", key, len(fromSpec), len(fromCode))
	}
	for i, d := range fromCode {
		if fromSpec[i].Name != d.name || fromSpec[i].Unit != d.unit {
			t.Errorf("%s[%d]: BENCHMARK.json says %s (%s), the benchmark %s (%s)",
				key, i, fromSpec[i].Name, fromSpec[i].Unit, d.name, d.unit)
		}
	}
}

func checkOutput(t *testing.T, name string, code int, stdout string, want []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, stdout)
	}
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: exit %d, correct %v, %d of %d failed\n%s", name, code, r.Correct, r.Failed, r.Attempted, stdout)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, m.Name, got, m.Unit)
		}
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) == 5 && f[1] == "metric" && f[2] == m.Name && f[4] == m.Unit {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no printed line for metric %s with unit %s", name, m.Name, m.Unit)
		}
	}
}
