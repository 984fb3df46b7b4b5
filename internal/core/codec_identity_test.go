package core_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/store"
)

// TestCodecMatchesOracleOnRealArtifacts pins the single-pass codec to
// the encoding/json oracle on the artifacts deployments actually hold:
// every object of a cold quick-scale 8-stage chainbench store (stage
// contracts, fold prefixes and the final composite, with raw paths), the
// 14 Figure-1 contracts with and without raw paths, and the three golden
// files. For each, the encoder writes the oracle's bytes and the decoder
// returns the oracle's artifact.
func TestCodecMatchesOracleOnRealArtifacts(t *testing.T) {
	sc := experiments.QuickScale()

	// The chainbench store, built cold with write-through.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stages, _, err := experiments.ChainBenchStages(sc)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGenerator()
	g.Coalesce = true
	g.Cache = core.NewContractCache()
	g.Cache.AttachDisk(st)
	if _, _, err := core.ComposeManyStats(context.Background(), g, stages); err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < len(stages) {
		t.Fatalf("the chainbench store holds %d objects, want at least %d", len(keys), len(stages))
	}
	for _, k := range keys {
		payload, err := st.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !core.CheckDecodeAgainstOracle(t, payload) {
			t.Fatalf("store object %s does not decode", k[:12])
		}
	}

	// The Figure-1 contracts, and each NF's raw paths.
	scens, err := experiments.Scenarios(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 14 {
		t.Fatalf("expected the 14 Figure-1 scenarios, got %d", len(scens))
	}
	gen := core.NewGenerator()
	for _, s := range scens {
		data := core.CheckEncodeAgainstOracle(t, &core.Artifact{Contract: s.Contract}, core.ArtifactVersion)
		core.CheckDecodeAgainstOracle(t, data)
		ct, paths, err := gen.GenerateWithPaths(s.Instance.Prog, s.Instance.Models)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, v := range []int{1, 2} {
			a := &core.Artifact{Key: s.Name, Contract: ct, Paths: paths}
			core.CheckDecodeAgainstOracle(t, core.CheckEncodeAgainstOracle(t, a, v))
		}
	}

	// The goldens.
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) != 3 {
		t.Fatalf("found %d golden artifacts, want 3", len(goldens))
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !core.CheckDecodeAgainstOracle(t, data) {
			t.Fatalf("%s does not decode", path)
		}
	}
}
