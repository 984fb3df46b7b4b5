package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// richArtifact builds an artifact exercising every wire feature: all four
// expression node kinds, nested operators, traces with PCVs and model
// costs, multi-metric polynomial costs, PCV ranges, a nil witness next to
// a populated one, and raw paths with port expressions, op tallies,
// accesses, and packet writes.
func richArtifact() *Artifact {
	eq := symb.Bin{Op: symb.Eq, L: symb.Sym{Name: "pkt.dst"}, R: symb.Const{V: 0x0A000001}}
	nested := symb.Bin{
		Op: symb.LAnd,
		L:  symb.Not{X: symb.Bin{Op: symb.Ult, L: symb.Sym{Name: "nat.occ"}, R: symb.Const{V: 4096}}},
		R:  symb.Bin{Op: symb.Ne, L: symb.Sym{Name: "pkt.proto"}, R: symb.Const{V: 17}},
	}
	ev := nfir.CallEvent{
		DS:     "flowtable",
		Method: "get",
		Outcome: nfir.Outcome{
			Label:       "absent",
			Results:     []symb.Expr{symb.Sym{Name: "ft.r0"}},
			Constraints: []symb.Expr{symb.Bin{Op: symb.Eq, L: symb.Sym{Name: "ft.r0"}, R: symb.Const{V: 0}}},
			Domains:     map[string]symb.Domain{"ft.r0": {Lo: 0, Hi: 1}},
			Cost: map[perf.Metric]expr.Poly{
				perf.Instructions: expr.FromTerms(map[expr.Mono]uint64{"": 40, "c": 7}),
				perf.MemAccesses:  expr.FromTerms(map[expr.Mono]uint64{"c": 3}),
			},
			PCVs: []nfir.PCV{{Name: "c", Range: expr.Range{Lo: 0, Hi: 6}}},
		},
		ResultSyms: []string{"ft.r0"},
		Args: []symb.Expr{
			symb.Sym{Name: "pkt_26_4"},
			symb.Bin{Op: symb.Or, L: symb.Sym{Name: "pkt_30_4"}, R: symb.Const{V: 0}},
			symb.Sym{Name: "now"},
		},
		Sharing: nfir.Sharing{Class: nfir.SharingLocal, Reason: "key pins the flow-hash fields"},
	}
	ct := &Contract{
		NF:    "test-nf",
		Level: "full",
		Paths: []*PathContract{
			{
				ID:          0,
				Action:      nfir.ActionForward,
				Constraints: []symb.Expr{eq, nested},
				Domains:     map[string]symb.Domain{"pkt.dst": {Lo: 0, Hi: 1<<32 - 1}},
				Events:      "flowtable.get:absent",
				Trace:       []nfir.CallEvent{ev},
				Cost: map[perf.Metric]expr.Poly{
					perf.Instructions: expr.FromTerms(map[expr.Mono]uint64{"": 120, "c": 7, "c^2": 2}),
					perf.MemAccesses:  expr.FromTerms(map[expr.Mono]uint64{"": 30, "c": 3}),
					perf.Cycles:       expr.FromTerms(map[expr.Mono]uint64{"": 4100, "c*m": 11}),
				},
				PCVRanges:     map[string]expr.Range{"c": {Lo: 0, Hi: 6}, "m": {Lo: 1, Hi: 64}},
				SharedMA:      expr.FromTerms(map[expr.Mono]uint64{"": 3, "c": 1}),
				ShardAnalysed: true,
				Witness:       map[string]uint64{"pkt.dst": 0x0A000001, "pkt.proto": 6},
			},
			{
				ID:      1,
				Action:  nfir.ActionDrop,
				Events:  "",
				Cost:    map[perf.Metric]expr.Poly{perf.Instructions: expr.FromTerms(map[expr.Mono]uint64{"": 55})},
				Witness: nil, // solver Unknown: retained conservatively, no witness
			},
		},
	}
	paths := []*nfir.Path{
		{
			ID:          0,
			Constraints: []symb.Expr{eq, nested},
			Domains:     map[string]symb.Domain{"pkt.dst": {Lo: 0, Hi: 1<<32 - 1}},
			Events:      []nfir.CallEvent{ev},
			Action:      nfir.ActionForward,
			Port:        symb.Bin{Op: symb.And, L: symb.Sym{Name: "ft.r0"}, R: symb.Const{V: 3}},
			StatelessIC: 80,
			StatelessMA: 20,
			Ops: map[perf.OpClass]uint64{
				perf.OpALU: 60, perf.OpBranch: 12, perf.OpLoad: 14, perf.OpStore: 6, perf.OpCall: 2,
			},
			Accesses: []nfir.SymAccess{
				{Known: true, Addr: 0x1000, Size: 8, Store: false},
				{Known: false, Size: 4, Store: true},
			},
			PCVRanges: map[string]expr.Range{"c": {Lo: 0, Hi: 6}},
			PktWrites: map[uint64]nfir.PktWrite{
				24: {Size: 4, Val: symb.Const{V: 0xC0A80001}},
				2:  {Size: 2, Val: symb.Sym{Name: "nat.port"}},
			},
		},
		{
			ID:     1,
			Action: nfir.ActionDrop,
		},
	}
	return &Artifact{Key: strings.Repeat("ab", 32), Contract: ct, Paths: paths, Version: ArtifactVersion}
}

func TestCodecRoundTripRich(t *testing.T) {
	a := richArtifact()
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("decode is not the inverse of encode:\n  in:  %+v\n  out: %+v", a, got)
	}
	re, err := EncodeArtifact(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, re) {
		t.Fatalf("encode is not deterministic across a round trip")
	}
	// Witness nil-vs-empty must survive: path 1 has no witness, and the
	// wire bytes must say null (not omit the field, not say {}).
	if !bytes.Contains(data, []byte(`"witness":null`)) {
		t.Fatalf("nil witness not encoded as null:\n%s", data)
	}
}

func TestCodecGolden(t *testing.T) {
	golden := filepath.Join("testdata", "artifact_v2.golden.json")
	data, err := EncodeArtifact(richArtifact())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestCodecGolden -update ./internal/core` after an intentional schema change): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("artifact encoding drifted from the pinned version-%d schema; if intentional, bump ArtifactVersion and regenerate with -update", ArtifactVersion)
	}
	if _, err := DecodeArtifact(want); err != nil {
		t.Fatalf("golden artifact no longer decodes: %v", err)
	}
}

// TestShardFieldsAdditive pins that the shard dimension (v2) is
// strictly additive over the version-1 wire format:
//
//   - encoding today's richArtifact — shard annotations and all — at
//     version 1 reproduces byte-for-byte the golden bytes a pre-shard
//     build wrote for the same artifact;
//   - those version-1 bytes still decode, losslessly, with the shard
//     fields at their zero values;
//   - a decoded version-1 artifact re-encodes at version 1 (the codec
//     never silently upgrades stored bytes);
//   - upgrading is explicit (EncodeArtifactAt at version 2) and changes
//     nothing but the declared version for shard-less content.
func TestShardFieldsAdditive(t *testing.T) {
	golden := filepath.Join("testdata", "artifact_v1.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading pre-shard golden file: %v", err)
	}

	data, err := EncodeArtifactAt(richArtifact(), 1)
	if err != nil {
		t.Fatalf("encode at version 1: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("version-1 projection drifted from the pre-shard golden bytes")
	}

	a, err := DecodeArtifact(want)
	if err != nil {
		t.Fatalf("version-1 golden no longer decodes: %v", err)
	}
	if a.Version != 1 {
		t.Fatalf("decoded version = %d, want 1", a.Version)
	}
	for i, p := range a.Contract.Paths {
		if p.ShardAnalysed || !p.SharedMA.IsZero() {
			t.Fatalf("path %d of a version-1 artifact carries shard analysis", i)
		}
	}
	for i, ev := range a.Contract.Paths[0].Trace {
		if ev.Args != nil || ev.Sharing != (nfir.Sharing{}) {
			t.Fatalf("trace event %d of a version-1 artifact carries call args or a sharing verdict", i)
		}
	}

	re, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(re, want) {
		t.Fatalf("decoded version-1 artifact re-encoded at a different version")
	}

	up, err := EncodeArtifactAt(a, 2)
	if err != nil {
		t.Fatalf("explicit upgrade: %v", err)
	}
	wantUp := bytes.Replace(want, []byte(`"version":1`), []byte(`"version":2`), 1)
	if !bytes.Equal(up, wantUp) {
		t.Fatalf("upgrading shard-less version-1 content changed more than the version number")
	}
	if _, err := DecodeArtifact(up); err != nil {
		t.Fatalf("upgraded artifact does not decode: %v", err)
	}
}

func TestCodecContractOnly(t *testing.T) {
	a := &Artifact{Contract: richArtifact().Contract} // no key, no raw paths
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Key != "" || got.Paths != nil {
		t.Fatalf("contract-only artifact grew key %q / %d raw paths", got.Key, len(got.Paths))
	}
	if !reflect.DeepEqual(a.Contract, got.Contract) {
		t.Fatalf("contract-only round trip diverged")
	}
}

func TestCodecEncodeRejects(t *testing.T) {
	if _, err := EncodeArtifact(nil); err == nil {
		t.Errorf("encoded a nil artifact")
	}
	if _, err := EncodeArtifact(&Artifact{}); err == nil {
		t.Errorf("encoded an artifact without a contract")
	}
	ct := &Contract{NF: "x", Paths: []*PathContract{{ID: 0}}}
	if _, err := EncodeArtifact(&Artifact{Contract: ct, Paths: []*nfir.Path{{}, {}}}); err == nil {
		t.Errorf("encoded misaligned raw paths")
	}
	if _, err := EncodeArtifact(&Artifact{Contract: &Contract{NF: "x", Paths: []*PathContract{
		{Constraints: []symb.Expr{nil}},
	}}}); err == nil {
		t.Errorf("encoded a nil expression")
	}
}

func TestCodecDecodeRejects(t *testing.T) {
	valid, err := EncodeArtifact(richArtifact())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(old, new string) []byte {
		s := string(valid)
		if !strings.Contains(s, old) {
			t.Fatalf("mutation anchor %q not present in encoding", old)
		}
		return []byte(strings.Replace(s, old, new, 1))
	}
	cases := map[string][]byte{
		"empty input":       []byte(""),
		"not json":          []byte("boltstore1 junk"),
		"truncated":         valid[:len(valid)/2],
		"trailing data":     append(append([]byte{}, valid...), []byte(" {}")...),
		"wrong format":      mutate(`"format":"gobolt-contract"`, `"format":"gobolt-contrakt"`),
		"future version":    mutate(`"version":2`, `"version":3`),
		"unknown field":     mutate(`"nf":"test-nf"`, `"nf":"test-nf","zzz":1`),
		"unknown action":    mutate(`"action":"drop"`, `"action":"teleport"`),
		"unknown operator":  mutate(`"op":"=="`, `"op":"==="`),
		"unknown metric":    mutate(`"ic":`, `"IC":`),
		"bad monomial":      mutate(`"c^2":2`, `"c^0":2`),
		"zero coefficient":  mutate(`"c^2":2`, `"c^2":0`),
		"whitespace":        mutate(`"version":2`, `"version": 2`),
		"reordered fields":  mutate(`"format":"gobolt-contract","version":2`, `"version":2,"format":"gobolt-contract"`),
		"malformed const":   mutate(`{"k":"c","v":167772161}`, `{"k":"c","v":167772161,"n":"x"}`),
		"empty symbol name": mutate(`{"k":"s","n":"nat.port"}`, `{"k":"s","n":""}`),
		"unknown sharing":   mutate(`"sharing":"local"`, `"sharing":"lokal"`),
		"orphaned reason":   mutate(`"sharing":"local","sharing_reason":"key pins the flow-hash fields"`, `"sharing_reason":"key pins the flow-hash fields"`),
		// Version 1 does not define the shard fields; an artifact that
		// declares version 1 but smuggles them in is not canonical
		// (encoding at version 1 strips them).
		"downgraded version smuggles shard fields": mutate(`"version":2`, `"version":1`),
		"witness omitted":                          mutate(`,"witness":null`, ``),
	}
	for name, data := range cases {
		if _, err := DecodeArtifact(data); err == nil {
			t.Errorf("%s: decode accepted corrupt artifact", name)
		}
	}
	// Misaligned raw paths: drop one raw path from the array.
	var f map[string]json.RawMessage
	if err := json.Unmarshal(valid, &f); err != nil {
		t.Fatal(err)
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(f["raw_paths"], &raws); err != nil {
		t.Fatal(err)
	}
	one, _ := json.Marshal(raws[:1])
	misaligned := bytes.Replace(valid, f["raw_paths"], one, 1)
	if _, err := DecodeArtifact(misaligned); err == nil {
		t.Errorf("decode accepted raw paths misaligned with contract paths")
	}
}

// TestCodecDecodeNeverFolds pins that decoding reconstructs expression
// trees verbatim: a stored (3 + 4) must stay Bin{Add,3,4}, not fold to 7
// the way the symb.B constructor would.
func TestCodecDecodeNeverFolds(t *testing.T) {
	a := &Artifact{Contract: &Contract{NF: "x", Paths: []*PathContract{{
		ID:          0,
		Action:      nfir.ActionDrop,
		Constraints: []symb.Expr{symb.Bin{Op: symb.Add, L: symb.Const{V: 3}, R: symb.Const{V: 4}}},
		Witness:     nil,
	}}}}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := got.Contract.Paths[0].Constraints[0].(symb.Bin)
	if !ok {
		t.Fatalf("constant-foldable expression decoded as %T, want symb.Bin", got.Contract.Paths[0].Constraints[0])
	}
	if b.Op != symb.Add {
		t.Fatalf("operator rewritten to %v", b.Op)
	}
}

func FuzzContractCodec(f *testing.F) {
	valid, err := EncodeArtifact(richArtifact())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	minimal, err := EncodeArtifact(&Artifact{Contract: &Contract{NF: "m", Level: "full"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(minimal)
	// The version-1 projection of the same artifact: a supported older
	// version that must round-trip at its own version, not upgrade.
	v1, err := EncodeArtifactAt(richArtifact(), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	// A version-1 envelope smuggling version-2 fields (not canonical;
	// must be rejected).
	f.Add(bytes.Replace(valid, []byte(`"version":2`), []byte(`"version":1`), 1))
	f.Add([]byte(`{"format":"gobolt-contract","version":1,"contract":{"nf":"m","level":"","paths":[]}}`))
	f.Add([]byte(`{"format":"gobolt-contract","version":9,"contract":null}`))
	f.Add(valid[:len(valid)/3])
	f.Add(bytes.ToUpper(valid))
	// Real artifacts: the version-1 NAT a pre-shard build wrote, and a
	// composed 4-stage chain.
	f.Add(natGoldenV1(f))
	f.Add(mustEncode(f, composedChainArtifact(f, 4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder accepts exactly what the encoding/json oracle
		// accepts, decodes it to the same artifact, and both encoders
		// write the accepted bytes back unchanged.
		if !CheckDecodeAgainstOracle(t, data) {
			return // rejected is always a fine outcome for fuzz input
		}
		a, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("accepted input no longer decodes: %v", err)
		}
		// Accepted input must be the canonical encoding of its content:
		// decode ∘ encode is the identity on everything DecodeArtifact
		// lets through.
		re, err := EncodeArtifact(a)
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical artifact:\n in: %q\nout: %q", data, re)
		}
		b, err := DecodeArtifact(re)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("decode unstable across round trip")
		}
	})
}

// TestCodecProvenance pins the provenance field's wire behavior: it
// survives a round trip, is omitted entirely when empty (so every
// pre-existing artifact and the golden file are byte-stable), and is
// covered by the canonical re-encode identity.
func TestCodecProvenance(t *testing.T) {
	a := richArtifact()
	a.Contract.Provenance = "bvm:ratelimit.bvm"
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Contains(data, []byte(`"provenance":"bvm:ratelimit.bvm"`)) {
		t.Fatalf("provenance missing from wire bytes:\n%s", data)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Contract.Provenance != "bvm:ratelimit.bvm" {
		t.Fatalf("provenance = %q after round trip", got.Contract.Provenance)
	}

	a.Contract.Provenance = ""
	data, err = EncodeArtifact(a)
	if err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	if bytes.Contains(data, []byte("provenance")) {
		t.Fatalf("empty provenance must be omitted from the wire:\n%s", data)
	}
}
