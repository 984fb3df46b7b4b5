package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"gobolt/internal/expr"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// TestCodecDecodeRejectsNonCanonical feeds the decoder one spelling per
// way an input can differ from what the encoder writes, plus hostile
// input, and requires the decoder and the encoding/json oracle both to
// reject each.
func TestCodecDecodeRejectsNonCanonical(t *testing.T) {
	v2, err := EncodeArtifact(richArtifact())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := EncodeArtifactAt(richArtifact(), 1)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(valid []byte, old, new string) []byte {
		t.Helper()
		if !bytes.Contains(valid, []byte(old)) {
			t.Fatalf("mutation anchor %q not present in encoding", old)
		}
		return bytes.Replace(valid, []byte(old), []byte(new), 1)
	}
	mutate := func(old, new string) []byte { return edit(v2, old, new) }
	path1 := `{"id":1,"action":"drop","cost":{"ic":{"":55}},"witness":null}`
	cases := []struct {
		name string
		data []byte
	}{
		// Member order, unknown and duplicate members.
		{"reordered envelope", mutate(`"format":"gobolt-contract","version":2`, `"version":2,"format":"gobolt-contract"`)},
		{"reordered path members", mutate(`{"id":1,"action":"drop"`, `{"action":"drop","id":1`)},
		{"reordered range", mutate(`{"lo":1,"hi":64}`, `{"hi":64,"lo":1}`)},
		{"unknown member", mutate(`"level":"full"`, `"level":"full","zzz":1`)},
		{"unknown expression member", mutate(`{"k":"c","v":17}`, `{"k":"c","v":17,"q":1}`)},
		{"member name in another case", mutate(`"nf":"test-nf"`, `"NF":"test-nf"`)},
		{"duplicate member", mutate(`"nf":"test-nf"`, `"nf":"test-nf","nf":"test-nf"`)},
		{"duplicate witness", mutate(`"witness":null}]}`, `"witness":null,"witness":null}]}`)},
		// Optional members present with their empty value.
		{"zero const value", mutate(`"r":{"k":"c"}}`, `"r":{"k":"c","v":0}}`)},
		{"empty constraints", mutate(path1, `{"id":1,"action":"drop","constraints":[],"cost":{"ic":{"":55}},"witness":null}`)},
		{"empty domains", mutate(path1, `{"id":1,"action":"drop","domains":{},"cost":{"ic":{"":55}},"witness":null}`)},
		{"empty cost", mutate(path1, `{"id":1,"action":"drop","cost":{},"witness":null}`)},
		{"empty events string", mutate(path1, `{"id":1,"action":"drop","events":"","cost":{"ic":{"":55}},"witness":null}`)},
		{"empty shared_ma", mutate(path1, `{"id":1,"action":"drop","cost":{"ic":{"":55}},"shared_ma":{},"witness":null}`)},
		{"false shard_analysed", mutate(path1, `{"id":1,"action":"drop","cost":{"ic":{"":55}},"shard_analysed":false,"witness":null}`)},
		{"empty key", mutate(`"key":"abab`, `"key":"","kex":"abab`)},
		{"empty provenance", mutate(`"level":"full"`, `"level":"full","provenance":""`)},
		{"empty result_syms", mutate(`"result_syms":["ft.r0"]`, `"result_syms":[]`)},
		{"empty sharing", mutate(`"sharing":"local","sharing_reason":"key pins the flow-hash fields"}],"cost"`, `"sharing":""}],"cost"`)},
		{"false known", mutate(`{"size":4,"store":true}`, `{"known":false,"size":4,"store":true}`)},
		{"zero addr", mutate(`{"size":4,"store":true}`, `{"addr":0,"size":4,"store":true}`)},
		{"zero stateless_ic", mutate(`"stateless_ic":80,`, `"stateless_ic":0,`)},
		{"empty raw_paths", bytes.Replace(mustEncode(t, &Artifact{Contract: &Contract{NF: "m"}}), []byte(`]}}`), []byte(`]},"raw_paths":[]}`), 1)},
		{"null paths", mutate(`"paths":[{"id":0`, `"paths":null,"x":[{"id":0`)},
		{"null path element", []byte(`{"format":"gobolt-contract","version":2,"contract":{"nf":"m","level":"","paths":[null]}}`)},
		{"null raw path element", edit(mustEncode(t, &Artifact{Contract: &Contract{NF: "m", Paths: []*PathContract{{Action: nfir.ActionDrop}}}, Paths: []*nfir.Path{{Action: nfir.ActionDrop}}}), `"raw_paths":[{"id":0,"action":"drop"}]`, `"raw_paths":[null]`)},
		{"null contract", []byte(`{"format":"gobolt-contract","version":2,"contract":null}`)},
		{"null cost polynomial", mutate(`"ma":{"c":3}},"pcvs"`, `"ma":null},"pcvs"`)},
		{"null expression", mutate(`"r":{"k":"c"}}`, `"r":null}`)},
		// Map keys out of order or repeated.
		{"unsorted witness keys", mutate(`{"pkt.dst":167772161,"pkt.proto":6}`, `{"pkt.proto":6,"pkt.dst":167772161}`)},
		{"repeated witness key", mutate(`{"pkt.dst":167772161,"pkt.proto":6}`, `{"pkt.dst":167772161,"pkt.dst":6}`)},
		{"unsorted monomials", mutate(`{"":120,"c":7,"c^2":2}`, `{"c":7,"":120,"c^2":2}`)},
		{"repeated monomial", mutate(`{"":120,"c":7,"c^2":2}`, `{"":120,"c":7,"c":2}`)},
		{"unsorted metrics", mutate(`"cost":{"ic":{"":40,"c":7},"ma":{"c":3}}`, `"cost":{"ma":{"c":3},"ic":{"":40,"c":7}}`)},
		{"unsorted ops", mutate(`{"alu":60,"branch":12`, `{"branch":12,"alu":60`)},
		{"unsorted packet writes", mutate(`{"off":2,"size":2,"val":{"k":"s","n":"nat.port"}},{"off":24,"size":4,"val":{"k":"c","v":3232235521}}`, `{"off":24,"size":4,"val":{"k":"c","v":3232235521}},{"off":2,"size":2,"val":{"k":"s","n":"nat.port"}}`)},
		{"repeated packet write", mutate(`{"off":24,"size":4`, `{"off":2,"size":4`)},
		// Whitespace and trailing bytes.
		{"leading space", append([]byte(" "), v2...)},
		{"trailing newline", append(append([]byte{}, v2...), '\n')},
		{"space after colon", mutate(`"version":2`, `"version": 2`)},
		{"space after comma", mutate(`"c":7,"c^2":2`, `"c":7, "c^2":2`)},
		{"tab before brace", mutate(`"outcome":{`, "\"outcome\":\t{")},
		{"trailing object", append(append([]byte{}, v2...), `{}`...)},
		{"trailing brace", append(append([]byte{}, v2...), '}')},
		// Numbers.
		{"leading zero", mutate(`"stateless_ic":80`, `"stateless_ic":080`)},
		{"leading zero version", mutate(`"version":2`, `"version":02`)},
		{"negative zero id", mutate(`{"id":0,`, `{"id":-0,`)},
		{"plus sign", mutate(`{"id":1,`, `{"id":+1,`)},
		{"exponent", mutate(`"stateless_ic":80`, `"stateless_ic":8e1`)},
		{"fraction", mutate(`"stateless_ic":80`, `"stateless_ic":80.0`)},
		{"uint64 overflow", mutate(`"stateless_ic":80`, `"stateless_ic":18446744073709551616`)},
		{"int overflow", mutate(`{"id":1,`, `{"id":9223372036854775808,`)},
		{"uint8 overflow", mutate(`"size":8}`, `"size":256}`)},
		{"negative uint", mutate(`"stateless_ic":80`, `"stateless_ic":-80`)},
		{"negative coefficient", mutate(`"c^2":2`, `"c^2":-2`)},
		{"quoted number", mutate(`"stateless_ic":80`, `"stateless_ic":"80"`)},
		// String escapes.
		{"escaped plain letter", mutate(`"action":"forward"`, `"action":"forw\u0061rd"`)},
		{"escaped slash", mutate(`"nf":"test-nf"`, `"nf":"test\/nf"`)},
		{"uppercase hex escape", mutate(`"op":"\u003c"`, `"op":"\u003C"`)},
		{"raw html character", mutate(`"op":"\u003c"`, `"op":"<"`)},
		{"raw control character", mutate(`"nf":"test-nf"`, "\"nf\":\"test\x01nf\"")},
		{"long escape for a short one", mutate(`"nf":"test-nf"`, `"nf":"test\u0008nf"`)},
		{"escaped replacement character", mutate(`"nf":"test-nf"`, `"nf":"test\ufffdnf"`)},
		{"raw invalid UTF-8", mutate(`"nf":"test-nf"`, "\"nf\":\"test\xffnf\"")},
		{"raw line separator", mutate(`"nf":"test-nf"`, "\"nf\":\"test\u2028nf\"")},
		{"escaped surrogate pair", mutate(`"nf":"test-nf"`, `"nf":"test\ud83d\ude00nf"`)},
		{"unknown escape", mutate(`"nf":"test-nf"`, `"nf":"test\qnf"`)},
		// Version-2 members in a version-1 artifact.
		{"v1 with shared_ma", edit(v1, `"witness":{"pkt.dst"`, `"shared_ma":{"":3},"witness":{"pkt.dst"`)},
		{"v1 with shard_analysed", edit(v1, `"witness":{"pkt.dst"`, `"shard_analysed":true,"witness":{"pkt.dst"`)},
		{"v1 with call args", edit(v1, `"result_syms":["ft.r0"]}`, `"result_syms":["ft.r0"],"args":[{"k":"s","n":"now"}]}`)},
		{"v1 with sharing", edit(v1, `"result_syms":["ft.r0"]}`, `"result_syms":["ft.r0"],"sharing":"local"}`)},
		// Names that do not parse, or parse from a non-canonical spelling.
		{"unknown operator", mutate(`"op":"!="`, `"op":"Op(99)"`)},
		{"capitalised action", mutate(`"action":"drop"`, `"action":"Drop"`)},
		{"long metric spelling", mutate(`"ma":{"c":3}},"pcvs"`, `"memaccesses":{"c":3}},"pcvs"`)},
		{"unknown op class", mutate(`"store":6}`, `"stores":6}`)},
		{"unknown expression kind", mutate(`{"k":"s","n":"now"}`, `{"k":"z","n":"now"}`)},
		{"non-canonical monomial", mutate(`"c*m":11`, `"m*c":11`)},
		{"zero coefficient", mutate(`"c^2":2`, `"c^2":0`)},
		{"empty DS name", mutate(`"ds":"flowtable"`, `"ds":""`)},
		{"misaligned raw paths", mutate(`},{"id":1,"action":"drop"}]}`, `}]}`)},
	}
	for _, c := range cases {
		if _, err := DecodeArtifact(c.data); err == nil {
			t.Errorf("%s: decoder accepted %s", c.name, clip(c.data))
		}
		if _, err := oracleDecodeArtifact(c.data); err == nil {
			t.Errorf("%s: oracle accepted %s", c.name, clip(c.data))
		}
	}

	// Every proper prefix is truncated input: an error, never a panic.
	for _, valid := range [][]byte{v2, v1} {
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeArtifact(valid[:n]); err == nil {
				t.Fatalf("decoder accepted a %d-byte prefix", n)
			}
			if _, err := oracleDecodeArtifact(valid[:n]); err == nil {
				t.Fatalf("oracle accepted a %d-byte prefix", n)
			}
		}
	}
}

// TestCodecAgreesOnByteEdits makes one-byte edits of the rich artifact
// at every position — a byte deleted, doubled, or replaced by a
// character that is structural in JSON — and requires the decoder and
// the oracle to agree on each.
func TestCodecAgreesOnByteEdits(t *testing.T) {
	valid := mustEncode(t, richArtifact())
	for i := range valid {
		head, tail := valid[:i:i], valid[i+1:]
		CheckDecodeAgainstOracle(t, append(head, tail...))
		CheckDecodeAgainstOracle(t, append(append(head, valid[i], valid[i]), tail...))
		for _, c := range []byte(` 0"}\`) {
			if c != valid[i] {
				CheckDecodeAgainstOracle(t, append(append(head, c), tail...))
			}
		}
	}
}

// deepNot wraps a constant in depth negations.
func deepNot(depth int) symb.Expr {
	var x symb.Expr = symb.Const{V: 1}
	for i := 0; i < depth; i++ {
		x = symb.Not{X: x}
	}
	return x
}

// TestCodecNestingLimit pins the nesting bound at the oracle's: an
// expression whose innermost node sits at exactly the limit decodes,
// one level deeper is an error, and a far deeper one is an error rather
// than a stack overflow.
func TestCodecNestingLimit(t *testing.T) {
	// The artifact, contract, paths array, path and constraints array
	// hold the root expression at nesting 6.
	const above = 5
	for _, c := range []struct {
		depth int
		ok    bool
	}{
		{maxNesting - above - 1, true},
		{maxNesting - above, false},
		{4 * maxNesting, false},
	} {
		a := &Artifact{Contract: &Contract{NF: "deep", Paths: []*PathContract{{
			Action:      nfir.ActionDrop,
			Constraints: []symb.Expr{deepNot(c.depth)},
		}}}}
		data := CheckEncodeAgainstOracle(t, a, ArtifactVersion)
		if got := CheckDecodeAgainstOracle(t, data); got != c.ok {
			t.Errorf("%d nested negations: accepted = %v, want %v", c.depth, got, c.ok)
		}
	}
	// The decoder reuses the value of an expression it has already
	// decoded from the same bytes; the same bytes two levels deeper, in
	// a raw path's call outcome, must still hit the limit there.
	x := deepNot(maxNesting - above - 1)
	a := &Artifact{
		Contract: &Contract{NF: "deep", Paths: []*PathContract{{Action: nfir.ActionDrop, Constraints: []symb.Expr{x}}}},
		Paths: []*nfir.Path{{Action: nfir.ActionDrop, Events: []nfir.CallEvent{{
			DS: "d", Method: "m", Outcome: nfir.Outcome{Constraints: []symb.Expr{x}},
		}}}},
	}
	if CheckDecodeAgainstOracle(t, CheckEncodeAgainstOracle(t, a, ArtifactVersion)) {
		t.Errorf("an expression within the limit in a contract path was accepted past it in a raw path")
	}
}

// TestCodecStringEscaping pins string escaping to encoding/json's on
// every character class it treats specially, in both directions.
func TestCodecStringEscaping(t *testing.T) {
	names := []string{
		"plain", `quote"backslash\`, "<html>&amp;", "\b\f\n\r\t", "\x00\x01\x1f\x7f",
		"\u00e9\u2192\u65e5\u672c", "sep\u2028para\u2029", "bad\xffutf8", "\xed\xa0\x80surrogate",
		"\ufffd", "trunc\xe6\x97", "/slash", "\u00a0nbsp",
	}
	for _, name := range names {
		a := &Artifact{Key: name, Contract: &Contract{NF: name, Level: name, Paths: []*PathContract{{
			Action:      nfir.ActionForward,
			Constraints: []symb.Expr{symb.Sym{Name: name}},
			Domains:     map[string]symb.Domain{name: {Lo: 1, Hi: 2}},
			Witness:     map[string]uint64{name: 3, "a" + name: 4},
		}}}}
		data := CheckEncodeAgainstOracle(t, a, ArtifactVersion)
		CheckDecodeAgainstOracle(t, data)
	}
}

// TestCodecEncodeMatchesOracle compares the encoder with the oracle on
// the rich artifact at both versions and on shapes the rich artifact
// lacks: empty and nil containers, extreme numbers, invalid enums, and
// values the encoder must refuse.
func TestCodecEncodeMatchesOracle(t *testing.T) {
	for _, v := range []int{1, 2} {
		CheckDecodeAgainstOracle(t, CheckEncodeAgainstOracle(t, richArtifact(), v))
	}
	odd := &Artifact{Contract: &Contract{NF: "odd", Paths: []*PathContract{
		{
			ID:        -1 << 63,
			Action:    nfir.ActionKind(99),
			Domains:   map[string]symb.Domain{},
			Cost:      map[perf.Metric]expr.Poly{perf.Cycles: {}, perf.MemAccesses: expr.Const(^uint64(0))},
			PCVRanges: map[string]expr.Range{"": {Lo: ^uint64(0), Hi: 0}},
			Trace: []nfir.CallEvent{{
				DS: "d", Method: "m", ResultSyms: []string{"", "r"},
				Args:    []symb.Expr{},
				Sharing: nfir.Sharing{Class: nfir.SharingClass(42), Reason: "why"},
			}},
			Witness: map[string]uint64{},
		},
	}}, Paths: []*nfir.Path{{
		ID:        1<<63 - 1,
		Ops:       map[perf.OpClass]uint64{perf.OpDiv: 0},
		Accesses:  []nfir.SymAccess{{}, {Size: 255}},
		PktWrites: map[uint64]nfir.PktWrite{^uint64(0): {Size: -3, Val: symb.Const{}}, 0: {Val: symb.Sym{Name: "z"}}},
	}}}
	for _, v := range []int{1, 2} {
		data := CheckEncodeAgainstOracle(t, odd, v)
		CheckDecodeAgainstOracle(t, data)
	}
	refuse := []*Artifact{
		{Contract: &Contract{NF: "x", Paths: []*PathContract{{Constraints: []symb.Expr{symb.Bin{Op: symb.Op(99), L: symb.Const{}, R: symb.Const{}}}}}}},
		{Contract: &Contract{NF: "x", Paths: []*PathContract{{Constraints: []symb.Expr{symb.Sym{}}}}}},
		{Contract: &Contract{NF: "x", Paths: []*PathContract{{Cost: map[perf.Metric]expr.Poly{perf.Metric(9): {}}}}}},
		{Contract: &Contract{NF: "x", Paths: []*PathContract{{}}}, Paths: []*nfir.Path{{Ops: map[perf.OpClass]uint64{perf.OpClass(99): 1}}}},
		{Contract: &Contract{NF: "x", Paths: []*PathContract{{}}}, Paths: []*nfir.Path{{PktWrites: map[uint64]nfir.PktWrite{1: {}}}}},
		{Contract: &Contract{}},
	}
	for i, a := range refuse {
		if _, err := EncodeArtifact(a); err == nil {
			t.Errorf("refusal %d: encoder accepted an unencodable artifact", i)
		}
		CheckEncodeAgainstOracle(t, a, ArtifactVersion)
	}
}

func mustEncode(tb testing.TB, a *Artifact) []byte {
	tb.Helper()
	data, err := EncodeArtifact(a)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// composedChainArtifact composes the first n stages of the chainbench
// roster at quick-scale table capacity, coalesced, into a contract-only
// artifact: the deepest artifact shape, with namespaced symbols and
// merged traces.
func composedChainArtifact(tb testing.TB, n int) *Artifact {
	tb.Helper()
	roster := []string{"ingress-firewall", "nat", "bridge", "lb", "static-router", "lpm-router", "egress-firewall", "edge-router"}
	stages := make([]ChainStage, n)
	for i, name := range roster[:n] {
		inst, err := nf.Build(name, nf.BuildParams{Capacity: 512})
		if err != nil {
			tb.Fatal(err)
		}
		stages[i] = ChainStage{Prog: inst.Prog, Models: inst.Models}
	}
	g := NewGenerator()
	g.Coalesce = true
	ct, _, err := ComposeManyStats(context.Background(), g, stages)
	if err != nil {
		tb.Fatal(err)
	}
	return &Artifact{Contract: ct}
}

// natGoldenV1 is the version-1 NAT artifact a pre-shard build wrote.
func natGoldenV1(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "artifact_v1_nat.golden.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func BenchmarkEncodeArtifact(b *testing.B) {
	a := composedChainArtifact(b, 4)
	data := mustEncode(b, a)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeArtifact(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeArtifact(b *testing.B) {
	data := mustEncode(b, composedChainArtifact(b, 4))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeArtifact(data); err != nil {
			b.Fatal(err)
		}
	}
}
