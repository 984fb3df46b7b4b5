package core

// codec.go is the versioned, lossless serialization of performance
// contracts — the interchange format that turns a contract from a
// process-local struct into a durable artifact (ROADMAP: "contracts as
// artifacts"). An encoded artifact carries everything the in-memory
// representation does: every path's constraints (full symb.Expr trees),
// symbol domains, call traces, cost polynomials, PCV ranges, and
// witnesses, plus — when the artifact backs a cache entry — the raw
// symbolic paths chain composition needs, so a stored fold prefix can be
// extended without regenerating a single stage.
//
// Design rules:
//
//   - Versioned envelope. Every artifact starts with a format tag and a
//     version number. Decoders reject unknown versions outright rather
//     than guessing; adding fields means bumping ArtifactVersion.
//   - Canonical bytes. The wire format is one fixed JSON spelling per
//     artifact (the grammar below): fields in a fixed order, empty
//     optional fields omitted, map keys sorted byte-wise, no whitespace,
//     shortest integers, and encoding/json's string escaping. The bytes
//     are exactly what encoding/json's Marshal wrote for the wire structs
//     earlier builds used, so stored artifacts, goldens and content keys
//     are unchanged.
//   - Single pass. EncodeArtifact appends straight from the domain types
//     into one buffer. DecodeArtifact is a cursor parser over the
//     canonical grammar that builds the domain types directly and
//     rejects, at the first offending byte, anything EncodeArtifactAt
//     could not have produced at the input's declared version: reordered,
//     unknown or duplicate fields, present-but-empty optional fields,
//     unsorted or repeated map keys, whitespace, trailing bytes,
//     non-canonical numbers and string escapes, and version-2 fields in a
//     version-1 artifact. Together with the semantic checks below this is
//     exactly as strict as re-encoding the decoded artifact and comparing
//     bytes, so decode∘encode is the identity on every accepted input —
//     the property FuzzContractCodec pins against the encoding/json codec
//     kept as an oracle in codec_oracle_test.go.
//   - Strict decoding. Operator, action, metric, op-class and sharing
//     names must parse, and must be the String() spelling of what they
//     parse to; monomials must be canonical with non-zero coefficients;
//     raw paths must align one-to-one with contract paths; nesting is
//     bounded.
//
// The on-disk store (internal/store) wraps these bytes in a checksummed
// header for corruption detection; this file is only concerned with the
// payload.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// ArtifactVersion is the codec version this build writes by default.
// Version 2 added the shard dimension: per-path shared-MA polynomials
// and per-call sharability verdicts with the recorded key arguments. The
// build still reads (and can write, see EncodeArtifactAt) version 1; a
// version-1 artifact decodes to a contract whose paths report
// ShardAnalysed=false and are evaluated with the conservative
// all-accesses-shared fallback.
const ArtifactVersion = 2

// minArtifactVersion is the oldest version DecodeArtifact accepts.
const minArtifactVersion = 1

// artifactFormat tags encoded artifacts; it never changes (the version
// number does).
const artifactFormat = "gobolt-contract"

// maxNesting bounds how deeply arrays and objects nest, and with them
// expression trees. It is encoding/json's scanner limit, which the
// format has always had; deeper inputs are corrupt or hostile, not
// contracts.
const maxNesting = 10000

// Artifact is a contract as a durable object: the contract itself, the
// store key it is content-addressed by (empty when the generation was
// uncacheable), and — optionally — the raw symbolic paths that let chain
// composition extend the contract without regenerating it. When Paths is
// non-nil it aligns one-to-one with Contract.Paths.
type Artifact struct {
	Key      string
	Contract *Contract
	Paths    []*nfir.Path
	// Version is the codec version the artifact is (or was) encoded at.
	// DecodeArtifact records the input's declared version here, and
	// EncodeArtifact honours it, so decode→re-encode round-trips an old
	// artifact at its own version instead of silently upgrading the
	// bytes. Zero means "current" (ArtifactVersion).
	Version int
}

// --- wire format ----------------------------------------------------
//
// An artifact is one JSON object. Members appear in exactly the order
// listed; "?" marks a member omitted when its value is empty (the empty
// string, zero, false, an empty array or map), "v2" one written only at
// version 2. Maps are objects with byte-wise sorted keys.
//
//	artifact:  format, version, key?, contract, raw_paths? [raw path]
//	contract:  nf, level, provenance?, paths [path]
//	path:      id, action, constraints? [expr], domains? {range},
//	           events? (string), trace? [event], cost? {poly},
//	           pcv_ranges? {range}, shared_ma? poly (v2),
//	           shard_analysed? true (v2), witness (null or {uint})
//	raw path:  id, action, constraints?, domains?, events? [event],
//	           port? expr, stateless_ic?, stateless_ma?, ops? {uint},
//	           accesses? [access], pcv_ranges?, pkt_writes? [pkt write]
//	event:     ds, method, outcome, result_syms? [string],
//	           args? [expr] (v2), sharing? (v2), sharing_reason? (v2)
//	outcome:   label, results? [expr], constraints?, domains?, cost?,
//	           pcvs? [{name, range}]
//	access:    known? true, addr?, size?, store? true
//	pkt write: off, size, val expr
//	range:     lo, hi
//	poly:      {canonical monomial: non-zero coefficient}; "" is the
//	           constant term, and a cost metric's zero polynomial is {}
//	expr:      {k:"c", v?} | {k:"s", n} | {k:"b", op, l, r} | {k:"n", x}
//
// Cost maps are keyed by metricKey, ops maps by perf.OpClass names.
// Changing any of this means bumping ArtifactVersion.

// --- encoding -------------------------------------------------------

// EncodeArtifact serializes an artifact to its canonical bytes at the
// artifact's own version (a.Version; the current ArtifactVersion when
// zero). The output is deterministic: encoding the same artifact twice
// yields identical bytes, and DecodeArtifact inverts it exactly.
func EncodeArtifact(a *Artifact) ([]byte, error) {
	version := ArtifactVersion
	if a != nil && a.Version != 0 {
		version = a.Version
	}
	return EncodeArtifactAt(a, version)
}

// EncodeArtifactAt serializes at a specific codec version. Version 1 is
// the shard-oblivious projection: shard fields (SharedMA, sharability
// verdicts, call arguments) are stripped, producing bytes identical to
// what a pre-shard build would write for the same contract — the
// "strictly additive" guarantee TestShardFieldsAdditive pins against a
// golden pre-shard artifact.
func EncodeArtifactAt(a *Artifact, version int) ([]byte, error) {
	if version < minArtifactVersion || version > ArtifactVersion {
		return nil, fmt.Errorf("core: cannot encode artifact version %d (this build writes %d..%d)",
			version, minArtifactVersion, ArtifactVersion)
	}
	if a == nil || a.Contract == nil {
		return nil, fmt.Errorf("core: cannot encode a nil contract")
	}
	if a.Paths != nil && len(a.Paths) != len(a.Contract.Paths) {
		return nil, fmt.Errorf("core: artifact raw paths (%d) do not align with contract paths (%d)",
			len(a.Paths), len(a.Contract.Paths))
	}
	ct := a.Contract
	if ct.NF == "" {
		return nil, fmt.Errorf("core: contract has no NF name")
	}
	e := &encoder{version: version}
	e.lit(`{"format":"` + artifactFormat + `","version":`)
	e.buf = strconv.AppendInt(e.buf, int64(version), 10)
	if a.Key != "" {
		e.lit(`,"key":`)
		e.str(a.Key)
	}
	e.lit(`,"contract":{"nf":`)
	e.str(ct.NF)
	e.lit(`,"level":`)
	e.str(ct.Level)
	if ct.Provenance != "" {
		e.lit(`,"provenance":`)
		e.str(ct.Provenance)
	}
	e.lit(`,"paths":[`)
	for i, p := range ct.Paths {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		if e.path(p); e.err != nil {
			return nil, fmt.Errorf("core: path %d: %w", i, e.err)
		}
	}
	e.lit(`]}`)
	if len(a.Paths) > 0 {
		e.lit(`,"raw_paths":[`)
		for i, rp := range a.Paths {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if e.rawPath(rp); e.err != nil {
				return nil, fmt.Errorf("core: raw path %d: %w", i, e.err)
			}
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
	return e.buf, nil
}

// encoder appends one artifact's canonical bytes to buf. The first
// unencodable value sets err; appending goes on, but the bytes are
// discarded. The scratch slices hold one map's sorted keys at a time:
// no map's values contain another map of the same key type.
type encoder struct {
	buf     []byte
	version int
	err     error
	keys    []string
	monos   []expr.Mono
	offs    []uint64
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// lit appends pre-quoted wire bytes.
func (e *encoder) lit(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

// field appends pre-quoted wire bytes that end in a member name and ':',
// then the member's uint64 value.
func (e *encoder) field(name string, v uint64) {
	e.lit(name)
	e.uint(v)
}

func (e *encoder) path(p *PathContract) {
	if p == nil {
		e.fail("nil path")
		return
	}
	e.lit(`{"id":`)
	e.buf = strconv.AppendInt(e.buf, int64(p.ID), 10)
	e.lit(`,"action":`)
	e.str(p.Action.String())
	if len(p.Constraints) > 0 {
		e.lit(`,"constraints":`)
		e.exprs(p.Constraints)
	}
	if len(p.Domains) > 0 {
		e.lit(`,"domains":`)
		ranges(e, p.Domains)
	}
	if p.Events != "" {
		e.lit(`,"events":`)
		e.str(p.Events)
	}
	if len(p.Trace) > 0 {
		e.lit(`,"trace":`)
		e.events(p.Trace)
	}
	if len(p.Cost) > 0 {
		e.lit(`,"cost":`)
		e.cost(p.Cost)
	}
	if len(p.PCVRanges) > 0 {
		e.lit(`,"pcv_ranges":`)
		ranges(e, p.PCVRanges)
	}
	if e.version >= 2 {
		if !p.SharedMA.IsZero() {
			e.lit(`,"shared_ma":`)
			e.poly(p.SharedMA)
		}
		if p.ShardAnalysed {
			e.lit(`,"shard_analysed":true`)
		}
	}
	e.lit(`,"witness":`)
	if p.Witness == nil {
		e.lit(`null`)
	} else {
		e.keys = sortedKeys(e.keys[:0], p.Witness)
		e.buf = append(e.buf, '{')
		for i, k := range e.keys {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(k)
			e.buf = append(e.buf, ':')
			e.uint(p.Witness[k])
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) rawPath(rp *nfir.Path) {
	if rp == nil {
		e.fail("nil raw path")
		return
	}
	e.lit(`{"id":`)
	e.buf = strconv.AppendInt(e.buf, int64(rp.ID), 10)
	e.lit(`,"action":`)
	e.str(rp.Action.String())
	if len(rp.Constraints) > 0 {
		e.lit(`,"constraints":`)
		e.exprs(rp.Constraints)
	}
	if len(rp.Domains) > 0 {
		e.lit(`,"domains":`)
		ranges(e, rp.Domains)
	}
	if len(rp.Events) > 0 {
		e.lit(`,"events":`)
		e.events(rp.Events)
	}
	if rp.Port != nil {
		e.lit(`,"port":`)
		e.expr(rp.Port)
	}
	if rp.StatelessIC != 0 {
		e.field(`,"stateless_ic":`, rp.StatelessIC)
	}
	if rp.StatelessMA != 0 {
		e.field(`,"stateless_ma":`, rp.StatelessMA)
	}
	if len(rp.Ops) > 0 {
		e.lit(`,"ops":`)
		e.ops(rp.Ops)
	}
	if len(rp.Accesses) > 0 {
		e.lit(`,"accesses":[`)
		for i, a := range rp.Accesses {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			sep := byte('{')
			if a.Known {
				e.buf = append(e.buf, sep)
				e.lit(`"known":true`)
				sep = ','
			}
			if a.Addr != 0 {
				e.buf = append(e.buf, sep)
				e.field(`"addr":`, a.Addr)
				sep = ','
			}
			if a.Size != 0 {
				e.buf = append(e.buf, sep)
				e.field(`"size":`, uint64(a.Size))
				sep = ','
			}
			if a.Store {
				e.buf = append(e.buf, sep)
				e.lit(`"store":true`)
				sep = ','
			}
			if sep == '{' {
				e.buf = append(e.buf, '{')
			}
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	if len(rp.PCVRanges) > 0 {
		e.lit(`,"pcv_ranges":`)
		ranges(e, rp.PCVRanges)
	}
	if len(rp.PktWrites) > 0 {
		e.lit(`,"pkt_writes":[`)
		e.offs = e.offs[:0]
		for off := range rp.PktWrites {
			e.offs = append(e.offs, off)
		}
		slices.Sort(e.offs)
		for i, off := range e.offs {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			w := rp.PktWrites[off]
			e.field(`{"off":`, off)
			e.lit(`,"size":`)
			e.buf = strconv.AppendInt(e.buf, int64(w.Size), 10)
			e.lit(`,"val":`)
			e.expr(w.Val)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

// opClassesByName lists the op classes in the byte order of their wire
// names, the order an ops map is written in.
var opClassesByName = func() []perf.OpClass {
	cs := make([]perf.OpClass, perf.NumOpClasses)
	for i := range cs {
		cs[i] = perf.OpClass(i)
	}
	slices.SortFunc(cs, func(a, b perf.OpClass) int { return strings.Compare(a.String(), b.String()) })
	return cs
}()

func (e *encoder) ops(ops map[perf.OpClass]uint64) {
	e.buf = append(e.buf, '{')
	n := 0
	for _, c := range opClassesByName {
		if v, ok := ops[c]; ok {
			if n > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(c.String())
			e.buf = append(e.buf, ':')
			e.uint(v)
			n++
		}
	}
	e.buf = append(e.buf, '}')
	if n != len(ops) {
		for c := range ops {
			if _, ok := perf.ParseOpClass(c.String()); !ok {
				e.fail("unencodable op class %v", c)
			}
		}
	}
}

func (e *encoder) events(evs []nfir.CallEvent) {
	e.buf = append(e.buf, '[')
	for i := range evs {
		ev := &evs[i]
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.lit(`{"ds":`)
		e.str(ev.DS)
		e.lit(`,"method":`)
		e.str(ev.Method)
		o := &ev.Outcome
		e.lit(`,"outcome":{"label":`)
		e.str(o.Label)
		if len(o.Results) > 0 {
			e.lit(`,"results":`)
			e.exprs(o.Results)
		}
		if len(o.Constraints) > 0 {
			e.lit(`,"constraints":`)
			e.exprs(o.Constraints)
		}
		if len(o.Domains) > 0 {
			e.lit(`,"domains":`)
			ranges(e, o.Domains)
		}
		if len(o.Cost) > 0 {
			e.lit(`,"cost":`)
			e.cost(o.Cost)
		}
		if len(o.PCVs) > 0 {
			e.lit(`,"pcvs":[`)
			for j, pcv := range o.PCVs {
				if j > 0 {
					e.buf = append(e.buf, ',')
				}
				e.lit(`{"name":`)
				e.str(pcv.Name)
				e.lit(`,"range":`)
				e.rng(pcv.Range)
				e.buf = append(e.buf, '}')
			}
			e.buf = append(e.buf, ']')
		}
		e.buf = append(e.buf, '}')
		if len(ev.ResultSyms) > 0 {
			e.lit(`,"result_syms":[`)
			for j, s := range ev.ResultSyms {
				if j > 0 {
					e.buf = append(e.buf, ',')
				}
				e.str(s)
			}
			e.buf = append(e.buf, ']')
		}
		if e.version >= 2 {
			if len(ev.Args) > 0 {
				e.lit(`,"args":`)
				e.exprs(ev.Args)
			}
			if s := ev.Sharing.Class.String(); s != "" {
				e.lit(`,"sharing":`)
				e.str(s)
			}
			if ev.Sharing.Reason != "" {
				e.lit(`,"sharing_reason":`)
				e.str(ev.Sharing.Reason)
			}
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ']')
}

// wireMetrics lists the encodable metrics in the byte order of their
// metricKey names, the order a cost map is written in.
var wireMetrics = [...]perf.Metric{perf.Cycles, perf.Instructions, perf.MemAccesses}

// metricKey names a metric in the wire format with the lowercase
// spelling perf.ParseMetric reads back.
func metricKey(m perf.Metric) (string, error) {
	switch m {
	case perf.Instructions:
		return "ic", nil
	case perf.MemAccesses:
		return "ma", nil
	case perf.Cycles:
		return "cycles", nil
	}
	return "", fmt.Errorf("unencodable metric %v", m)
}

func (e *encoder) cost(cost map[perf.Metric]expr.Poly) {
	e.buf = append(e.buf, '{')
	n := 0
	for _, m := range wireMetrics {
		if p, ok := cost[m]; ok {
			if n > 0 {
				e.buf = append(e.buf, ',')
			}
			key, _ := metricKey(m)
			e.str(key)
			e.buf = append(e.buf, ':')
			e.poly(p)
			n++
		}
	}
	e.buf = append(e.buf, '}')
	if n != len(cost) {
		for m := range cost {
			if _, err := metricKey(m); err != nil {
				e.fail("%v", err)
			}
		}
	}
}

// poly writes the monomial → coefficient map in byte-wise monomial
// order.
func (e *encoder) poly(p expr.Poly) {
	e.monos = p.AppendMonos(e.monos[:0])
	slices.Sort(e.monos)
	e.buf = append(e.buf, '{')
	n := 0
	for _, m := range e.monos {
		if c := p.Coef(m); c != 0 {
			if n > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(string(m))
			e.buf = append(e.buf, ':')
			e.uint(c)
			n++
		}
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) rng(r expr.Range) {
	e.field(`{"lo":`, r.Lo)
	e.field(`,"hi":`, r.Hi)
	e.buf = append(e.buf, '}')
}

// ranges writes a map of symbol domains or PCV ranges.
func ranges[R symb.Domain | expr.Range](e *encoder, m map[string]R) {
	e.keys = sortedKeys(e.keys[:0], m)
	e.buf = append(e.buf, '{')
	for i, k := range e.keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.str(k)
		e.buf = append(e.buf, ':')
		e.rng(expr.Range(m[k]))
	}
	e.buf = append(e.buf, '}')
}

// sortedKeys appends m's keys to dst in byte-wise order.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

func (e *encoder) exprs(es []symb.Expr) {
	e.buf = append(e.buf, '[')
	for i, x := range es {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.expr(x)
	}
	e.buf = append(e.buf, ']')
}

func (e *encoder) expr(x symb.Expr) {
	switch x := x.(type) {
	case symb.Const:
		if x.V == 0 {
			e.lit(`{"k":"c"}`)
			return
		}
		e.field(`{"k":"c","v":`, x.V)
		e.buf = append(e.buf, '}')
	case symb.Sym:
		if x.Name == "" {
			e.fail("unencodable empty symbol name")
			return
		}
		e.lit(`{"k":"s","n":`)
		e.str(x.Name)
		e.buf = append(e.buf, '}')
	case symb.Bin:
		op := x.Op.String()
		if _, ok := symb.ParseOp(op); !ok {
			e.fail("unencodable operator %v", x.Op)
			return
		}
		e.lit(`{"k":"b","op":`)
		e.str(op)
		e.lit(`,"l":`)
		e.expr(x.L)
		e.lit(`,"r":`)
		e.expr(x.R)
		e.buf = append(e.buf, '}')
	case symb.Not:
		e.lit(`{"k":"n","x":`)
		e.expr(x.X)
		e.buf = append(e.buf, '}')
	case nil:
		e.fail("unencodable nil expression")
	default:
		e.fail("unencodable expression type %T", x)
	}
}

// strSafe marks the ASCII bytes a JSON string carries unescaped:
// printable characters (and DEL) other than '"', '\\', and the HTML
// specials '<', '>', '&', which encoding/json escapes by default.
var strSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string, escaped byte-for-byte as
// encoding/json's Marshal escapes it.
func (e *encoder) str(s string) {
	e.buf = append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if strSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			e.buf = append(e.buf, s[start:i]...)
			switch b {
			case '\\', '"':
				e.buf = append(e.buf, '\\', b)
			case '\b':
				e.buf = append(e.buf, '\\', 'b')
			case '\f':
				e.buf = append(e.buf, '\\', 'f')
			case '\n':
				e.buf = append(e.buf, '\\', 'n')
			case '\r':
				e.buf = append(e.buf, '\\', 'r')
			case '\t':
				e.buf = append(e.buf, '\\', 't')
			default:
				e.buf = append(e.buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			e.buf = append(e.buf, s[start:i]...)
			e.lit(`\ufffd`)
		case r == '\u2028' || r == '\u2029':
			e.buf = append(e.buf, s[start:i]...)
			e.buf = append(e.buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.buf = append(e.buf, s[start:]...)
	e.buf = append(e.buf, '"')
}

// --- decoding -------------------------------------------------------

// DecodeArtifact parses and validates canonical artifact bytes of any
// supported version (1 or 2) in one pass. It rejects unknown formats and
// versions, malformed operator/action/metric/op-class/sharing names,
// non-canonical monomials, zero coefficients, misaligned raw paths, and
// any input that is not byte-for-byte the canonical encoding of its own
// content *at its declared version* — so EncodeArtifactAt(
// DecodeArtifact(b), version(b)) == b for every accepted b. In
// particular a version-1 artifact that smuggles shard fields is
// rejected. Errors name the offset of the first offending byte.
func DecodeArtifact(data []byte) (*Artifact, error) {
	d := &decoder{data: data, strs: make(map[string]string), shared: make(map[string]symb.Expr)}
	a := d.artifact()
	if d.err == nil && d.pos != len(d.data) {
		d.fail("trailing data after artifact")
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}

// decoder is a cursor over canonical artifact bytes. The first
// violation sets err; from then on every read is a no-op returning a
// zero value and every loop ends, so parsing unwinds without further
// checks.
type decoder struct {
	data    []byte
	pos     int
	depth   int
	version int
	err     error
	// scratch holds a string's bytes while its escapes are undone.
	scratch []byte
	// strs interns decoded strings: symbol names, monomials and map
	// keys repeat across the paths of a composite.
	strs map[string]string
	// terms collects one polynomial's terms before expr.FromTerms
	// copies them.
	terms map[expr.Mono]uint64
	// shared maps the bytes of each list-element expression decoded so
	// far to its value.
	shared map[string]symb.Expr
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: decoding artifact at byte %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
}

// opt consumes s if the input continues with it.
func (d *decoder) opt(s string) bool {
	if d.err == nil && len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// lit consumes s, which must come next.
func (d *decoder) lit(s string) {
	if !d.opt(s) {
		d.fail("expected %s", s)
	}
}

// open consumes the '{' or '[' that starts an object or array.
func (d *decoder) open(c byte) {
	if d.err != nil {
		return
	}
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		d.fail("expected %q", c)
		return
	}
	if d.depth++; d.depth > maxNesting {
		d.fail("nesting exceeds %d", maxNesting)
		return
	}
	d.pos++
}

// close consumes the '}' that ends an object whose members are fixed.
func (d *decoder) close() {
	if d.err != nil {
		return
	}
	if d.pos >= len(d.data) || d.data[d.pos] != '}' {
		d.fail("expected '}'")
		return
	}
	d.depth--
	d.pos++
}

// next reports whether the array or map being read has another member,
// consuming the ',' before it — or, at the end, the closing byte. i
// counts the members read so far; empty says whether an empty container
// is canonical here (optional members are omitted when empty).
func (d *decoder) next(i int, empty bool, end byte) bool {
	if d.err != nil {
		return false
	}
	if d.pos < len(d.data) && d.data[d.pos] == end {
		if i == 0 && !empty {
			d.fail("empty %q container is omitted in canonical form", end)
			return false
		}
		d.depth--
		d.pos++
		return false
	}
	if i > 0 {
		if d.pos >= len(d.data) || d.data[d.pos] != ',' {
			d.fail("expected ',' or %q", end)
			return false
		}
		d.pos++
	}
	return true
}

// key reads member i's key in a map, which must sort strictly after the
// previous key prev, and the ':' after it.
func (d *decoder) key(i int, prev string) string {
	start := d.pos
	k := d.str()
	if i > 0 && k <= prev && d.err == nil {
		d.pos = start
		d.fail("map key %q does not sort after %q", k, prev)
	}
	d.lit(":")
	return k
}

// optMember consumes the name of the next member of an object whose
// members are all optional; n counts the members already read.
func (d *decoder) optMember(n int, name string) bool {
	start := d.pos
	if (n == 0 || d.opt(",")) && d.opt(name) {
		return true
	}
	d.pos = start
	return false
}

// digits reads a canonical unsigned decimal no larger than max: "0", or
// a non-zero digit followed by digits.
func (d *decoder) digits(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
		d.fail("expected an unsigned integer")
		return 0
	}
	if d.data[d.pos] == '0' {
		d.pos++
		if d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.fail("number has a leading zero")
		}
		return 0
	}
	var v uint64
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		dg := uint64(d.data[d.pos] - '0')
		if v > (max-dg)/10 {
			d.fail("number out of range")
			return 0
		}
		v = v*10 + dg
		d.pos++
	}
	return v
}

func (d *decoder) uint64() uint64 { return d.digits(^uint64(0)) }

// positive reads the value of an optional number member, which is
// present only when non-zero.
func (d *decoder) positive(max uint64) uint64 {
	v := d.digits(max)
	if v == 0 {
		d.fail("zero value of an optional member is omitted in canonical form")
	}
	return v
}

// int reads a canonical signed decimal in int's range ("-0" is not one).
func (d *decoder) int() int {
	neg := d.opt("-")
	if !neg {
		return int(d.digits(uint64(1<<(strconv.IntSize-1) - 1)))
	}
	v := d.digits(1 << (strconv.IntSize - 1))
	if v == 0 {
		d.fail("negative zero")
	}
	return int(-int64(v))
}

// str reads a JSON string in the spelling the encoder writes and
// returns it interned.
func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		d.fail("expected a string")
		return ""
	}
	d.pos++
	start := d.pos
	for d.pos < len(d.data) && strSafe[d.data[d.pos]] {
		d.pos++
	}
	var b []byte
	if d.pos < len(d.data) && d.data[d.pos] == '"' {
		b = d.data[start:d.pos]
	} else {
		b = d.unescape(start)
		if d.err != nil {
			return ""
		}
	}
	d.pos++
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// unescape finishes a string whose first byte needing care is at d.pos
// and returns its decoded bytes, leaving d.pos on the closing quote. It
// accepts exactly the escapes str writes: the short forms of '"', '\\'
// and \b \f \n \r \t; \u00XX (lowercase hex) for the other control
// characters and for '<', '>', '&'; \u2028 and \u2029. Every other
// character must appear raw and be valid UTF-8.
func (d *decoder) unescape(start int) []byte {
	b := append(d.scratch[:0], d.data[start:d.pos]...)
	defer func() { d.scratch = b[:0] }()
	for {
		if d.pos >= len(d.data) {
			d.fail("unterminated string")
			return nil
		}
		c := d.data[d.pos]
		switch {
		case c == '"':
			return b
		case strSafe[c]:
			b = append(b, c)
			d.pos++
		case c == '\\':
			if d.pos+1 >= len(d.data) {
				d.fail("unterminated string")
				return nil
			}
			switch esc := d.data[d.pos+1]; esc {
			case '"', '\\':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := d.uescape()
				if !ok {
					d.fail("non-canonical string escape")
					return nil
				}
				b = utf8.AppendRune(b, r)
				d.pos += 4
			default:
				d.fail("non-canonical string escape")
				return nil
			}
			d.pos += 2
		case c < utf8.RuneSelf:
			d.fail("character %q must be escaped", c)
			return nil
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				d.fail("invalid UTF-8 in string")
				return nil
			}
			if r == '\u2028' || r == '\u2029' {
				d.fail("character %U must be escaped", r)
				return nil
			}
			b = append(b, d.data[d.pos:d.pos+size]...)
			d.pos += size
		}
	}
}

// uescape decodes the \uXXXX escape at d.pos if it is one the encoder
// writes, spelled exactly as the encoder spells it.
func (d *decoder) uescape() (rune, bool) {
	if len(d.data)-d.pos < 6 {
		return 0, false
	}
	h := d.data[d.pos+2 : d.pos+6]
	var r rune
	for _, c := range h {
		i := strings.IndexByte(hexDigits, c)
		if i < 0 {
			return 0, false
		}
		r = r<<4 | rune(i)
	}
	switch {
	case r == '\u2028' || r == '\u2029':
		return r, true
	case r == '<' || r == '>' || r == '&':
	case r < 0x20 && r != '\b' && r != '\f' && r != '\n' && r != '\r' && r != '\t':
	default:
		return 0, false
	}
	return r, true
}

// nonEmpty reads the string value of an optional member, which is
// present only when non-empty.
func (d *decoder) nonEmpty() string {
	s := d.str()
	if s == "" {
		d.fail("empty value of an optional member is omitted in canonical form")
	}
	return s
}

func (d *decoder) artifact() *Artifact {
	a := &Artifact{}
	d.open('{')
	d.lit(`"format":`)
	if f := d.str(); f != artifactFormat && d.err == nil {
		d.fail("not a contract artifact (format %q, want %q)", f, artifactFormat)
	}
	d.lit(`,"version":`)
	a.Version = d.int()
	if (a.Version < minArtifactVersion || a.Version > ArtifactVersion) && d.err == nil {
		d.fail("unsupported artifact version %d (this build reads versions %d..%d)",
			a.Version, minArtifactVersion, ArtifactVersion)
	}
	d.version = a.Version
	if d.opt(`,"key":`) {
		a.Key = d.nonEmpty()
	}
	d.lit(`,"contract":`)
	a.Contract = d.contract()
	if d.opt(`,"raw_paths":`) {
		d.open('[')
		a.Paths = make([]*nfir.Path, 0, len(a.Contract.Paths))
		for i := 0; d.next(i, false, ']'); i++ {
			a.Paths = append(a.Paths, d.rawPath())
		}
		if len(a.Paths) != len(a.Contract.Paths) && d.err == nil {
			d.fail("artifact raw paths (%d) do not align with contract paths (%d)",
				len(a.Paths), len(a.Contract.Paths))
		}
	}
	d.close()
	return a
}

func (d *decoder) contract() *Contract {
	// "paths" is written even when empty, so it decodes to a non-nil
	// slice, as it always has.
	ct := &Contract{Paths: []*PathContract{}}
	d.open('{')
	d.lit(`"nf":`)
	if ct.NF = d.str(); ct.NF == "" {
		d.fail("artifact contract has no NF name")
	}
	d.lit(`,"level":`)
	ct.Level = d.str()
	if d.opt(`,"provenance":`) {
		ct.Provenance = d.nonEmpty()
	}
	d.lit(`,"paths":`)
	d.open('[')
	for i := 0; d.next(i, true, ']'); i++ {
		ct.Paths = append(ct.Paths, d.path())
	}
	d.close()
	return ct
}

func (d *decoder) path() *PathContract {
	p := &PathContract{}
	d.open('{')
	d.lit(`"id":`)
	p.ID = d.int()
	d.lit(`,"action":`)
	p.Action = d.action()
	if d.opt(`,"constraints":`) {
		p.Constraints = d.exprs()
	}
	if d.opt(`,"domains":`) {
		p.Domains = readMap(d, false, (*decoder).domain)
	}
	if d.opt(`,"events":`) {
		p.Events = d.nonEmpty()
	}
	if d.opt(`,"trace":`) {
		p.Trace = d.events()
	}
	if d.opt(`,"cost":`) {
		p.Cost = d.cost()
	}
	if d.opt(`,"pcv_ranges":`) {
		p.PCVRanges = readMap(d, false, (*decoder).rng)
	}
	if d.version >= 2 {
		if d.opt(`,"shared_ma":`) {
			p.SharedMA = d.poly(false)
		}
		p.ShardAnalysed = d.opt(`,"shard_analysed":true`)
	}
	d.lit(`,"witness":`)
	if !d.opt("null") {
		p.Witness = readMap(d, true, (*decoder).uint64)
	}
	d.close()
	return p
}

func (d *decoder) rawPath() *nfir.Path {
	rp := &nfir.Path{}
	d.open('{')
	d.lit(`"id":`)
	rp.ID = d.int()
	d.lit(`,"action":`)
	rp.Action = d.action()
	if d.opt(`,"constraints":`) {
		rp.Constraints = d.exprs()
	}
	if d.opt(`,"domains":`) {
		rp.Domains = readMap(d, false, (*decoder).domain)
	}
	if d.opt(`,"events":`) {
		rp.Events = d.events()
	}
	if d.opt(`,"port":`) {
		rp.Port = d.expr()
	}
	if d.opt(`,"stateless_ic":`) {
		rp.StatelessIC = d.positive(^uint64(0))
	}
	if d.opt(`,"stateless_ma":`) {
		rp.StatelessMA = d.positive(^uint64(0))
	}
	if d.opt(`,"ops":`) {
		rp.Ops = d.ops()
	}
	if d.opt(`,"accesses":`) {
		d.open('[')
		for i := 0; d.next(i, false, ']'); i++ {
			rp.Accesses = append(rp.Accesses, d.access())
		}
	}
	if d.opt(`,"pcv_ranges":`) {
		rp.PCVRanges = readMap(d, false, (*decoder).rng)
	}
	if d.opt(`,"pkt_writes":`) {
		rp.PktWrites = d.pktWrites()
	}
	d.close()
	return rp
}

func (d *decoder) ops() map[perf.OpClass]uint64 {
	ops := make(map[perf.OpClass]uint64)
	d.open('{')
	prev := ""
	for i := 0; d.next(i, false, '}'); i++ {
		k := d.key(i, prev)
		c, ok := perf.ParseOpClass(k)
		if !ok && d.err == nil {
			d.fail("unknown op class %q", k)
		}
		ops[c] = d.uint64()
		prev = k
	}
	return ops
}

func (d *decoder) access() nfir.SymAccess {
	var a nfir.SymAccess
	n := 0
	d.open('{')
	if d.optMember(n, `"known":true`) {
		a.Known = true
		n++
	}
	if d.optMember(n, `"addr":`) {
		a.Addr = d.positive(^uint64(0))
		n++
	}
	if d.optMember(n, `"size":`) {
		a.Size = uint8(d.positive(1<<8 - 1))
		n++
	}
	if d.optMember(n, `"store":true`) {
		a.Store = true
	}
	d.close()
	return a
}

func (d *decoder) pktWrites() map[uint64]nfir.PktWrite {
	writes := make(map[uint64]nfir.PktWrite)
	d.open('[')
	var prev uint64
	for i := 0; d.next(i, false, ']'); i++ {
		d.open('{')
		d.lit(`"off":`)
		off := d.uint64()
		if i > 0 && off <= prev && d.err == nil {
			d.fail("packet write at offset %d does not sort after offset %d", off, prev)
		}
		d.lit(`,"size":`)
		size := d.int()
		d.lit(`,"val":`)
		writes[off] = nfir.PktWrite{Size: size, Val: d.expr()}
		d.close()
		prev = off
	}
	return writes
}

func (d *decoder) events() []nfir.CallEvent {
	var evs []nfir.CallEvent
	d.open('[')
	for i := 0; d.next(i, false, ']'); i++ {
		evs = append(evs, nfir.CallEvent{})
		ev := &evs[len(evs)-1]
		d.open('{')
		d.lit(`"ds":`)
		ev.DS = d.str()
		d.lit(`,"method":`)
		if ev.Method = d.str(); (ev.DS == "" || ev.Method == "") && d.err == nil {
			d.fail("call event %d has an empty data-structure or method name", i)
		}
		d.lit(`,"outcome":`)
		d.outcome(&ev.Outcome)
		if d.opt(`,"result_syms":`) {
			d.open('[')
			for j := 0; d.next(j, false, ']'); j++ {
				ev.ResultSyms = append(ev.ResultSyms, d.str())
			}
		}
		if d.version >= 2 {
			if d.opt(`,"args":`) {
				ev.Args = d.exprs()
			}
			if d.opt(`,"sharing":`) {
				s := d.str()
				c, ok := nfir.ParseSharingClass(s)
				if (!ok || c == nfir.SharingUnknown || c.String() != s) && d.err == nil {
					d.fail("call event %d has an unknown sharing class %q", i, s)
				}
				ev.Sharing.Class = c
			}
			if d.opt(`,"sharing_reason":`) {
				ev.Sharing.Reason = d.nonEmpty()
				if ev.Sharing.Class == nfir.SharingUnknown {
					d.fail("call event %d has a sharing reason without a sharing class", i)
				}
			}
		}
		d.close()
	}
	return evs
}

func (d *decoder) outcome(o *nfir.Outcome) {
	d.open('{')
	d.lit(`"label":`)
	o.Label = d.str()
	if d.opt(`,"results":`) {
		o.Results = d.exprs()
	}
	if d.opt(`,"constraints":`) {
		o.Constraints = d.exprs()
	}
	if d.opt(`,"domains":`) {
		o.Domains = readMap(d, false, (*decoder).domain)
	}
	if d.opt(`,"cost":`) {
		o.Cost = d.cost()
	}
	if d.opt(`,"pcvs":`) {
		d.open('[')
		for i := 0; d.next(i, false, ']'); i++ {
			d.open('{')
			d.lit(`"name":`)
			pcv := nfir.PCV{Name: d.str()}
			if pcv.Name == "" && d.err == nil {
				d.fail("PCV with an empty name")
			}
			d.lit(`,"range":`)
			pcv.Range = d.rng()
			d.close()
			o.PCVs = append(o.PCVs, pcv)
		}
	}
	d.close()
}

func (d *decoder) action() nfir.ActionKind {
	s := d.str()
	k, ok := nfir.ParseActionKind(s)
	if (!ok || k.String() != s) && d.err == nil {
		d.fail("unknown action %q", s)
	}
	return k
}

// readMap reads an object of string keys in byte-wise order, each value
// read by val. empty says whether {} is canonical here.
func readMap[V any](d *decoder, empty bool, val func(*decoder) V) map[string]V {
	m := make(map[string]V)
	d.open('{')
	prev := ""
	for i := 0; d.next(i, empty, '}'); i++ {
		k := d.key(i, prev)
		m[k] = val(d)
		prev = k
	}
	return m
}

func (d *decoder) rng() expr.Range {
	var r expr.Range
	d.open('{')
	d.lit(`"lo":`)
	r.Lo = d.uint64()
	d.lit(`,"hi":`)
	r.Hi = d.uint64()
	d.close()
	return r
}

func (d *decoder) domain() symb.Domain { return symb.Domain(d.rng()) }

func (d *decoder) cost() map[perf.Metric]expr.Poly {
	cost := make(map[perf.Metric]expr.Poly)
	d.open('{')
	prev := ""
	for i := 0; d.next(i, false, '}'); i++ {
		k := d.key(i, prev)
		m, err := perf.ParseMetric(k)
		if key, _ := metricKey(m); (err != nil || key != k) && d.err == nil {
			d.fail("unknown or non-canonical metric name %q", k)
		}
		cost[m] = d.poly(true)
		prev = k
	}
	return cost
}

// poly reads a polynomial; empty says whether the zero polynomial {} is
// canonical here (it is as a cost metric's value, not as shared_ma).
func (d *decoder) poly(empty bool) expr.Poly {
	if d.terms == nil {
		d.terms = make(map[expr.Mono]uint64)
	}
	clear(d.terms)
	d.open('{')
	prev := ""
	for i := 0; d.next(i, empty, '}'); i++ {
		k := d.key(i, prev)
		m, err := expr.ParseMono(k)
		if err != nil && d.err == nil {
			d.fail("%v", err)
		}
		c := d.uint64()
		if c == 0 && d.err == nil {
			d.fail("zero coefficient for monomial %q", k)
		}
		d.terms[m] = c
		prev = k
	}
	return expr.FromTerms(d.terms)
}

func (d *decoder) exprs() []symb.Expr {
	var es []symb.Expr
	d.open('[')
	for i := 0; d.next(i, false, ']'); i++ {
		es = append(es, d.sharedExpr())
	}
	return es
}

// sharedExpr reads an expression like expr, but returns the value
// decoded earlier from the same bytes when there is one. The paths of a
// composite repeat their stages' constraints — a coalesced 8-stage
// composite spells about 14000 expressions with 41 distinct ones — and
// expressions are immutable, so they can share one value.
func (d *decoder) sharedExpr() symb.Expr {
	if d.err != nil {
		return nil
	}
	start := d.pos
	end, depth, ok := skipObject(d.data, start)
	if ok && d.depth+depth <= maxNesting {
		if x, hit := d.shared[string(d.data[start:end])]; hit {
			d.pos = end
			return x
		}
	}
	x := d.expr()
	if d.err == nil {
		d.shared[string(d.data[start:d.pos])] = x
	}
	return x
}

// skipObject returns the end of the object starting at data[pos] and
// how deeply it nests, without validating it; ok is false when there is
// no object there or it is cut off.
func skipObject(data []byte, pos int) (end, depth int, ok bool) {
	if pos >= len(data) || data[pos] != '{' {
		return 0, 0, false
	}
	n := 0
	for i := pos; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if n++; n > depth {
				depth = n
			}
		case '}', ']':
			if n--; n == 0 {
				return i + 1, depth, true
			}
		}
	}
	return 0, 0, false
}

// expr rebuilds a symbolic expression EXACTLY as stored: it uses the raw
// node constructors, never symb.B, because B's constant folding would
// rewrite the tree and break losslessness.
func (d *decoder) expr() symb.Expr {
	var x symb.Expr
	d.open('{')
	switch {
	case d.opt(`"k":"c"`):
		var v uint64
		if d.opt(`,"v":`) {
			v = d.positive(^uint64(0))
		}
		x = symb.Const{V: v}
	case d.opt(`"k":"s","n":`):
		name := d.str()
		if name == "" && d.err == nil {
			d.fail("symbol node with empty name")
		}
		x = symb.Sym{Name: name}
	case d.opt(`"k":"b","op":`):
		s := d.str()
		op, ok := symb.ParseOp(s)
		if (!ok || op.String() != s) && d.err == nil {
			d.fail("unknown operator %q", s)
		}
		d.lit(`,"l":`)
		l := d.expr()
		d.lit(`,"r":`)
		x = symb.Bin{Op: op, L: l, R: d.expr()}
	case d.opt(`"k":"n","x":`):
		x = symb.Not{X: d.expr()}
	default:
		d.fail("unknown or malformed expression node")
	}
	d.close()
	return x
}
