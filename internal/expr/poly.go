// Package expr implements the algebra of performance expressions used in
// performance contracts.
//
// A contract maps an input class to a function of performance-critical
// variables (PCVs), e.g. the paper's bridge contract (Table 4):
//
//	245·e + 144·c + 36·t + 82·e·c + 19·e·t + 882
//
// These functions are polynomials with non-negative integer coefficients
// over named PCVs. The package provides construction, arithmetic,
// evaluation, legible formatting, parsing (for round-trip tests), and
// sound comparison under PCV range assumptions — the operation BOLT uses
// to coalesce execution paths into the most expensive representative.
package expr

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Mono is a canonical monomial: PCV names sorted lexicographically and
// joined with '*', with powers rendered as "name^k" for k > 1. The empty
// Mono is the constant monomial.
type Mono string

// ConstMono is the monomial of the constant term.
const ConstMono Mono = ""

// NewMono builds the canonical monomial for the product of the given PCV
// names; repeat a name to raise its power ("e","e" → "e^2").
func NewMono(vars ...string) Mono {
	if len(vars) == 0 {
		return ConstMono
	}
	pow := make(map[string]int, len(vars))
	for _, v := range vars {
		pow[v]++
	}
	return monoFromPowers(pow)
}

func monoFromPowers(pow map[string]int) Mono {
	names := make([]string, 0, len(pow))
	for v, k := range pow {
		if k > 0 {
			names = append(names, v)
		}
	}
	if len(names) == 0 {
		return ConstMono
	}
	sort.Strings(names)
	var b strings.Builder
	for i, v := range names {
		if i > 0 {
			b.WriteByte('*')
		}
		b.WriteString(v)
		if k := pow[v]; k > 1 {
			b.WriteByte('^')
			b.WriteString(strconv.Itoa(k))
		}
	}
	return Mono(b.String())
}

// ParseMono validates an externally supplied monomial spelling and
// returns it as a Mono. It accepts exactly the canonical form NewMono
// produces — factors sorted lexicographically, powers > 1 rendered as
// "name^k" with k in canonical decimal, no duplicate factors — so the
// contract codec can reject corrupted or non-canonical stored
// polynomials instead of panicking in Powers. The empty string is the
// constant monomial. It does not allocate.
func ParseMono(s string) (Mono, error) {
	if s == "" {
		return ConstMono, nil
	}
	prev := ""
	for rest := s; ; {
		f, tail, more := strings.Cut(rest, "*")
		name, k, hasPow := strings.Cut(f, "^")
		if name == "" || (hasPow && !canonicalPower(k)) {
			return ConstMono, fmt.Errorf("expr: malformed monomial factor %q in %q", f, s)
		}
		if name <= prev {
			return ConstMono, fmt.Errorf("expr: non-canonical monomial %q (factors unsorted or repeated)", s)
		}
		if !more {
			return Mono(s), nil
		}
		prev, rest = name, tail
	}
}

// canonicalPower reports whether k spells an exponent the way
// monoFromPowers renders one: a decimal int ≥ 2 without sign or leading
// zeros.
func canonicalPower(k string) bool {
	if k == "" || k[0] == '0' || (len(k) == 1 && k[0] == '1') {
		return false
	}
	for i := 0; i < len(k); i++ {
		if k[i] < '0' || k[i] > '9' {
			return false
		}
	}
	_, err := strconv.Atoi(k)
	return err == nil
}

// nextFactor splits the first factor off a canonical monomial spelling:
// its variable name, its power, and the factors after it. It reads the
// string in place, so scanning a monomial builds no Powers map.
func nextFactor(s string) (name string, k int, rest string) {
	f, rest, _ := strings.Cut(s, "*")
	name, pow, hasPow := strings.Cut(f, "^")
	k = 1
	if hasPow {
		var err error
		if k, err = strconv.Atoi(pow); err != nil {
			panic("expr: malformed monomial " + s)
		}
	}
	return name, k, rest
}

// Powers decomposes the monomial into its per-variable powers.
func (m Mono) Powers() map[string]int {
	pow := make(map[string]int)
	if m == ConstMono {
		return pow
	}
	for _, f := range strings.Split(string(m), "*") {
		name, k := f, 1
		if i := strings.IndexByte(f, '^'); i >= 0 {
			name = f[:i]
			var err error
			k, err = strconv.Atoi(f[i+1:])
			if err != nil {
				panic("expr: malformed monomial " + string(m))
			}
		}
		pow[name] += k
	}
	return pow
}

// Degree is the total degree of the monomial.
func (m Mono) Degree() int {
	d := 0
	for rest := string(m); rest != ""; {
		var k int
		_, k, rest = nextFactor(rest)
		d += k
	}
	return d
}

// mul returns the product of two monomials.
func (m Mono) mul(o Mono) Mono {
	if m == ConstMono {
		return o
	}
	if o == ConstMono {
		return m
	}
	pow := m.Powers()
	for v, k := range o.Powers() {
		pow[v] += k
	}
	return monoFromPowers(pow)
}

// eval computes the monomial's value under the binding.
func (m Mono) eval(binding map[string]uint64) uint64 {
	v := uint64(1)
	for name, k := range m.Powers() {
		x, ok := binding[name]
		if !ok {
			panic("expr: unbound PCV " + name)
		}
		for i := 0; i < k; i++ {
			v *= x
		}
	}
	return v
}

// Poly is a performance expression: a polynomial over PCVs with uint64
// coefficients. The zero value is the zero polynomial. Poly values are
// immutable once shared; all operations return new polynomials.
type Poly struct {
	terms map[Mono]uint64
}

// Zero returns the zero polynomial.
func Zero() Poly { return Poly{} }

// Const returns the constant polynomial c.
func Const(c uint64) Poly {
	if c == 0 {
		return Poly{}
	}
	return Poly{terms: map[Mono]uint64{ConstMono: c}}
}

// Var returns the polynomial 1·name.
func Var(name string) Poly {
	return Poly{terms: map[Mono]uint64{NewMono(name): 1}}
}

// Term returns the polynomial coef·mono.
func Term(coef uint64, vars ...string) Poly {
	if coef == 0 {
		return Poly{}
	}
	return Poly{terms: map[Mono]uint64{NewMono(vars...): coef}}
}

// FromTerms builds a polynomial from a monomial→coefficient map; zero
// coefficients are dropped. The input map is copied.
func FromTerms(terms map[Mono]uint64) Poly {
	p := Poly{terms: make(map[Mono]uint64, len(terms))}
	for m, c := range terms {
		if c != 0 {
			p.terms[m] = c
		}
	}
	if len(p.terms) == 0 {
		return Poly{}
	}
	return p
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// Coef returns the coefficient of the given monomial (0 if absent).
func (p Poly) Coef(m Mono) uint64 { return p.terms[m] }

// ConstTerm returns the constant coefficient.
func (p Poly) ConstTerm() uint64 { return p.terms[ConstMono] }

// AppendMonos appends the monomials with non-zero coefficients to dst in
// no particular order; callers that need an order sort the result.
func (p Poly) AppendMonos(dst []Mono) []Mono {
	for m := range p.terms {
		dst = append(dst, m)
	}
	return dst
}

// Monos returns the monomials with non-zero coefficients, in display order.
func (p Poly) Monos() []Mono {
	ms := make([]Mono, 0, len(p.terms))
	for m := range p.terms {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return displayLess(ms[i], ms[j]) })
	return ms
}

// Vars returns the sorted set of PCV names appearing in p.
func (p Poly) Vars() []string {
	vars := make([]string, 0, len(p.terms))
	for m := range p.terms {
		for rest := string(m); rest != ""; {
			var v string
			v, _, rest = nextFactor(rest)
			vars = append(vars, v)
		}
	}
	slices.Sort(vars)
	return slices.Compact(vars)
}

// Degree returns the total degree of p (0 for constants and zero).
func (p Poly) Degree() int {
	d := 0
	for m := range p.terms {
		if md := m.Degree(); md > d {
			d = md
		}
	}
	return d
}

// IsMultilinear reports whether no PCV appears with power > 1 in any term.
// Multilinear polynomials attain their extrema over a box at its corners,
// which CompareAssuming exploits for exact comparison.
func (p Poly) IsMultilinear() bool {
	for m := range p.terms {
		for _, k := range m.Powers() {
			if k > 1 {
				return false
			}
		}
	}
	return true
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	out := make(map[Mono]uint64, len(p.terms)+len(q.terms))
	for m, c := range p.terms {
		out[m] = c
	}
	for m, c := range q.terms {
		out[m] += c
	}
	return FromTerms(out)
}

// Scale returns k·p.
func (p Poly) Scale(k uint64) Poly {
	if k == 0 {
		return Poly{}
	}
	out := make(map[Mono]uint64, len(p.terms))
	for m, c := range p.terms {
		out[m] = c * k
	}
	return FromTerms(out)
}

// Mul returns p · q.
func (p Poly) Mul(q Poly) Poly {
	out := make(map[Mono]uint64, len(p.terms)*len(q.terms))
	for m1, c1 := range p.terms {
		for m2, c2 := range q.terms {
			out[m1.mul(m2)] += c1 * c2
		}
	}
	return FromTerms(out)
}

// MulVar returns p · name, a common operation when an expert contract
// charges a per-iteration cost "per expired entry" etc.
func (p Poly) MulVar(name string) Poly { return p.Mul(Var(name)) }

// Eval computes p under the given PCV binding. It panics on unbound PCVs,
// because silently defaulting a PCV to zero hides contract-evaluation bugs.
func (p Poly) Eval(binding map[string]uint64) uint64 {
	var total uint64
	for m, c := range p.terms {
		total += c * m.eval(binding)
	}
	return total
}

// UpperEnvelope returns the per-monomial maximum of p and q. Because PCVs
// and coefficients are non-negative, the result bounds both p and q from
// above everywhere; it is the cheap sound coalescing operation used when
// no single path dominates the others.
func UpperEnvelope(p, q Poly) Poly {
	out := make(map[Mono]uint64, len(p.terms)+len(q.terms))
	for m, c := range p.terms {
		out[m] = c
	}
	for m, c := range q.terms {
		if c > out[m] {
			out[m] = c
		}
	}
	return FromTerms(out)
}

// Range bounds a PCV's value for comparison purposes.
type Range struct {
	Lo, Hi uint64
}

// Ordering is the result of comparing two polynomials over a box.
type Ordering int

const (
	// Incomparable: neither dominates over the whole box.
	Incomparable Ordering = iota
	// AlwaysLeq: p ≤ q everywhere on the box.
	AlwaysLeq
	// AlwaysGeq: p ≥ q everywhere on the box.
	AlwaysGeq
	// AlwaysEq: p = q (as polynomials restricted to the box corners).
	AlwaysEq
)

// CompareAssuming compares p and q for all PCV values within ranges.
// PCVs absent from ranges default to [0, DefaultHi].
//
// The verdict is always sound. For multilinear pairs the difference is
// multilinear, so it attains its extrema at the box corners and the
// corner check is exact. For anything else only the termwise
// coefficient comparison is used (sound because PCVs are non-negative),
// which may report Incomparable for inputs that are in fact ordered —
// the conservative direction for coalescing.
func CompareAssuming(p, q Poly, ranges map[string]Range) Ordering {
	// Termwise ordering decides any pair soundly, including
	// non-multilinear ones.
	pLeq, qLeq := termwiseLeq(p, q), termwiseLeq(q, p)
	switch {
	case pLeq && qLeq:
		return AlwaysEq
	case pLeq:
		return AlwaysLeq
	case qLeq:
		return AlwaysGeq
	}
	if !(p.IsMultilinear() && q.IsMultilinear()) {
		return Incomparable
	}
	vars := unionVars(p, q)
	if len(vars) > 16 {
		// Corner enumeration would explode; callers with that many PCVs
		// should compare term-wise instead.
		return Incomparable
	}
	points := boxPoints(vars, ranges)
	leq, geq := true, true
	for _, pt := range points {
		pv, qv := p.Eval(pt), q.Eval(pt)
		if pv > qv {
			leq = false
		}
		if pv < qv {
			geq = false
		}
	}
	switch {
	case leq && geq:
		return AlwaysEq
	case leq:
		return AlwaysLeq
	case geq:
		return AlwaysGeq
	default:
		return Incomparable
	}
}

// termwiseLeq reports whether every coefficient of p is ≤ the matching
// coefficient of q — a sound pointwise-≤ certificate for non-negative
// PCVs.
func termwiseLeq(p, q Poly) bool {
	for m, c := range p.terms {
		if c > q.terms[m] {
			return false
		}
	}
	return true
}

// DefaultHi is the upper bound assumed for PCVs without an explicit range.
const DefaultHi = 1 << 20

func unionVars(p, q Poly) []string {
	seen := make(map[string]bool)
	for _, v := range p.Vars() {
		seen[v] = true
	}
	for _, v := range q.Vars() {
		seen[v] = true
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// boxPoints enumerates the corners of the box.
func boxPoints(vars []string, ranges map[string]Range) []map[string]uint64 {
	if len(vars) == 0 {
		return []map[string]uint64{{}}
	}
	candidates := make([][]uint64, len(vars))
	for i, v := range vars {
		r, ok := ranges[v]
		if !ok {
			r = Range{0, DefaultHi}
		}
		vals := []uint64{r.Lo}
		if r.Hi != r.Lo {
			vals = append(vals, r.Hi)
		}
		candidates[i] = vals
	}
	var points []map[string]uint64
	var rec func(i int, cur map[string]uint64)
	rec = func(i int, cur map[string]uint64) {
		if i == len(vars) {
			cp := make(map[string]uint64, len(cur))
			for k, v := range cur {
				cp[k] = v
			}
			points = append(points, cp)
			return
		}
		for _, val := range candidates[i] {
			cur[vars[i]] = val
			rec(i+1, cur)
		}
	}
	rec(0, make(map[string]uint64, len(vars)))
	return points
}

// MaxAssuming returns the pointwise-larger of p and q over the box if one
// dominates, and otherwise their UpperEnvelope (sound but possibly loose).
func MaxAssuming(p, q Poly, ranges map[string]Range) Poly {
	switch CompareAssuming(p, q, ranges) {
	case AlwaysLeq, AlwaysEq:
		return q
	case AlwaysGeq:
		return p
	default:
		return UpperEnvelope(p, q)
	}
}

// displayLess orders monomials for display: non-constant terms first by
// ascending degree then lexicographic variable order, the constant last.
// This yields the paper's rendering, e.g. "4·l + 5" and
// "245·e + 144·c + 36·t + 82·e·c + 19·e·t + 882".
func displayLess(a, b Mono) bool {
	if a == ConstMono {
		return false
	}
	if b == ConstMono {
		return true
	}
	da, db := a.Degree(), b.Degree()
	if da != db {
		return da < db
	}
	// Same degree: order by the paper's convention of appearance is not
	// recoverable, so use stable lexicographic order of the canonical form.
	return a < b
}

// String renders the polynomial legibly with '·' for products, e.g.
// "4·l + 5". The zero polynomial renders as "0".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	for i, m := range p.Monos() {
		if i > 0 {
			b.WriteString(" + ")
		}
		c := p.terms[m]
		if m == ConstMono {
			b.WriteString(strconv.FormatUint(c, 10))
			continue
		}
		if c != 1 {
			b.WriteString(strconv.FormatUint(c, 10))
			b.WriteString("·")
		}
		b.WriteString(strings.ReplaceAll(string(m), "*", "·"))
	}
	return b.String()
}

// Parse parses the String rendering back into a polynomial. It accepts
// '·' or '*' as the product sign and arbitrary spacing around '+'.
func Parse(s string) (Poly, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Poly{}, fmt.Errorf("expr: empty polynomial")
	}
	if s == "0" {
		return Poly{}, nil
	}
	out := make(map[Mono]uint64)
	for _, raw := range strings.Split(s, "+") {
		term := strings.TrimSpace(raw)
		if term == "" {
			return Poly{}, fmt.Errorf("expr: empty term in %q", s)
		}
		if strings.HasPrefix(term, "·") || strings.HasSuffix(term, "·") ||
			strings.HasPrefix(term, "*") || strings.HasSuffix(term, "*") {
			return Poly{}, fmt.Errorf("expr: dangling product sign in %q", term)
		}
		coef := uint64(1)
		var vars []string
		factors := strings.FieldsFunc(term, func(r rune) bool { return r == '·' || r == '*' })
		for i, f := range factors {
			f = strings.TrimSpace(f)
			if f == "" {
				return Poly{}, fmt.Errorf("expr: empty factor in %q", term)
			}
			if c, err := strconv.ParseUint(f, 10, 64); err == nil {
				if i != 0 {
					return Poly{}, fmt.Errorf("expr: numeric factor %q must lead the term", f)
				}
				coef = c
				continue
			}
			name, k := f, 1
			if j := strings.IndexByte(f, '^'); j >= 0 {
				var err error
				k, err = strconv.Atoi(f[j+1:])
				if err != nil || k < 1 {
					return Poly{}, fmt.Errorf("expr: bad power in %q", f)
				}
				name = f[:j]
			}
			for x := 0; x < k; x++ {
				vars = append(vars, name)
			}
		}
		out[NewMono(vars...)] += coef
	}
	return FromTerms(out), nil
}

// Derivative returns ∂p/∂v, the formal derivative with respect to one
// PCV. Operators use it for sensitivity statements like Figure 2's
// "each extra traversal costs 50 instructions": the derivative of the
// class expression with respect to t.
func (p Poly) Derivative(v string) Poly {
	out := make(map[Mono]uint64)
	for m, c := range p.terms {
		pow := m.Powers()
		k, ok := pow[v]
		if !ok {
			continue
		}
		pow[v] = k - 1
		out[monoFromPowers(pow)] += c * uint64(k)
	}
	return FromTerms(out)
}

// RenameVars rewrites every PCV name through fn; chain composition uses
// it to namespace the PCVs of each NF in a composite contract.
func (p Poly) RenameVars(fn func(string) string) Poly {
	out := make(map[Mono]uint64, len(p.terms))
	for m, c := range p.terms {
		pow := m.Powers()
		renamed := make(map[string]int, len(pow))
		for v, k := range pow {
			renamed[fn(v)] += k
		}
		out[monoFromPowers(renamed)] += c
	}
	return FromTerms(out)
}

// EvalFloat computes p under a float binding; used by reports that bind
// PCVs to workload averages rather than integers.
func (p Poly) EvalFloat(binding map[string]float64) float64 {
	total := 0.0
	for m, c := range p.terms {
		v := float64(c)
		for name, k := range m.Powers() {
			x, ok := binding[name]
			if !ok {
				panic("expr: unbound PCV " + name)
			}
			v *= math.Pow(x, float64(k))
		}
		total += v
	}
	return total
}
