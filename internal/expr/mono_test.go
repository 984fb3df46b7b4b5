package expr

import (
	"slices"
	"sort"
	"testing"
)

// TestMonoScanMatchesPowers pins the in-place factor scan behind Degree,
// displayLess and Poly.Vars to the Powers map it replaced.
func TestMonoScanMatchesPowers(t *testing.T) {
	monos := []Mono{
		ConstMono, "a", "c^2", "a*b", "a*b^2*c", "e*t", "c*e^2",
		"contenders*s1.c", "x^10*y^3", "nat.occ^2*pkt_26_4",
		NewMono("b", "a", "b", "c", "c", "c"),
	}
	for _, m := range monos {
		pow := m.Powers()
		want := 0
		names := make([]string, 0, len(pow))
		for v, k := range pow {
			want += k
			names = append(names, v)
		}
		if got := m.Degree(); got != want {
			t.Errorf("%q: Degree = %d, Powers sum to %d", m, got, want)
		}
		sort.Strings(names)
		if got := Term(3, monoVars(m)...).Vars(); !slices.Equal(got, names) {
			t.Errorf("%q: Vars = %q, Powers names %q", m, got, names)
		}
	}
	// Vars over several monomials is the sorted union of their names.
	p := FromTerms(map[Mono]uint64{"a*b^2": 1, "b*c": 2, "": 5, "a^3": 1})
	if got := p.Vars(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("Vars = %q, want [a b c]", got)
	}
	// displayLess still orders by degree, then by spelling, constant last.
	ms := []Mono{"", "b^2", "a*b", "c", "a"}
	sort.Slice(ms, func(i, j int) bool { return displayLess(ms[i], ms[j]) })
	if want := []Mono{"a", "c", "a*b", "b^2", ""}; !slices.Equal(ms, want) {
		t.Errorf("display order = %q, want %q", ms, want)
	}
}

// monoVars lists m's variables with multiplicity, the NewMono inverse.
func monoVars(m Mono) []string {
	var vars []string
	for v, k := range m.Powers() {
		for i := 0; i < k; i++ {
			vars = append(vars, v)
		}
	}
	return vars
}

func TestMonoDegreeAllocs(t *testing.T) {
	m := Mono("a*b^2*contenders^3")
	var d int
	if n := testing.AllocsPerRun(100, func() { d = m.Degree() }); n != 0 {
		t.Errorf("Degree allocates %.1f times per call, want 0", n)
	}
	if d != 6 {
		t.Errorf("Degree = %d, want 6", d)
	}
}

// TestParseMono pins the canonical-form check the codec decodes stored
// monomials with: exactly NewMono's spellings are accepted.
func TestParseMono(t *testing.T) {
	accept := []string{"", "a", "a*b", "a^2", "a*b^2*c", "x^10", "a.b*c_d^3", "A*a"}
	for _, s := range accept {
		m, err := ParseMono(s)
		if err != nil || string(m) != s {
			t.Errorf("ParseMono(%q) = %q, %v; want it accepted", s, m, err)
		}
		if s != "" && monoFromPowers(Mono(s).Powers()) != Mono(s) {
			t.Errorf("%q is accepted but is not NewMono's spelling", s)
		}
	}
	reject := []string{
		"*", "a*", "*a", "a**b", "b*a", "a*a", "a*a^2", "a^", "a^1", "a^0",
		"a^02", "a^+2", "a^-2", "a^2^3", "^2", "a^x", "a^99999999999999999999",
		"a*b*a",
	}
	for _, s := range reject {
		if _, err := ParseMono(s); err == nil {
			t.Errorf("ParseMono(%q) accepted a non-canonical spelling", s)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseMono("a*b^2*c") }); n != 0 {
		t.Errorf("ParseMono allocates %.1f times per call, want 0", n)
	}
}
