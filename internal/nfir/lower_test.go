package nfir

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gobolt/internal/perf"
)

// A local assigned on one packet is unassigned on the next: the
// generation bump in ResetPacket must forget it like the old map clear.
func TestLocalDoesNotSurvivePacket(t *testing.T) {
	p := &Program{
		Name: "carry",
		Body: []Stmt{
			Then(Eq(InPort{}, C(0)), Set("x", C(5))),
			Fwd(L("x")),
		},
	}
	env := NewEnv()
	env.ResetPacket(nil, 0, 0)
	if act, err := env.Run(p); err != nil || act.Port != 5 {
		t.Fatalf("first packet: %+v, %v", act, err)
	}
	env.ResetPacket(nil, 1, 0)
	_, err := env.Run(p)
	if err == nil || !strings.Contains(err.Error(), `read of unassigned local "x"`) {
		t.Fatalf("second packet read a stale local: err = %v", err)
	}
}

// ResetPacket zeroes the buffer past the new packet, whatever the
// previous packet or the program left there.
func TestResetPacketZeroesTail(t *testing.T) {
	long := make([]byte, 200)
	for i := range long {
		long[i] = 0xff
	}
	p := &Program{Name: "scribble", Body: []Stmt{PktStore{Off: C(MaxPacket - 8), Size: 8, Val: C(math.MaxUint64)}, Drop()}}
	env := NewEnv()
	env.ResetPacket(long, 0, 0)
	if _, err := env.Run(p); err != nil {
		t.Fatal(err)
	}
	env.ResetPacket([]byte{1, 2, 3}, 0, 0)
	for i, b := range env.Pkt[3:] {
		if b != 0 {
			t.Fatalf("Pkt[%d] = %#x after ResetPacket with a 3-byte packet", 3+i, b)
		}
	}
}

// runDelta runs p on the current packet and returns what the old engine
// was pinned on: the action (or error) and the meter delta.
func runDelta(env *Env, p *Program) string {
	before := env.Meter.Snapshot()
	act, err := env.Run(p)
	d := env.Meter.Since(before)
	return fmt.Sprintf("%+v err=%v IC=%d MA=%d", act, err, d.Instructions, d.MemAccesses)
}

// One Env alternating between programs behaves like one fresh Env per
// program: the lowered-code cache and the shared slot table never leak
// one program's code or locals into the other's runs.
func TestEnvAlternatingPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		progs := []*Program{etherTypeProgram(), randomProgram(rng), randomProgram(rng)}
		shared := NewEnv()
		shared.Meter = perf.NewMeter(nil)
		var own []*Env
		for range progs {
			env := NewEnv()
			env.Meter = perf.NewMeter(nil)
			env.DS["lpm"] = &fixedDS{results: []uint64{2}, ic: 7, ma: 2}
			own = append(own, env)
		}
		shared.DS["lpm"] = &fixedDS{results: []uint64{2}, ic: 7, ma: 2}
		for i := 0; i < 30; i++ {
			pkt := make([]byte, 64)
			rng.Read(pkt)
			if rng.Intn(2) == 0 {
				pkt[12], pkt[13] = 0x08, 0x00
			}
			k := rng.Intn(len(progs))
			shared.ResetPacket(pkt, 0, 0)
			own[k].ResetPacket(pkt, 0, 0)
			if got, want := runDelta(shared, progs[k]), runDelta(own[k], progs[k]); got != want {
				t.Fatalf("trial %d packet %d program %d: shared Env %s, own Env %s", trial, i, k, got, want)
			}
		}
	}
}

func TestLocalLookup(t *testing.T) {
	p := &Program{Name: "one", Body: []Stmt{Set("z", C(9)), Drop()}}
	env := NewEnv()
	if _, ok := env.Local("z"); ok {
		t.Error("Local reported a name before any program ran")
	}
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(p); err != nil {
		t.Fatal(err)
	}
	if v, ok := env.Local("z"); !ok || v != 9 {
		t.Errorf("Local(z) = %d, %v", v, ok)
	}
	if _, ok := env.Local("nosuch"); ok {
		t.Error("Local reported a name the program does not use")
	}
	env.ResetPacket(nil, 0, 0)
	if _, ok := env.Local("z"); ok {
		t.Error("Local reported a value after ResetPacket")
	}
}

// When the generation counter wraps, every stamp is cleared, so a slot
// assigned at the generation the counter restarts from reads as
// unassigned rather than as a value from 2^32 packets ago.
func TestGenerationWraparound(t *testing.T) {
	setX := &Program{Name: "set-x", Body: []Stmt{Set("x", C(1)), Drop()}}
	setY := &Program{Name: "set-y", Body: []Stmt{Set("y", C(2)), Drop()}}
	readX := &Program{Name: "read-x", Body: []Stmt{Fwd(L("x"))}}
	env := NewEnv()
	if _, err := env.Run(setX); err != nil { // x stamped with the first generation
		t.Fatal(err)
	}
	firstGen := env.gen
	env.gen = math.MaxUint32
	if _, ok := env.Local("x"); ok {
		t.Fatal("x read as assigned in a later generation")
	}
	if _, err := env.Run(setY); err != nil { // y stamped MaxUint32
		t.Fatal(err)
	}
	env.ResetPacket(nil, 0, 0)
	if env.gen != firstGen {
		t.Fatalf("generation after wrap = %d, want %d", env.gen, firstGen)
	}
	for _, name := range []string{"x", "y"} {
		if _, ok := env.Local(name); ok {
			t.Errorf("%s reads as assigned after the generation wrapped", name)
		}
	}
	if _, err := env.Run(readX); err == nil || !strings.Contains(err.Error(), "unassigned local") {
		t.Errorf("reading x after the wrap: err = %v", err)
	}
}

type bogusStmt struct{}

func (bogusStmt) irStmt() {}

type bogusExpr struct{}

func (bogusExpr) irExpr() {}

// Lowering an unknown statement or expression type is an error from
// Run, wherever it sits — including on a branch no packet takes.
func TestLoweringUnknownNodes(t *testing.T) {
	cases := map[string]*Program{
		"stmt":        {Name: "s", Body: []Stmt{bogusStmt{}, Drop()}},
		"expr":        {Name: "e", Body: []Stmt{Set("x", bogusExpr{}), Drop()}},
		"nil expr":    {Name: "n", Body: []Stmt{Fwd(nil)}},
		"untaken arm": {Name: "u", Body: []Stmt{IfElse(C(1), []Stmt{Drop()}, []Stmt{Fwd(Add(C(1), bogusExpr{}))})}},
		"call arg":    {Name: "c", Body: []Stmt{Invoke("ds", "m", []Expr{bogusExpr{}}), Drop()}},
		"loop body":   {Name: "l", Body: []Stmt{While{Cond: C(0), MaxIter: 1, Body: []Stmt{bogusStmt{}}}, Drop()}},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			env := NewEnv()
			env.ResetPacket(nil, 0, 0)
			if _, err := env.Run(p); err == nil || !strings.Contains(err.Error(), "unknown") {
				t.Errorf("err = %v, want an unknown statement/expression error", err)
			}
		})
	}
}

// The nf constructors assign Prog.Body after building the Program; a
// Body replaced after a run must be lowered afresh, not served stale.
func TestRunAfterBodyReassigned(t *testing.T) {
	p := &Program{Name: "swap", Body: []Stmt{Fwd(C(1))}}
	env := NewEnv()
	env.ResetPacket(nil, 0, 0)
	if act, err := env.Run(p); err != nil || act.Port != 1 {
		t.Fatalf("first body: %+v, %v", act, err)
	}
	p.Body = []Stmt{Fwd(C(2))}
	env.ResetPacket(nil, 0, 0)
	if act, err := env.Run(p); err != nil || act.Port != 2 {
		t.Fatalf("replaced body: %+v, %v", act, err)
	}
	p.Body = append(p.Body[:0:0], Set("v", C(3)), Fwd(L("v")))
	env.ResetPacket(nil, 0, 0)
	if act, err := env.Run(p); err != nil || act.Port != 3 {
		t.Fatalf("longer body: %+v, %v", act, err)
	}
}

// The per-packet floor allocates nothing: ResetPacket plus Run of a
// DS-free program, and of a program whose call returns a preallocated
// slice.
func TestRunAllocationFree(t *testing.T) {
	loop := &Program{
		Name: "loop",
		Body: []Stmt{
			Set("i", C(0)),
			While{Cond: Lt(L("i"), C(4)), MaxIter: 8, Body: []Stmt{
				PktStore{Off: L("i"), Size: 1, Val: Add(Field(20, 1), L("i"))},
				Set("i", Add(L("i"), C(1))),
			}},
			Then(Not{X: Band(L("i"), C(1))}, Fwd(PktLen{})),
			Drop(),
		},
	}
	pkt := ipv4Packet()
	for name, p := range map[string]*Program{"ds-free": loop, "call": etherTypeProgram()} {
		env := NewEnv()
		env.Meter = perf.NewMeter(nil)
		env.DS["lpm"] = &fixedDS{results: []uint64{3}, ic: 4, ma: 2}
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			env.ResetPacket(pkt, 1, 2)
			_, err = env.Run(p)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per packet, want 0", name, allocs)
		}
	}
}
