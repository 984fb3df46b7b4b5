package nfir

import (
	"encoding/binary"
	"fmt"

	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// Heap is the simulated flat memory used by MemLoad/MemStore and by the
// data-structure library to reserve address ranges (so access traces have
// realistic, stable addresses). It is byte-addressed and sparse.
type Heap struct {
	mem  map[uint64]byte
	next uint64
}

// heapBase leaves low addresses free so packet buffers and device rings
// can live below the heap.
const heapBase = 0x1000_0000

// NewHeap returns an empty heap.
func NewHeap() *Heap {
	return &Heap{mem: make(map[uint64]byte), next: heapBase}
}

// Alloc reserves size bytes and returns the base address. The region is
// zeroed. Alignment is 64 bytes so distinct objects never share a cache
// line.
func (h *Heap) Alloc(size uint64) uint64 {
	const align = 64
	h.next = (h.next + align - 1) &^ (align - 1)
	base := h.next
	h.next += size
	return base
}

// Read loads size ∈ {1,2,4,8} bytes little-endian at addr.
func (h *Heap) Read(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(h.mem[addr+uint64(i)]) << (8 * i)
	}
	return v
}

// Write stores size ∈ {1,2,4,8} bytes little-endian at addr.
func (h *Heap) Write(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		h.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// Env is the execution environment for one packet through the concrete
// interpreter. Reuse an Env across packets via ResetPacket to keep the
// data structures' state.
//
// The interpreter runs lowered code, not the AST: on its first Run of a
// Program an Env lowers the body once (see lower) and caches the result
// keyed by the *Program and its Body slice. Locals live in dense slots
// shared by every program the Env runs, and each slot carries the
// generation it was last assigned in, so ResetPacket forgets every local
// by bumping one counter.
type Env struct {
	// Pkt is the packet buffer (length MaxPacket); PktLen is the actual
	// packet length.
	Pkt    []byte
	PktLen uint64
	// PktAddr is the simulated address of the packet buffer.
	PktAddr uint64
	// InPort is the arrival interface index.
	InPort uint64
	// Time is the packet's arrival timestamp in nanoseconds.
	Time uint64
	// Meter accounts the execution's cost; may be nil to run unmetered.
	Meter *perf.Meter
	// Heap is the simulated memory; shared across packets.
	Heap *Heap
	// DS maps data-structure names to their linked implementations —
	// real ones in the production build, replay stubs during analysis.
	DS map[string]ConcreteDS
	// Action is the processing outcome, valid after Run returns.
	Action Action

	// TxAddr is the simulated TX-descriptor address charged by Forward.
	TxAddr uint64

	// Local slots: slotOf resolves a name to its index; a slot holds a
	// value for the current packet only while its stamp equals gen.
	slotOf map[string]int
	names  []string
	vals   []uint64
	deps   []bool
	stamps []uint32
	gen    uint32

	// code is the lowered body of each program run on this Env.
	code map[*Program]*lowered

	// args is the scratch slice Call evaluates its arguments into.
	args []uint64

	pcvs    map[string]uint64
	outcome string
}

// NewEnv builds an environment with a fresh heap and packet buffer.
func NewEnv() *Env {
	h := NewHeap()
	return &Env{
		Pkt:     make([]byte, MaxPacket),
		PktAddr: 0x10_0000,
		TxAddr:  0x20_0000,
		Heap:    h,
		DS:      make(map[string]ConcreteDS),
		slotOf:  make(map[string]int),
		gen:     1,
		code:    make(map[*Program]*lowered),
		pcvs:    make(map[string]uint64),
	}
}

// ResetPacket prepares the Env for the next packet: locals, PCV
// observations and the previous action are cleared; data-structure state
// and the heap persist.
func (e *Env) ResetPacket(pkt []byte, inPort, timeNS uint64) {
	if len(pkt) > MaxPacket {
		pkt = pkt[:MaxPacket]
	}
	copy(e.Pkt, pkt)
	clear(e.Pkt[len(pkt):])
	e.PktLen = uint64(len(pkt))
	e.InPort = inPort
	e.Time = timeNS
	e.Action = Action{}
	e.nextGeneration()
	clear(e.pcvs)
}

// nextGeneration makes every local slot stale. When the counter wraps,
// the stamps are cleared so a slot last assigned 2^32 packets ago cannot
// read as current.
func (e *Env) nextGeneration() {
	e.gen++
	if e.gen == 0 {
		clear(e.stamps)
		e.gen = 1
	}
}

// ObservePCV accumulates an observation of a performance-critical
// variable for the current packet; the Distiller and the soundness tests
// read the per-packet totals via PCVs. Counting PCVs (expired entries)
// sum across calls.
func (e *Env) ObservePCV(name string, v uint64) { e.pcvs[name] += v }

// ObservePCVMax records a per-operation PCV with max semantics: PCVs like
// "hash collisions" and "bucket traversals" denote the worst single
// operation the packet induced, which is what makes per-call contract
// terms sum soundly into the per-packet contract.
func (e *Env) ObservePCVMax(name string, v uint64) {
	if cur, ok := e.pcvs[name]; !ok || v > cur {
		e.pcvs[name] = v
	}
}

// PCVs returns the PCV observations accumulated for the current packet.
// The map is live; copy it before the next ResetPacket.
func (e *Env) PCVs() map[string]uint64 { return e.pcvs }

// ObserveOutcome reports which of the running method's model outcomes
// (by Outcome.Label) the concrete execution took. Only data structures
// whose sibling outcomes are not distinguishable from their results
// alone need to call it — e.g. an LPM get whose short and long branches
// both return one port value — so the online classifier has direct
// branch evidence where result matching is blind.
func (e *Env) ObserveOutcome(label string) { e.outcome = label }

// TakeOutcome returns and clears the last reported outcome label. Call
// recorders use it to bracket a single Invoke: clear before, read after.
func (e *Env) TakeOutcome() string {
	o := e.outcome
	e.outcome = ""
	return o
}

// Local returns a local's value, for tests and replay validation. It
// reports false for a name no program run on this Env uses and for a
// local not assigned since the last ResetPacket.
func (e *Env) Local(name string) (uint64, bool) {
	s, ok := e.slotOf[name]
	if !ok || e.stamps[s] != e.gen {
		return 0, false
	}
	return e.vals[s], true
}

// Run executes the program's body on the current packet. It returns the
// resulting action; every path must end in Forward or Drop.
//
// The Env lowers p on its first run and reuses that code afterwards, so
// p must not be mutated once it has run here (see Program). An unknown
// Stmt or Expr type anywhere in the body is an error, even on a branch
// the packet does not take.
func (e *Env) Run(p *Program) (Action, error) {
	code, err := e.lower(p)
	if err != nil {
		return Action{}, fmt.Errorf("nfir: %s: %w", p.Name, err)
	}
	done, err := e.exec(code)
	if err != nil {
		return Action{}, fmt.Errorf("nfir: %s: %w", p.Name, err)
	}
	if !done {
		return Action{}, fmt.Errorf("nfir: %s: fell off the end without Forward/Drop", p.Name)
	}
	return e.Action, nil
}

// lower returns p's lowered body, lowering it on first use or when
// p.Body has been replaced since.
func (e *Env) lower(p *Program) ([]lstmt, error) {
	if lp := e.code[p]; lp != nil && lp.lowers(p.Body) {
		return lp.code, nil
	}
	code, err := e.lowerStmts(p.Body)
	if err != nil {
		return nil, err
	}
	e.code[p] = &lowered{body: firstStmt(p.Body), n: len(p.Body), code: code}
	return code, nil
}

func (e *Env) exec(code []lstmt) (done bool, err error) {
	for i := range code {
		s := &code[i]
		switch s.kind {
		case stAssign:
			v, dep, err := e.eval(s.x)
			if err != nil {
				return false, err
			}
			e.set(s.slot, v, dep)
		case stIf:
			v, err := e.cond(s)
			if err != nil {
				return false, err
			}
			arm := s.els
			if v != 0 {
				arm = s.then
			}
			if done, err := e.exec(arm); err != nil || done {
				return done, err
			}
		case stWhile:
			if done, err := e.loop(s); err != nil || done {
				return done, err
			}
		case stCall:
			if err := e.call(s); err != nil {
				return false, err
			}
		case stPktStore:
			off, _, err := e.eval(s.x)
			if err != nil {
				return false, err
			}
			v, _, err := e.eval(s.y)
			if err != nil {
				return false, err
			}
			if off+uint64(s.size) > MaxPacket {
				return false, fmt.Errorf("packet store out of bounds: off=%d size=%d", off, s.size)
			}
			e.Meter.Store(e.PktAddr+off, uint8(s.size))
			putBE(e.Pkt[off:], s.size, v)
		case stMemStore:
			addr, _, err := e.eval(s.x)
			if err != nil {
				return false, err
			}
			v, _, err := e.eval(s.y)
			if err != nil {
				return false, err
			}
			e.Meter.Store(addr, uint8(s.size))
			e.Heap.Write(addr, s.size, v)
		case stForward:
			port, _, err := e.eval(s.x)
			if err != nil {
				return false, err
			}
			e.Action = Action{Kind: ActionForward, Port: port}
			return true, nil
		case stDrop:
			e.Action = Action{Kind: ActionDrop}
			return true, nil
		}
	}
	return false, nil
}

func (e *Env) loop(s *lstmt) (done bool, err error) {
	for iter := 0; ; iter++ {
		if s.maxIter > 0 && iter > s.maxIter {
			return false, fmt.Errorf("loop exceeded MaxIter=%d", s.maxIter)
		}
		v, err := e.cond(s)
		if err != nil || v == 0 {
			return false, err
		}
		if done, err := e.exec(s.then); err != nil || done {
			return done, err
		}
	}
}

// call evaluates the arguments into the Env's scratch slice, invokes the
// data structure and assigns its results.
func (e *Env) call(s *lstmt) error {
	args := e.args[:0]
	for _, a := range s.args {
		v, _, err := e.eval(a)
		if err != nil {
			return err
		}
		args = append(args, v)
	}
	e.args = args
	ds, ok := e.DS[s.ds]
	if !ok {
		return fmt.Errorf("unknown data structure %q", s.ds)
	}
	results, err := ds.Invoke(s.method, args, e)
	if err != nil {
		return fmt.Errorf("%s.%s: %w", s.ds, s.method, err)
	}
	if len(results) < len(s.dsts) {
		return fmt.Errorf("%s.%s returned %d values, want ≥ %d", s.ds, s.method, len(results), len(s.dsts))
	}
	for i, dst := range s.dsts {
		e.set(dst, results[i], true) // model results flow through memory
	}
	return nil
}

func (e *Env) set(slot int, v uint64, dep bool) {
	e.vals[slot] = v
	e.deps[slot] = dep
	e.stamps[slot] = e.gen
}

// cond evaluates a branch condition, charging the extra branch
// instruction when the condition is not itself comparison-shaped (a bare
// value needs an explicit test+jump).
func (e *Env) cond(s *lstmt) (uint64, error) {
	v, _, err := e.eval(s.x)
	if err != nil {
		return 0, err
	}
	if !s.cmp {
		e.Meter.Exec(perf.OpBranch, 1)
	}
	return v, nil
}

// isCmpShaped reports whether evaluating the expression already ends in a
// comparison whose result feeds the branch (so cmp+jcc fuse).
func isCmpShaped(e Expr) bool {
	switch x := e.(type) {
	case Bin:
		return x.Op.IsComparison()
	case Not:
		return isCmpShaped(x.X)
	}
	return false
}

// eval computes an expression, charging its cost. The bool result is the
// load-dependence taint used by the detailed hardware model to decide
// which misses can overlap.
func (e *Env) eval(x *lexpr) (uint64, bool, error) {
	switch x.kind {
	case exConst:
		return x.v, false, nil
	case exLocal:
		if e.stamps[x.slot] != e.gen {
			return 0, false, fmt.Errorf("read of unassigned local %q", e.names[x.slot])
		}
		return e.vals[x.slot], e.deps[x.slot], nil
	case exNow:
		return e.Time, false, nil
	case exInPort:
		return e.InPort, false, nil
	case exPktLen:
		return e.PktLen, false, nil
	case exNot:
		v, dep, err := e.eval(x.x)
		if err != nil {
			return 0, false, err
		}
		if v == 0 {
			return 1, dep, nil
		}
		return 0, dep, nil
	case exBin:
		l, ldep, err := e.eval(x.x)
		if err != nil {
			return 0, false, err
		}
		r, rdep, err := e.eval(x.y)
		if err != nil {
			return 0, false, err
		}
		e.Meter.Exec(x.cls, 1)
		return symb.ApplyOp(x.op, l, r), ldep || rdep, nil
	case exPktLoad:
		off, _, err := e.eval(x.x)
		if err != nil {
			return 0, false, err
		}
		if off+uint64(x.size) > MaxPacket {
			return 0, false, fmt.Errorf("packet load out of bounds: off=%d size=%d", off, x.size)
		}
		e.Meter.Load(e.PktAddr+off, uint8(x.size), false)
		return getBE(e.Pkt[off:], x.size), true, nil
	default: // exMemLoad
		addr, adep, err := e.eval(x.x)
		if err != nil {
			return 0, false, err
		}
		e.Meter.Load(addr, uint8(x.size), adep)
		return e.Heap.Read(addr, x.size), true, nil
	}
}

// Lowered code. Statement and expression kinds are small integers the
// engine switches on, locals are slot indices, and the per-node facts
// the engine needs on every packet (an operator's cost class, whether a
// condition is comparison-shaped) are computed once here.

type stmtKind uint8

const (
	stAssign stmtKind = iota
	stIf
	stWhile
	stCall
	stPktStore
	stMemStore
	stForward
	stDrop
)

// lstmt is one lowered statement. Operand use by kind:
//
//	Assign:   slot ← x
//	If:       x is the condition, then/els the arms
//	While:    x is the condition, then the body
//	Call:     ds, method, args, dsts
//	PktStore: offset x, value y, size
//	MemStore: address x, value y, size
//	Forward:  port x
type lstmt struct {
	kind       stmtKind
	cmp        bool // condition is comparison-shaped
	slot       int
	size       int
	maxIter    int
	x, y       *lexpr
	then, els  []lstmt
	ds, method string
	args       []*lexpr
	dsts       []int
}

type exprKind uint8

const (
	exConst exprKind = iota
	exLocal
	exNow
	exInPort
	exPktLen
	exNot
	exBin
	exPktLoad
	exMemLoad
)

// lexpr is one lowered expression: Const holds v, Local its slot, Bin
// its operator and cost class over operands x and y, and Not, PktLoad
// and MemLoad their operand in x.
type lexpr struct {
	kind exprKind
	op   symb.Op
	cls  perf.OpClass
	size int
	slot int
	v    uint64
	x, y *lexpr
}

// lowered is one program's lowered body and the Body slice it came from.
type lowered struct {
	body *Stmt
	n    int
	code []lstmt
}

// lowers reports whether l was lowered from exactly this Body slice.
func (l *lowered) lowers(body []Stmt) bool {
	return l.body == firstStmt(body) && l.n == len(body)
}

func firstStmt(body []Stmt) *Stmt {
	if len(body) == 0 {
		return nil
	}
	return &body[0]
}

// slot returns the local's slot, allocating one on first sight.
func (e *Env) slot(name string) int {
	if s, ok := e.slotOf[name]; ok {
		return s
	}
	s := len(e.names)
	e.slotOf[name] = s
	e.names = append(e.names, name)
	e.vals = append(e.vals, 0)
	e.deps = append(e.deps, false)
	e.stamps = append(e.stamps, 0)
	return s
}

func (e *Env) lowerStmts(stmts []Stmt) ([]lstmt, error) {
	if len(stmts) == 0 {
		return nil, nil
	}
	out := make([]lstmt, len(stmts))
	for i, s := range stmts {
		if err := e.lowerStmt(s, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *Env) lowerStmt(s Stmt, ls *lstmt) (err error) {
	switch st := s.(type) {
	case Assign:
		ls.kind, ls.slot = stAssign, e.slot(st.Dst)
		ls.x, err = e.lowerExpr(st.E)
	case If:
		ls.kind, ls.cmp = stIf, isCmpShaped(st.Cond)
		if ls.x, err = e.lowerExpr(st.Cond); err != nil {
			return err
		}
		if ls.then, err = e.lowerStmts(st.Then); err != nil {
			return err
		}
		ls.els, err = e.lowerStmts(st.Else)
	case While:
		ls.kind, ls.cmp, ls.maxIter = stWhile, isCmpShaped(st.Cond), st.MaxIter
		if ls.x, err = e.lowerExpr(st.Cond); err != nil {
			return err
		}
		ls.then, err = e.lowerStmts(st.Body)
	case Call:
		ls.kind, ls.ds, ls.method = stCall, st.DS, st.Method
		ls.args = make([]*lexpr, len(st.Args))
		for i, a := range st.Args {
			if ls.args[i], err = e.lowerExpr(a); err != nil {
				return err
			}
		}
		ls.dsts = make([]int, len(st.Dsts))
		for i, d := range st.Dsts {
			ls.dsts[i] = e.slot(d)
		}
	case PktStore:
		ls.kind, ls.size = stPktStore, st.Size
		if ls.x, err = e.lowerExpr(st.Off); err != nil {
			return err
		}
		ls.y, err = e.lowerExpr(st.Val)
	case MemStore:
		ls.kind, ls.size = stMemStore, st.Size
		if ls.x, err = e.lowerExpr(st.Addr); err != nil {
			return err
		}
		ls.y, err = e.lowerExpr(st.Val)
	case Forward:
		ls.kind = stForward
		ls.x, err = e.lowerExpr(st.Port)
	case DropStmt:
		ls.kind = stDrop
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
	return err
}

func (e *Env) lowerExpr(x Expr) (*lexpr, error) {
	var err error
	switch ex := x.(type) {
	case Const:
		return &lexpr{kind: exConst, v: ex.V}, nil
	case Local:
		return &lexpr{kind: exLocal, slot: e.slot(ex.Name)}, nil
	case Now:
		return &lexpr{kind: exNow}, nil
	case InPort:
		return &lexpr{kind: exInPort}, nil
	case PktLen:
		return &lexpr{kind: exPktLen}, nil
	case Not:
		l := &lexpr{kind: exNot}
		l.x, err = e.lowerExpr(ex.X)
		return l, err
	case Bin:
		l := &lexpr{kind: exBin, op: ex.Op, cls: opClass(ex.Op)}
		if l.x, err = e.lowerExpr(ex.L); err != nil {
			return nil, err
		}
		l.y, err = e.lowerExpr(ex.R)
		return l, err
	case PktLoad:
		l := &lexpr{kind: exPktLoad, size: ex.Size}
		l.x, err = e.lowerExpr(ex.Off)
		return l, err
	case MemLoad:
		l := &lexpr{kind: exMemLoad, size: ex.Size}
		l.x, err = e.lowerExpr(ex.Addr)
		return l, err
	default:
		return nil, fmt.Errorf("unknown expression %T", x)
	}
}

// opClass maps an operator to its hardware cost class.
func opClass(op symb.Op) perf.OpClass {
	switch {
	case op == symb.Mul:
		return perf.OpMul
	case op == symb.Div || op == symb.Mod:
		return perf.OpDiv
	case op.IsComparison():
		return perf.OpBranch
	default:
		return perf.OpALU
	}
}

func getBE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 8:
		return binary.BigEndian.Uint64(b)
	default:
		panic("nfir: unsupported access size")
	}
}

func putBE(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(v))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(v))
	case 8:
		binary.BigEndian.PutUint64(b, v)
	default:
		panic("nfir: unsupported access size")
	}
}
