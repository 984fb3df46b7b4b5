// Package nfir defines the intermediate representation (IR) in which the
// NFs analysed by BOLT are written, together with its two interpreters:
//
//   - a concrete interpreter that executes an NF on a real packet while
//     metering instructions and memory accesses (the stand-in for running
//     the compiled NF under Intel PIN, paper §3.5), and
//   - a symbolic interpreter that exhaustively explores the stateless
//     code's feasible paths with stateful calls replaced by models
//     (paper §3.3, Algorithm 2).
//
// The IR is deliberately small: straight-line assignments, branches,
// bounded loops, packet and heap accesses, and calls into the stateful
// data-structure library. This mirrors the Vigor discipline the paper
// assumes: stateless NF logic with simple control flow, all interesting
// state behind pre-analysed library calls.
//
// Cost model. Every construct charges a fixed number of instructions and
// memory accesses, playing the role of the x86 instruction stream:
//
//   - binary ALU ops: 1 instruction (multiplies and divides are classed
//     separately for the cycle model);
//   - comparisons: 1 instruction, classed as a branch — the fused
//     cmp+jcc macro-op when used as a condition;
//   - packet/heap loads and stores: 1 instruction + 1 memory access;
//   - If/While: the condition's cost, plus 1 branch instruction if the
//     condition is not itself a comparison;
//   - Call: the arguments' cost only — the call linkage is considered
//     inlined, matching the paper's stylised §2.1 accounting;
//   - Forward and Drop: free at the NF analysis level; the TX/drop work
//     belongs to the framework layer (package dpdk) and is charged only
//     in full-stack analyses (§3.5).
//
// Logical && and || are evaluated strictly (both sides), so a path's cost
// does not depend on operand order; this matches how a compiler lowers
// short, side-effect-free conditions with setcc/and.
package nfir

import (
	"gobolt/internal/symb"
)

// MaxPacket is the size of the packet buffer every NF sees. Packet
// length is metadata (PktLen), as with a real NIC's fixed-size mbuf.
const MaxPacket = 1514

// Expr is an IR expression producing a 64-bit value.
type Expr interface{ irExpr() }

// Const is a literal.
type Const struct{ V uint64 }

// Local reads a local variable; reading an unassigned local is an error.
type Local struct{ Name string }

// Bin applies a binary operator (shared semantics with package symb).
type Bin struct {
	Op   symb.Op
	L, R Expr
}

// Not is logical negation (1 if X == 0, else 0). It is free: branch
// polarity absorbs it.
type Not struct{ X Expr }

// PktLoad reads Size ∈ {1,2,4,8} bytes big-endian (network order) at
// byte offset Off into the packet buffer.
type PktLoad struct {
	Off  Expr
	Size int
}

// MemLoad reads Size bytes little-endian from the simulated heap; used
// by the microbenchmark programs (P1–P3) that chase pointers.
type MemLoad struct {
	Addr Expr
	Size int
}

// Now is the packet's arrival timestamp in nanoseconds.
type Now struct{}

// InPort is the index of the interface the packet arrived on.
type InPort struct{}

// PktLen is the packet's length in bytes (≤ MaxPacket).
type PktLen struct{}

func (Const) irExpr()   {}
func (Local) irExpr()   {}
func (Bin) irExpr()     {}
func (Not) irExpr()     {}
func (PktLoad) irExpr() {}
func (MemLoad) irExpr() {}
func (Now) irExpr()     {}
func (InPort) irExpr()  {}
func (PktLen) irExpr()  {}

// Stmt is an IR statement.
type Stmt interface{ irStmt() }

// Assign evaluates E into local Dst. The move itself is free (register
// renaming); only E's operations are charged.
type Assign struct {
	Dst string
	E   Expr
}

// If branches on Cond ≠ 0.
type If struct {
	Cond       Expr
	Then, Else []Stmt
}

// While repeats Body while Cond ≠ 0, at most MaxIter times. Symbolic
// execution unrolls it, forking at each check; exceeding MaxIter on a
// feasible path is reported as an analysis error, so NF authors must
// bound their loops (the Vigor discipline).
type While struct {
	Cond    Expr
	Body    []Stmt
	MaxIter int
}

// Call invokes a stateful data-structure method. Dsts receive the
// results (may be empty).
type Call struct {
	DS     string
	Method string
	Args   []Expr
	Dsts   []string
}

// PktStore writes Size bytes big-endian at byte offset Off into the
// packet (e.g. a NAT rewriting addresses).
type PktStore struct {
	Off  Expr
	Size int
	Val  Expr
}

// MemStore writes Size bytes little-endian to the simulated heap.
type MemStore struct {
	Addr Expr
	Size int
	Val  Expr
}

// Forward terminates processing, sending the packet out of Port.
type Forward struct{ Port Expr }

// DropStmt terminates processing, discarding the packet.
type DropStmt struct{}

func (Assign) irStmt()   {}
func (If) irStmt()       {}
func (While) irStmt()    {}
func (Call) irStmt()     {}
func (PktStore) irStmt() {}
func (MemStore) irStmt() {}
func (Forward) irStmt()  {}
func (DropStmt) irStmt() {}

// Program is one NF's stateless packet-processing code plus the names of
// the stateful data structures it uses.
//
// A Program must not be mutated after it has run on an Env: the Env
// lowers the body on its first Run and keeps that code. Assigning a new
// Body slice is safe, since the cache is keyed by the slice as well as
// the *Program; editing statements inside a Body that has run is not.
type Program struct {
	// Name identifies the NF in contracts and reports.
	Name string
	// Body is the per-packet processing code; it must terminate with
	// Forward or Drop on every path.
	Body []Stmt
	// NumPorts bounds InPort (domain [0, NumPorts-1]).
	NumPorts uint64
	// Source records the frontend that produced the program (e.g.
	// "bvm:ratelimit.bvm"); empty means a hand-written builtin. It is
	// part of the program's printed identity (and therefore its contract
	// cache key) only when set, so builtin keys are unchanged.
	Source string
}

// Convenience constructors keep NF definitions readable.

// C is a constant expression.
func C(v uint64) Expr { return Const{V: v} }

// L reads a local.
func L(name string) Expr { return Local{Name: name} }

// Op builds a binary expression.
func Op(op symb.Op, l, r Expr) Expr { return Bin{Op: op, L: l, R: r} }

// Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Mod, And2, Or2, Band, Shr,
// Shl and Xor are operator shorthands.
func Eq(l, r Expr) Expr   { return Bin{Op: symb.Eq, L: l, R: r} }
func Ne(l, r Expr) Expr   { return Bin{Op: symb.Ne, L: l, R: r} }
func Lt(l, r Expr) Expr   { return Bin{Op: symb.Ult, L: l, R: r} }
func Le(l, r Expr) Expr   { return Bin{Op: symb.Ule, L: l, R: r} }
func Gt(l, r Expr) Expr   { return Bin{Op: symb.Ugt, L: l, R: r} }
func Ge(l, r Expr) Expr   { return Bin{Op: symb.Uge, L: l, R: r} }
func Add(l, r Expr) Expr  { return Bin{Op: symb.Add, L: l, R: r} }
func Sub(l, r Expr) Expr  { return Bin{Op: symb.Sub, L: l, R: r} }
func Mul(l, r Expr) Expr  { return Bin{Op: symb.Mul, L: l, R: r} }
func Div(l, r Expr) Expr  { return Bin{Op: symb.Div, L: l, R: r} }
func Mod(l, r Expr) Expr  { return Bin{Op: symb.Mod, L: l, R: r} }
func And2(l, r Expr) Expr { return Bin{Op: symb.LAnd, L: l, R: r} }
func Or2(l, r Expr) Expr  { return Bin{Op: symb.LOr, L: l, R: r} }
func Band(l, r Expr) Expr { return Bin{Op: symb.And, L: l, R: r} }
func Bor(l, r Expr) Expr  { return Bin{Op: symb.Or, L: l, R: r} }
func Shr(l, r Expr) Expr  { return Bin{Op: symb.Shr, L: l, R: r} }
func Shl(l, r Expr) Expr  { return Bin{Op: symb.Shl, L: l, R: r} }
func Xor(l, r Expr) Expr  { return Bin{Op: symb.Xor, L: l, R: r} }

// Field reads a packet field at a constant offset.
func Field(off uint64, size int) Expr { return PktLoad{Off: Const{V: off}, Size: size} }

// Set assigns a local.
func Set(dst string, e Expr) Stmt { return Assign{Dst: dst, E: e} }

// Then builds an If without an else branch.
func Then(cond Expr, then ...Stmt) Stmt { return If{Cond: cond, Then: then} }

// IfElse builds a two-armed If.
func IfElse(cond Expr, then, els []Stmt) Stmt { return If{Cond: cond, Then: then, Else: els} }

// Invoke builds a stateful call.
func Invoke(ds, method string, args []Expr, dsts ...string) Stmt {
	return Call{DS: ds, Method: method, Args: args, Dsts: dsts}
}

// Drop is the drop statement.
func Drop() Stmt { return DropStmt{} }

// Fwd forwards out of a port.
func Fwd(port Expr) Stmt { return Forward{Port: port} }
