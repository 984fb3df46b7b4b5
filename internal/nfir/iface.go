package nfir

import (
	"gobolt/internal/expr"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// ActionKind classifies how packet processing ended.
type ActionKind int

const (
	// ActionNone means execution has not terminated yet (internal).
	ActionNone ActionKind = iota
	// ActionForward sends the packet out of Action.Port.
	ActionForward
	// ActionDrop discards the packet.
	ActionDrop
)

// ParseActionKind resolves an action's String name; unknown names
// report ok=false. It is the strict inverse the contract codec decodes
// stored paths with.
func ParseActionKind(s string) (ActionKind, bool) {
	switch s {
	case "forward":
		return ActionForward, true
	case "drop":
		return ActionDrop, true
	case "none":
		return ActionNone, true
	}
	return ActionNone, false
}

// String names the action.
func (k ActionKind) String() string {
	switch k {
	case ActionForward:
		return "forward"
	case ActionDrop:
		return "drop"
	default:
		return "none"
	}
}

// Action is the concrete result of processing one packet.
type Action struct {
	Kind ActionKind
	Port uint64
}

// ConcreteDS is a stateful data structure as linked into the production
// build: it executes for real, charges its cost to the environment's
// Meter, and records the PCV values the call induced (for the Distiller
// and for soundness checks).
type ConcreteDS interface {
	// Invoke runs a method. It must charge env.Meter for its cost and
	// add observed PCV values via env.ObservePCV. args is the Env's
	// scratch slice, valid only for the duration of the call: an
	// implementation that keeps arguments must copy them.
	Invoke(method string, args []uint64, env *Env) ([]uint64, error)
}

// PCV describes one performance-critical variable introduced by a model
// outcome: its name and the value range the contract assumes.
type PCV struct {
	Name  string
	Range expr.Range
}

// Outcome is one branch of a stateful method's symbolic model, e.g.
// "flow present" vs "flow absent" for a flow-table get (paper §3.3).
// Each outcome forks the symbolic path.
type Outcome struct {
	// Label names the outcome; it appears in input-class descriptions
	// and selects the matching branch of the method's contract.
	Label string
	// Results are the method's return values, typically fresh symbols.
	Results []symb.Expr
	// Constraints are added to the path (constraints on the arguments
	// and on the abstract state, the paper's second constraint category).
	Constraints []symb.Expr
	// Domains bounds any fresh symbols in Results.
	Domains map[string]symb.Domain
	// Cost is the method's performance contract for this outcome, one
	// polynomial per metric, over the PCVs below.
	Cost map[perf.Metric]expr.Poly
	// PCVs lists the performance-critical variables Cost ranges over.
	PCVs []PCV
}

// FreshFn mints path-unique symbol names for model results.
type FreshFn func(hint string) symb.Sym

// Model is the symbolic model of a stateful data structure: for each
// method invocation it enumerates the possible abstract outcomes.
type Model interface {
	// Outcomes returns the feasible abstract results of calling method
	// with the given (possibly symbolic) arguments. Returning a single
	// outcome models a non-branching method.
	Outcomes(method string, args []symb.Expr, fresh FreshFn) []Outcome
}

// Fingerprinter is an optional extension of Model for contract caching:
// ModelFingerprint returns a deterministic string covering exactly the
// configuration that Outcomes depends on (and nothing address- or
// state-dependent), so two models with equal fingerprints produce
// identical outcome sets for every method. Models that cannot promise
// this simply do not implement the interface, which makes any generation
// using them uncacheable rather than unsound.
type Fingerprinter interface {
	ModelFingerprint() string
}

// DS bundles the three artefacts the library provides per data structure
// (paper §3.2): the concrete implementation, the symbolic model, and —
// folded into the model's outcomes — the expert-written contract.
type DS struct {
	Concrete ConcreteDS
	Model    Model
}

// CallEvent records one stateful call along an explored path: which
// data structure and method, which outcome the path took, and the fresh
// symbols standing for its results (needed to replay the path).
type CallEvent struct {
	DS      string
	Method  string
	Outcome Outcome
	// ResultSyms are the names of the fresh symbols in Outcome.Results,
	// in result order, where results are symbols ("" otherwise).
	ResultSyms []string
	// Args are the symbolic argument expressions the call was made with,
	// recorded so the sharability analysis can decide whether a keyed
	// call's key pins the flow-hash fields of the path.
	Args []symb.Expr
	// Sharing is the sharability verdict for this call, filled in by the
	// generator's analysis stage (zero / SharingUnknown on paths decoded
	// from version-1 artifacts).
	Sharing Sharing
}
