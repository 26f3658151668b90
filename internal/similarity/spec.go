package similarity

import (
	"fmt"
	"strconv"
	"strings"
)

// Op identifies a matching operation family.
type Op uint8

const (
	// OpEq is exact string equality, written "=".
	OpEq Op = iota
	// OpED is edit distance within a threshold, written "ED,k".
	OpED
	// OpJaccard is token Jaccard similarity at least a threshold,
	// written "JAC,t".
	OpJaccard
	// OpCosine is token cosine similarity at least a threshold,
	// written "COS,t".
	OpCosine
)

// Spec is a parsed matching operation, the sim(u) label of a rule
// node. The zero Spec is exact equality.
type Spec struct {
	Op  Op
	K   int     // threshold for OpED
	Tau float64 // threshold for OpJaccard / OpCosine
}

// Eq is the exact-equality spec.
var Eq = Spec{Op: OpEq}

// EDK returns an edit-distance spec with threshold k.
func EDK(k int) Spec { return Spec{Op: OpED, K: k} }

// JaccardAtLeast returns a Jaccard spec with threshold tau.
func JaccardAtLeast(tau float64) Spec { return Spec{Op: OpJaccard, Tau: tau} }

// CosineAtLeast returns a cosine spec with threshold tau.
func CosineAtLeast(tau float64) Spec { return Spec{Op: OpCosine, Tau: tau} }

// ParseSpec parses the textual forms "=", "ED,2", "JAC,0.8", "COS,0.7"
// (case-insensitive, spaces tolerated).
func ParseSpec(s string) (Spec, error) {
	t := strings.TrimSpace(s)
	if t == "=" || strings.EqualFold(t, "eq") {
		return Eq, nil
	}
	op, arg, ok := strings.Cut(t, ",")
	if !ok {
		return Spec{}, fmt.Errorf("similarity: cannot parse spec %q", s)
	}
	op = strings.TrimSpace(strings.ToUpper(op))
	arg = strings.TrimSpace(arg)
	switch op {
	case "ED":
		k, err := strconv.Atoi(arg)
		if err != nil || k < 0 {
			return Spec{}, fmt.Errorf("similarity: bad ED threshold %q", arg)
		}
		return EDK(k), nil
	case "JAC", "JACCARD":
		tau, err := strconv.ParseFloat(arg, 64)
		if err != nil || tau < 0 || tau > 1 {
			return Spec{}, fmt.Errorf("similarity: bad Jaccard threshold %q", arg)
		}
		return JaccardAtLeast(tau), nil
	case "COS", "COSINE":
		tau, err := strconv.ParseFloat(arg, 64)
		if err != nil || tau < 0 || tau > 1 {
			return Spec{}, fmt.Errorf("similarity: bad cosine threshold %q", arg)
		}
		return CosineAtLeast(tau), nil
	default:
		return Spec{}, fmt.Errorf("similarity: unknown operation %q", op)
	}
}

// String renders the spec in the textual form accepted by ParseSpec,
// matching the notation of the paper's figures ("=", "ED, 2").
func (sp Spec) String() string {
	switch sp.Op {
	case OpEq:
		return "="
	case OpED:
		return fmt.Sprintf("ED,%d", sp.K)
	case OpJaccard:
		return fmt.Sprintf("JAC,%g", sp.Tau)
	case OpCosine:
		return fmt.Sprintf("COS,%g", sp.Tau)
	default:
		return fmt.Sprintf("spec(%d)", sp.Op)
	}
}

// Match reports whether a and b match under the spec.
func (sp Spec) Match(a, b string) bool {
	Observe(a)
	switch sp.Op {
	case OpEq:
		return a == b
	case OpED:
		return EDWithin(a, b, sp.K)
	case OpJaccard:
		return Jaccard(a, b) >= sp.Tau
	case OpCosine:
		return Cosine(a, b) >= sp.Tau
	default:
		return false
	}
}

// Fuzzy reports whether the spec tolerates non-identical strings.
func (sp Spec) Fuzzy() bool {
	switch sp.Op {
	case OpEq:
		return false
	case OpED:
		return sp.K > 0
	default:
		return sp.Tau < 1
	}
}
