// Package allowhygiene is a proram-vet golden fixture for directive
// hygiene: unknown kinds, malformed allows and stale suppressions are all
// findings at the directive's own position, so the want expectations ride
// in block comments on the same line.
package allowhygiene

import "time"

/* want `unknown directive //proram:frobnicate` */ //proram:frobnicate whatever this means
/* want `unknown directive //proram:fixedtrip` */ //proram:fixedtrip a retired directive is unknown, not silently accepted
/* want `names no check` */ //proram:allow
/* want `unknown directive //proram:hotpath` */ //proram:hotpath a retired directive is unknown, not silently accepted
/* want `unknown directive //proram:detround \(known: allow, invariant, public, secret, branchless\)` */ //proram:detround a retired directive is unknown, not silently accepted
/* want `names unknown check "nosuchcheck"` */ //proram:allow nosuchcheck because reasons

/* want `needs a one-line justification` */ //proram:invariant

/* want `suppresses nothing` */ //proram:allow panicdiscipline fixture: nothing on the next line panics

func fine() int {
	//proram:invariant fixture: attached to the panic below and justified, so only hygiene findings remain
	panic("unreachable")
}

func usedAllow() time.Time {
	//proram:allow determinism fixture: a used allow must not be reported stale
	return time.Now()
}

var _ = fine
var _ = usedAllow
