package analysis

import "testing"

// fixtureNode finds a declared function by name in a fixture package.
func fixtureNode(t *testing.T, prog *Program, rel, name string) *CGNode {
	t.Helper()
	pkg := prog.PackageAt(rel)
	if pkg == nil {
		t.Fatalf("fixture package %s not loaded", rel)
	}
	for _, n := range prog.CallGraph().Nodes {
		if n.Pkg == pkg && n.Fn.Name() == name {
			return n
		}
	}
	t.Fatalf("function %s not found in %s", name, rel)
	return nil
}

func hasEdgeTo(n *CGNode, callee *CGNode) bool {
	for _, e := range n.Callees {
		if e.Callee == callee {
			return true
		}
	}
	return false
}

func TestCallGraphResolution(t *testing.T) {
	prog := program(t)
	rel := fixtureBase + "interproc"
	passthru := fixtureNode(t, prog, rel, "passthru")
	double := fixtureNode(t, prog, rel, "double")
	branchOnReturn := fixtureNode(t, prog, rel, "branchOnReturn")
	if !hasEdgeTo(double, passthru) {
		t.Error("double → passthru edge missing")
	}
	if !hasEdgeTo(branchOnReturn, double) {
		t.Error("branchOnReturn → double edge missing")
	}
	if prog.CallGraph().NodeOf(passthru.Fn) != passthru {
		t.Error("NodeOf does not round-trip")
	}
}

// TestCallGraphSCC checks the condensation: mutual recursion shares a
// component, and components are emitted callees-first so bottom-up
// summary computation sees a callee's component before its callers'.
func TestCallGraphSCC(t *testing.T) {
	prog := program(t)
	rel := fixtureBase + "interproc"
	recSplit := fixtureNode(t, prog, rel, "recSplit")
	recMerge := fixtureNode(t, prog, rel, "recMerge")
	entryRec := fixtureNode(t, prog, rel, "entryRec")
	branchHelper := fixtureNode(t, prog, rel, "branchHelper")
	callsBranchHelper := fixtureNode(t, prog, rel, "callsBranchHelper")

	if recSplit.SCC != recMerge.SCC {
		t.Errorf("mutual recursion split across components %d and %d", recSplit.SCC, recMerge.SCC)
	}
	if branchHelper.SCC == callsBranchHelper.SCC {
		t.Error("non-recursive caller and callee share a component")
	}
	if branchHelper.SCC >= callsBranchHelper.SCC {
		t.Errorf("callee component %d not emitted before caller component %d", branchHelper.SCC, callsBranchHelper.SCC)
	}
	if recSplit.SCC >= entryRec.SCC {
		t.Errorf("recursive cycle %d not emitted before its caller %d", recSplit.SCC, entryRec.SCC)
	}
	cg := prog.CallGraph()
	found := false
	for _, n := range cg.SCCs[recSplit.SCC] {
		if n == recMerge {
			found = true
		}
	}
	if !found {
		t.Error("SCCs[recSplit.SCC] does not contain recMerge")
	}
}

func TestCallGraphMethodNode(t *testing.T) {
	prog := program(t)
	push := fixtureNode(t, prog, fixtureBase+"interproc", "push")
	if got := push.Name(); got != "ring.push" {
		t.Errorf("method node name = %q, want %q", got, "ring.push")
	}
	if len(push.Params) != 2 {
		t.Fatalf("receiver-first params: got %d, want 2", len(push.Params))
	}
	if push.Params[0].Name() != "r" || push.Params[1].Name() != "v" {
		t.Errorf("params = [%s %s], want [r v]", push.Params[0].Name(), push.Params[1].Name())
	}
}

func TestTaintSummaries(t *testing.T) {
	prog := program(t)
	rel := fixtureBase + "interproc"
	sums := prog.taintSummaries()
	get := func(name string) *funcSummary {
		s := sums.byFunc[fixtureNode(t, prog, rel, name).Fn]
		if s == nil {
			t.Fatalf("no summary for %s", name)
		}
		return s
	}

	if got := get("passthru").returnMask; got != paramBit(0) {
		t.Errorf("passthru returnMask = %x, want the first parameter bit", got)
	}
	if got := get("double").returnMask; got&secretOrigin == 0 {
		t.Errorf("double returnMask = %x, missing the secret origin", got)
	}
	if got := get("payloadLen").returnMask; got != 0 {
		t.Errorf("payloadLen returnMask = %x, want 0 (len sanitizes)", got)
	}
	if got := get("fill").paramFlows[0]; got&secretOrigin == 0 {
		t.Errorf("fill paramFlows[dst] = %x, missing the secret origin", got)
	}
	if sinks := get("branchHelper").paramSinks[0]; len(sinks) != 1 || sinks[0].what != "if condition" {
		t.Errorf("branchHelper paramSinks[x] = %+v, want one if-condition sink", sinks)
	}
	// The recursion fixpoint must converge to a bounded sink set.
	if sinks := get("recSplit").paramSinks[0]; len(sinks) != 1 {
		t.Errorf("recSplit paramSinks[v] = %+v, want exactly one deduplicated sink", sinks)
	}
}

func TestOriginMaskTranslation(t *testing.T) {
	if paramBit(70) != opaqueOrigin {
		t.Error("out-of-range parameter index must map to the opaque origin")
	}
	if paramBit(-1) != opaqueOrigin {
		t.Error("negative parameter index must map to the opaque origin")
	}
	args := []originMask{paramBit(2), secretOrigin}
	if got := translateMask(paramBit(0)|paramBit(1), args); got != paramBit(2)|secretOrigin {
		t.Errorf("translateMask = %x, want caller bit 2 | secret", got)
	}
	if got := translateMask(opaqueOrigin, args); got != 0 {
		t.Errorf("opaque origin must not translate across the boundary, got %x", got)
	}
	if got := translateMask(secretOrigin, nil); got != secretOrigin {
		t.Errorf("secret must survive translation with no arguments, got %x", got)
	}
}
