// Package interproc is a proram-vet golden fixture for the
// interprocedural taint engine: secret payload bytes that cross one or
// more call boundaries — through return values, through out-parameters,
// or into a helper that branches on its argument — must still be
// flagged, including around recursion cycles. Every positive case in
// this file is invisible to a purely intra-procedural pass.
package interproc

type block struct {
	id uint64
	//proram:secret fixture payload bytes
	data []byte
}

// passthru's summary records the param→return flow.
func passthru(x []byte) []byte { return x }

// double is two calls deep: its return derives from the secret field.
func double(b block) []byte { return passthru(b.data) }

func branchOnReturn(b block) int {
	if double(b)[0] == 1 { // want `if condition depends on secret block payload bytes`
		return 1
	}
	return 0
}

// branchHelper never touches a secret itself; its summary records that
// parameter x reaches an if condition.
func branchHelper(x byte) int {
	if x == 3 {
		return 1
	}
	return 0
}

func callsBranchHelper(b block) int {
	return branchHelper(b.data[0]) // want `secret block payload bytes flow into parameter "x" of branchHelper and reach a if condition`
}

// mid forwards its argument another level down.
func mid(y byte) int { return branchHelper(y) }

func callsMid(b block) int {
	return mid(b.data[1]) // want `secret block payload bytes flow into parameter "y" of mid → branchHelper and reach a if condition`
}

// recSplit and recMerge are mutually recursive: the sink on v inside
// recMerge must surface for callers of either cycle member, and the
// summary fixpoint must converge.
func recSplit(v byte, depth int) int {
	if depth == 0 {
		return recMerge(v, 1)
	}
	return recSplit(v, depth-1)
}

func recMerge(v byte, depth int) int {
	if v > 10 {
		return depth
	}
	return recSplit(v, depth)
}

func entryRec(b block) int {
	return recSplit(b.data[2], 3) // want `secret block payload bytes flow into parameter "v" of recSplit → recMerge and reach a if condition`
}

// fill writes secret bytes through its dst parameter; callers' buffers
// become tainted.
func fill(dst []byte, b block) {
	copy(dst, b.data)
}

func branchAfterFill(b block) int {
	buf := make([]byte, 8)
	fill(buf, b)
	if buf[0] == 1 { // want `if condition depends on secret block payload bytes`
		return 1
	}
	return 0
}

// payloadLen sanitizes: length is public by construction, and that fact
// survives the call boundary.
func payloadLen(b block) int { return len(b.data) }

func publicLenLoop(b block) int {
	n := 0
	for i := 0; i < payloadLen(b); i++ {
		n++
	}
	return n
}

// A public value into a sink-carrying helper is fine.
func publicIntoHelper(b block) int {
	return branchHelper(byte(b.id))
}

type ring struct {
	buf []uint64
}

// push is a method node: its receiver is the first summary parameter.
func (r *ring) push(v uint64) {
	r.buf = append(r.buf, v)
}
