// Package oblivious is a proram-vet golden fixture for the taint pass:
// control flow conditioned on secret payload bytes must be flagged;
// lengths, declassified values and explicit allows must not.
package oblivious

type block struct {
	id uint64
	//proram:secret fixture payload bytes
	data []byte
}

func use(id uint64) uint64 { return id }

func branchOnPayload(b block) int {
	n := 0
	if b.data[0] == 1 { // want `if condition depends on secret block payload bytes`
		n++
	}
	return n
}

func loopOnPayload(b block) int {
	n := 0
	for i := 0; i < int(b.data[1]); i++ { // want `loop bound depends on secret block payload bytes`
		n++
	}
	return n
}

func switchOnPayload(b block) int {
	switch b.data[2] { // want `switch tag depends on secret block payload bytes`
	case 0:
		return 1
	}
	return 0
}

func propagatedTaint(b block) int {
	x := b.data[3]
	y := int(x) + 1
	if y > 10 { // want `if condition depends on secret block payload bytes`
		return 1
	}
	return 0
}

func lengthIsPublic(b block) int {
	n := use(b.id)
	for i := 0; i < len(b.data); i++ {
		n++
	}
	if len(b.data) > 16 {
		n++
	}
	return int(n)
}

func declassified(b block) int {
	version := b.data[0] //proram:public fixture: the version byte is public by protocol
	if version == 2 {
		return 1
	}
	return 0
}

func allowedBranch(b block) int {
	//proram:allow oblivious fixture: debug-only helper, never on the access path
	if b.data[0] == 9 {
		return 1
	}
	return 0
}

// secretPadding steers a padding budget by payload bytes, so the trip
// count leaks through trace length and timing.
func secretPadding(b block, slots int) int {
	pad := slots - int(b.data[0])
	n := 0
	for i := 0; i < pad; i++ { // want `loop bound depends on secret block payload bytes`
		n++
	}
	return n
}

// secretBound hoists a payload-derived bound into a local first; the
// taint follows it.
func secretBound(b block) int {
	n := 0
	limit := int(b.data[0])
	for i := 0; i < limit; i++ { // want `loop bound depends on secret block payload bytes`
		n++
	}
	return n
}
