package oram

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"proram/internal/mem"
	"proram/internal/tree"
)

// CheckInvariant reports the two corruptions of a tree slot that the
// tree's own operations cannot produce, each planted by hand: a label that
// disagrees with the position map, and an empty slot before an occupied
// one in a bucket.
func TestCheckInvariantReportsCorruptSlots(t *testing.T) {
	violations := func(c *Controller) string {
		t.Helper()
		err := c.CheckInvariant()
		if err == nil {
			t.Fatal("CheckInvariant passed a corrupt tree")
		}
		return err.Error()
	}

	// A wrong label: block 42's path is read into the stash and written
	// back with the block relabelled to a leaf whose path shares only the
	// root with its own, so the root is the one bucket it can go to. The
	// root is on its own path too, so the label is all that is wrong.
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(40); i < 48; i++ {
		c.Read(c.lastEnd, i)
	}
	id := mem.MakeID(0, 42)
	leaf := c.leafOf(id)
	wrong := leaf ^ mem.Leaf(c.tr.Leaves()/2)
	c.st.ReadPath(c.tr, leaf)
	if !c.st.SetLeaf(id, wrong) {
		t.Fatalf("%v is neither on its path nor stashed", id)
	}
	c.st.EvictToPath(c.tr, leaf)
	if c.st.Contains(id) {
		t.Fatal("the root had no room for the relabelled block")
	}
	if got := violations(c); !strings.Contains(got, "1 invariant violation") || !strings.Contains(got, "slot label") {
		t.Errorf("wrong label reported as:\n%s", got)
	}

	// A hole: slot 0 of a bucket holding two blocks is emptied, through
	// the tree's unexported node-major slot array (Z slots per bucket),
	// since no tree operation leaves one.
	cfg := testConfig()
	cfg.Prefill = true
	if c, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	var node uint64
	c.tr.ForEach(func(n uint64, i int, _ tree.Labeled) {
		if i == 1 && node == 0 {
			node = n
		}
	})
	if node == 0 {
		t.Fatal("no bucket of the prefilled tree holds two blocks")
	}
	v := reflect.ValueOf(c.tr).Elem().FieldByName("slots")
	slots := reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	slots.Index(int((node - 1) * uint64(cfg.Z))).SetUint(0)
	if got := violations(c); !strings.Contains(got, "has an empty slot before occupied slot 1") {
		t.Errorf("hole reported as:\n%s", got)
	}
}
