package analysis

import (
	"go/types"
	"testing"
)

// TestWALTxnIsTwoPhaseHold pins the shape of the real durable intent:
// if *wal.Txn stops matching isTwoPhaseHold (Commit, Release and
// Amount() Guarantee), twophase silently stops checking that the serve
// envelope settles every WAL transaction — this test fails instead.
func TestWALTxnIsTwoPhaseHold(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./internal/wal"}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := loader.modulePath + "/internal/wal"
	for _, pkg := range pkgs {
		if pkg.Path != want {
			continue
		}
		obj := pkg.Types.Scope().Lookup("Txn")
		if obj == nil {
			t.Fatalf("%s declares no Txn", want)
		}
		if !isTwoPhaseHold(types.NewPointer(obj.Type())) {
			t.Fatalf("*%s.Txn lost the two-phase hold shape (Commit, Release, Amount() Guarantee)", want)
		}
		return
	}
	t.Fatalf("%s did not load", want)
}
