package model_test

import (
	"bytes"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
)

// FuzzDecodeCheck: the decoder must never panic on arbitrary input, and
// any successfully decoded, structurally valid system must be decidable
// by the checker without error.
func FuzzDecodeCheck(f *testing.F) {
	seed := func(sys *model.System) {
		var buf bytes.Buffer
		if err := sys.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(front.Figure1System())
	seed(front.Figure3System())
	seed(front.Figure4System())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schedules":[{"id":"S"}],"nodes":[{"id":"T","schedule":"S"}]}`))
	f.Add([]byte(`not json`))
	// Children before their parents, schedules before nothing: the
	// decoder adds nodes in file order, and a parent adopts its children.
	f.Add([]byte(`{"schedules":[{"id":"S2"},{"id":"S1","conflicts":[["x","y"]],"weakOut":[["x","y"]]}],` +
		`"nodes":[{"id":"x","parent":"t1"},{"id":"y","parent":"t2"},{"id":"t1","parent":"T","schedule":"S1"},` +
		`{"id":"t2","parent":"U","schedule":"S1"},{"id":"T","schedule":"S2"},{"id":"U","schedule":"S2"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sys := model.NewSystem()
		if err := sys.UnmarshalJSON(data); err != nil {
			return // malformed input is fine; panics are not
		}
		if err := sys.ValidateStructure(); err != nil {
			return
		}
		if _, err := front.Check(sys, front.Options{}); err != nil {
			// Check may reject recursive configurations (already covered
			// by ValidateStructure) but must not fail otherwise.
			t.Fatalf("Check failed on structurally valid input: %v", err)
		}
	})
}
