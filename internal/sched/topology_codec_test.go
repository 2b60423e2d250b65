package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/wal"
)

const sampleTopology = `{
  "components": [
    {"name": "shop"},
    {"name": "inventory", "store": true},
    {"name": "billing", "store": true, "modes": "escrow"},
    {"name": "audit", "store": true, "modes": "rw"}
  ],
  "children": {
    "shop": ["inventory", "billing"],
    "billing": ["audit"]
  },
  "entries": ["shop"]
}`

// customModesTopology declares its own conflict table.
const customModesTopology = `{
	  "components": [{"name": "a", "store": true,
	    "modes": {"conflicts": [["book","book"], ["book","cancel"]]}}],
	  "entries": ["a"]
	}`

// tooManyModes names 65 distinct modes, one more than a table holds.
var tooManyModes = func() string {
	var pairs []string
	for i := 0; i <= data.MaxModes; i++ {
		pairs = append(pairs, fmt.Sprintf(`["m%d","m%d"]`, i, i))
	}
	return `{"components":[{"name":"a","modes":{"conflicts":[` + strings.Join(pairs, ",") + `]}}],"entries":["a"]}`
}()

func TestDecodeTopology(t *testing.T) {
	topo, err := DecodeTopology(strings.NewReader(sampleTopology))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Specs) != 4 || len(topo.Entries) != 1 {
		t.Fatalf("specs=%d entries=%d", len(topo.Specs), len(topo.Entries))
	}
	// The decoded topology drives a runtime end to end.
	rt := topo.NewRuntime(Hybrid)
	progs := GenPrograms(topo, WorkloadParams{
		Roots: 20, StepsPerTx: 3, Items: 3, ReadRatio: 0.3, WriteRatio: 0.3, Seed: 3,
	})
	if err := Run(rt, progs, 6); err != nil {
		t.Fatal(err)
	}
	sys := rt.RecordedSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok, err := front.IsCompC(sys); err != nil || !ok {
		t.Fatalf("decoded topology execution must be Comp-C: %v, %v", ok, err)
	}
}

func TestDecodeTopologyModeTables(t *testing.T) {
	topo, err := DecodeTopology(strings.NewReader(sampleTopology))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ComponentSpec{}
	for _, s := range topo.Specs {
		byName[s.Name] = s
	}
	if byName["inventory"].Modes != nil {
		t.Error("default modes must be nil (semantic)")
	}
	if !byName["billing"].Modes.ModeConflicts(data.ModeWithdraw, data.ModeWithdraw) {
		t.Error("billing should use the escrow table")
	}
	if !byName["audit"].Modes.ModeConflicts(data.ModeIncr, data.ModeIncr) {
		t.Error("audit should use the rw table")
	}
}

func TestDecodeTopologyCustomModes(t *testing.T) {
	topo, err := DecodeTopology(strings.NewReader(customModesTopology))
	if err != nil {
		t.Fatal(err)
	}
	m := topo.Specs[0].Modes
	if !m.ModeConflicts("book", "cancel") || !m.ModeConflicts("book", "book") {
		t.Fatal("custom conflicts lost")
	}
	if m.ModeConflicts("cancel", "cancel") {
		t.Fatal("undeclared pair must commute")
	}
}

func TestDecodeTopologyRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":             `{}`,
		"no entries":        `{"components":[{"name":"a"}]}`,
		"empty name":        `{"components":[{"name":""}],"entries":[""]}`,
		"dup component":     `{"components":[{"name":"a"},{"name":"a"}],"entries":["a"]}`,
		"unknown entry":     `{"components":[{"name":"a"}],"entries":["b"]}`,
		"unknown child":     `{"components":[{"name":"a"}],"children":{"a":["b"]},"entries":["a"]}`,
		"unknown parent":    `{"components":[{"name":"a"}],"children":{"b":["a"]},"entries":["a"]}`,
		"self invocation":   `{"components":[{"name":"a"}],"children":{"a":["a"]},"entries":["a"]}`,
		"recursive":         `{"components":[{"name":"a"},{"name":"b"}],"children":{"a":["b"],"b":["a"]},"entries":["a"]}`,
		"bad modes":         `{"components":[{"name":"a","modes":"quantum"}],"entries":["a"]}`,
		"malformed modes":   `{"components":[{"name":"a","modes":{"conflicts":"x"}}],"entries":["a"]}`,
		"not json":          `nope`,
		"truncated json":    `{"components":[{"name":"a"`,
		"truncated entries": `{"components":[{"name":"a"}],"entries":["a"`,
	}
	cases["too many modes"] = tooManyModes
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeTopology(strings.NewReader(in)); err == nil {
				t.Fatalf("input %q must be rejected", in)
			}
		})
	}
}

// TestEncodeTopologyRoundTrip: encode → decode must reproduce the
// structure, and named mode tables must come back behaviorally identical
// (they are persisted as explicit conflict pairs).
func TestEncodeTopologyRoundTrip(t *testing.T) {
	orig, err := DecodeTopology(strings.NewReader(sampleTopology))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := EncodeTopology(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTopology(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-decoding the encoded topology: %v\n%s", err, buf.String())
	}
	if len(back.Specs) != len(orig.Specs) || len(back.Entries) != len(orig.Entries) {
		t.Fatalf("shape lost: %d/%d specs, %d/%d entries",
			len(back.Specs), len(orig.Specs), len(back.Entries), len(orig.Entries))
	}
	for i, o := range orig.Specs {
		b := back.Specs[i]
		if b.Name != o.Name || b.HasStore != o.HasStore {
			t.Fatalf("spec %d: %+v != %+v", i, b, o)
		}
		modes := func(s ComponentSpec) *data.ModeTable {
			if s.Modes != nil {
				return s.Modes
			}
			return data.SemanticTable()
		}
		om, bm := modes(o), modes(b)
		for _, pair := range [][2]data.Mode{
			{data.ModeRead, data.ModeWrite}, {data.ModeRead, data.ModeIncr},
			{data.ModeWrite, data.ModeWrite}, {data.ModeIncr, data.ModeIncr},
			{data.ModeWithdraw, data.ModeWithdraw}, {data.ModeAudit, data.ModeDeposit},
		} {
			if om.ModeConflicts(pair[0], pair[1]) != bm.ModeConflicts(pair[0], pair[1]) {
				t.Fatalf("spec %q: conflict %v lost in the roundtrip", o.Name, pair)
			}
		}
	}
	for parent, kids := range orig.Children {
		if got := back.Children[parent]; len(got) != len(kids) {
			t.Fatalf("children of %q lost: %v != %v", parent, got, kids)
		}
	}
}

// FuzzDecodeTopology: the topology decoder reads files an operator wrote
// and metadata records recovery finds on disk. Arbitrary bytes must never
// panic it, and whatever it accepts must survive EncodeTopology → decode
// unchanged (mode tables compared by their conflict pairs: named tables
// are persisted as explicit pairs). Seeds: the cases of this file and the
// topology documents in the metadata records of the checked-in logs.
func FuzzDecodeTopology(f *testing.F) {
	f.Add([]byte(sampleTopology))
	f.Add([]byte(customModesTopology))
	f.Add([]byte(tooManyModes))
	f.Add([]byte(`{"components":[{"name":"a","modes":null}],"children":{"a":[]},"entries":["a"]}`))
	f.Add([]byte(`{"components":[{"name":"a"},{"name":"b"}],"children":{"a":["b"],"b":["a"]},"entries":["a"]}`))
	f.Add([]byte(`{"components":[{"name":"a","modes":{"conflicts":"x"}}],"entries":["a"]}`))
	f.Add([]byte(`{"components":[{"name":"a"`))
	for _, dir := range []string{"single", filepath.Join("dist", "coord")} {
		recs, _, err := wal.ReadAll(filepath.Join("testdata", "logs", dir))
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range recs {
			var meta struct{ Topology json.RawMessage }
			if rec.Type == wal.TypeMeta && json.Unmarshal(rec.Meta, &meta) == nil && len(meta.Topology) > 0 {
				f.Add([]byte(meta.Topology))
			}
		}
	}

	pairs := func(s ComponentSpec) [][2]data.Mode {
		if s.Modes == nil {
			return nil
		}
		return s.Modes.Pairs()
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		topo, err := DecodeTopology(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeTopology(&buf, topo); err != nil {
			t.Fatalf("encoding an accepted topology: %v", err)
		}
		back, err := DecodeTopology(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding the encoded topology: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back.Children, topo.Children) || !reflect.DeepEqual(back.Entries, topo.Entries) || len(back.Specs) != len(topo.Specs) {
			t.Fatalf("shape lost in the roundtrip:\n%+v\n%+v", topo, back)
		}
		for i, o := range topo.Specs {
			b := back.Specs[i]
			if b.Name != o.Name || b.HasStore != o.HasStore || (b.Modes == nil) != (o.Modes == nil) || !reflect.DeepEqual(pairs(b), pairs(o)) {
				t.Fatalf("spec %d lost in the roundtrip: %+v != %+v", i, b, o)
			}
		}
	})
}
