package sched

import (
	"encoding/json"
	"fmt"
	"io"

	"compositetx/internal/data"
)

// topologyJSON is the on-disk topology format used by cmd/compsim:
//
//	{
//	  "components": [
//	    {"name": "bank"},
//	    {"name": "east", "store": true, "modes": "escrow"}
//	  ],
//	  "children": {"bank": ["east"]},
//	  "entries": ["bank"]
//	}
//
// The "modes" field selects a conflict table: "semantic" (default), "rw",
// "escrow", or a custom object {"conflicts": [["read","write"], ...]}.
type topologyJSON struct {
	Components []componentJSON     `json:"components"`
	Children   map[string][]string `json:"children,omitempty"`
	Entries    []string            `json:"entries"`
}

type componentJSON struct {
	Name  string          `json:"name"`
	Store bool            `json:"store,omitempty"`
	Modes json.RawMessage `json:"modes,omitempty"`
}

type customModesJSON struct {
	Conflicts [][2]string `json:"conflicts"`
}

// DecodeTopology reads a topology from its JSON representation.
func DecodeTopology(r io.Reader) (*Topology, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var doc topologyJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("sched: bad topology: %w", err)
	}
	return topologyFromDoc(doc, true)
}

// EncodeTopology writes the topology in the same JSON format
// DecodeTopology reads. Mode tables round-trip as explicit conflict
// pairs (behaviorally identical to the named tables they came from).
func EncodeTopology(w io.Writer, t *Topology) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(topologyToDoc(t))
}

// topologyFromDoc validates and builds a Topology from its document
// form. strict requires entry components (the compsim contract); the WAL
// metadata path relaxes it, since runtimes built from bare specs have no
// entries to persist.
func topologyFromDoc(doc topologyJSON, strict bool) (*Topology, error) {
	if len(doc.Components) == 0 {
		return nil, fmt.Errorf("sched: topology has no components")
	}
	if strict && len(doc.Entries) == 0 {
		return nil, fmt.Errorf("sched: topology has no entries")
	}
	t := &Topology{Children: doc.Children, Entries: doc.Entries}
	if t.Children == nil {
		t.Children = map[string][]string{}
	}
	names := map[string]bool{}
	for _, c := range doc.Components {
		if c.Name == "" {
			return nil, fmt.Errorf("sched: component with empty name")
		}
		if names[c.Name] {
			return nil, fmt.Errorf("sched: duplicate component %q", c.Name)
		}
		names[c.Name] = true
		modes, err := decodeModes(c.Modes)
		if err != nil {
			return nil, fmt.Errorf("sched: component %q: %w", c.Name, err)
		}
		t.Specs = append(t.Specs, ComponentSpec{Name: c.Name, HasStore: c.Store, Modes: modes})
	}
	for parent, kids := range t.Children {
		if !names[parent] {
			return nil, fmt.Errorf("sched: children of unknown component %q", parent)
		}
		for _, k := range kids {
			if !names[k] {
				return nil, fmt.Errorf("sched: %q invokes unknown component %q", parent, k)
			}
			if k == parent {
				return nil, fmt.Errorf("sched: component %q invokes itself", parent)
			}
		}
	}
	for _, e := range t.Entries {
		if !names[e] {
			return nil, fmt.Errorf("sched: unknown entry component %q", e)
		}
	}
	// Reject recursive configurations up front.
	if cyclic(t.Children) {
		return nil, fmt.Errorf("sched: topology is recursive")
	}
	return t, nil
}

func decodeModes(raw json.RawMessage) (*data.ModeTable, error) {
	if len(raw) == 0 {
		return nil, nil // default (semantic)
	}
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		switch name {
		case "", "semantic":
			return nil, nil
		case "rw":
			return data.RWTable(), nil
		case "escrow":
			return data.EscrowTable(), nil
		default:
			return nil, fmt.Errorf("unknown mode table %q", name)
		}
	}
	var custom customModesJSON
	if err := json.Unmarshal(raw, &custom); err != nil {
		return nil, fmt.Errorf("bad modes: %w", err)
	}
	// The table's own limit, checked here: a topology file or a log's
	// metadata record is outside input, and Declare panics past it.
	distinct := map[string]struct{}{}
	for _, p := range custom.Conflicts {
		distinct[p[0]], distinct[p[1]] = struct{}{}, struct{}{}
	}
	if len(distinct) > data.MaxModes {
		return nil, fmt.Errorf("custom mode table names %d modes, at most %d are supported", len(distinct), data.MaxModes)
	}
	t := data.NewModeTable()
	for _, p := range custom.Conflicts {
		t.Declare(data.Mode(p[0]), data.Mode(p[1]))
	}
	return t, nil
}

func cyclic(children map[string][]string) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var dfs func(n string) bool
	dfs = func(n string) bool {
		color[n] = grey
		for _, m := range children[n] {
			switch color[m] {
			case grey:
				return true
			case white:
				if dfs(m) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for n := range children {
		if color[n] == white {
			if dfs(n) {
				return true
			}
		}
	}
	return false
}
