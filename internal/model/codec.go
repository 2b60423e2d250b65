package model

import (
	"encoding/json"
	"fmt"
	"io"

	"compositetx/internal/order"
)

// systemJSON is the on-disk representation read and written by the cmd
// tools. Pairs are two-element arrays; empty relations may be omitted.
type systemJSON struct {
	Nodes     []nodeJSON     `json:"nodes"`
	Schedules []scheduleJSON `json:"schedules"`
}

type nodeJSON struct {
	ID          string      `json:"id"`
	Parent      string      `json:"parent,omitempty"`
	Schedule    string      `json:"schedule,omitempty"`
	WeakIntra   [][2]string `json:"weakIntra,omitempty"`
	StrongIntra [][2]string `json:"strongIntra,omitempty"`
}

type scheduleJSON struct {
	ID        string      `json:"id"`
	Conflicts [][2]string `json:"conflicts,omitempty"`
	WeakIn    [][2]string `json:"weakIn,omitempty"`
	StrongIn  [][2]string `json:"strongIn,omitempty"`
	WeakOut   [][2]string `json:"weakOut,omitempty"`
	StrongOut [][2]string `json:"strongOut,omitempty"`
}

func relToPairs(r *order.Relation[NodeID]) [][2]string {
	if r == nil || r.Len() == 0 {
		return nil
	}
	ps := r.Pairs()
	out := make([][2]string, len(ps))
	for i, p := range ps {
		out[i] = [2]string{string(p[0]), string(p[1])}
	}
	return out
}

func pairsToRel(ps [][2]string) *order.Relation[NodeID] {
	r := order.New[NodeID]()
	for _, p := range ps {
		r.Add(NodeID(p[0]), NodeID(p[1]))
	}
	return r
}

// MarshalJSON encodes the system in the cmd tools' file format.
func (s *System) MarshalJSON() ([]byte, error) {
	var doc systemJSON
	for _, id := range s.NodeIDs() {
		n := s.Node(id)
		doc.Nodes = append(doc.Nodes, nodeJSON{
			ID:          string(n.ID),
			Parent:      string(n.Parent),
			Schedule:    string(n.Sched),
			WeakIntra:   relToPairs(n.WeakIntra),
			StrongIntra: relToPairs(n.StrongIntra),
		})
	}
	for _, sc := range s.Schedules() {
		sj := scheduleJSON{
			ID:        string(sc.ID),
			WeakIn:    relToPairs(sc.WeakIn),
			StrongIn:  relToPairs(sc.StrongIn),
			WeakOut:   relToPairs(sc.WeakOut),
			StrongOut: relToPairs(sc.StrongOut),
		}
		for _, p := range sc.Conflicts.Pairs() {
			sj.Conflicts = append(sj.Conflicts, [2]string{string(p[0]), string(p[1])})
		}
		doc.Schedules = append(doc.Schedules, sj)
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes the cmd tools' file format. The decoded system is
// not validated; call Validate afterwards.
func (s *System) UnmarshalJSON(data []byte) error {
	var doc systemJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	fresh := NewSystem()
	for _, sj := range doc.Schedules {
		if sj.ID == "" {
			return fmt.Errorf("model: schedule with empty id")
		}
		if fresh.Schedule(ScheduleID(sj.ID)) != nil {
			return fmt.Errorf("model: duplicate schedule %q", sj.ID)
		}
		sc := fresh.AddSchedule(ScheduleID(sj.ID))
		for _, p := range sj.Conflicts {
			sc.AddConflict(NodeID(p[0]), NodeID(p[1]))
		}
		sc.WeakIn = pairsToRel(sj.WeakIn)
		sc.StrongIn = pairsToRel(sj.StrongIn)
		sc.WeakOut = pairsToRel(sj.WeakOut)
		sc.StrongOut = pairsToRel(sj.StrongOut)
	}
	for _, nj := range doc.Nodes {
		if nj.ID == "" {
			return fmt.Errorf("model: node with empty id")
		}
		if fresh.Node(NodeID(nj.ID)) != nil {
			return fmt.Errorf("model: duplicate node %q", nj.ID)
		}
		var n *Node
		switch {
		case nj.Schedule == "" && nj.Parent == "":
			return fmt.Errorf("model: node %s is neither a transaction (no schedule) nor an operation (no parent)", nj.ID)
		case nj.Schedule == "":
			n = fresh.AddLeaf(NodeID(nj.ID), NodeID(nj.Parent))
		case nj.Parent == "":
			n = fresh.AddRoot(NodeID(nj.ID), ScheduleID(nj.Schedule))
		default:
			n = fresh.AddTx(NodeID(nj.ID), NodeID(nj.Parent), ScheduleID(nj.Schedule))
		}
		if len(nj.WeakIntra) > 0 {
			n.WeakIntra = pairsToRel(nj.WeakIntra)
		}
		if len(nj.StrongIntra) > 0 {
			n.StrongIntra = pairsToRel(nj.StrongIntra)
		}
	}
	*s = *fresh
	return nil
}

// Encode writes the system as indented JSON.
func (s *System) Encode(w io.Writer) error {
	data, err := s.MarshalJSON()
	if err != nil {
		return err
	}
	var buf json.RawMessage = data
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buf)
}

// Decode reads a system from JSON.
func Decode(r io.Reader) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := NewSystem()
	if err := s.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return s, nil
}
