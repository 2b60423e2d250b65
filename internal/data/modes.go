package data

import "sort"

// ModeTable is a symmetric conflict specification over operation modes: it
// answers whether two operations on the same item conflict (do not
// commute). Operations on different items never conflict.
type ModeTable struct {
	conflicts map[[2]Mode]bool

	// Interned read-path mirror of the map: mode i conflicts with mode j
	// iff bit j of bits[i] is set. Tables hold a handful of modes and are
	// static after construction, so the hot ModeConflicts path is a short
	// linear intern scan plus a bit test — no string-pair hashing.
	modes []Mode
	bits  []uint64
}

// MaxModes is the number of distinct modes one table can hold (a conflict
// row is one machine word); Declare panics past it.
const MaxModes = 64

// NewModeTable returns an empty table (everything commutes). Use Declare
// to add conflicts.
func NewModeTable() *ModeTable {
	return &ModeTable{conflicts: make(map[[2]Mode]bool)}
}

func canonicalModes(a, b Mode) [2]Mode {
	if a > b {
		a, b = b, a
	}
	return [2]Mode{a, b}
}

func (t *ModeTable) intern(m Mode) int {
	for i, x := range t.modes {
		if x == m {
			return i
		}
	}
	if len(t.modes) == MaxModes {
		panic("data: ModeTable supports at most 64 distinct modes")
	}
	t.modes = append(t.modes, m)
	t.bits = append(t.bits, 0)
	return len(t.modes) - 1
}

func (t *ModeTable) lookup(m Mode) int {
	for i, x := range t.modes {
		if x == m {
			return i
		}
	}
	return -1
}

// Declare marks two modes as conflicting (in both orders).
func (t *ModeTable) Declare(a, b Mode) *ModeTable {
	t.conflicts[canonicalModes(a, b)] = true
	ia, ib := t.intern(a), t.intern(b)
	t.bits[ia] |= 1 << uint(ib)
	t.bits[ib] |= 1 << uint(ia)
	return t
}

// Conflicts reports whether two operations conflict: same item and a
// declared mode conflict.
func (t *ModeTable) Conflicts(a, b Op) bool {
	if a.Item != b.Item {
		return false
	}
	return t.ModeConflicts(a.Mode, b.Mode)
}

// ModeConflicts reports whether two modes are declared conflicting.
// Undeclared modes conflict with nothing.
func (t *ModeTable) ModeConflicts(a, b Mode) bool {
	ia := t.lookup(a)
	if ia < 0 {
		return false
	}
	ib := t.lookup(b)
	return ib >= 0 && t.bits[ia]&(1<<uint(ib)) != 0
}

// SemanticTable is the full-knowledge specification for the integer store:
// reads commute with reads, increments commute with increments, and every
// combination involving a write conflicts, as does read/increment.
func SemanticTable() *ModeTable {
	return NewModeTable().
		Declare(ModeRead, ModeWrite).
		Declare(ModeRead, ModeIncr).
		Declare(ModeWrite, ModeWrite).
		Declare(ModeWrite, ModeIncr)
}

// RWTable is the classical no-knowledge specification: increments are
// read-modify-writes, so everything but read/read conflicts. This is what
// a flat scheduler without semantic knowledge must assume.
func RWTable() *ModeTable {
	return NewModeTable().
		Declare(ModeRead, ModeWrite).
		Declare(ModeRead, ModeIncr).
		Declare(ModeWrite, ModeWrite).
		Declare(ModeWrite, ModeIncr).
		Declare(ModeIncr, ModeIncr)
}

// Escrow modes: domain-specific semantic classes implemented as
// increments. Deposits always commute (the balance only grows); a
// withdrawal must be certain the balance suffices, so withdrawals conflict
// with each other and with deposits' absence — here, conservatively, with
// withdrawals and audits.
const (
	// ModeDeposit adds funds; commutes with every other deposit.
	ModeDeposit Mode = "deposit"
	// ModeWithdraw removes funds; conflicts with other withdrawals.
	ModeWithdraw Mode = "withdraw"
	// ModeAudit reads a balance; conflicts with everything that changes it.
	ModeAudit Mode = "audit"
)

// EscrowTable is an escrow-style conflict specification over the banking
// modes: deposit/deposit commute, withdraw/withdraw conflict, audit
// conflicts with both. It demonstrates domain-specific mode tables built
// on the same store (all three modes are implemented as increments or
// reads; see Op.Impl).
func EscrowTable() *ModeTable {
	return NewModeTable().
		Declare(ModeWithdraw, ModeWithdraw).
		Declare(ModeAudit, ModeDeposit).
		Declare(ModeAudit, ModeWithdraw).
		Declare(ModeAudit, ModeAudit)
}

// EscrowCounterTable is the derived conflict specification for the
// bounded escrow counter (ModeReserve / ModeRelease), following Malta &
// Martinez's recipe of deriving commutativity from outcome preservation
// on the bounded ADT:
//
//   - reserve/reserve commute: in the committed projection both succeeded,
//     and two successful subtractions commute (a reserve that would break
//     the bound fails physically at apply time — ErrInsufficient — and
//     never commits, so commit-time order does not change outcomes);
//   - release/release commute: additions always commute;
//   - reserve/release conflict: moving a release across a reserve can flip
//     the reserve between success and ErrInsufficient — the bound is
//     exactly where commutativity of the unbounded counter breaks down;
//   - read conflicts with both, as it observes the balance.
func EscrowCounterTable() *ModeTable {
	return NewModeTable().
		Declare(ModeReserve, ModeRelease).
		Declare(ModeRead, ModeReserve).
		Declare(ModeRead, ModeRelease).
		Declare(ModeRead, ModeWrite).
		Declare(ModeRead, ModeIncr).
		Declare(ModeWrite, ModeWrite).
		Declare(ModeWrite, ModeIncr).
		Declare(ModeWrite, ModeReserve).
		Declare(ModeWrite, ModeRelease).
		Declare(ModeIncr, ModeReserve).
		Declare(ModeIncr, ModeRelease)
}

// Pairs returns the declared conflicts as canonical (sorted) mode pairs,
// in lexicographic order — the serialization the topology codec persists.
func (t *ModeTable) Pairs() [][2]Mode {
	out := make([][2]Mode, 0, len(t.conflicts))
	for p, ok := range t.conflicts {
		if ok {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// IsShared reports whether a mode is compatible with itself under the
// table (a "shared" lock mode).
func (t *ModeTable) IsShared(m Mode) bool {
	return !t.ModeConflicts(m, m)
}
