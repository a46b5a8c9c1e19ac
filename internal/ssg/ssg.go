// Package ssg is the Scalable Service Group component: dynamic group
// membership for Mochi services (paper §6, Observation 7) with a
// SWIM-based failure detector (paper §7, Observation 12; Das et al.).
//
// A Group maintains an eventually-consistent view of a set of
// processes. Members periodically probe a random peer; unresponsive
// peers are probed indirectly through k other members, then suspected,
// then declared dead unless they refute the suspicion with a higher
// incarnation number. Membership updates ride piggyback on the probe
// traffic. Clients can fetch the view and its hash — the mechanism
// Colza uses to detect stale views (§6).
package ssg

import (
	"errors"
	"hash/fnv"
	"sort"
	"time"
)

// Errors returned by groups.
var (
	ErrNoSuchGroup = errors.New("ssg: no such group")
	ErrLeft        = errors.New("ssg: member has left the group")
	ErrJoinFailed  = errors.New("ssg: join failed")
)

// State is a member's liveness state.
type State uint8

const (
	// StateAlive means the member is believed healthy.
	StateAlive State = iota
	// StateSuspect means the member failed a probe and is on the
	// suspicion clock.
	StateSuspect
	// StateDead means the member was declared failed.
	StateDead
	// StateLeft means the member departed gracefully.
	StateLeft
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	}
	return "unknown"
}

// Member is one process in a group.
type Member struct {
	Addr        string
	Incarnation uint64
	State       State
}

// View is a snapshot of the group membership.
type View struct {
	// Version increments on every membership change observed locally.
	Version uint64
	// Members holds all known members (any state), sorted by address.
	Members []Member
}

// Alive returns the addresses of alive members, sorted.
func (v View) Alive() []string {
	var out []string
	for _, m := range v.Members {
		if m.State == StateAlive || m.State == StateSuspect {
			out = append(out, m.Addr)
		}
	}
	return out
}

// Live returns only confidently-alive members (not suspects).
func (v View) Live() []string {
	var out []string
	for _, m := range v.Members {
		if m.State == StateAlive {
			out = append(out, m.Addr)
		}
	}
	return out
}

// Hash returns a stable digest of the alive membership; two processes
// with the same set of alive members compute the same hash (the Colza
// view-hash protocol).
func (v View) Hash() uint64 {
	h := fnv.New64a()
	for _, a := range v.Alive() {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Size returns the number of alive (or suspect) members.
func (v View) Size() int { return len(v.Alive()) }

// Config tunes the SWIM protocol.
type Config struct {
	// ProtocolPeriod is the probe interval (default 200ms).
	ProtocolPeriod time.Duration
	// PingTimeout is how long to wait for a direct ack (default
	// ProtocolPeriod/4).
	PingTimeout time.Duration
	// IndirectPings is SWIM's k (default 3).
	IndirectPings int
	// SuspicionPeriods is the number of protocol periods a suspect
	// has to refute before being declared dead (default: 4 per decade
	// of group size, max(4, 4·⌈log10(N+1)⌉) — 4 up to nine members).
	SuspicionPeriods int
	// PiggybackLimit caps membership updates per message (default 8).
	PiggybackLimit int
	// RetransmitMult scales how many times an update is gossiped:
	// ceil(RetransmitMult * log2(N+1)) (default 3).
	RetransmitMult int
}

// withDefaults resolves every default that is a constant;
// SuspicionPeriods follows the membership (Engine.suspicionPeriods).
func (c Config) withDefaults() Config {
	if c.ProtocolPeriod <= 0 {
		c.ProtocolPeriod = 200 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = c.ProtocolPeriod / 4
	}
	if c.IndirectPings <= 0 {
		c.IndirectPings = 3
	}
	if c.PiggybackLimit <= 0 {
		c.PiggybackLimit = 8
	}
	if c.RetransmitMult <= 0 {
		c.RetransmitMult = 3
	}
	return c
}

// MembershipCallback observes membership transitions (§7 Obs. 12:
// "a way for any member to be notified if any other member dies").
type MembershipCallback func(member Member, old, new State)

// sortMembers orders members by address for stable views.
func sortMembers(ms []Member) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Addr < ms[j].Addr })
}
