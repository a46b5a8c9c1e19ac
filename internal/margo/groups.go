package margo

import (
	"fmt"
	"sync"
)

// Groups keeps, for each instance, the named members of a group
// protocol (raft nodes, SSG groups) that share one set of RPC handlers
// there: a request names its group and the handler looks the member
// up. An instance's entry exists exactly as long as it hosts a member:
// the first to attach installs the handlers, the last to detach removes
// them and the entry, so a finalized instance is not kept reachable
// from here.
type Groups[T any] struct {
	install func(inst *Instance, lookup func(name string) *T) (*RPCSet, error)

	mu     sync.Mutex // serializes Attach and Detach, handler install included
	byInst map[*Instance]*groupSet[T]
}

// groupSet is one instance's members and the handlers serving them.
type groupSet[T any] struct {
	rpcs *RPCSet

	mu      sync.Mutex // guards members
	members map[string]*T
}

func (s *groupSet[T]) lookup(name string) *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members[name]
}

// NewGroups returns an empty registry. install registers the protocol's
// handlers on an instance; they find the member a request is for with
// lookup, which returns nil for a name nobody on the instance has.
func NewGroups[T any](install func(inst *Instance, lookup func(name string) *T) (*RPCSet, error)) *Groups[T] {
	return &Groups[T]{install: install, byInst: map[*Instance]*groupSet[T]{}}
}

// Attach enters member under name on inst, installing the handlers
// first if it is the instance's only member. A failed install, or a
// name already taken, leaves nothing behind.
func (g *Groups[T]) Attach(inst *Instance, name string, member *T) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	set := g.byInst[inst]
	if set == nil {
		set = &groupSet[T]{members: map[string]*T{}}
		var err error
		if set.rpcs, err = g.install(inst, set.lookup); err != nil {
			return err
		}
		g.byInst[inst] = set
	}
	set.mu.Lock()
	defer set.mu.Unlock()
	if _, dup := set.members[name]; dup {
		return fmt.Errorf("margo: group %q already exists on %s", name, inst.Addr())
	}
	set.members[name] = member
	return nil
}

// Detach removes member from inst and, if it was the last one there,
// the handlers and the instance's entry too. Detaching a member that is
// not attached does nothing.
func (g *Groups[T]) Detach(inst *Instance, name string, member *T) {
	g.mu.Lock()
	defer g.mu.Unlock()
	set := g.byInst[inst]
	if set == nil {
		return
	}
	set.mu.Lock()
	if set.members[name] == member {
		delete(set.members, name)
	}
	empty := len(set.members) == 0
	set.mu.Unlock()
	if empty {
		set.rpcs.Close()
		delete(g.byInst, inst)
	}
}
