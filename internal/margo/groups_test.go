package margo

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mochi/internal/codec"
	"mochi/internal/mercury"
)

// member is a group member of the registry test; who answers a "whois"
// for its group.
type member struct{ label string }

// Two instances, two names each: the handlers are installed once per
// instance, route by name, survive until the instance's last member
// detaches, and go with it; and a failed install leaves nothing behind.
func TestGroupsInstallOncePerInstance(t *testing.T) {
	f := mercury.NewFabric()
	a, b, cli := newInstance(t, f, "ga", ""), newInstance(t, f, "gb", ""), newInstance(t, f, "gc", "")
	installs := map[*Instance]int{}
	fail := errors.New("install refused")
	var refuse *Instance
	groups := NewGroups(func(inst *Instance, lookup func(string) *member) (*RPCSet, error) {
		if inst == refuse {
			return nil, fail
		}
		installs[inst]++
		return inst.RegisterSet(mercury.AnyProvider, nil, RPC{Name: "whois", Handler: Serve(
			func(_ context.Context, _ *mercury.Handle, in *note) (codec.Message, error) {
				m := lookup(in.Text)
				if m == nil {
					return nil, errors.New("unknown group")
				}
				return &note{Text: m.label}, nil
			})})
	})
	whois := func(inst *Instance, group string) (string, error) {
		var out note
		err := cli.Call(shortCtx(t), inst.Addr(), "whois", mercury.AnyProvider, &note{Text: group}, &out)
		return out.Text, err
	}

	members := map[string]*member{}
	for _, inst := range []*Instance{a, b} {
		for _, name := range []string{"x", "y"} {
			m := &member{label: inst.Addr() + "/" + name}
			members[m.label] = m
			if err := groups.Attach(inst, name, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if installs[a] != 1 || installs[b] != 1 {
		t.Fatalf("installs: %d on a, %d on b, want one each", installs[a], installs[b])
	}
	for label := range members {
		inst, name := a, label[strings.LastIndexByte(label, '/')+1:]
		if strings.HasPrefix(label, b.Addr()) {
			inst = b
		}
		if got, err := whois(inst, name); err != nil || got != label {
			t.Fatalf("whois %s: %q, %v", label, got, err)
		}
	}
	if err := groups.Attach(a, "x", &member{}); err == nil {
		t.Fatal("a second member under a taken name attached")
	}

	// Detaching somebody else's name, or one of two members, changes
	// nothing for the member that stays.
	groups.Detach(a, "x", &member{})
	groups.Detach(a, "y", members[a.Addr()+"/y"])
	if got, err := whois(a, "x"); err != nil || got != a.Addr()+"/x" {
		t.Fatalf("whois a/x with y detached: %q, %v", got, err)
	}
	if _, err := whois(a, "y"); err == nil {
		t.Fatal("detached member still answers")
	}
	// The last one out removes the handlers: the name is free for
	// anyone, and b's are untouched.
	groups.Detach(a, "x", members[a.Addr()+"/x"])
	if _, err := whois(a, "x"); !errors.Is(err, mercury.ErrNoHandler) {
		t.Fatalf("whois on an instance with no members: %v", err)
	}
	if got, err := whois(b, "y"); err != nil || got != b.Addr()+"/y" {
		t.Fatalf("whois b/y after a emptied: %q, %v", got, err)
	}

	// A failed install leaves no entry: the next attach installs again.
	refuse = a
	if err := groups.Attach(a, "x", members[a.Addr()+"/x"]); !errors.Is(err, fail) {
		t.Fatalf("attach with a refused install: %v", err)
	}
	refuse = nil
	if err := groups.Attach(a, "x", members[a.Addr()+"/x"]); err != nil {
		t.Fatal(err)
	}
	if installs[a] != 2 {
		t.Fatalf("installs on a after re-attaching: %d, want 2", installs[a])
	}
	if got, err := whois(a, "x"); err != nil || got != a.Addr()+"/x" {
		t.Fatalf("whois a/x re-attached: %q, %v", got, err)
	}
}
