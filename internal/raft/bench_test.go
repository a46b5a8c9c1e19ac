package raft

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
)

func benchCluster(b *testing.B, n int) (*Node, func()) {
	b.Helper()
	f := mercury.NewFabric()
	var insts []*margo.Instance
	var addrs []string
	for i := 0; i < n; i++ {
		cls, err := f.NewClass(fmt.Sprintf("bench-raft-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts = append(insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	cfg := Config{
		ElectionTimeoutMin: 50 * time.Millisecond,
		ElectionTimeoutMax: 100 * time.Millisecond,
		HeartbeatInterval:  15 * time.Millisecond,
	}
	var nodes []*Node
	for _, inst := range insts {
		node, err := NewNode(inst, "bench", addrs, NewMemoryStore(), newKVFSM(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	var leader *Node
	await(b, "a leader", nodes, func() bool {
		leader = leaderAmong(nodes, len(nodes))
		return leader != nil
	})
	return leader, func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, inst := range insts {
			inst.Finalize()
		}
	}
}

func BenchmarkRaftApply3(b *testing.B) {
	leader, cleanup := benchCluster(b, 3)
	defer cleanup()
	ctx := context.Background()
	cmd := []byte("set bench value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leader.Apply(ctx, cmd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRaftRead3(b *testing.B) {
	leader, cleanup := benchCluster(b, 3)
	defer cleanup()
	ctx := context.Background()
	if _, err := leader.Apply(ctx, []byte("set bench value")); err != nil {
		b.Fatal(err)
	}
	query := []byte("get bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leader.Read(ctx, query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoryStoreAppend(b *testing.B) {
	s := NewMemoryStore()
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append([]LogEntry{{Index: uint64(i + 1), Term: 1, Data: data}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileStoreAppend(b *testing.B) {
	s, err := NewFileStore(b.TempDir(), true)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append([]LogEntry{{Index: uint64(i + 1), Term: 1, Data: data}}); err != nil {
			b.Fatal(err)
		}
	}
}
