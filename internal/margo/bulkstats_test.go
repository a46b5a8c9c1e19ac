package margo

import (
	"context"
	"testing"

	"mochi/internal/mercury"
)

// TestMonitorCapturesBulkTransfers: §4 says the monitor sees "all the
// RDMA operations being carried out"; bulk pulls and pushes must land
// in the statistics.
func TestMonitorCapturesBulkTransfers(t *testing.T) {
	f := mercury.NewFabric()
	a := newInstance(t, f, "bulk-a", "")
	b := newInstance(t, f, "bulk-b", "")

	remote := b.Class().CreateBulk(make([]byte, 4096), mercury.BulkReadWrite)
	local := a.Class().CreateBulk(make([]byte, 4096), mercury.BulkReadWrite)
	ctx := context.Background()
	if err := a.Class().BulkTransfer(ctx, mercury.BulkPull, remote.Descriptor(), 0, local, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := a.Class().BulkTransfer(ctx, mercury.BulkPush, remote.Descriptor(), 0, local, 0, 1024); err != nil {
		t.Fatal(err)
	}
	stats := a.Stats()
	bs, ok := stats.Bulk[b.Addr()]
	if !ok {
		t.Fatalf("no bulk stats for peer: %+v", stats.Bulk)
	}
	if bs.Pulls != 1 || bs.BytesIn != 4096 || bs.Pushes != 1 || bs.BytesOut != 1024 {
		t.Fatalf("bulk stats = %+v", bs)
	}
}
