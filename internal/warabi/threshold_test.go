package warabi

import (
	"bytes"
	"sync/atomic"
	"testing"

	"mochi/internal/mercury"
)

// bulkCounter counts bulk operations so tests can assert which I/O
// path (eager RPC vs bulk transfer) a request took.
type bulkCounter struct {
	bulks atomic.Int64
}

func (m *bulkCounter) BulkTransferred(mercury.BulkOp, string, int) { m.bulks.Add(1) }

// TestEagerBulkThreshold: writes and reads at the threshold stay on
// the eager path; one byte over switches to the bulk path — the
// Mercury eager/rendezvous split the cost model reasons about.
func TestEagerBulkThreshold(t *testing.T) {
	env := newRemoteEnv(t, Config{Type: "memory"})
	counter := &bulkCounter{}
	env.server.Class().SetMonitor(counter)
	ctx := rctx(t)

	id, err := env.h.Create(ctx, 2*EagerThreshold+2)
	if err != nil {
		t.Fatal(err)
	}

	atLimit := bytes.Repeat([]byte{7}, EagerThreshold)
	if err := env.h.Write(ctx, id, 0, atLimit); err != nil {
		t.Fatal(err)
	}
	if got, err := env.h.Read(ctx, id, 0, EagerThreshold); err != nil || !bytes.Equal(got, atLimit) {
		t.Fatalf("eager read: %v", err)
	}
	if n := counter.bulks.Load(); n != 0 {
		t.Fatalf("threshold-sized I/O used %d bulk ops", n)
	}

	overLimit := bytes.Repeat([]byte{9}, EagerThreshold+1)
	if err := env.h.Write(ctx, id, 0, overLimit); err != nil {
		t.Fatal(err)
	}
	if n := counter.bulks.Load(); n != 1 {
		t.Fatalf("over-threshold write used %d bulk ops, want 1", n)
	}
	got, err := env.h.Read(ctx, id, 0, EagerThreshold+1)
	if err != nil || !bytes.Equal(got, overLimit) {
		t.Fatalf("bulk read: %v", err)
	}
	if n := counter.bulks.Load(); n != 2 {
		t.Fatalf("over-threshold read used %d bulk ops, want 2", n)
	}
}
