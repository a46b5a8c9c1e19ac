package router

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"mochi/internal/codec"
	"mochi/internal/remi"
	"mochi/internal/trace"
	"mochi/internal/yokan"
)

// snapshotClass is the REMI migration class of shard snapshots.
const snapshotClass = "xkv-shard"

const (
	metaShard = "xkv_shard"
	metaMig   = "xkv_mig"
)

// testHookDualWindow, when non-nil, runs after the snapshot has been
// migrated and before the flip. Tests use it to hold the logged window
// open long enough for concurrent traffic to cross it — on a small
// database the window is otherwise a few microseconds wide.
var testHookDualWindow func()

// Reshard moves one shard this node owns to dst, under live traffic,
// without losing an acked write. The protocol (DESIGN.md §9):
//
//  1. claim: the shard's log starts, which also refuses a second move
//     of the shard until this one ends. From here every write to the
//     shard keeps applying locally (the source stays authoritative and
//     acks on its own) and is appended, in apply order, to the log.
//  2. snapshot: the shard is encoded into one buffer, without holding
//     any lock across it (cutSnapshot), and REMI-migrated from that
//     buffer to dst's REMI provider (dst.Provider+1), stamped with this
//     attempt's random migration ID. Its arrival opens dst's staging
//     database for the shard and merges the snapshot into it.
//  3. flip: under the shard's write lock (which drains in-flight
//     operations — this is the drain window), the source sends the log
//     and the new map to dst (promote), which replays the log on top of
//     the snapshot and commits; the source then marks the local shard
//     dropped, and only then publishes the map locally.
//     Destination before source: at every instant some node serves
//     the shard, and a redirect chain of length ≤ 2 lands on it. The
//     new map bumps only this shard's version, so it merges with the
//     maps of flips of other shards in any order.
//  4. gossip: the new map goes to every other owner.
//
// Any failure before the flip commits aborts: dst drops the staging
// area and the source stops logging. Nothing is lost — the source
// applied every acked write locally throughout, and no late arrival of
// the snapshot outlives the abort (DESIGN.md §9).
//
// Reshard blocks for the whole flip and waits on dst's migration
// xstream: call it from a goroutine, never from a ULT.
func (n *Node) Reshard(ctx context.Context, shardID uint32, dst Owner) error {
	m := n.cur.Load()
	if m == nil {
		return fmt.Errorf("router: node has no shard map")
	}
	if int(shardID) >= len(m.Owners) {
		return fmt.Errorf("router: shard %d out of range", shardID)
	}
	self := n.Self()
	if m.Owners[shardID] != self {
		return fmt.Errorf("router: shard %d owned by %s, not this node", shardID, m.Owners[shardID])
	}
	if dst == self {
		return fmt.Errorf("router: destination is the current owner")
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("router: node closed")
	}
	sh := n.shards[shardID]
	n.mu.Unlock()
	if sh == nil {
		return fmt.Errorf("router: shard %d not resident", shardID)
	}

	// 1. claim. The ID is random, so no attempt — not even one of a
	// source restarted at the same address — reuses another's staging
	// area.
	sh.mu.Lock()
	if sh.dropped || sh.log != nil {
		sh.mu.Unlock()
		return fmt.Errorf("router: shard %d already migrating", shardID)
	}
	sh.log = codec.NewEncoder(nil)
	sh.mu.Unlock()
	mig := rand.Uint64()
	fail := func(stage string, err error) error {
		sh.mu.Lock()
		sh.log = nil
		sh.mu.Unlock()
		n.abortRemote(dst, shardID, mig)
		return fmt.Errorf("router: %s: %w", stage, err)
	}

	// 2. snapshot and REMI-migrate. The snapshot is cut after the log
	// started, so every write it misses is in the log. It never touches
	// disk on either side: the buffer it is encoded into is the region
	// dst pulls.
	_, sp := n.phase(ctx, "snapshot")
	snap, err := cutSnapshot(sh.db, n.takeSnapBuf())
	sp.End(n.inst.Clock().Now(), err != nil)
	if err != nil {
		return fail("snapshot", err)
	}
	fs := &remi.FileSet{Class: snapshotClass, Metadata: map[string]string{
		metaShard: strconv.FormatUint(uint64(shardID), 10),
		metaMig:   strconv.FormatUint(mig, 10),
	}}
	fs.AddBytes("shard.snap", snap)
	tctx, sp := n.phase(ctx, "transfer")
	_, err = n.remiC.Migrate(tctx, dst.Addr, dst.Provider+1, fs, remi.Options{})
	sp.End(n.inst.Clock().Now(), err != nil)
	// Migrate has deregistered the region, which waits out any reader
	// still sending from it: the buffer is free for the next flip.
	n.putSnapBuf(snap)
	if err != nil {
		return fail("remi migrate", err)
	}
	if testHookDualWindow != nil {
		testHookDualWindow()
	}

	// 3. flip. The write lock drains in-flight operations (each holds
	// the read lock across its apply and its append) and blocks new
	// ones for the promote round-trip, so the log is complete when it
	// leaves and no write can slip between "dst committed" and "src
	// stopped".
	newMap := n.cur.Load().WithOwner(shardID, dst)
	sh.mu.Lock()
	var pr statusReply
	pctx, sp := n.phase(ctx, "promote")
	perr := n.inst.Call(pctx, dst.Addr, RPCMigratePromote, dst.Provider, &promoteArgs{Shard: shardID, MigID: mig, Map: EncodeMap(newMap), Log: sh.log.Bytes()}, &pr)
	if perr == nil && pr.Status != statusOK {
		perr = fmt.Errorf("%s", pr.Err)
	}
	sp.End(n.inst.Clock().Now(), perr != nil)
	sh.log = nil
	if perr != nil {
		sh.mu.Unlock()
		n.abortRemote(dst, shardID, mig)
		return fmt.Errorf("router: promote: %w", perr)
	}
	sh.dropped = true
	sh.mu.Unlock()

	n.mu.Lock()
	delete(n.shards, shardID)
	n.mu.Unlock()
	mergeInto(&n.cur, newMap)
	sh.db.Destroy()
	n.reshards.Add(1)

	// 4. gossip the new map: best effort, bounded — anyone missed
	// learns it through a redirect.
	n.disseminate(ctx, newMap)
	return nil
}

// cutSnapshot encodes every pair of db into buf as a log of puts and
// returns the encoded bytes. It holds no lock across the cut
// (yokan.Scan): no operation on the shard ever waits for more than one
// bounded step of it. The result is not a point-in-time image — it
// need not be, because the log has already started: every write the
// cut races is in the log, which the destination replays after the
// snapshot, so whatever version of a key the cut saw (or missed), the
// key ends at its last logged state.
func cutSnapshot(db yokan.Database, buf []byte) ([]byte, error) {
	e := codec.NewEncoder(buf)
	err := yokan.Scan(db, func(key, value []byte) { logPut(e, key, value) })
	return e.Bytes(), err
}

func (n *Node) takeSnapBuf() []byte {
	n.mu.Lock()
	buf := n.snapBuf
	n.snapBuf = nil
	n.mu.Unlock()
	return buf
}

func (n *Node) putSnapBuf(buf []byte) {
	n.mu.Lock()
	if cap(buf) > cap(n.snapBuf) {
		n.snapBuf = buf[:0]
	}
	n.mu.Unlock()
}

// phase opens a child span of ctx's trace named name: one of the flip's
// phases (snapshot, transfer, promote on the source; merge on the
// destination). The RPCs issued under the returned context nest below
// it as Live.Nest says; an unsampled phase allocates nothing.
func (n *Node) phase(ctx context.Context, name string) (context.Context, trace.Live) {
	sc, _ := trace.FromContext(ctx)
	sp := n.inst.Tracer().Start(sc, name, trace.KindPhase, n.inst.Clock().Now())
	return sp.Nest(ctx), sp
}

// abortRemote tears down the staging area at dst, best effort.
func (n *Node) abortRemote(dst Owner, shardID uint32, mig uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var r statusReply
	_ = n.inst.Call(ctx, dst.Addr, RPCMigrateAbort, dst.Provider, &abortArgs{Shard: shardID, MigID: mig}, &r)
}

// disseminate pushes a freshly committed map to every other distinct
// owner in it, which merges it into its own. The destination already
// merged the map during promote, but a duplicate merge is a no-op.
func (n *Node) disseminate(ctx context.Context, m *Map) {
	self := n.Self()
	targets := map[Owner]bool{}
	for _, o := range m.Owners {
		if o != self {
			targets[o] = true
		}
	}
	enc := EncodeMap(m)
	for o := range targets {
		ictx, cancel := context.WithTimeout(ctx, 2*time.Second)
		var r statusReply
		_ = n.inst.Call(ictx, o.Addr, RPCInstallMap, o.Provider, &installArgs{Map: enc}, &r)
		cancel()
	}
}

// parseSnapshotMeta extracts the shard and migration IDs a REMI
// snapshot fileset was stamped with.
func parseSnapshotMeta(meta map[string]string) (shardID uint32, migID uint64, err error) {
	if meta == nil {
		return 0, 0, fmt.Errorf("router: snapshot without metadata")
	}
	var s, m uint64
	if _, err := fmt.Sscanf(meta[metaShard], "%d", &s); err != nil {
		return 0, 0, fmt.Errorf("router: bad shard metadata %q", meta[metaShard])
	}
	if _, err := fmt.Sscanf(meta[metaMig], "%d", &m); err != nil {
		return 0, 0, fmt.Errorf("router: bad migration metadata %q", meta[metaMig])
	}
	return uint32(s), m, nil
}
