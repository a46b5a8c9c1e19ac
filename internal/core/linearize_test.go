package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/raft"
	"mochi/internal/sim"
	"mochi/internal/yokan"
)

// The linearizability harness: concurrent clients hammer a 3-member
// RaftKV group over a two-key register space while a seeded fault
// schedule injects message loss, a partition around a randomly chosen
// member (half the time the leader, forcing churn), and a follower
// crash-restart. Every operation is recorded as a timed sim.Op; the
// Wing–Gong checker in internal/sim then decides whether the observed
// history is linearizable.
//
// Raft members run real goroutines, so raft histories are not
// bit-identical replays like the SWIM simulation — the seed fixes the
// fault schedule and the client op mix, which is what makes a failure
// reproducible enough to debug. Failing runs print a SIM_SEED replay
// line plus the minimal non-linearizable window.
//
// This harness is what motivated client-session dedup in the KV FSM
// (kvCommand.CID/Seq): under sustained loss a reply is sometimes
// dropped after the command applied, the retry re-proposes the same
// command, and without dedup the duplicate apply resurrects a stale
// value over interleaving writes. TestKVFSMDeduplicatesRetries
// demonstrates the anomaly deterministically at the FSM level.

// linKeys is the shared register space. Two keys keeps every per-key
// sub-history dense enough that anomalies interleave, while the
// checker's per-key partitioning keeps the search small.
var linKeys = []string{"a", "b"}

// kvHistory drives one seeded history and returns the recorded ops.
func kvHistory(t *testing.T, seed int64, opsPerClient int) []sim.Op {
	t.Helper()
	r := newChaosRig(t, "lin", 3, chaosResilienceJSON)

	const nClients = 3
	clients := make([]*RaftKVClient, nClients)
	for ci := 0; ci < nClients; ci++ {
		cls, err := r.f.NewClass(fmt.Sprintf("lin-cli%d", ci))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, []byte(chaosResilienceJSON))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		clients[ci] = NewRaftKVClient(inst, "lin", r.addrs)
	}
	// Every client's gets are ReadIndex reads, so the checker
	// re-verifies that protocol under loss, partitions, leader churn,
	// and crash-restarts on every seed.

	// Warm-up: make sure the group has a leader before faults start.
	if !r.put("warm", "up", 10*time.Second) {
		t.Fatal("group never became available")
	}

	epoch := time.Now()
	ts := func() int64 { return time.Since(epoch).Nanoseconds() }

	histories := make([][]sim.Op, nClients)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		ci := ci
		rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			kv := clients[ci]
			for i := 0; i < opsPerClient; i++ {
				key := linKeys[rng.Intn(len(linKeys))]
				p := rng.Float64()
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				call := ts()
				switch {
				case p < 0.50: // put, unique value per (client, op)
					val := fmt.Sprintf("c%d-%d", ci, i)
					err := kv.Put(ctx, []byte(key), []byte(val))
					in := sim.KVInput{Op: sim.KVPut, Key: key, Value: val}
					if err == nil {
						histories[ci] = append(histories[ci], sim.Op{
							Client: ci, Input: in, Output: sim.KVOutput{},
							Call: call, Return: ts(),
						})
					} else {
						// The write may still commit after the deadline:
						// ambiguous, concurrent with everything after.
						histories[ci] = append(histories[ci], sim.Op{
							Client: ci, Input: in, Output: sim.Unobserved,
							Call: call, Return: sim.PendingReturn, Maybe: true,
						})
					}
				case p < 0.85: // get
					v, err := kv.Get(ctx, []byte(key))
					in := sim.KVInput{Op: sim.KVGet, Key: key}
					switch err {
					case nil:
						histories[ci] = append(histories[ci], sim.Op{
							Client: ci, Input: in,
							Output: sim.KVOutput{Value: string(v), Found: true},
							Call:   call, Return: ts(),
						})
					case yokan.ErrKeyNotFound:
						histories[ci] = append(histories[ci], sim.Op{
							Client: ci, Input: in, Output: sim.KVOutput{},
							Call: call, Return: ts(),
						})
					default:
						// A failed read observed nothing: drop it.
					}
				default: // erase
					err := kv.Erase(ctx, []byte(key))
					in := sim.KVInput{Op: sim.KVErase, Key: key}
					switch err {
					case nil:
						histories[ci] = append(histories[ci], sim.Op{
							Client: ci, Input: in, Output: sim.KVOutput{Found: true},
							Call: call, Return: ts(),
						})
					case yokan.ErrKeyNotFound:
						histories[ci] = append(histories[ci], sim.Op{
							Client: ci, Input: in, Output: sim.KVOutput{Found: false},
							Call: call, Return: ts(),
						})
					default:
						histories[ci] = append(histories[ci], sim.Op{
							Client: ci, Input: in, Output: sim.Unobserved,
							Call: call, Return: sim.PendingReturn, Maybe: true,
						})
					}
				}
				cancel()
				time.Sleep(time.Duration(rng.Intn(15)) * time.Millisecond)
			}
		}()
	}

	// Fault schedule, on the test goroutine (t.Fatal must not run on a
	// worker). Phase choices derive from the seed.
	frng := rand.New(rand.NewSource(seed ^ 0x6661756c74)) // "fault"
	time.Sleep(100 * time.Millisecond)

	// Phase 1 — loss: nearly half of all messages (requests and
	// replies alike) vanish, long enough for reply-loss retries.
	r.f.SetDropRate(0.45)
	time.Sleep(400 * time.Millisecond)
	r.f.SetDropRate(0)

	// Phase 2 — partition: isolate one member. Half the time it is the
	// current leader, forcing an election on the majority side.
	var iso string
	if frng.Intn(2) == 0 {
		for addr, m := range r.members {
			if m.node != nil && m.node.IsLeader() {
				iso = addr
				break
			}
		}
	}
	if iso == "" {
		iso = r.follower()
	}
	r.f.Partition([]string{iso})
	time.Sleep(300 * time.Millisecond)
	r.f.Heal()

	// Phase 3 — crash-restart: a follower process dies and later comes
	// back from its persisted store.
	victim := r.follower()
	r.crash(victim)
	time.Sleep(250 * time.Millisecond)
	r.restart(victim, chaosResilienceJSON)

	wg.Wait()
	var ops []sim.Op
	for _, h := range histories {
		ops = append(ops, h...)
	}
	return ops
}

// simHistories returns how many seeded histories to run: SIM_SEED pins
// a single seed (the replay path), SIM_HISTORIES sets the count (the
// CI sim job runs 100+).
func simHistories(t *testing.T, def int) []int64 {
	if v := os.Getenv("SIM_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad SIM_SEED %q: %v", v, err)
		}
		return []int64{s}
	}
	n := def
	if v := os.Getenv("SIM_HISTORIES"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad SIM_HISTORIES %q: %v", v, err)
		}
		n = p
	}
	if testing.Short() && n > 1 {
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestRaftKVLinearizableUnderFaults records seeded histories under the
// loss/partition/crash schedule and checks each one. Every fault phase
// produces some failed ops, so the Maybe/Unobserved paths of the
// checker are exercised on every run.
func TestRaftKVLinearizableUnderFaults(t *testing.T) {
	for _, seed := range simHistories(t, 3) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			ops := kvHistory(t, seed, 10)
			completed := 0
			for _, op := range ops {
				if !op.Maybe {
					completed++
				}
			}
			t.Logf("history: %d ops (%d completed, %d ambiguous)",
				len(ops), completed, len(ops)-completed)
			if completed < 5 {
				t.Fatalf("only %d ops completed — the faults starved the history", completed)
			}
			res := sim.Check(sim.KVModel(), ops)
			if !res.Ok {
				t.Logf("replay: SIM_SEED=%d go test -run %s ./internal/core/", seed, "TestRaftKVLinearizableUnderFaults")
				t.Fatalf("history is not linearizable; minimal bad window:\n%s", sim.FormatOps(res.Bad))
			}
		})
	}
}

// TestKVFSMDeduplicatesRetries is the deterministic core of the
// duplicate-apply story: a command delivered twice (reply lost, client
// retried) with an interleaving write in between. Without session
// dedup the second apply resurrects the stale value — the exact
// anomaly the linearizability checker flags on recorded histories.
func TestKVFSMDeduplicatesRetries(t *testing.T) {
	db, _ := yokan.Open(yokan.Config{Type: "map"})
	f := &kvFSM{db: db}
	apply := func(cid string, seq uint64, op uint8, val string) kvResult {
		cmd := kvCommand{Op: op, CID: cid, Seq: seq, Key: []byte("k"), Value: []byte(val)}
		var res kvResult
		if err := codec.Unmarshal(f.Apply(1, codec.Marshal(&cmd)), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	apply("A", 1, kvOpPut, "v1")
	apply("B", 1, kvOpPut, "v2")
	apply("A", 1, kvOpPut, "v1") // duplicate delivery of A's put
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("duplicate apply resurrected a stale value: k=%q, %v (want v2)", v, err)
	}
	// The duplicate's reply is the cached first-apply result, not a
	// fresh execution: a duplicated Erase answers as of its original
	// linearization point (found), and does not erase again.
	if res := apply("B", 2, kvOpErase, ""); res.Status != 0 {
		t.Fatalf("erase status = %d, want 0 (found)", res.Status)
	}
	apply("A", 2, kvOpPut, "v3")
	if res := apply("B", 2, kvOpErase, ""); res.Status != 0 {
		t.Fatalf("duplicate erase re-executed: status %d, want the cached 0", res.Status)
	}
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v3" {
		t.Fatalf("duplicate erase removed a newer value: k=%q, %v (want v3)", v, err)
	}
	// Sessions survive snapshot/restore: a replica rebuilt from a
	// snapshot must still recognize duplicates of covered commands.
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	db2, _ := yokan.Open(yokan.Config{Type: "map"})
	f2 := &kvFSM{db: db2}
	if err := f2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	cmd := kvCommand{Op: kvOpPut, CID: "A", Seq: 2, Key: []byte("k"), Value: []byte("v3")}
	f2.Apply(2, codec.Marshal(&cmd)) // duplicate of A's last put
	if v, err := db2.Get([]byte("k")); err != nil || string(v) != "v3" {
		t.Fatalf("restored replica mishandled duplicate: k=%q, %v (want v3)", v, err)
	}
}

// TestKVFSMUnknownOpIsADeterministicError: a log written when gets
// could still travel through the log may hold kvOpGet entries, and a
// log written by a newer binary may hold ops this one has never heard
// of. Applying either must answer status 2 — the same bytes on every
// replica and on every replay — leave the database untouched, and keep
// the session table in step (the entry still consumed its Seq).
func TestKVFSMUnknownOpIsADeterministicError(t *testing.T) {
	// Hand-encoded, so the test pins the wire numbers: op 2 is the
	// reserved kvOpGet, op 9 has never existed.
	encode := func(op uint8, cid string, seq uint64) []byte {
		e := codec.NewEncoder(nil)
		e.Uint8(op)
		e.String(cid)
		e.Uvarint(seq)
		e.BytesField([]byte("k"))
		e.BytesField(nil)
		return e.Bytes()
	}
	if kvOpPut != 0 || kvOpErase != 1 || kvOpGet != 2 {
		t.Fatalf("log op numbers moved: put=%d erase=%d get=%d", kvOpPut, kvOpErase, kvOpGet)
	}
	replicas := make([]*kvFSM, 2)
	for i := range replicas {
		db, _ := yokan.Open(yokan.Config{Type: "map"})
		replicas[i] = &kvFSM{db: db}
		put := kvCommand{Op: kvOpPut, CID: "A", Seq: 1, Key: []byte("k"), Value: []byte("v1")}
		replicas[i].Apply(1, codec.Marshal(&put))
	}
	for _, op := range []uint8{2, 9} {
		var first []byte
		for i, f := range replicas {
			entry := encode(op, "B", uint64(op))
			out := f.Apply(2, entry)
			var res kvResult
			if err := codec.Unmarshal(out, &res); err != nil {
				t.Fatal(err)
			}
			if res.Status != 2 || res.Err == "" || len(res.Value) != 0 {
				t.Fatalf("op %d on replica %d: result %+v, want status 2 with a message and no value", op, i, res)
			}
			if again := f.Apply(2, entry); !bytes.Equal(again, out) {
				t.Fatalf("op %d replayed on replica %d: %x then %x", op, i, out, again)
			}
			if i == 0 {
				first = out
			} else if !bytes.Equal(first, out) {
				t.Fatalf("op %d: replicas diverge: %x vs %x", op, first, out)
			}
			if v, err := f.db.Get([]byte("k")); err != nil || string(v) != "v1" {
				t.Fatalf("op %d changed the database: k=%q, %v", op, v, err)
			}
		}
	}
	// ApplyBatch takes the same path.
	outs := replicas[0].ApplyBatch([]raft.Command{{Index: 3, Data: encode(2, "C", 1)}})
	var res kvResult
	if err := codec.Unmarshal(outs[0], &res); err != nil || res.Status != 2 {
		t.Fatalf("batched kvOpGet entry: %+v, %v", res, err)
	}
	// Snapshots of the two replicas stay byte-identical.
	a, _ := replicas[0].Snapshot()
	replicas[1].Apply(3, encode(2, "C", 1))
	b, _ := replicas[1].Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("replicas' snapshots diverge after applying unknown ops")
	}
}

// ackDroppingDB is the deliberately broken store: every dropEvery-th
// Put is acknowledged but silently discarded. Installed on every
// replica it stays internally consistent — replicas converge, the
// chaos soak's lost-write check passes — yet reads return stale
// values. Only the linearizability checker sees it.
type ackDroppingDB struct {
	yokan.Database
	puts      int
	dropEvery int
}

func (d *ackDroppingDB) Put(key, value []byte) error {
	d.puts++
	if d.puts%d.dropEvery == 0 {
		return nil // ack without storing
	}
	return d.Database.Put(key, value)
}

// TestLinearizabilityCheckerCatchesBrokenStore proves the harness can
// fail: a store that drops acknowledged writes produces a history the
// checker must reject, even from a single sequential client on a
// healthy network.
func TestLinearizabilityCheckerCatchesBrokenStore(t *testing.T) {
	f := mercury.NewFabric()
	var addrs []string
	var insts []*margo.Instance
	for i := 0; i < 3; i++ {
		cls, err := f.NewClass(fmt.Sprintf("brok-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		insts = append(insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	// Every replica drops the same applies (commands apply in log
	// order), so replica-convergence checks cannot catch this.
	for _, inst := range insts {
		db, _ := yokan.Open(yokan.Config{Type: "map"})
		broken := &ackDroppingDB{Database: db, dropEvery: 2}
		node, err := NewRaftKVNode(inst, "brok", addrs, raft.NewMemoryStore(), broken, chaosRaftCfg())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
	}
	ccls, err := f.NewClass("brok-client")
	if err != nil {
		t.Fatal(err)
	}
	cinst, err := margo.New(ccls, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cinst.Finalize)
	kv := NewRaftKVClient(cinst, "brok", addrs)

	epoch := time.Now()
	ts := func() int64 { return time.Since(epoch).Nanoseconds() }
	var ops []sim.Op
	ctx := sctx(t)
	for i := 0; i < 6; i++ {
		val := fmt.Sprintf("v%d", i)
		call := ts()
		if err := kv.Put(ctx, []byte("k"), []byte(val)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		ops = append(ops, sim.Op{
			Client: 0, Input: sim.KVInput{Op: sim.KVPut, Key: "k", Value: val},
			Output: sim.KVOutput{}, Call: call, Return: ts(),
		})
		call = ts()
		v, err := kv.Get(ctx, []byte("k"))
		out := sim.KVOutput{}
		if err == nil {
			out = sim.KVOutput{Value: string(v), Found: true}
		} else if err != yokan.ErrKeyNotFound {
			t.Fatalf("get %d: %v", i, err)
		}
		ops = append(ops, sim.Op{
			Client: 0, Input: sim.KVInput{Op: sim.KVGet, Key: "k"},
			Output: out, Call: call, Return: ts(),
		})
	}
	res := sim.Check(sim.KVModel(), ops)
	if res.Ok {
		t.Fatal("checker accepted a history from a store that drops acknowledged writes")
	}
	if len(res.Bad) == 0 {
		t.Fatal("violation reported without a bad window")
	}
	t.Logf("checker correctly rejected the broken store; bad window:\n%s", sim.FormatOps(res.Bad))
}

// TestBrokenReadIndexStaleReadsRejected proves the checker guards the
// ReadIndex protocol itself, in two halves. The positive half: a
// deposed leader that has not heard about the new term must refuse a
// real Node.Read — its leadership-confirmation round cannot reach a
// quorum — while the majority serves the new value. The negative half
// is the protocol's broken twin, built here in the test rather than as
// a switch in raft: a "leader" that skips the confirmation round
// answers from its local state machine, which is exactly a direct read
// of the deposed leader's database. The recorded history — put v1,
// read v1, put v2 (new leader), read v2, read v1 (old leader's state)
// — is sequential, so only the linearizability checker can reject it.
func TestBrokenReadIndexStaleReadsRejected(t *testing.T) {
	f := mercury.NewFabric()
	var addrs []string
	nodes := map[string]*raft.Node{}
	dbs := map[string]yokan.Database{}
	var insts []*margo.Instance
	for i := 0; i < 3; i++ {
		cls, err := f.NewClass(fmt.Sprintf("stale-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		insts = append(insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	for _, inst := range insts {
		db, _ := yokan.Open(yokan.Config{Type: "map"})
		node, err := NewRaftKVNode(inst, "stale", addrs, raft.NewMemoryStore(), db, chaosRaftCfg())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[inst.Addr()] = node
		dbs[inst.Addr()] = db
	}
	newClient := func(name string, seeds []string) *RaftKVClient {
		cls, err := f.NewClass(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		return NewRaftKVClient(inst, "stale", seeds)
	}
	client := newClient("stale-client", addrs)

	ctx := sctx(t)
	epoch := time.Now()
	ts := func() int64 { return time.Since(epoch).Nanoseconds() }
	var ops []sim.Op
	record := func(in sim.KVInput, out sim.KVOutput, call int64) {
		ops = append(ops, sim.Op{Client: 0, Input: in, Output: out, Call: call, Return: ts()})
	}
	put := func(kv *RaftKVClient, val string) {
		t.Helper()
		call := ts()
		if err := kv.Put(ctx, []byte("k"), []byte(val)); err != nil {
			t.Fatal(err)
		}
		record(sim.KVInput{Op: sim.KVPut, Key: "k", Value: val}, sim.KVOutput{}, call)
	}
	get := func(kv *RaftKVClient, want string) {
		t.Helper()
		call := ts()
		v, err := kv.Get(ctx, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		record(sim.KVInput{Op: sim.KVGet, Key: "k"}, sim.KVOutput{Value: string(v), Found: true}, call)
		if string(v) != want {
			t.Fatalf("get = %q, want %q", v, want)
		}
	}

	put(client, "v1")
	get(client, "v1")

	var oldLeader string
	if !pollUntil(2000, 5*time.Millisecond, func() bool {
		for addr, n := range nodes {
			if n.IsLeader() {
				oldLeader = addr
				return true
			}
		}
		return false
	}) {
		t.Fatal("no leader")
	}
	// A post-partition client seeded with the majority only: a forward
	// into the partition is silently dropped (it would burn the whole
	// op deadline), so it must never address the old leader.
	var majorityAddrs []string
	for _, a := range addrs {
		if a != oldLeader {
			majorityAddrs = append(majorityAddrs, a)
		}
	}
	majority := newClient("stale-majority", majorityAddrs)

	// Isolate the leader; the majority elects a new one and accepts a
	// write the old leader never sees.
	f.Partition([]string{oldLeader})
	if !pollUntil(4000, 5*time.Millisecond, func() bool {
		for addr, n := range nodes {
			if addr != oldLeader && n.IsLeader() {
				return true
			}
		}
		return false
	}) {
		t.Fatal("majority never elected a new leader")
	}
	put(majority, "v2")
	get(majority, "v2")

	// Positive half: the real read path on the deposed leader refuses
	// within one op deadline. It may still believe it leads — nothing
	// told it otherwise — and that is exactly when the confirmation
	// round has to stop it.
	query := codec.Marshal(&kvCommand{Op: kvOpGet, Key: []byte("k")})
	rctx, cancel := context.WithTimeout(ctx, time.Second)
	out, err := nodes[oldLeader].Read(rctx, query)
	cancel()
	if err == nil {
		t.Fatalf("deposed leader served a ReadIndex read: %x", out)
	}
	if !errors.Is(err, raft.ErrTimeout) && !errors.Is(err, raft.ErrNotLeader) && !errors.Is(err, raft.ErrNoLeader) {
		t.Fatalf("deposed leader refused with %v, want a timeout or a not-leader error", err)
	}
	t.Logf("deposed leader (IsLeader=%v) refused the read: %v", nodes[oldLeader].IsLeader(), err)

	// Negative half, the broken twin: answer from the deposed leader's
	// local state without confirming leadership.
	call := ts()
	v, err := dbs[oldLeader].Get([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	record(sim.KVInput{Op: sim.KVGet, Key: "k"}, sim.KVOutput{Value: string(v), Found: true}, call)
	if string(v) != "v1" {
		t.Fatalf("expected the stale v1 in the deposed leader's state machine, got %q", v)
	}

	res := sim.Check(sim.KVModel(), ops)
	if res.Ok {
		t.Fatal("checker accepted a stale read served without quorum confirmation")
	}
	if len(res.Bad) == 0 {
		t.Fatal("violation reported without a bad window")
	}
	t.Logf("checker correctly rejected the broken ReadIndex; bad window:\n%s", sim.FormatOps(res.Bad))
}
