package mercury

import (
	"context"
	"fmt"
	"sync"

	"mochi/internal/codec"
)

// BulkAccess controls what remote peers may do with an exposed region.
type BulkAccess uint8

const (
	// BulkReadOnly allows remote pulls.
	BulkReadOnly BulkAccess = 1 << iota
	// BulkWriteOnly allows remote pushes.
	BulkWriteOnly
	// BulkReadWrite allows both.
	BulkReadWrite BulkAccess = BulkReadOnly | BulkWriteOnly
)

// BulkOp selects the direction of a bulk transfer, from the
// initiator's point of view.
type BulkOp uint8

const (
	// BulkPull copies remote memory into local memory (like
	// HG_BULK_PULL: the initiator reads).
	BulkPull BulkOp = iota
	// BulkPush copies local memory into remote memory.
	BulkPush
)

func (op BulkOp) String() string {
	if op == BulkPull {
		return "pull"
	}
	return "push"
}

// Bulk is a locally registered memory region that remote peers can
// access via its descriptor, standing in for an RDMA-registered buffer.
type Bulk struct {
	class  *Class
	id     uint64
	mem    []byte
	access BulkAccess
	// busy is held for read by every remote access to mem while it
	// copies (or the transport gathers) and for write, once, by Free.
	busy sync.RWMutex
}

// BulkDescriptor names a remote bulk region; it is what travels inside
// RPC argument payloads (like a serialized hg_bulk_t).
type BulkDescriptor struct {
	Addr   string
	ID     uint64
	Size   uint64
	Access uint8
}

// Proc implements codec.Message.
func (b *BulkDescriptor) Proc(p *codec.Proc) {
	p.String(&b.Addr)
	p.Uint64(&b.ID)
	p.Uint64(&b.Size)
	p.Uint8(&b.Access)
}

// CreateBulk registers mem for remote access and returns the handle.
// The memory is shared, not copied: remote pulls observe later writes.
func (c *Class) CreateBulk(mem []byte, access BulkAccess) *Bulk {
	b := &Bulk{
		class:  c,
		id:     c.bulkSeq.Add(1),
		mem:    mem,
		access: access,
	}
	c.bulkMu.Lock()
	c.bulks[b.id] = b
	c.bulkMu.Unlock()
	return b
}

// Descriptor returns the serializable name of this region.
func (b *Bulk) Descriptor() BulkDescriptor {
	return BulkDescriptor{
		Addr:   b.class.Addr(),
		ID:     b.id,
		Size:   uint64(len(b.mem)),
		Access: uint8(b.access),
	}
}

// Size returns the region length in bytes.
func (b *Bulk) Size() int { return len(b.mem) }

// Free deregisters the region. Remote transfers that arrive afterwards
// fail with ErrBadBulk, as with real RDMA deregistration; one already
// reading or writing the memory is waited out, so when Free returns
// the memory is the caller's alone again — the transport sends large
// regions straight from it, without a private copy.
func (b *Bulk) Free() {
	b.class.bulkMu.Lock()
	delete(b.class.bulks, b.id)
	b.class.bulkMu.Unlock()
	b.busy.Lock() // barrier: wait out the readers, admit no new ones
	//lint:ignore SA2001 the empty critical section is the barrier
	b.busy.Unlock()
}

// acquireBulk returns region id pinned against Free (nil if it is not
// registered); the caller unpins it with b.busy.RUnlock. The pin is
// taken under bulkMu so it cannot slip in after a Free that has
// already removed the region.
func (c *Class) acquireBulk(id uint64) *Bulk {
	c.bulkMu.RLock()
	defer c.bulkMu.RUnlock()
	b := c.bulks[id]
	if b != nil {
		b.busy.RLock()
	}
	return b
}

// BulkTransfer moves size bytes between the local region and the
// remote region named by desc, in one operation. op is from the
// initiator's perspective: BulkPull reads remote bytes into local
// memory, BulkPush writes local bytes into remote memory.
//
// On the simulated fabric a transfer is charged one bulk-handshake
// cost plus size/bandwidth, regardless of size — the property that
// makes RDMA preferable to chunked RPCs for large payloads.
func (c *Class) BulkTransfer(ctx context.Context, op BulkOp, desc BulkDescriptor, remoteOff uint64, local *Bulk, localOff uint64, size uint64) error {
	if tr, sc, start, ok := c.bulkSpanStart(ctx); ok {
		err := c.bulkTransfer(ctx, op, desc, remoteOff, local, localOff, size)
		c.bulkSpanEnd(tr, sc, start, op, desc.Addr, size, err)
		return err
	}
	return c.bulkTransfer(ctx, op, desc, remoteOff, local, localOff, size)
}

func (c *Class) bulkTransfer(ctx context.Context, op BulkOp, desc BulkDescriptor, remoteOff uint64, local *Bulk, localOff uint64, size uint64) error {
	if local == nil || local.class != c {
		return fmt.Errorf("%w: local bulk not registered on this class", ErrBadBulk)
	}
	if localOff+size > uint64(len(local.mem)) || remoteOff+size > desc.Size {
		return ErrBulkBounds
	}
	// Local fast path: both regions live in this class.
	if desc.Addr == c.Addr() {
		remote := c.acquireBulk(desc.ID)
		if remote == nil {
			return ErrBadBulk
		}
		if op == BulkPull {
			copy(local.mem[localOff:localOff+size], remote.mem[remoteOff:remoteOff+size])
		} else {
			copy(remote.mem[remoteOff:remoteOff+size], local.mem[localOff:localOff+size])
		}
		remote.busy.RUnlock()
		c.bulkDone(op, desc.Addr, size)
		return nil
	}

	seq := c.seq.Add(1)
	ch := getReplyChan()
	c.pending.add(seq, ch)
	if op == BulkPull {
		c.landMu.Lock()
		c.landings[seq] = local.mem[localOff : localOff+size]
		c.landMu.Unlock()
	}

	msg := getMessage()
	msg.seq = seq
	msg.src = c.Addr()
	msg.bulkID = desc.ID
	msg.bulkOff = remoteOff
	msg.bulkLen = size
	if op == BulkPull {
		msg.kind = msgBulkRead
	} else {
		msg.kind = msgBulkWrite
		msg.payload = local.mem[localOff : localOff+size]
	}
	err := c.send(ctx, desc.Addr, msg)
	msg.payload = nil // borrowed from the local region
	putMessage(msg)
	var resp *message
	if err == nil {
		select {
		case resp = <-ch:
		case <-ctx.Done():
			err = fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
		}
	}
	if op == BulkPull && !c.cancelLanding(seq) && resp == nil {
		// A transport reader claimed the region and is filling it: the
		// memory is not the caller's again until that reader is done.
		// It always delivers — the ack, or a failure if its connection
		// breaks mid-payload.
		resp, err = <-ch, nil
	}
	c.pending.remove(seq)
	putReplyChan(ch)
	if err != nil {
		return err
	}
	status, errmsg := resp.status, resp.errmsg
	if status == 0 && op == BulkPull && !resp.landed {
		if uint64(len(resp.payload)) != size {
			status, errmsg = 1, "short bulk read"
		} else {
			copy(local.mem[localOff:localOff+size], resp.payload)
		}
	}
	resp.releasePayload()
	putMessage(resp)
	if status != 0 {
		return fmt.Errorf("%w: %s", ErrBadBulk, errmsg)
	}
	c.bulkDone(op, desc.Addr, size)
	return nil
}

// claimLanding hands the registered memory of in-flight pull seq to a
// transport reader about to copy an ack payload of n bytes into it,
// and reports false when there is nothing to fill: the pull finished
// or timed out (a late ack), another ack for it was already claimed (a
// duplicate), or the sizes disagree. Claiming removes the entry, so at
// most one reader ever writes the region, and the initiator can tell a
// claimed region (absent) from an unclaimed one (cancelLanding).
func (c *Class) claimLanding(seq, n uint64) ([]byte, bool) {
	c.landMu.Lock()
	defer c.landMu.Unlock()
	dst, ok := c.landings[seq]
	if !ok || uint64(len(dst)) != n {
		return nil, false
	}
	delete(c.landings, seq)
	return dst, true
}

// cancelLanding withdraws pull seq's region. It reports false when a
// reader claimed it first.
func (c *Class) cancelLanding(seq uint64) bool {
	c.landMu.Lock()
	defer c.landMu.Unlock()
	_, ok := c.landings[seq]
	delete(c.landings, seq)
	return ok
}

func (c *Class) handleBulkRead(m *message) {
	b := c.acquireBulk(m.bulkID)
	resp := getMessage()
	resp.kind = msgBulkAck
	resp.seq = m.seq
	resp.src = c.Addr()
	switch {
	case b == nil:
		resp.status = 1
		resp.errmsg = "unknown bulk region"
	case b.access&BulkReadOnly == 0:
		resp.status = 1
		resp.errmsg = "bulk region not readable"
	case m.bulkOff+m.bulkLen > uint64(len(b.mem)):
		resp.status = 1
		resp.errmsg = "bulk read out of bounds"
	default:
		resp.payload = b.mem[m.bulkOff : m.bulkOff+m.bulkLen]
	}
	_ = c.send(context.Background(), m.src, resp)
	if b != nil {
		b.busy.RUnlock()
	}
	resp.payload = nil // borrowed from the registered region
	putMessage(resp)
	m.releasePayload()
	putMessage(m)
}

func (c *Class) handleBulkWrite(m *message) {
	b := c.acquireBulk(m.bulkID)
	resp := getMessage()
	resp.kind = msgBulkAck
	resp.seq = m.seq
	resp.src = c.Addr()
	switch {
	case b == nil:
		resp.status = 1
		resp.errmsg = "unknown bulk region"
	case b.access&BulkWriteOnly == 0:
		resp.status = 1
		resp.errmsg = "bulk region not writable"
	case m.bulkOff+uint64(len(m.payload)) > uint64(len(b.mem)):
		resp.status = 1
		resp.errmsg = "bulk write out of bounds"
	default:
		copy(b.mem[m.bulkOff:], m.payload)
	}
	if b != nil {
		b.busy.RUnlock()
	}
	_ = c.send(context.Background(), m.src, resp)
	putMessage(resp)
	m.releasePayload()
	putMessage(m)
}
