package warabi

import (
	"context"

	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// Client is the component's client library.
type Client struct {
	inst *margo.Instance
}

// NewClient creates a client over a margo instance.
func NewClient(inst *margo.Instance) *Client {
	return &Client{inst: inst}
}

// TargetHandle maps to a remote target via (address, provider ID).
type TargetHandle struct {
	client   *Client
	addr     string
	provider uint16
}

// Handle returns a handle to the target at (addr, providerID).
func (c *Client) Handle(addr string, providerID uint16) *TargetHandle {
	return &TargetHandle{client: c, addr: addr, provider: providerID}
}

// Addr returns the provider's address.
func (h *TargetHandle) Addr() string { return h.addr }

// ProviderID returns the provider's ID.
func (h *TargetHandle) ProviderID() uint16 { return h.provider }

func (h *TargetHandle) call(ctx context.Context, rpc string, args *ioArgs) (*ioReply, error) {
	var reply ioReply
	if err := h.client.inst.Call(ctx, h.addr, rpc, h.provider, args, &reply); err != nil {
		return nil, err
	}
	if err := statusErr(reply.Status, reply.Err); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Create allocates a region of the given size.
func (h *TargetHandle) Create(ctx context.Context, size int64) (RegionID, error) {
	reply, err := h.call(ctx, RPCCreate, &ioArgs{Size: size})
	if err != nil {
		return 0, err
	}
	return reply.Region, nil
}

// Write stores data at offset. Data larger than EagerThreshold is
// transferred with one bulk pull rather than inline in the RPC.
func (h *TargetHandle) Write(ctx context.Context, id RegionID, offset int64, data []byte) error {
	if len(data) <= EagerThreshold {
		_, err := h.call(ctx, RPCWrite, &ioArgs{Region: id, Offset: offset, Data: data})
		return err
	}
	bulk := h.client.inst.Class().CreateBulk(data, mercury.BulkReadOnly)
	defer bulk.Free()
	_, err := h.call(ctx, RPCWriteBulk, &ioArgs{
		Region:  id,
		Offset:  offset,
		Size:    int64(len(data)),
		Bulk:    bulk.Descriptor(),
		HasBulk: true,
	})
	return err
}

// Read returns size bytes at offset, using a bulk push for large
// transfers.
func (h *TargetHandle) Read(ctx context.Context, id RegionID, offset, size int64) ([]byte, error) {
	if size <= EagerThreshold {
		reply, err := h.call(ctx, RPCRead, &ioArgs{Region: id, Offset: offset, Size: size})
		if err != nil {
			return nil, err
		}
		return reply.Data, nil
	}
	buf := make([]byte, size)
	bulk := h.client.inst.Class().CreateBulk(buf, mercury.BulkReadWrite)
	defer bulk.Free()
	_, err := h.call(ctx, RPCReadBulk, &ioArgs{
		Region:  id,
		Offset:  offset,
		Size:    size,
		Bulk:    bulk.Descriptor(),
		HasBulk: true,
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Size returns the region's length.
func (h *TargetHandle) Size(ctx context.Context, id RegionID) (int64, error) {
	reply, err := h.call(ctx, RPCSize, &ioArgs{Region: id})
	if err != nil {
		return 0, err
	}
	return reply.Size, nil
}

// Persist flushes the region to durable storage.
func (h *TargetHandle) Persist(ctx context.Context, id RegionID) error {
	_, err := h.call(ctx, RPCPersist, &ioArgs{Region: id})
	return err
}

// Erase removes the region.
func (h *TargetHandle) Erase(ctx context.Context, id RegionID) error {
	_, err := h.call(ctx, RPCErase, &ioArgs{Region: id})
	return err
}

// List returns all region IDs.
func (h *TargetHandle) List(ctx context.Context) ([]RegionID, error) {
	reply, err := h.call(ctx, RPCList, &ioArgs{})
	if err != nil {
		return nil, err
	}
	return reply.IDs, nil
}
