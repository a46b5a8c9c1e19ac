package yokan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"mochi/internal/codec"
	"mochi/internal/margo"
)

// Client is the component's client library (Figure 1): it creates
// DatabaseHandles mapping to remote resources.
type Client struct {
	inst *margo.Instance
}

// NewClient creates a client over a margo instance.
func NewClient(inst *margo.Instance) *Client {
	return &Client{inst: inst}
}

// DatabaseHandle maps to a remote database by encapsulating the
// address and provider ID of the provider holding it (Figure 1:
// "Resource Handle ... maps to a remote resource").
type DatabaseHandle struct {
	client   *Client
	addr     string
	provider uint16
}

// Handle returns a handle to the database served by (addr, providerID).
func (c *Client) Handle(addr string, providerID uint16) *DatabaseHandle {
	return &DatabaseHandle{client: c, addr: addr, provider: providerID}
}

// Addr returns the provider's address.
func (h *DatabaseHandle) Addr() string { return h.addr }

// ProviderID returns the provider ID.
func (h *DatabaseHandle) ProviderID() uint16 { return h.provider }

func replyErr(status uint8, msg string) error {
	switch status {
	case 0:
		return nil
	case 1:
		return ErrKeyNotFound
	default:
		return fmt.Errorf("yokan: remote error: %s", msg)
	}
}

// call runs one RPC against the handle's provider.
func (h *DatabaseHandle) call(ctx context.Context, rpc string, args, reply codec.Message) error {
	return h.client.inst.Call(ctx, h.addr, rpc, h.provider, args, reply)
}

// Put stores one pair.
func (h *DatabaseHandle) Put(ctx context.Context, key, value []byte) error {
	return h.putRPC(ctx, RPCPut, []KeyValue{{Key: key, Value: value}})
}

// PutMulti stores several pairs in one RPC.
func (h *DatabaseHandle) PutMulti(ctx context.Context, pairs []KeyValue) error {
	return h.putRPC(ctx, RPCPutMulti, pairs)
}

func (h *DatabaseHandle) putRPC(ctx context.Context, rpc string, pairs []KeyValue) error {
	var reply statusReply
	if err := h.call(ctx, rpc, &putArgs{Pairs: pairs}, &reply); err != nil {
		return err
	}
	return replyErr(reply.Status, reply.Err)
}

// Get fetches the value for one key.
func (h *DatabaseHandle) Get(ctx context.Context, key []byte) ([]byte, error) {
	var reply valueReply
	if err := h.call(ctx, RPCGet, &keysArgs{Keys: [][]byte{key}}, &reply); err != nil {
		return nil, err
	}
	if err := replyErr(reply.Status, reply.Err); err != nil {
		return nil, err
	}
	return reply.Value, nil
}

// GetMulti fetches several keys; missing keys yield nil values and
// found[i]=false.
func (h *DatabaseHandle) GetMulti(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error) {
	var reply valuesReply
	if err := h.call(ctx, RPCGetMulti, &keysArgs{Keys: keys}, &reply); err != nil {
		return nil, nil, err
	}
	if err := replyErr(reply.Status, reply.Err); err != nil {
		return nil, nil, err
	}
	return reply.Values, reply.Found, nil
}

// Erase removes one key.
func (h *DatabaseHandle) Erase(ctx context.Context, key []byte) error {
	var reply statusReply
	if err := h.call(ctx, RPCErase, &keysArgs{Keys: [][]byte{key}}, &reply); err != nil {
		return err
	}
	return replyErr(reply.Status, reply.Err)
}

// Exists reports whether key is present.
func (h *DatabaseHandle) Exists(ctx context.Context, key []byte) (bool, error) {
	var reply boolReply
	if err := h.call(ctx, RPCExists, &keysArgs{Keys: [][]byte{key}}, &reply); err != nil {
		return false, err
	}
	return reply.Value, replyErr(reply.Status, reply.Err)
}

// Count returns the number of pairs.
func (h *DatabaseHandle) Count(ctx context.Context) (int, error) {
	var reply countReply
	if err := h.call(ctx, RPCCount, nil, &reply); err != nil {
		return 0, err
	}
	return int(reply.Count), replyErr(reply.Status, reply.Err)
}

// list runs one of the two listing RPCs.
func (h *DatabaseHandle) list(ctx context.Context, rpc string, fromKey, prefix []byte, max int) ([]KeyValue, error) {
	args := listArgs{HasFrom: fromKey != nil, FromKey: fromKey, Prefix: prefix, Max: uint32(max)}
	var reply kvListReply
	if err := h.call(ctx, rpc, &args, &reply); err != nil {
		return nil, err
	}
	return reply.Pairs, replyErr(reply.Status, reply.Err)
}

// ListKeys lists up to max keys greater than fromKey with the prefix.
func (h *DatabaseHandle) ListKeys(ctx context.Context, fromKey, prefix []byte, max int) ([][]byte, error) {
	pairs, err := h.list(ctx, RPCListKeys, fromKey, prefix, max)
	if err != nil {
		return nil, err
	}
	keys := make([][]byte, len(pairs))
	for i, kv := range pairs {
		keys[i] = kv.Key
	}
	return keys, nil
}

// ListKeyValues lists up to max pairs greater than fromKey with the
// prefix.
func (h *DatabaseHandle) ListKeyValues(ctx context.Context, fromKey, prefix []byte, max int) ([]KeyValue, error) {
	return h.list(ctx, RPCListKeyValues, fromKey, prefix, max)
}

// RemoteConfig fetches the provider's database configuration (JSON on
// the wire, so it goes through the byte-level forward).
func (h *DatabaseHandle) RemoteConfig(ctx context.Context) (Config, error) {
	var cfg Config
	out, err := h.client.inst.ForwardProvider(ctx, h.addr, RPCGetConfig, h.provider, nil)
	if err == nil {
		err = json.Unmarshal(out, &cfg)
	}
	return cfg, err
}

// IsNotFound reports whether err is the key-not-found condition,
// across RPC boundaries.
func IsNotFound(err error) bool {
	return errors.Is(err, ErrKeyNotFound)
}
