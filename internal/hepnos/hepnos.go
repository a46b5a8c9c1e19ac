// Package hepnos is a compact event store in the style of HEPnOS, the
// high-energy-physics data service that motivates the paper's dynamic
// reconfiguration story (§1: the NOvA workflow's steps have "vastly
// different I/O patterns", so "a dynamic version of HEPnOS that
// reconfigures at run time for each individual step's I/O pattern
// could be used").
//
// Events live in a hierarchical namespace dataset/run/subrun/event.
// Event metadata is stored in Yokan key-value providers; event
// payloads ("products") in Warabi blob providers. Both are sharded
// across service processes by run number, so the store composes
// exactly like the paper's example component M (§3.2).
package hepnos

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/warabi"
	"mochi/internal/yokan"
)

// Errors returned by the event store.
var (
	ErrNoShards      = errors.New("hepnos: no shards configured")
	ErrEventNotFound = errors.New("hepnos: event not found")
	ErrEventExists   = errors.New("hepnos: event already stored")
)

// Shard locates one storage process: a yokan provider for metadata
// and a warabi provider for payloads.
type Shard struct {
	Addr     string
	YokanID  uint16
	WarabiID uint16
}

// EventID identifies an event within a dataset.
type EventID struct {
	Run    uint64
	SubRun uint64
	Event  uint64
}

func (e EventID) String() string {
	return fmt.Sprintf("%d/%d/%d", e.Run, e.SubRun, e.Event)
}

// eventMeta is the metadata record stored in yokan.
type eventMeta struct {
	Region uint64
	Size   uint64
	Shard  uint32
}

func (m *eventMeta) Proc(p *codec.Proc) {
	p.Uint64(&m.Region)
	p.Uint64(&m.Size)
	p.Uint32(&m.Shard)
}

// EventStore is a client-side view of the sharded event service.
type EventStore struct {
	inst   *margo.Instance
	shards []Shard
	kv     *yokan.Client
	blob   *warabi.Client
}

// New creates an event store over the given shards.
func New(inst *margo.Instance, shards []Shard) (*EventStore, error) {
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	return &EventStore{
		inst:   inst,
		shards: append([]Shard(nil), shards...),
		kv:     yokan.NewClient(inst),
		blob:   warabi.NewClient(inst),
	}, nil
}

// Shards returns the number of shards.
func (s *EventStore) Shards() int { return len(s.shards) }

// shardFor places a run deterministically.
func (s *EventStore) shardFor(dataset string, run uint64) uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", dataset, run)
	return h.Sum32() % uint32(len(s.shards))
}

func eventKey(dataset string, id EventID) []byte {
	return []byte(fmt.Sprintf("ds/%s/r/%016x/s/%016x/e/%016x", dataset, id.Run, id.SubRun, id.Event))
}

func runPrefix(dataset string, run uint64) []byte {
	return []byte(fmt.Sprintf("ds/%s/r/%016x/", dataset, run))
}

func datasetPrefix(dataset string) []byte {
	return []byte(fmt.Sprintf("ds/%s/", dataset))
}

// StoreEvent writes an event's payload and metadata. Duplicate events
// are rejected.
func (s *EventStore) StoreEvent(ctx context.Context, dataset string, id EventID, payload []byte) error {
	si := s.shardFor(dataset, id.Run)
	shard := s.shards[si]
	kvh := s.kv.Handle(shard.Addr, shard.YokanID)
	key := eventKey(dataset, id)
	if ok, err := kvh.Exists(ctx, key); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s %s", ErrEventExists, dataset, id)
	}
	bh := s.blob.Handle(shard.Addr, shard.WarabiID)
	region, err := bh.Create(ctx, int64(len(payload)))
	if err != nil {
		return err
	}
	if len(payload) > 0 {
		if err := bh.Write(ctx, region, 0, payload); err != nil {
			return err
		}
	}
	meta := eventMeta{Region: uint64(region), Size: uint64(len(payload)), Shard: si}
	return kvh.Put(ctx, key, codec.Marshal(&meta))
}

// LoadEvent reads an event's payload.
func (s *EventStore) LoadEvent(ctx context.Context, dataset string, id EventID) ([]byte, error) {
	si := s.shardFor(dataset, id.Run)
	shard := s.shards[si]
	kvh := s.kv.Handle(shard.Addr, shard.YokanID)
	raw, err := kvh.Get(ctx, eventKey(dataset, id))
	if err != nil {
		if yokan.IsNotFound(err) {
			return nil, fmt.Errorf("%w: %s %s", ErrEventNotFound, dataset, id)
		}
		return nil, err
	}
	var meta eventMeta
	if err := codec.Unmarshal(raw, &meta); err != nil {
		return nil, err
	}
	if meta.Size == 0 {
		return []byte{}, nil
	}
	bh := s.blob.Handle(shard.Addr, shard.WarabiID)
	return bh.Read(ctx, warabi.RegionID(meta.Region), 0, int64(meta.Size))
}

// ListRunEvents lists the event IDs of one run, in order.
func (s *EventStore) ListRunEvents(ctx context.Context, dataset string, run uint64) ([]EventID, error) {
	si := s.shardFor(dataset, run)
	shard := s.shards[si]
	kvh := s.kv.Handle(shard.Addr, shard.YokanID)
	prefix := runPrefix(dataset, run)
	var out []EventID
	var from []byte
	for {
		keys, err := kvh.ListKeys(ctx, from, prefix, 128)
		if err != nil {
			return nil, err
		}
		if len(keys) == 0 {
			return out, nil
		}
		for _, k := range keys {
			id, err := parseEventKey(string(k))
			if err != nil {
				return nil, err
			}
			out = append(out, id)
		}
		from = keys[len(keys)-1]
	}
}

// CountEvents counts the events of a dataset on every shard.
func (s *EventStore) CountEvents(ctx context.Context, dataset string) (int, error) {
	total := 0
	prefix := datasetPrefix(dataset)
	for _, shard := range s.shards {
		kvh := s.kv.Handle(shard.Addr, shard.YokanID)
		var from []byte
		for {
			keys, err := kvh.ListKeys(ctx, from, prefix, 256)
			if err != nil {
				return 0, err
			}
			total += len(keys)
			if len(keys) < 256 {
				break
			}
			from = keys[len(keys)-1]
		}
	}
	return total, nil
}

func parseEventKey(k string) (EventID, error) {
	parts := strings.Split(k, "/")
	// ds/<name>/r/<run>/s/<subrun>/e/<event>
	if len(parts) != 8 {
		return EventID{}, fmt.Errorf("hepnos: bad event key %q", k)
	}
	var id EventID
	if _, err := fmt.Sscanf(parts[3], "%x", &id.Run); err != nil {
		return EventID{}, err
	}
	if _, err := fmt.Sscanf(parts[5], "%x", &id.SubRun); err != nil {
		return EventID{}, err
	}
	if _, err := fmt.Sscanf(parts[7], "%x", &id.Event); err != nil {
		return EventID{}, err
	}
	return id, nil
}
