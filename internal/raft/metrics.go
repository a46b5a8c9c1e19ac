package raft

import (
	"mochi/internal/metrics"
)

// batchBuckets spans 1 to 512 entries in factor-2 steps — group-commit
// and apply batches are capped by maxBatchEntries (64), so the
// interesting range is small and dense.
var batchBuckets = metrics.ExpBuckets(1, 2, 10)

// nodeMetrics is the replication-health surface of one Raft node,
// registered on the instance's registry so the series ride the
// existing exposition plane (bedrock /metrics, bedrock_get_metrics,
// bedrock-query -metrics, the cluster federation view) for free.
type nodeMetrics struct {
	// commitLatency is the full proposal round trip at the leader,
	// blocking caller or RPC alike: arrival → append → disk and
	// replication → apply → resolution.
	commitLatency *metrics.Histogram // mochi_raft_commit_latency_seconds{group}
	// batchEntries is the number of entries in one leader group commit:
	// what the writer found queued and made one store.Append, one fsync.
	batchEntries *metrics.Histogram // mochi_raft_batch_entries{group}
	// applyEntries is the committed-range run drained per applier
	// wakeup (the batched-apply mirror of batchEntries).
	applyEntries *metrics.Histogram // mochi_raft_apply_entries{group}
	// readRounds counts ReadIndex leadership-confirmation heartbeat
	// rounds; readBatch is how many pending reads each round served;
	// leaseReads counts the reads that needed none.
	readRounds *metrics.Counter   // mochi_raft_readindex_rounds_total{group}
	readBatch  *metrics.Histogram // mochi_raft_readindex_batch{group}
	leaseReads *metrics.Counter   // mochi_raft_lease_reads_total{group}
	// appendErrors counts persistent-store write failures (each one
	// steps a leader down rather than silently dropping the command).
	appendErrors *metrics.Counter // mochi_raft_store_append_errors_total{group}
	// elections counts this member's candidacies by how they ended: won,
	// lost (somebody else leads, or a higher term turned up) or no_winner
	// (the election timed out and the member stood again). leaderless is
	// how long the member went each time with no leader to name, from
	// start-up or from losing one to the transition that named the next:
	// time without service, as this member saw it.
	elections  *metrics.CounterVec // mochi_raft_elections_total{group,outcome}
	leaderless *metrics.Histogram  // mochi_raft_leaderless_seconds{group}
}

func newNodeMetrics(reg *metrics.Registry, group string) *nodeMetrics {
	return &nodeMetrics{
		commitLatency: reg.Histogram("mochi_raft_commit_latency_seconds",
			"Proposal round trip at the leader: submit to applied result, by group.",
			metrics.LatencyBuckets, "group").With(group),
		batchEntries: reg.Histogram("mochi_raft_batch_entries",
			"Entries coalesced per leader group commit (one store append + fsync), by group.",
			batchBuckets, "group").With(group),
		applyEntries: reg.Histogram("mochi_raft_apply_entries",
			"Committed entries drained per applier wakeup, by group.",
			batchBuckets, "group").With(group),
		readRounds: reg.Counter("mochi_raft_readindex_rounds_total",
			"ReadIndex leadership-confirmation heartbeat rounds, by group.",
			"group").With(group),
		readBatch: reg.Histogram("mochi_raft_readindex_batch",
			"Pending linearizable reads served per ReadIndex confirmation round, by group.",
			batchBuckets, "group").With(group),
		leaseReads: reg.Counter("mochi_raft_lease_reads_total",
			"Linearizable reads confirmed under the leader's lease, without a ReadIndex round, by group.",
			"group").With(group),
		appendErrors: reg.Counter("mochi_raft_store_append_errors_total",
			"Persistent-store append failures on the leader (each steps the leader down), by group.",
			"group").With(group),
		elections: reg.Counter("mochi_raft_elections_total",
			"Candidacies of this member by outcome (won, lost, no_winner), by group.",
			"group", "outcome"),
		leaderless: reg.Histogram("mochi_raft_leaderless_seconds",
			"Time this member knew no leader, per episode: from start-up or from losing one until the next is known, by group.",
			metrics.LatencyBuckets, "group").With(group),
	}
}
