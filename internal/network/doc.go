// Package network runs the paper's simultaneous-message-passing model as a
// real message-passing system: a referee server and k player nodes
// exchanging length-prefixed frames over a Transport (in-memory pipes for
// tests and simulations, TCP loopback for the deployment-shaped demo).
//
// Every round runs in a session of long-lived connections, and a round
// of the model is a wire batch of one trial:
//
//  1. Every player connects and sends HELLO with its player id and its
//     rule's message width.
//  2. The referee sends ROUND_BATCH carrying the round's public-coin
//     seed, shared by all players.
//  3. Each player draws its q samples locally, evaluates its
//     core.LocalRule and answers with VOTE_BATCH (VOTE_BATCH_R for
//     r-bit rules) carrying its message bits.
//  4. After collecting all k votes the referee applies its core.Referee
//     decision function and broadcasts VERDICT_BATCH.
//
// The same frames carry up to MaxBatchTrials trials at once, and the
// session closes with FINISH. With ClusterConfig.Shards the referee
// becomes a two-tier tree whose aggregators reduce their shard's votes
// before they reach the root. The flat star is the same computation
// with a single shard held in process: its root reduces its own
// players' votes into the same bit-sliced lane counters an aggregator
// sends upstream, and both roots decide from those counters with one
// word-parallel decide, so verdicts are bit-identical either way.
//
// Cluster wires the pieces together and implements core.Protocol, so a
// networked deployment can be dropped into the same experiment harness as
// the in-process simulator (that equivalence is itself covered by tests).
//
// # Wire validation
//
// The referee enforces the protocol, not just the frame format. A HELLO
// must announce between 1 and 64 message bits and a player id in [0, k);
// a second connection claiming an id already registered is a duplicate
// and rejected. A vote batch must carry the id of the connection it
// arrives on, echo the batch id and trial count, and use the negotiated
// message width — a 1-bit rule cannot smuggle a wide message past the
// decision function. On the frame layer, a bitset with bits set above
// its trial count is a malformed frame, never an extra vote or verdict.
//
// # Straggler tolerance
//
// By default the referee is strict — all k votes are required, exactly
// the paper's model, and any failure aborts the round. WithMinVotes (or
// ClusterConfig.MinVotes) relaxes it to a quorum: the accept phase is
// bounded by one timeout, a round succeeds once at least MinVotes valid
// votes are in, and players that crashed, timed out, never connected or
// violated the protocol become stragglers instead of errors. Absent
// votes enter the decision per a core.AbsenteePolicy — counted as
// accepts, counted as rejects, or omitted — with the default deferring
// to the decision rule's own advice (a ThresholdRule counts absentees as
// accepts, since a silent sensor cannot push the rejection count over
// the threshold). Every round reports what happened in a RoundStats:
// votes received, stragglers, node-side connect retries and wall time.
//
// Node-side, PlayerNode retries a failed dial or HELLO with exponential
// backoff (SetRetryPolicy), so transient connection drops are survivable
// without referee involvement.
//
// # Fault injection
//
// FaultTransport decorates any Transport with deterministic, seeded
// faults applied per player id: dropped dial attempts, per-frame write
// delays, payload corruption of a chosen frame and connection crashes at
// a chosen round. It is the chaos harness for everything above — every
// injected fault must surface as a validated protocol error or a
// tolerated straggler, never as a wrong verdict — and its FaultStats
// report what was actually injected.
package network
