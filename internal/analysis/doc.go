// This file states the four engine contracts the radivvet suite
// enforces, with pointers to the analyzers that enforce them. It is
// documentation only.
//
// # Contract 1: evaluator results are caller-owned
//
// Every relation an exported evaluator entry point returns belongs to
// the caller: mutating it must never write through into a store. The
// storage layer hands out aliased views by documented contract
// (rel.ReadStore.View, rel.Materialized's aliased flag, Database.Rel);
// the layers above must snapshot — Clone, or the conditional clone on
// Materialized's flag — before a store-reachable relation escapes.
// PRs 2–4 fixed this class by hand after ra.Eval returned the
// database's own relation for a bare-Rel root. Enforced by
// radiv/internal/analysis/callerowned.
//
// # Contract 2: a sealed partition is immutable; pool workers do not
// intern on captured state
//
// A published shard.Snapshot is sealed: every shard-local relation,
// and the one dictionary all of them share, may be read from any
// goroutine with no coordination, and must never be written — no
// Relation.Add or Interner.Intern into snapshot state, anywhere.
// shard.FromStore builds the partition over one copy of its source's
// dictionary, interning nothing, before Publish seals it; nothing
// writes to it after. The same law covers the task callbacks of
// exec.Run, the one worker pool: they must not intern on captured
// state (Interner.Intern, QueryDict.Intern, Relation.Add/AddBatch,
// Database.Add/AddInts/AddStrs) — new values are interned before the
// workers start — while reads of captured dictionaries are legal from
// any worker.
// A violation is a data race the race detector only sees under lucky
// schedules; the analyzer sees it lexically. Enforced by
// radiv/internal/analysis/quiescence.
//
// # Contract 3: pooled batches are released exactly once
//
// A rel.Batch from NewBatch/NewBatchSized or a cursor's NextBatch
// owns pooled column arrays. The holder must Release exactly once on
// every path or hand the batch off downstream; a missed Release
// leaks pool capacity (the skip-empty-batch loop bug shape), and a
// double Release puts live storage back in the pool for two future
// acquirers to share. View batches (BatchScan provenance) are exempt:
// their Release is a no-op. Enforced by
// radiv/internal/analysis/batchrelease.
//
// # Contract 4: abort paths hold no unregistered pooled batch
//
// Governed execution (internal/exec) adds a recoverable kind of
// unwinding: the Governor checkpoints Check and CheckResident panic
// during *normal operation* — on cancellation or a budget trip — and
// the boundary recovery (Governor.Recover) releases only the holders
// registered with the governor. The contract has two halves. First,
// checkpoints fire only at pull boundaries, where the calling frame
// holds no pooled batch (check, then pull); a batch definitely held
// across a checkpoint call leaks live pool count on every abort and
// is flagged by the batchrelease extension. Second, any cursor that
// retains pooled batches across calls implements rel.BatchHolder and
// is registered at construction (Governor.Watch, or the executor's
// meter.watch), so the boundary can release its held batches once the
// unwind has reached it. Deferred releases are accepted — defers run
// during the unwind. Enforced by radiv/internal/analysis/batchrelease
// (the governor-checkpoint rule), and dynamically by the
// internal/faultinject suites, which drive every abort path and assert
// the pool returns to its pre-query level.
//
// A fifth, stylistic rule rides along: panic messages carry their
// package prefix (ra:, sa:, xra:, …) so a query-abort names the layer
// that gave up. Enforced by radiv/internal/analysis/panicprefix.
package analysis
