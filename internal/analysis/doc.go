// This file states the engine's three contracts, with pointers to the
// radivvet analyzers that enforce the first two and to the dynamic
// check of the third. It is documentation only.
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
// state (Interner.Intern, Relation.Add/AddBatch,
// Database.Add/AddInts/AddStrs) — new values are interned before the
// workers start — while reads of captured dictionaries are legal from
// any worker. A based dictionary (a result's, rel.NewRelationOver)
// is an Interner like any other: interning writes its own tail, never
// its base, and it reads its base, so no goroutine may write the base
// while another reads a dictionary based on it.
// A violation is a data race the race detector only sees under lucky
// schedules; the analyzer sees it lexically. Enforced by
// radiv/internal/analysis/quiescence.
//
// # Contract 3: a yielded batch is valid until the next pull
//
// A rel.Batch a cursor's NextBatch yields is valid until the
// consumer's next pull of that cursor, and read-only to the consumer.
// Each cursor owns the one batch it yields and overwrites it on every
// pull, or yields a view over storage it reads; nothing is handed back,
// so no path — an abort included — owes a release. A consumer that
// keeps rows past its next pull copies them. No analyzer checks this
// rule: it is checked dynamically. Under the race detector
// rel.Batch.Reset overwrites the rows it drops with an ID no
// dictionary holds, so every suite run with -race fails where a
// consumer keeps a batch too long, and internal/plan's
// TestKeptBatchReadsPoison shows the check biting.
//
// A fourth, stylistic rule rides along: panic messages carry their
// package prefix (ra:, sa:, xra:, …) so a query-abort names the layer
// that gave up. Enforced by radiv/internal/analysis/panicprefix.
package analysis
