// Package radiv is a Go reproduction of Leinders and Van den Bussche,
// "On the complexity of division and set joins in the relational
// algebra" (PODS 2005; JCSS 73 (2007) 538–549).
//
// The library implements, from scratch on the standard library:
//
//   - the relational algebra of the paper with an instrumented
//     evaluator (internal/ra) and the semijoin algebra (internal/sa);
//   - the guarded fragment of first-order logic (internal/gf) with the
//     Theorem 8 translations to and from SA= (internal/translate);
//   - C-guarded bisimulation and a bisimilarity decision procedure
//     (internal/bisim), the tool behind the paper's lower bounds;
//   - the dichotomy machinery of Theorems 17/18 and Lemma 24: free
//     values, witness search, the pumping construction, and the
//     Z1 ∪ Z2 linearization of non-quadratic joins (internal/core);
//   - relational division and general set joins with the practical
//     algorithms the paper discusses (internal/division,
//     internal/setjoin) and the grouping/counting escape hatch of
//     Section 5 (internal/xra);
//   - text parsers, workload generators and figure data
//     (internal/parser, internal/workload, internal/paperfigs).
//
// The benchmarks in bench_test.go regenerate every figure and claim of
// the paper; `go run ./cmd/radiv -list` prints the experiment index,
// and README.md describes the library.
package radiv
