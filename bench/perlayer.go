package main

// The traced pass: the per-layer metrics of BENCHMARK.json. Each
// workload has a section that times its own layers; a traced run of
// workload W runs W's section at traceK repetitions and every other
// section at referenceK, and reports each metric from W's section when
// W exercises the layer, else from the first workload that does. Every
// name is therefore measured on every run, always on the full-size
// input of a workload that owns it.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// outcome is what one pass of one workload measured and checked.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
}

// section accumulates one workload's per-layer metrics and the
// outputs it checked on the way.
type section struct {
	w  *workload
	tr *tracer
	outcome
}

func (s *section) check(what, got, want string) {
	s.attempted++
	if got != want {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("%s: %s gives %d bytes that differ from the %d expected", s.w.name, what, len(got), len(want))
		}
	}
}

// probeSeconds is the median time of the section's probe spans named
// span: the calls timed outside any query.
func (s *section) probeSeconds(span string) float64 {
	return median(s.tr.stats(s.w.name, span, true).total)
}

// probe times f as a span outside any query.
func (s *section) probe(span string, f func()) { s.tr.call(span, -1, -1, f) }

// unit records what every section measures on its unit of work (a
// pipeline run, an iteration): what tracing costs, how much of the
// traced unit its spans cover, and the unit's 90th percentile.
func (s *section) unit(root string, traced, untraced, p90Of []float64) {
	s.metrics["raquery.trace_overhead_frac"] = median(traced)/median(untraced) - 1
	s.metrics["raquery.span_coverage_frac"] = median(s.tr.stats(s.w.name, root, false).covered)
	s.metrics["raquery.query_p90_s"] = quantile(p90Of, 0.9)
}

// timed runs f and appends its seconds to *to.
func timed(to *[]float64, f func()) {
	start := time.Now()
	f()
	*to = append(*to, time.Since(start).Seconds())
}

// traceRaquery times the layers of one raquery workload. Every
// repetition runs the whole list — pipeline untraced, pipeline traced,
// the engine alone in each flavour, rel's primitives — so that the
// box's drift hits every metric alike and their ratios hold.
func traceRaquery(cfg *config, s *section, reps int) error {
	w, tr, m := s.w, s.tr, s.metrics
	ds, dir, err := writeInputs(cfg, w)
	if err != nil {
		return err
	}
	want := ds.expected["stdout"]
	tuples := float64(ds.tuples)

	// The engine probes run a plan compiled once, over a store loaded
	// once; vectorized is the flavour raquery never runs.
	d, err := loadText(ds.file)
	if err != nil {
		return err
	}
	e, err := parseRA(w.query, d)
	if err != nil {
		return err
	}
	p, err := compile(e, d, w.optimize, false)
	if err != nil {
		return err
	}
	vp, err := compile(e, d, w.optimize, true)
	if err != nil {
		return err
	}
	stream := tupleStream(d)

	var (
		traced, untraced        []float64
		plain, governed, vector relation
		values                  int
		rels                    []relation
	)
	for i := 0; i < reps; i++ {
		for _, t := range []*tracer{nil, tr} {
			to := &untraced
			if t != nil {
				to = &traced
			}
			var out []byte
			timed(to, func() { out, err = raqueryPipeline(w, ds.file, t, i) })
			if err != nil {
				return err
			}
			s.check("the in-process pipeline", string(out), want)
		}
		// Governed and ungoverned take turns going first and are timed
		// the same way, so that what the earlier call or the MemStats
		// read leaves behind (heap, caches) favours neither.
		runPlain := func() { tr.callMem(w.engine+".execute", -1, -1, func() { plain = execute(p) }) }
		runGoverned := func() {
			tr.callMem("exec.governed_execute", -1, -1, func() { governed, err = executeGoverned(p, governedTimeout) })
		}
		switch {
		case !w.governed:
			runPlain()
		case i%2 == 0:
			runPlain()
			runGoverned()
		default:
			runGoverned()
			runPlain()
		}
		if err != nil {
			return err
		}
		s.probe(w.engine+".vector_execute", func() { vector = execute(vp) })
		s.probe("rel.intern", func() { values = internAll(stream) })
		s.probe("rel.add", func() { rels = addAll(stream) })
		s.probe("rel.dup_add", func() { dupAddAll(rels, stream) })
		s.probe("rel.scan", func() { scanAll(rels) })
	}
	s.check("Plan.Execute", plain.String(), want)
	s.check("the vectorized Plan.Execute", vector.String(), want)
	if w.governed {
		s.check("Plan.ExecuteContext", governed.String(), want)
	}

	// The same queries as processes: what is left after the spans is
	// process start, runtime initialisation, file read and exit.
	var process []float64
	args := w.raqueryArgs(filepath.Join(dir, "db.txt"))
	for i := 0; i < 2*reps; i++ {
		wall, _, err := checkedQuery(cfg.raquery, args, want)
		s.attempted++
		if err != nil {
			return err
		}
		process = append(process, wall)
	}
	s.unit("raquery.query", traced, untraced, process)
	root := tr.stats(w.name, "raquery.query", false)
	inSpans := make([]float64, len(root.total))
	for i := range inSpans {
		inSpans[i] = root.total[i] - root.self[i]
	}
	m["raquery.process_overhead_s"] = median(process) - median(inSpans)

	pipelineSeconds := func(span string) float64 { return median(tr.stats(w.name, span, false).total) }
	load := tr.stats(w.name, "rel.load", false)
	m["rel.load_s"] = median(load.total)
	m["rel.load_tuples_per_s"] = tuples / m["rel.load_s"]
	m["rel.load_allocs_per_tuple"] = median(load.allocs) / tuples
	m["rel.load_bytes_per_tuple"] = median(load.bytes) / tuples
	m["parser.parse_s"] = pipelineSeconds("parser.parse")
	m["plan.compile_s"] = pipelineSeconds("plan.compile")
	m["rel.emit_s"] = pipelineSeconds("rel.emit")

	m["plan.rules_fired"] = float64(rulesFired(p))
	res, counts := executeCounted(p)
	s.check("Plan.ExecuteTraced", res.String(), want)
	m["plan.max_intermediate"] = float64(counts.maxIntermediate)
	m["plan.max_resident"] = float64(counts.maxResident)
	m["plan.total_tuples"] = float64(counts.totalTuples)

	ex := tr.stats(w.name, w.engine+".execute", true)
	m[w.engine+".execute_s"] = median(ex.total)
	m[w.engine+".execute_allocs"] = median(ex.allocs)
	m[w.engine+".execute_bytes"] = median(ex.bytes)
	m[w.engine+".vector_execute_s"] = s.probeSeconds(w.engine + ".vector_execute")
	if w.governed {
		m["exec.governed_execute_s"] = s.probeSeconds("exec.governed_execute")
		m["exec.governed_overhead_frac"] = m["exec.governed_execute_s"]/m[w.engine+".execute_s"] - 1
	}
	m["rel.intern_ns_per_value"] = s.probeSeconds("rel.intern") * 1e9 / float64(values)
	m["rel.add_ns_per_tuple"] = s.probeSeconds("rel.add") * 1e9 / tuples
	m["rel.dup_add_ns_per_tuple"] = s.probeSeconds("rel.dup_add") * 1e9 / tuples
	m["rel.scan_ns_per_tuple"] = s.probeSeconds("rel.scan") * 1e9 / tuples
	return nil
}

// traceDirect times the layers of direct-sharded: the iteration's
// calls and, in the same repetition, the sequential twins and the
// routed exchange on the same relations.
func traceDirect(cfg *config, s *section, reps int) error {
	w, m := s.w, s.metrics
	_, generate := w.input(cfg.scale)
	ds := generate(cfg.seed)
	d, err := loadText(ds.file)
	if err != nil {
		return err
	}

	var (
		traced, untraced     []float64
		merge                [3][]float64
		results              [3]relation
		stats                [3]shardStats
		hashed, routed       relation
		contained, equal     relation
		p, q                 groups
		probes, comparisons  int
		pairs, verifications int
	)
	checkIteration := func() {
		for j, op := range directOps {
			s.check("shard "+op, results[j].String(), ds.expected[op])
		}
	}
	for i := 0; i < reps; i++ {
		timed(&untraced, func() { results, stats = directIteration(d, cfg.k, nil, i) })
		checkIteration()
		timed(&traced, func() { results, stats = directIteration(d, cfg.k, s.tr, i) })
		checkIteration()
		for j := range directOps {
			merge[j] = append(merge[j], stats[j].merge.Seconds())
		}
		s.probe("division.hash", func() { hashed, probes, comparisons = hashDivide(d) })
		s.probe("engine.routed_divide", func() { routed = routedDivide(d, cfg.k) })
		s.probe("setjoin.groups", func() { p, q = setGroups(d) })
		s.probe("setjoin.signature", func() { contained, pairs, verifications = signatureContainment(p, q) })
		s.probe("setjoin.hash_equality", func() { equal = hashEquality(p, q) })
	}
	s.check("division.Hash", hashed.String(), ds.expected["divide"])
	s.check("division.ParallelHash", routed.String(), ds.expected["divide"])
	s.check("setjoin.SignatureContainment", contained.String(), ds.expected["containment"])
	s.check("setjoin.HashEquality", equal.String(), ds.expected["equality"])

	s.unit("shard.iteration", traced, untraced, untraced)
	iterationSeconds := func(span string) float64 { return median(s.tr.stats(w.name, span, false).total) }
	m["shard.load_s"] = iterationSeconds("shard.load")
	m["shard.publish_s"] = iterationSeconds("shard.publish")
	resident := 0
	for j, op := range directOps {
		m["shard."+op+"_s"] = iterationSeconds("shard." + op)
		m["shard."+op+"_merge_s"] = median(merge[j])
		m["shard."+op+"_merged"] = float64(stats[j].merged)
		resident = max(resident, stats[j].residentMax)
	}
	m["shard.resident_max"] = float64(resident)

	m["division.hash_s"] = s.probeSeconds("division.hash")
	m["division.hash_probes"] = float64(probes)
	m["division.hash_comparisons"] = float64(comparisons)
	m["engine.routed_divide_s"] = s.probeSeconds("engine.routed_divide")
	m["setjoin.groups_s"] = s.probeSeconds("setjoin.groups")
	m["setjoin.signature_s"] = s.probeSeconds("setjoin.signature")
	m["setjoin.hash_equality_s"] = s.probeSeconds("setjoin.hash_equality")
	m["setjoin.signature_pairs"] = float64(pairs)
	m["setjoin.signature_verifications"] = float64(verifications)

	// Sequential twin ÷ parallel. The sharded joins group their inputs
	// themselves, so their twins include setjoin.Groups.
	m["shard.divide_speedup"] = m["division.hash_s"] / m["shard.divide_s"]
	m["shard.containment_speedup"] = (m["setjoin.groups_s"] + m["setjoin.signature_s"]) / m["shard.containment_s"]
	m["shard.equality_speedup"] = (m["setjoin.groups_s"] + m["setjoin.hash_equality_s"]) / m["shard.equality_s"]
	m["engine.routed_speedup"] = m["division.hash_s"] / m["engine.routed_divide_s"]
	return nil
}

// tracedPass runs own's section at cfg.traceK and the other
// workloads' sections at cfg.referenceK, and merges their metrics:
// own's value where own's section has the name, else the first
// section's that has.
func tracedPass(cfg *config, own *workload) (*section, error) {
	tr := newTracer()
	merged := &section{w: own, tr: tr, outcome: outcome{metrics: map[string]float64{}}}
	order := []*workload{own}
	for _, w := range workloads {
		if w != own {
			order = append(order, w)
		}
	}
	for _, w := range order {
		reps := cfg.referenceK
		if w == own {
			reps = cfg.traceK
		}
		tr.workload = w.name
		s := &section{w: w, tr: tr, outcome: outcome{metrics: map[string]float64{}}}
		run := traceRaquery
		if w.direct() {
			run = traceDirect
		}
		if err := run(cfg, s, reps); err != nil {
			return nil, fmt.Errorf("traced pass, %s section: %w", w.name, err)
		}
		for name, v := range s.metrics {
			if _, have := merged.metrics[name]; !have {
				merged.metrics[name] = v
			}
		}
		merged.attempted += s.attempted
		merged.failed += s.failed
		if merged.firstErr == nil {
			merged.firstErr = s.firstErr
		}
		// The next section starts on a heap without this one's garbage.
		runtime.GC()
		debug.FreeOSMemory()
	}
	return merged, tr.writeFile(filepath.Join(cfg.outDir, "trace-"+own.name+".json"))
}
