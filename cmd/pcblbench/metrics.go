package main

// metricSpec declares one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// exact marks a count that repeats exactly for a fixed seed: compare
	// judges it by equality, not by a bound.
	exact bool
}

// endToEnd are the metrics a user of the pipeline pays; they come from
// untraced runs only.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "artifact_kb", unit: "KiB", better: "lower"},
}

// perLayer are the traced run's metrics, named module.metric after the
// repository's modules, plus the harness's own validity checks. The
// pipeline's wall times lead: what a user waits for, reported without a
// bound because they do not repeat within one across runs (README.md).
var perLayer = []metricSpec{
	{name: "pipeline.build_s", unit: "s", better: "lower"},
	{name: "pipeline.update_s", unit: "s", better: "lower"},
	{name: "pipeline.query_qps", unit: "req/s", better: "higher"},

	{name: "dataset.read_ms", unit: "ms", better: "lower"},
	{name: "dataset.append_ms", unit: "ms", better: "lower"},
	{name: "dataset.append_parsed_rows", unit: "count", better: "lower", exact: true},
	{name: "dataset.append_kept_frac", unit: "fraction", better: "higher", exact: true},

	{name: "search.distinct_ms", unit: "ms", better: "lower"},
	{name: "search.enumerate_ms", unit: "ms", better: "lower"},
	{name: "search.evaluate_ms", unit: "ms", better: "lower"},
	{name: "search.sets_sized", unit: "count", better: "lower", exact: true},
	{name: "search.inbound_frac", unit: "fraction", better: "higher", exact: true},
	{name: "search.refined_frac", unit: "fraction", better: "higher", exact: true},
	{name: "search.evaluated", unit: "count", better: "lower", exact: true},
	{name: "search.patterns_per_eval", unit: "count", better: "lower", exact: true},
	{name: "search.pool_hit_frac", unit: "fraction", better: "higher"},

	{name: "core.label_build_ms", unit: "ms", better: "lower"},
	{name: "core.delta_build_ms", unit: "ms", better: "lower"},
	{name: "core.rows_scanned", unit: "count", better: "lower", exact: true},
	{name: "core.count_us", unit: "us", better: "lower"},
	{name: "core.estimate_us", unit: "us", better: "lower"},
	{name: "core.marginal_us", unit: "us", better: "lower"},
	{name: "core.spill_hot_frac", unit: "fraction", better: "higher"},
	{name: "core.run_loads_per_kq", unit: "count", better: "lower"},
	{name: "core.spill_read_retries", unit: "count", better: "lower"},

	{name: "spill.sets", unit: "count", better: "lower", exact: true},
	{name: "spill.runs", unit: "count", better: "lower", exact: true},
	{name: "spill.bytes_written", unit: "bytes", better: "lower", exact: true},
	{name: "spill.max_run_entries", unit: "count", better: "lower", exact: true},
	{name: "spill.fallbacks", unit: "count", better: "lower", exact: true},

	{name: "artifact.save_ms", unit: "ms", better: "lower"},
	{name: "artifact.open_ms", unit: "ms", better: "lower"},
	{name: "artifact.merge_ms", unit: "ms", better: "lower"},
	{name: "artifact.syncs_per_commit", unit: "count", better: "lower", exact: true},
	{name: "artifact.write_ops_per_commit", unit: "count", better: "lower", exact: true},

	{name: "serve.handler_p50_us", unit: "us", better: "lower"},
	{name: "serve.handler_p99_us", unit: "us", better: "lower"},
	{name: "serve.parse_us", unit: "us", better: "lower"},
	{name: "serve.encode_us", unit: "us", better: "lower"},
	{name: "serve.transport_p50_us", unit: "us", better: "lower"},
	{name: "serve.count_p99_us", unit: "us", better: "lower"},
	{name: "serve.estimate_p99_us", unit: "us", better: "lower"},
	{name: "serve.marginal_p99_us", unit: "us", better: "lower"},
	{name: "serve.reload_ms", unit: "ms", better: "lower"},
	{name: "serve.shed_frac", unit: "fraction", better: "lower"},

	{name: "runtime.alloc_kb_per_query", unit: "KiB", better: "lower"},
	{name: "runtime.allocs_per_query", unit: "count", better: "lower"},
	{name: "runtime.alloc_mb_per_build", unit: "MiB", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "fraction", better: "lower"},

	{name: "loadgen.closed_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.open_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.open_p90_us", unit: "us", better: "lower"},
	{name: "loadgen.open_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.lag_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.open_samples", unit: "count", better: "higher"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower"},
	{name: "unaccounted.build_frac", unit: "fraction", better: "lower"},
	{name: "unaccounted.update_frac", unit: "fraction", better: "lower"},
	{name: "reference.naive_groupby_ms", unit: "ms", better: "lower"},
	{name: "check.error_frac", unit: "fraction", better: "lower", exact: true},
	{name: "quality.label_max_abs_err", unit: "count", better: "lower", exact: true},
}

func specOf(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
