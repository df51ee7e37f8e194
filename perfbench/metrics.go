package main

// layerMetric is one per-layer metric of the traced run with the
// end-to-end metric and workload it should move. BENCHMARK.json lists the
// same names and units in the same order (perfbench_test.go checks it).
type layerMetric struct {
	name, unit, better, target string
}

// perLayer is every per-layer metric, in report order.
var perLayer = []layerMetric{
	{"graph.parse_s", "s", "lower", "-> setup_s (fold-stream, read-mixed), op_p50_ms (mine-batch)"},
	{"partition.s", "s", "lower", "-> op_p50_ms (mine-batch, fold-stream); reads unchanged"},
	{"units.busy_s", "s", "lower", "-> op_p50_ms (mine-batch, fold-stream)"},
	{"units.max_s", "s", "lower", "-> op_p50_ms (mine-batch, fold-stream)"},
	{"units.skew", "ratio", "lower", "max/mean unit time -> op_p50_ms (mine-batch, fold-stream)"},
	{"units.remined_per_fold", "count", "lower", "from remined_units -> op_p50_ms (fold-stream)"},
	{"index.build_s", "s", "lower", "-> op_p50_ms (mine-batch), setup_s (fold-stream, read-mixed)"},
	{"index.clone_s", "s", "lower", "-> op_p50_ms (fold-stream)"},
	{"index.update_s", "s", "lower", "timed on a twin clone -> op_p50_ms (fold-stream)"},
	{"index.inner_build_s", "s", "lower", "-> op_p50_ms (mine-batch, fold-stream)"},
	{"merge.s", "s", "lower", "-> op_p50_ms (mine-batch, fold-stream)"},
	{"merge.root_s", "s", "lower", "-> op_p50_ms (mine-batch, fold-stream)"},
	{"merge.verify_s", "s", "lower", "summed over candidates -> op_p50_ms (mine-batch, fold-stream)"},
	{"merge.candidates", "count", "lower", "per mine or fold -> op_p50_ms (mine-batch, fold-stream)"},
	{"merge.iso_tests", "count", "lower", "per mine or fold -> op_p50_ms (mine-batch, fold-stream)"},
	{"merge.frequent", "count", "higher", "per mine or fold; base of merge.useful_ratio"},
	{"merge.useful_ratio", "ratio", "higher", "frequent/candidates -> op_p50_ms (mine-batch, fold-stream)"},
	{"core.mine_s", "s", "lower", "-> op_p50_ms (mine-batch), setup_s (fold-stream, read-mixed)"},
	{"core.incmine_s", "s", "lower", "-> op_p50_ms (fold-stream)"},
	{"core.self_s", "s", "lower", "core time outside child spans -> op_p50_ms (mine-batch, fold-stream)"},
	{"fold.covered_frac", "ratio", "higher", "fold wall covered by layer spans; the rest is unattributed"},
	{"server.fold_ms", "ms", "lower", "server latency_ns -> op_p50_ms (fold-stream)"},
	{"server.queue_wait_ms", "ms", "lower", "client minus server fold time -> op_p50_ms (fold-stream)"},
	{"server.snapshot_build_ms", "ms", "lower", "query.IndexFromPatterns -> op_p50_ms (fold-stream), setup_s"},
	{"server.http_ms", "ms", "lower", "server-side contains mean -> op_p50_ms (read-mixed)"},
	{"read.client_ms", "ms", "lower", "client send-to-reply mean, against server.http_ms"},
	{"query.reads", "count", "higher", "contains replies; base of the query shares"},
	{"query.plan_hit_share", "ratio", "higher", "-> op_tail_ms, read_max_rps (read-mixed)"},
	{"query.cache_hit_share", "ratio", "higher", "-> op_tail_ms, read_max_rps (read-mixed)"},
	{"query.generic_share", "ratio", "lower", "-> op_tail_ms, read_max_rps (read-mixed)"},
	{"query.plan_us", "us", "lower", "-> op_p50_ms (read-mixed); not mine-batch or fold-stream"},
	{"query.cache_us", "us", "lower", "-> op_p50_ms (read-mixed); not mine-batch or fold-stream"},
	{"query.generic_us", "us", "lower", "-> op_p50_ms, op_tail_ms (read-mixed)"},
	{"query.generic_candidates", "count", "lower", "-> op_tail_ms (read-mixed)"},
	{"read.during_fold_tail_ms", "ms", "lower", "reads overlapping a fold -> op_tail_ms (read-mixed)"},
	{"read.idle_tail_ms", "ms", "lower", "reads overlapping no fold -> op_tail_ms (read-mixed)"},
	{"gen.late_ms", "ms", "lower", "p99 open-loop send lateness; large values void read timings"},
	{"gen.backlog_max", "count", "lower", "reads due but not yet sent, at worst"},
	{"trace.overhead_frac", "ratio", "lower", "traced pass over untraced pass, same inputs"},
}

// endToEnd is every end-to-end metric, in report order; every workload
// reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"gaston_ms", "ms"},
}
