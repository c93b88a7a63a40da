package main

// endToEndDefs are the metrics a user of the system sees, measured with
// tracing off on every workload. BENCHMARK.json lists the same names.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"frames_per_s", "frames/s"},
	{"frame_ms_p50", "ms"},
	{"frame_ms_p99", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers from the traced run. A layer a
// workload does not exercise reads 0 on it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"synth.generate_s", "s"},
		{"synth.render_ms", "ms"},
		{"rfcn.detect_ms", "ms"},
		{"rfcn.features_ms", "ms"},
		{"rfcn.backbone_ms", "ms"},
		{"rfcn.backbone_mflop_per_frame", "MFLOP"},
		{"rfcn.backbone_gflop_per_s", "GFLOP/s"},
		{"regressor.predict_ms", "ms"},
		{"regressor.mean_scale", "px"},
		{"regressor.labels_s", "s"},
		{"regressor.fit_s", "s"},
		{"regressor.fit_steps", "count"},
		{"scaleopt.optimal_ms", "ms"},
		{"eval.evaluate_ms", "ms"},
		{"parallel.cpu_util", "cpu_s/s"},
		{"serve.run_s", "s"},
		{"serve.model_only_s", "s"},
		{"serve.skipped_frac", "fraction"},
		{"serve.queue_wait_ms_p95", "ms"},
		{"cluster.run_s", "s"},
		{"cluster.ring_assign_ms", "ms"},
		{"cluster.epochs", "count"},
		{"cluster.failovers", "count"},
		{"cluster.migrations", "count"},
		{"map", "fraction"},
		{"drop_rate", "fraction"},
		{"slo_miss_rate", "fraction"},
		{"frame_ms.samples", "count"},
	}
	for _, d := range endToEndDefs {
		defs = append(defs, metricDef{"overhead." + d.name, d.unit})
	}
	return defs
}()
