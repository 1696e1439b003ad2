package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run (BENCHMARK.json lists them with their bounds).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_tps", "1/s"},
	{"txn_p50_ms", "ms"},
	{"txn_p99_ms", "ms"},
	{"txn_ok_frac", "fraction"},
	{"restart_s", "s"},
	{"machines_avg", "machines"},
	{"slo_met_frac", "fraction"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = []metricDef{
	{"store.exec_p50_ms", "ms"},
	{"store.exec_p99_ms", "ms"},
	{"store.sojourn_p99_ms", "ms"},
	{"store.refused", "count"},
	{"client.exec_p50_ms", "ms"},
	{"wire.overhead_p50_ms", "ms"},
	{"server.decode_us_p50", "us"},
	{"wal.syncs_per_txn", "1/txn"},
	{"wal.sync_p50_ms", "ms"},
	{"wal.write_bytes_per_txn", "B/txn"},
	{"wal.read_bytes_per_txn", "B/txn"},
	{"wal.follower_sync_p50_ms", "ms"},
	{"wal.follower_write_bytes_per_txn", "B/txn"},
	{"recovery.readship_ms", "ms"},
	{"recovery.checkpoint_ms", "ms"},
	{"recovery.cold_start_ms", "ms"},
	{"recovery.replayed", "count"},
	{"recovery.log_bytes", "B"},
	{"transport.ship_lag_p99", "B"},
	{"transport.shipped_per_txn", "1/txn"},
	{"predictor.fit_ms", "ms"},
	{"predictor.forecast_us_p50", "us"},
	{"elastic.tick_ms_p50", "ms"},
	{"elastic.tick_ms_max", "ms"},
	{"planner.self_ms_p50", "ms"},
	{"cluster.decisions", "count"},
	{"cluster.moves", "count"},
	{"cluster.emergency_moves", "count"},
	{"squall.move_s_p50", "s"},
	{"squall.move_s_max", "s"},
	{"squall.chunk_retries", "count"},
	{"squall.move_failures", "count"},
	{"gen.late_ms_p99", "ms"},
	{"b2w.business_err_frac", "fraction"},
}
