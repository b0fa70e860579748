package vm

import "halo/internal/obs"

// Event-engine metrics, recorded once per batch flush (never per event) so
// the interpreter's hot loop stays untouched. Registered in the process
// Default registry; halod renders them under GET /metrics.
var (
	mRuns = obs.Default.Counter("halo_vm_runs_total",
		"VM executions started (training runs, measurement trials, replays)")
	mEvents = obs.Default.Counter("halo_vm_events_total",
		"events delivered to sinks by the batched event engine")
	mBatches = obs.Default.Counter("halo_vm_batches_total",
		"event batches flushed to sinks")
	mBatchFill = obs.Default.Gauge("halo_vm_batch_fill_pct",
		"ring-buffer occupancy of the most recently flushed batch (percent of capacity)")
	mPredecodeHits = obs.Default.Counter("halo_vm_predecode_cache_hits_total",
		"Predecode calls served from the per-program decode cache")
	mPredecodeMisses = obs.Default.Counter("halo_vm_predecode_cache_misses_total",
		"Predecode calls that lowered a program from scratch")
	mTLBHits = obs.Default.Counter("halo_vm_tlb_hits_total",
		"software-TLB hits in the threaded dispatcher (recorded once per run)")
	mTLBMisses = obs.Default.Counter("halo_vm_tlb_misses_total",
		"software-TLB misses in the threaded dispatcher (recorded once per run)")
)
