package server

import (
	"dlsmech/internal/obs"
	"dlsmech/internal/protocol"
)

// Metric names the daemon exports. The smoke job greps the scrape for the
// wire_decode_error and session_leak substrings, so those two names are
// load-bearing.
const (
	MetricConnsAccepted    = "dlsd_conns_accepted_total"
	MetricConnsRejected    = "dlsd_conns_rejected_total"
	MetricConnsActive      = "dlsd_conns_active"
	MetricReadTimeouts     = "dlsd_read_timeouts_total"
	MetricWireDecodeErrors = "dlsd_wire_decode_error_total"
	MetricSessionLeaks     = "dlsd_session_leak_total"
	MetricSessionsCreated  = "dlsd_sessions_created_total"
	MetricSessionsPooled   = "dlsd_sessions_pooled_total"
	MetricSessionsActive   = "dlsd_sessions_active"
	MetricRoundsServed     = "dlsd_rounds_served_total"
	MetricRoundsFailed     = "dlsd_rounds_failed_total"
	MetricRoundsRejected   = "dlsd_rounds_rejected_total"
	MetricRoundSeconds     = "dlsd_round_seconds"
	MetricErrorsSent       = "dlsd_errors_sent_total"
	MetricLedgerFailures   = "dlsd_ledger_conservation_failures_total"
	MetricTenants          = "dlsd_tenants"
	MetricDraining         = "dlsd_draining"
	// MetricLedgerRoundFailures counts rounds the evidence ledger could not
	// durably record (answered with CodeLedgerFailed or voided). The
	// append/fsync/fork series live under the same dlsd prefix via
	// ledger.NewMetrics.
	MetricLedgerRoundFailures = "dlsd_ledger_round_failures_total"
	MetricRoundsRecovered     = "dlsd_rounds_recovered_total"
	// Stream metrics: one stream serves many loads through a pipelined
	// session. Occupancy is the pipeline's instantaneous unsettled-load
	// count; inter-settle latency between consecutive acknowledged loads is
	// the observed steady-state period (compare des.Steady.Period).
	MetricStreamsServed      = "dlsd_streams_served_total"
	MetricStreamLoads        = "dlsd_stream_loads_total"
	MetricPipelineOccupancy  = "dlsd_pipeline_occupancy"
	MetricInterSettleSeconds = "dlsd_inter_settle_seconds"
	// MetricWorkersStarted counts the processor goroutines the process has
	// started (protocol.WorkersStarted). Rounds run on parked workers, so
	// it stays flat under steady load and rises only when more rounds run
	// at once than before, or after idle workers were collected.
	MetricWorkersStarted = "dlsd_processor_workers_started_total"
)

// RoundSecondsBuckets buckets round latencies from 100µs to 10s: a warm
// m=64 round lands under a millisecond; fault-injected rounds with
// detector timeouts land in the tens-to-hundreds of milliseconds.
var RoundSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics holds the daemon's live handles; registration happens once at
// construction so every series exists (at zero) from the first scrape.
type metrics struct {
	connsAccepted       *obs.Counter
	connsRejected       *obs.Counter
	connsActive         *obs.Gauge
	readTimeouts        *obs.Counter
	wireDecodeErrors    *obs.Counter
	sessionLeaks        *obs.Counter
	sessionsCreated     *obs.Counter
	sessionsPooled      *obs.Counter
	sessionsActive      *obs.Gauge
	roundsServed        *obs.Counter
	roundsFailed        *obs.Counter
	roundsRejected      *obs.Counter
	roundSeconds        *obs.Histogram
	errorsSent          *obs.Counter
	ledgerFailures      *obs.Counter
	ledgerRoundFailures *obs.Counter
	roundsRecovered     *obs.Counter
	streamsServed       *obs.Counter
	streamLoads         *obs.Counter
	pipelineOccupancy   *obs.Gauge
	interSettleSeconds  *obs.Histogram
	tenants             *obs.Gauge
	draining            *obs.Gauge
}

func newMetrics(r *obs.Registry) *metrics {
	r.CounterFunc(MetricWorkersStarted, protocol.WorkersStarted)
	return &metrics{
		connsAccepted:       r.Counter(MetricConnsAccepted),
		connsRejected:       r.Counter(MetricConnsRejected),
		connsActive:         r.Gauge(MetricConnsActive),
		readTimeouts:        r.Counter(MetricReadTimeouts),
		wireDecodeErrors:    r.Counter(MetricWireDecodeErrors),
		sessionLeaks:        r.Counter(MetricSessionLeaks),
		sessionsCreated:     r.Counter(MetricSessionsCreated),
		sessionsPooled:      r.Counter(MetricSessionsPooled),
		sessionsActive:      r.Gauge(MetricSessionsActive),
		roundsServed:        r.Counter(MetricRoundsServed),
		roundsFailed:        r.Counter(MetricRoundsFailed),
		roundsRejected:      r.Counter(MetricRoundsRejected),
		roundSeconds:        r.Histogram(MetricRoundSeconds, RoundSecondsBuckets),
		errorsSent:          r.Counter(MetricErrorsSent),
		ledgerFailures:      r.Counter(MetricLedgerFailures),
		ledgerRoundFailures: r.Counter(MetricLedgerRoundFailures),
		roundsRecovered:     r.Counter(MetricRoundsRecovered),
		streamsServed:       r.Counter(MetricStreamsServed),
		streamLoads:         r.Counter(MetricStreamLoads),
		pipelineOccupancy:   r.Gauge(MetricPipelineOccupancy),
		interSettleSeconds:  r.Histogram(MetricInterSettleSeconds, RoundSecondsBuckets),
		tenants:             r.Gauge(MetricTenants),
		draining:            r.Gauge(MetricDraining),
	}
}
