package obs

import (
	"expvar"
	"sync/atomic"
)

// Process-wide fault-domain supervision counters, published as expvars so
// a scraper sees degradation without asking the service's own endpoints.
// A trip means a fault domain (cache store, checkpoints, ledger,
// quarantine) shed its feature; a recovery means the half-open probe
// succeeded and the domain re-closed. open_domains is the live gauge of
// domains currently away from closed — its steady-state value is zero.
var (
	healthTrips      = expvar.NewInt("rmrls.health_trips")
	healthProbes     = expvar.NewInt("rmrls.health_probes")
	healthRecoveries = expvar.NewInt("rmrls.health_recoveries")
	healthOpen       = expvar.NewInt("rmrls.health_open_domains")
	healthOpenGauge  atomic.Int64
)

// IncBreakerTrip counts one fault-domain trip (closed → open).
func IncBreakerTrip() { healthTrips.Add(1) }

// IncBreakerProbe counts one half-open probe admission.
func IncBreakerProbe() { healthProbes.Add(1) }

// IncBreakerRecovery counts one domain re-close after a successful probe.
func IncBreakerRecovery() { healthRecoveries.Add(1) }

// AddOpenDomains moves the live open-domain gauge (+1 on trip, -1 on
// recovery).
func AddOpenDomains(delta int64) {
	healthOpen.Set(healthOpenGauge.Add(delta))
}
