package snap

import (
	"snap/internal/telemetry"
)

// TelemetryRegistry is an engine's metrics registry (internal/telemetry):
// scrape-time counters and gauges over the engine's hot-path atomics,
// the per-variable lock-wait and control-plane histograms, the
// controller's span log, and — when EngineOptions.TraceSampling is set —
// the sampled packet-trace ring. Every Engine owns one; reach it through
// Engine.Telemetry().
type TelemetryRegistry = telemetry.Registry

// TelemetryServer is a running telemetry HTTP listener (ServeTelemetry).
type TelemetryServer = telemetry.Server

// TelemetrySnapshot is the structured (JSON) form of one registry scrape:
// metric families with samples, controller spans, sampled packet traces.
// snapsim -stats-json writes one of these.
type TelemetrySnapshot = telemetry.Snapshot

// ServeTelemetry exposes a registry over HTTP on addr (e.g. ":9090" or
// "127.0.0.1:0") and returns once the listener is bound:
//
//	/metrics      Prometheus text exposition
//	/healthz      liveness
//	/debug/vars   the JSON snapshot (metrics + spans + traces)
//	/debug/pprof  the standard runtime profiles
//
// Close the returned server when done; Close is idempotent.
func ServeTelemetry(addr string, reg *TelemetryRegistry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg)
}
