package serve

// Health is the GET /healthz body: the wire shape a liveness probe decodes.
// The cluster router probes backend radixserve instances with Client.Health
// and ejects nodes whose probes fail. Status is "ok" while serving and
// "draining" (with HTTP 503) once the registry has closed for shutdown, so
// routers stop sending a stopping backend traffic before its listener dies.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Models        int     `json:"models"`
	// Zone is the backend's self-reported failure domain (rack,
	// availability zone — operator-defined granularity). The router's
	// zone-aware placement learns it from probes and spreads a model's
	// replicas across distinct zones. Empty when the operator set none.
	Zone string `json:"zone,omitempty"`
}
