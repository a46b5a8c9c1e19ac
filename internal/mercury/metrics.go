package mercury

import "mochi/internal/metrics"

// transportMetrics is implemented by transports that export their own
// series (the TCP transport: connection gauges, dial latency, writev
// batch sizes, accept errors).
type transportMetrics interface {
	setMetrics(reg *metrics.Registry)
}

// SetMetrics installs a metrics registry on the class for transports
// that export wire-level series. Passing nil uninstalls. The margo
// layer calls this when it builds its registry; manual classes may too.
func (c *Class) SetMetrics(reg *metrics.Registry) {
	if tm, ok := c.tr.(transportMetrics); ok {
		tm.setMetrics(reg)
	}
}
