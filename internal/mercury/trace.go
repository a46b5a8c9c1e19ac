package mercury

import "mochi/internal/trace"

// SetTracer installs a tracer on the class (nil uninstalls). The class
// itself only opens bulk-transfer spans — request/response span
// lifecycles belong to the margo layer, whose server spans the handles
// carry to their reply. margo installs its instance tracer here so
// transfers issued from handlers land in the same ring, timed on the
// same clock, as the surrounding spans.
func (c *Class) SetTracer(t *trace.Tracer) { c.tracer.Store(t) }

// Tracer returns the installed tracer, or nil.
func (c *Class) Tracer() *trace.Tracer { return c.tracer.Load() }
