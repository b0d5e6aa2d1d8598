package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; do not copy after first use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Labels name the dimensions of one series within a metric family.
type Labels map[string]string

// Registry collects instruments for Prometheus text exposition.
// Registration methods are nil-receiver safe — a subsystem can call
// RegisterObs unconditionally and a nil registry makes it a no-op —
// so instruments are always live and registries are purely about who
// scrapes them.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

type family struct {
	name, help, typ string
	series          []series
}

type series struct {
	labels string // pre-rendered {k="v",...} or ""
	write  func(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) add(name, help, typ string, labels Labels, write func(io.Writer, string, string)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	f.series = append(f.series, series{labels: renderLabels(labels), write: write})
}

// RegisterCounter exposes c as a counter series.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	r.add(name, help, "counter", labels, func(w io.Writer, n, l string) {
		fmt.Fprintf(w, "%s%s %d\n", n, l, c.Value())
	})
}

// RegisterCounterFunc exposes f's value as a counter series; f must be
// monotonic and safe for concurrent use.
func (r *Registry) RegisterCounterFunc(name, help string, labels Labels, f func() float64) {
	r.add(name, help, "counter", labels, func(w io.Writer, n, l string) {
		fmt.Fprintf(w, "%s%s %s\n", n, l, fmtFloat(f()))
	})
}

// RegisterGaugeFunc exposes f's value as a gauge series.
func (r *Registry) RegisterGaugeFunc(name, help string, labels Labels, f func() float64) {
	r.add(name, help, "gauge", labels, func(w io.Writer, n, l string) {
		fmt.Fprintf(w, "%s%s %s\n", n, l, fmtFloat(f()))
	})
}

// RegisterHistogram exposes h in the standard _bucket/_sum/_count
// shape, bucket bounds scaled to the histogram's exposition unit.
// Buckets with exemplars enabled render the latest exemplar as a
// `# {trace_id="..."} value timestamp` suffix on the bucket line.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	r.add(name, help, "histogram", labels, func(w io.Writer, n, l string) {
		s := h.Snapshot()
		var cum uint64
		for i, upper := range h.rawUppers {
			cum += s.Counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d", n, withLabel(l, "le", fmtFloat(float64(upper)*h.scale)), cum)
			writeExemplar(w, h, i)
			io.WriteString(w, "\n")
		}
		fmt.Fprintf(w, "%s_bucket%s %d", n, withLabel(l, "le", "+Inf"), s.Count)
		writeExemplar(w, h, len(h.rawUppers))
		io.WriteString(w, "\n")
		fmt.Fprintf(w, "%s_sum%s %s\n", n, l, fmtFloat(float64(s.Sum)*h.scale))
		fmt.Fprintf(w, "%s_count%s %d\n", n, l, s.Count)
	})
}

// writeExemplar appends bucket i's exemplar suffix, if any, to the
// current (unterminated) bucket line.
func writeExemplar(w io.Writer, h *Histogram, i int) {
	ex, ok := h.ExemplarAt(i)
	if !ok {
		return
	}
	fmt.Fprintf(w, " # {trace_id=\"%s\"} %s %s",
		escapeLabel(ex.TraceID), fmtFloat(ex.Value),
		strconv.FormatFloat(float64(ex.UnixNano)/1e9, 'f', 3, 64))
}

// WritePrometheus writes the full exposition in Prometheus text
// format (version 0.0.4), families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.write(w, f.name, s.labels)
		}
	}
}

func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel splices one extra label (e.g. le) into a pre-rendered
// label set.
func withLabel(labels, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func fmtFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
