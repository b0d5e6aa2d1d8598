package core

import (
	"fmt"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/prov"
)

// Qualified-name helpers for the generated document. All elements live
// in the "ex" namespace; class tags use provml terms, mirroring the
// paper's Figure 1 document layout.
func (r *Run) qRun() prov.QName        { return prov.NewQName("ex", r.ID) }
func (r *Run) qExperiment() prov.QName { return prov.NewQName("ex", sanitizeID(r.exp.Name)) }
func (r *Run) qUser() prov.QName       { return prov.NewQName("ex", sanitizeID(r.exp.User)) }
func (r *Run) qLibrary() prov.QName    { return prov.NewQName("ex", "yprov4ml") }

func (r *Run) qContext(ctx metrics.Context) prov.QName {
	return prov.NewQName("ex", r.ID+"_ctx_"+sanitizeID(string(ctx)))
}

func (r *Run) qEpoch(ctx metrics.Context, index int) prov.QName {
	return prov.NewQName("ex", r.ID+"_ctx_"+sanitizeID(string(ctx))+"_epoch"+strconv.Itoa(index))
}

func (r *Run) qParam(name string) prov.QName {
	return prov.NewQName("ex", r.ID+"_param_"+sanitizeID(name))
}

func (r *Run) qMetric(k metrics.Key) prov.QName {
	return prov.NewQName("ex", r.ID+"_metric_"+sanitizeID(string(k.Context))+"_"+sanitizeID(k.Name))
}

func (r *Run) qArtifact(a Artifact) prov.QName {
	return prov.NewQName("ex", r.ID+"_artifact_"+sanitizeID(a.Name))
}

// BuildProv renders the run into a W3C PROV document following the
// Figure 2 data model. metricRefs maps series keys to storage references
// produced by the metric sink (empty map = inline storage markers).
func (r *Run) BuildProv(metricRefs map[metrics.Key]string) (*prov.Document, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	d := prov.NewDocument()
	now := r.endTime
	if now.IsZero() {
		now = r.clock.Now()
	}

	// Experiment entity, run activity, agents.
	d.AddEntity(r.qExperiment(), prov.Attrs{
		"prov:type":        prov.Str("provml:Experiment"),
		"provml:name":      prov.Str(r.exp.Name),
		"provml:user":      prov.Str(r.exp.User),
		"provml:n_runs":    prov.Int(int64(r.exp.runCount())),
		"provml:directory": prov.Str(r.exp.Dir),
	})
	runAct := d.AddActivity(r.qRun(), prov.Attrs{
		"prov:type":      prov.Str("provml:RunExecution"),
		"provml:run_id":  prov.Str(r.ID),
		"provml:name":    prov.Str(r.Name),
		"provml:storage": prov.Str(r.storage.String()),
	})
	runAct.StartTime = r.started
	runAct.EndTime = now
	d.AddAgent(r.qUser(), prov.Attrs{"prov:type": prov.Str("prov:Person"), "provml:name": prov.Str(r.exp.User)})
	d.AddAgent(r.qLibrary(), prov.Attrs{"prov:type": prov.Str("prov:SoftwareAgent"), "provml:name": prov.Str("yProv4ML"), "provml:version": prov.Str(Version)})
	d.WasAssociatedWith(r.qRun(), r.qUser())
	d.WasAssociatedWith(r.qRun(), r.qLibrary())
	d.ActedOnBehalfOf(r.qLibrary(), r.qUser())
	// The run generates/extends the experiment record.
	d.Used(r.qRun(), r.qExperiment(), r.started)

	// Contexts as sub-activities informed by the run.
	ctxNames := make([]string, 0, len(r.contexts))
	for c := range r.contexts {
		ctxNames = append(ctxNames, string(c))
	}
	sortStrings(ctxNames)
	for _, cn := range ctxNames {
		ctx := metrics.Context(cn)
		a := d.AddActivity(r.qContext(ctx), prov.Attrs{
			"prov:type":      prov.Str("provml:Context"),
			"provml:context": prov.Str(cn),
		})
		a.StartTime = r.started
		a.EndTime = now
		d.WasInformedBy(r.qContext(ctx), r.qRun())

		for _, ep := range r.epochs[ctx] {
			e := d.AddActivity(r.qEpoch(ctx, ep.Index), prov.Attrs{
				"prov:type":         prov.Str("provml:Epoch"),
				"provml:epoch":      prov.Int(int64(ep.Index)),
				"provml:duration_s": prov.Float(ep.Duration.Seconds()),
			})
			e.StartTime = ep.Start
			e.EndTime = ep.End
			d.WasInformedBy(r.qEpoch(ctx, ep.Index), r.qContext(ctx))
		}
	}

	// Parameters: entities used by (inputs) or generated by (outputs) the
	// run or its context activity.
	for _, p := range r.params {
		id := r.qParam(p.name)
		d.AddEntity(id, prov.Attrs{
			"prov:type":        prov.Str("provml:Parameter"),
			"provml:name":      prov.Str(p.name),
			"provml:value":     p.value,
			"provml:direction": prov.Str(p.direction.String()),
		})
		target := r.qRun()
		if p.context != "" && r.contexts[p.context] {
			target = r.qContext(p.context)
		}
		if p.direction == Input {
			d.Used(target, id, r.started)
		} else {
			d.WasGeneratedBy(id, target, now)
		}
	}

	// Metrics: summary entities generated by their context activity,
	// holding storage references instead of raw points. StatsSnapshot
	// folds each series' blocks in place into five numbers.
	for _, ss := range r.metrics.StatsSnapshot() {
		k := ss.Key
		st := ss.Stats
		ref := metricRefs[k]
		if ref == "" {
			ref = "inline:" + k.String()
		}
		attrs := prov.Attrs{
			"prov:type":      prov.Str("provml:Metric"),
			"provml:name":    prov.Str(k.Name),
			"provml:context": prov.Str(string(k.Context)),
			"provml:points":  prov.Int(int64(st.Count)),
			"provml:mean":    prov.Float(st.Mean),
			"provml:min":     prov.Float(st.Min),
			"provml:max":     prov.Float(st.Max),
			"provml:last":    prov.Float(st.Last),
			"provml:storage": prov.Str(ref),
		}
		id := r.qMetric(k)
		d.AddEntity(id, attrs)
		target := r.qRun()
		if r.contexts[k.Context] {
			target = r.qContext(k.Context)
		}
		d.WasGeneratedBy(id, target, now)
	}

	// Artifacts.
	for _, a := range r.artifacts {
		id := r.qArtifact(a)
		attrs := prov.Attrs{
			"prov:type":        prov.Str("provml:Artifact"),
			"provml:name":      prov.Str(a.Name),
			"provml:path":      prov.Str(a.Path),
			"provml:kind":      prov.Str(a.Kind),
			"provml:size":      prov.Int(a.SizeBytes),
			"provml:direction": prov.Str(a.Direction.String()),
		}
		if a.SHA256 != "" {
			attrs["provml:sha256"] = prov.Str(a.SHA256)
		}
		d.AddEntity(id, attrs)
		target := r.qRun()
		if a.Context != "" && r.contexts[a.Context] {
			target = r.qContext(a.Context)
		}
		if a.Direction == Input {
			d.Used(target, id, a.LoggedAt)
		} else {
			d.WasGeneratedBy(id, target, a.LoggedAt)
			d.WasAttributedTo(id, r.qUser())
		}
	}

	// Derivations: every output artifact derives from every input
	// artifact (coarse-grained lineage, as in Figure 1).
	for _, out := range r.artifacts {
		if out.Direction != Output {
			continue
		}
		for _, in := range r.artifacts {
			if in.Direction != Input {
				continue
			}
			d.WasDerivedFrom(r.qArtifact(out), r.qArtifact(in))
		}
	}

	if _, err := d.Validate(); err != nil {
		return nil, fmt.Errorf("core: generated document invalid: %w", err)
	}
	return d, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// Version is the library version recorded in every document.
const Version = "1.0.0-repro"
