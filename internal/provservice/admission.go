package provservice

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Admission control: shed writes with 429/Retry-After BEFORE they queue
// on shard locks and the group-commit fsync, instead of letting latency
// collapse for everyone. Reads are never shed here — serving reads
// while writes back off is the graceful-degradation contract — and the
// health/metrics/repl route classes are always exempt so operators and
// replicas keep their view of a struggling server.
//
// The decision is fed by two lock-free gauges: the per-class in-flight
// counters kept by the metrics middleware, and the estimated commit
// wait exported by the store (wal.Log.EstimateCommitWait).

// AdmissionConfig sets the write-shedding thresholds. Zero values
// disable their check; an all-zero config disables admission control.
type AdmissionConfig struct {
	// MaxInflightWrites sheds writes while more than this many mutation
	// requests are already in flight (queued on shard locks or fsync).
	MaxInflightWrites int
	// ShedLatencyTarget sheds writes while the estimated group-commit
	// wait exceeds this duration.
	ShedLatencyTarget time.Duration
}

func (c AdmissionConfig) enabled() bool {
	return c.MaxInflightWrites > 0 || c.ShedLatencyTarget > 0
}

// admission is the middleware state: the config and per-reason shed
// counters exposed as yprov_admission_shed_total{reason=...} on
// /metrics, so operators can tell WHICH threshold is tripping (latency
// target vs. in-flight).
type admission struct {
	cfg AdmissionConfig

	shedWait     obs.Counter // ShedLatencyTarget exceeded
	shedInflight obs.Counter // MaxInflightWrites exceeded
}

// register exposes the per-reason shed counters on reg.
func (a *admission) register(reg *obs.Registry) {
	const name = "yprov_admission_shed_total"
	const help = "Writes shed by admission control, by threshold tripped."
	reg.RegisterCounter(name, help, obs.Labels{"reason": "est-commit-wait"}, &a.shedWait)
	reg.RegisterCounter(name, help, obs.Labels{"reason": "inflight-writes"}, &a.shedInflight)
}

// WithAdmission enables write admission control with the given
// thresholds (an all-zero config leaves it disabled).
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Service) {
		if cfg.enabled() {
			s.admission = &admission{cfg: cfg}
		}
	}
}

// isMutation reports whether the method is a write, mirroring the auth
// and follower-guard method sets.
func isMutation(method string) bool {
	switch method {
	case http.MethodPut, http.MethodPost, http.MethodDelete, http.MethodPatch:
		return true
	}
	return false
}

// admissionExempt lists the route classes that must keep working under
// overload: health checks (load balancers must see the truth), metrics
// (operators are debugging exactly now), and replication (followers
// draining the backlog is how the overload ends).
func admissionExempt(class string) bool {
	switch class {
	case "health", "metrics", "repl":
		return true
	}
	return false
}

// withAdmission sheds writes when the shed thresholds are crossed. It
// sits inside auth (a 401 should stay a 401 under overload, and
// unauthenticated traffic must not be able to probe queue state) and
// outside the follower guard (shedding is about this server's queues,
// wherever writes would land).
func (s *Service) withAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := s.admission
		if a == nil || !isMutation(r.Method) || admissionExempt(routeClass(r.URL.EscapedPath())) {
			next.ServeHTTP(w, r)
			return
		}
		if reason, byReason, retryAfter, ok := a.admit(s); !ok {
			byReason.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			writeErr(w, http.StatusTooManyRequests, "write shed: %s; retry after backoff", reason)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// admit evaluates the thresholds. Not ok => (human-readable reason,
// the per-reason counter to bump, Retry-After seconds). The in-flight
// gauge already counts this request (the metrics middleware wraps this
// one), hence the strict >.
func (a *admission) admit(s *Service) (reason string, byReason *obs.Counter, retryAfter int, ok bool) {
	estWait := s.store.CommitWait()
	if t := a.cfg.ShedLatencyTarget; t > 0 && estWait > t {
		return "estimated commit wait " + estWait.Round(time.Millisecond).String() +
			" over target " + t.String(), &a.shedWait, retrySecs(estWait), false
	}
	if m := a.cfg.MaxInflightWrites; m > 0 {
		if inflight := s.metrics.inflightWrites.Load(); inflight > int64(m) {
			return "in-flight writes " + strconv.FormatInt(inflight, 10) +
				" over limit " + strconv.Itoa(m), &a.shedInflight, retrySecs(estWait), false
		}
	}
	return "", nil, 0, true
}

// retrySecs turns the estimated queue wait into a Retry-After value:
// at least 1s (the floor clients jitter on top of), at most 30s so a
// transient spike cannot park clients for minutes.
func retrySecs(estWait time.Duration) int {
	secs := int((estWait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// --- request deadlines -------------------------------------------------

// timeoutHeader lets a client ask for a shorter per-request deadline
// than the server default; requests can never extend past the
// server-side cap (-request-timeout).
const timeoutHeader = "X-Yprov-Timeout-Ms"

// WithRequestTimeout gives every request a context deadline of d
// (<= 0 disables). Clients may shorten it per request via
// X-Yprov-Timeout-Ms; the replication stream is exempt (it is
// long-lived by design).
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Service) { s.requestTimeout = d }
}

// withDeadline installs the per-request context deadline. Handlers
// thread r.Context() through StoreAPI into shard-lock acquisition and
// the WAL commit wait, so a request that outlives its deadline stops
// consuming store resources instead of queueing invisibly.
func (s *Service) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.requestTimeout <= 0 || routeClass(r.URL.EscapedPath()) == "repl" {
			next.ServeHTTP(w, r)
			return
		}
		d := s.requestTimeout
		if hv := r.Header.Get(timeoutHeader); hv != "" {
			// Compare in milliseconds before converting: a huge header
			// value would overflow time.Duration into a negative deadline.
			if ms, err := strconv.ParseInt(hv, 10, 64); err == nil && ms > 0 && ms <= d.Milliseconds() {
				d = time.Duration(ms) * time.Millisecond
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
