package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ValidateExposition parses data as Prometheus text format (0.0.4)
// and returns the first violation found, or nil. It is the strict
// parser backing the exposition-format tests: beyond line syntax it
// checks that TYPE precedes a family's samples, that histogram
// families expose _bucket/_sum/_count with a +Inf bucket, and that
// bucket counts are cumulative per series.
func ValidateExposition(data []byte) error {
	types := make(map[string]string)          // family -> declared type
	sampled := make(map[string]bool)          // family -> samples seen
	buckets := make(map[string][]bucketPoint) // histogram series (name+labels sans le) -> le points
	histSuffix := make(map[string]map[string]bool)

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, types, sampled); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, labels, value, exemplar, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := name
		var suffix string
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, s)
			if base != name && types[base] == "histogram" {
				fam, suffix = base, s
				break
			}
		}
		typ, declared := types[fam]
		if !declared {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		sampled[fam] = true
		if typ == "histogram" {
			if suffix == "" {
				return fmt.Errorf("line %d: histogram %q sample lacks _bucket/_sum/_count suffix", lineNo, fam)
			}
			if histSuffix[fam] == nil {
				histSuffix[fam] = make(map[string]bool)
			}
			histSuffix[fam][suffix] = true
			if suffix == "_bucket" {
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: %s_bucket without le label", lineNo, fam)
				}
				delete(labels, "le")
				key := fam + renderLabels(labels)
				pt := bucketPoint{le: le, count: value, line: lineNo}
				if exemplar != "" {
					ev, err := parseExemplar(exemplar, line)
					if err != nil {
						return fmt.Errorf("line %d: %w", lineNo, err)
					}
					pt.exVal, pt.hasEx = ev, true
				}
				buckets[key] = append(buckets[key], pt)
			} else if exemplar != "" {
				return fmt.Errorf("line %d: exemplar on non-bucket sample %q", lineNo, name)
			}
		} else if exemplar != "" {
			return fmt.Errorf("line %d: exemplar on non-histogram sample %q", lineNo, name)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for fam, suffixes := range histSuffix {
		for _, want := range []string{"_bucket", "_sum", "_count"} {
			if !suffixes[want] {
				return fmt.Errorf("histogram %q missing %s samples", fam, want)
			}
		}
	}
	for key, pts := range buckets {
		var prev float64
		prevLe := math.Inf(-1)
		infSeen := false
		for _, p := range pts {
			leVal := math.Inf(1)
			if p.le == "+Inf" {
				infSeen = true
			} else {
				var err error
				if leVal, err = strconv.ParseFloat(p.le, 64); err != nil {
					return fmt.Errorf("line %d: bad le %q", p.line, p.le)
				}
			}
			if p.count < prev {
				return fmt.Errorf("line %d: series %s buckets not cumulative (%g < %g)", p.line, key, p.count, prev)
			}
			prev = p.count
			if p.hasEx && (p.exVal > leVal || p.exVal <= prevLe) {
				return fmt.Errorf("line %d: series %s exemplar value %g outside its bucket (%g, %g]",
					p.line, key, p.exVal, prevLe, leVal)
			}
			prevLe = leVal
		}
		if !infSeen {
			return fmt.Errorf("series %s has no +Inf bucket", key)
		}
	}
	return nil
}

type bucketPoint struct {
	le    string
	count float64
	line  int
	exVal float64
	hasEx bool
}

func parseComment(line string, types map[string]string, sampled map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return fmt.Errorf("malformed comment %q", line)
	}
	switch fields[1] {
	case "HELP":
		if !validMetricName(fields[2]) {
			return fmt.Errorf("HELP for invalid metric name %q", fields[2])
		}
	case "TYPE":
		name := fields[2]
		if !validMetricName(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		if len(fields) != 4 {
			return fmt.Errorf("TYPE %s missing type", name)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("TYPE %s has unknown type %q", name, fields[3])
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		if sampled[name] {
			return fmt.Errorf("TYPE for %q after its samples", name)
		}
		types[name] = fields[3]
	default:
		// Free-form comments are legal.
	}
	return nil
}

// parseSample splits `name{k="v",...} value [timestamp] [# exemplar]`
// into parts, validating each. Timestamps (a trailing integer) are
// accepted. The raw exemplar suffix (from '#' on) is returned for the
// caller to validate in context — exemplars are only legal on
// histogram bucket samples, which parseSample cannot know.
func parseSample(line string) (name string, labels Labels, value float64, exemplar string, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, "", fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, "", fmt.Errorf("invalid metric name %q", name)
	}
	labels = Labels{}
	if rest[i] == '{' {
		labels, rest, err = parseLabelSet(rest[i+1:], line)
		if err != nil {
			return "", nil, 0, "", err
		}
	} else {
		rest = rest[i:]
	}
	// The value/timestamp tail cannot contain '#' (label values can,
	// but they are behind us now), so the first '#' past the label set
	// starts the exemplar.
	if j := strings.IndexByte(rest, '#'); j >= 0 {
		exemplar = rest[j:]
		rest = rest[:j]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, "", fmt.Errorf("expected value [timestamp] in %q", line)
	}
	value, err = parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, "", fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, 0, "", fmt.Errorf("bad timestamp %q in %q", fields[1], line)
		}
	}
	return name, labels, value, exemplar, nil
}

// parseLabelSet consumes a label set starting just past the opening
// '{' and returns the labels plus the remainder after the closing '}'.
func parseLabelSet(rest, line string) (Labels, string, error) {
	labels := Labels{}
	for {
		rest = strings.TrimLeft(rest, ",")
		if len(rest) > 0 && rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("malformed labels in %q", line)
		}
		lname := rest[:eq]
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		rest = rest[eq:]
		if len(rest) < 2 || rest[0] != '=' || rest[1] != '"' {
			return nil, "", fmt.Errorf("unquoted label value in %q", line)
		}
		rest = rest[2:]
		var val strings.Builder
		closed := false
		for j := 0; j < len(rest); j++ {
			c := rest[j]
			if c == '\\' {
				if j+1 >= len(rest) {
					return nil, "", fmt.Errorf("dangling escape in %q", line)
				}
				j++
				switch rest[j] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in %q", rest[j], line)
				}
				continue
			}
			if c == '"' {
				rest = rest[j+1:]
				closed = true
				break
			}
			val.WriteString(string(c))
		}
		if !closed {
			return nil, "", fmt.Errorf("unterminated label value in %q", line)
		}
		if _, dup := labels[lname]; dup {
			return nil, "", fmt.Errorf("duplicate label %q in %q", lname, line)
		}
		labels[lname] = val.String()
	}
}

// parseExemplar validates an exemplar suffix `# {k="v",...} value
// [timestamp]` (OpenMetrics syntax: a label set capped at 128 runes,
// a value, and an optional float-seconds timestamp) and returns the
// exemplar value so the caller can check it against the bucket range.
func parseExemplar(ex, line string) (float64, error) {
	rest := strings.TrimLeft(strings.TrimPrefix(ex, "#"), " ")
	if len(rest) == 0 || rest[0] != '{' {
		return 0, fmt.Errorf("exemplar without label set in %q", line)
	}
	labels, rest, err := parseLabelSet(rest[1:], line)
	if err != nil {
		return 0, err
	}
	runes := 0
	for k, v := range labels {
		runes += utf8.RuneCountInString(k) + utf8.RuneCountInString(v)
	}
	if runes > 128 {
		return 0, fmt.Errorf("exemplar label set over 128 runes in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return 0, fmt.Errorf("expected exemplar value [timestamp] in %q", line)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return 0, fmt.Errorf("bad exemplar value %q in %q", fields[0], line)
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseFloat(fields[1], 64); terr != nil {
			return 0, fmt.Errorf("bad exemplar timestamp %q in %q", fields[1], line)
		}
	}
	return v, nil
}

// Sample is one parsed sample line from a Prometheus text exposition.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64
}

// ParseSamples scans a Prometheus text exposition and returns every
// sample, checking line syntax only (ValidateExposition is the full
// format oracle). The benchmark harness under bench/ uses it to diff
// server counters across a measurement window.
func ParseSamples(data []byte) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, _, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, Sample{Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
