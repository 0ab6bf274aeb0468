package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// LintPrometheusText validates a Prometheus text exposition (version
// 0.0.4) the way promlint would: metric-name and label syntax, a TYPE
// line declared once and before the samples it types, parseable sample
// values, non-negative counters, and — for histograms — float (or
// +Inf) le labels, a +Inf bucket, cumulative bucket counts that never
// decrease, and a _count equal to the +Inf bucket.
//
// It returns every problem found (joined with errors.Join), or nil for
// a clean exposition. Both the serve /metrics handler tests and the CLI
// sidecar tests run it, so a malformed exposition fails in-repo before
// a real scraper ever sees it.
func LintPrometheusText(r io.Reader) error {
	var errs []error
	types := map[string]string{} // base metric name -> declared type
	sampled := map[string]bool{} // base names that have emitted samples
	type histState struct {
		lastBucket float64
		lastLe     float64
		sawInf     bool
		infCount   float64
		count      float64
		sawCount   bool
	}
	hists := map[string]*histState{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					errs = append(errs, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line))
					continue
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					errs = append(errs, fmt.Errorf("line %d: invalid metric name %q in TYPE line", lineNo, name))
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					errs = append(errs, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ))
				}
				if _, dup := types[name]; dup {
					errs = append(errs, fmt.Errorf("line %d: duplicate TYPE line for %q", lineNo, name))
				}
				if sampled[name] {
					errs = append(errs, fmt.Errorf("line %d: TYPE line for %q after its samples", lineNo, name))
				}
				types[name] = typ
			}
			continue // other comments (HELP, ...) are fine
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			errs = append(errs, fmt.Errorf("line %d: %w", lineNo, err))
			continue
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && types[b] == "histogram" {
				base = b
				break
			}
		}
		typ, ok := types[base]
		if !ok {
			errs = append(errs, fmt.Errorf("line %d: sample %q has no preceding TYPE line", lineNo, name))
			continue
		}
		sampled[base] = true

		switch typ {
		case "counter":
			if value < 0 {
				errs = append(errs, fmt.Errorf("line %d: counter %q is negative (%v)", lineNo, name, value))
			}
		case "histogram":
			st := hists[base]
			if st == nil {
				st = &histState{lastLe: math.Inf(-1)}
				hists[base] = st
			}
			switch {
			case name == base+"_bucket":
				le, ok := labels["le"]
				if !ok {
					errs = append(errs, fmt.Errorf("line %d: histogram bucket %q without le label", lineNo, name))
					break
				}
				bound, err := parseLe(le)
				if err != nil {
					errs = append(errs, fmt.Errorf("line %d: %q: %w", lineNo, name, err))
					break
				}
				if bound <= st.lastLe {
					errs = append(errs, fmt.Errorf("line %d: %q le=%q out of order", lineNo, name, le))
				}
				st.lastLe = bound
				if value < st.lastBucket {
					errs = append(errs, fmt.Errorf("line %d: %q cumulative count decreased (%v after %v)",
						lineNo, name, value, st.lastBucket))
				}
				st.lastBucket = value
				if math.IsInf(bound, 1) {
					st.sawInf = true
					st.infCount = value
				}
			case name == base+"_count":
				st.count = value
				st.sawCount = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, err)
	}
	for base, st := range hists {
		if !st.sawInf {
			errs = append(errs, fmt.Errorf("histogram %q has no +Inf bucket", base))
		} else if st.sawCount && st.count != st.infCount {
			errs = append(errs, fmt.Errorf("histogram %q: _count %v != +Inf bucket %v", base, st.count, st.infCount))
		}
	}
	return errors.Join(errs...)
}

// parseSample splits "name{label="v",...} value" into its parts.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	labels = map[string]string{}
	if rest[0] == '{' {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], labels); err != nil {
			return "", nil, 0, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", nil, 0, fmt.Errorf("malformed sample value in %q", line)
	}
	value, err = parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q: %w", fields[0], err)
	}
	return name, labels, value, nil
}

// parseLabels parses `k="v",k2="v2"` (the content between braces).
func parseLabels(s string, out map[string]string) error {
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return fmt.Errorf("malformed label pair in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validLabelName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("unquoted label value for %q", key)
		}
		// Scan the quoted value, honouring \" \\ \n escapes.
		var val strings.Builder
		i := 1
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return fmt.Errorf("dangling escape in label %q", key)
				}
				i++
				switch s[i] {
				case '"', '\\':
					val.WriteByte(s[i])
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("bad escape \\%c in label %q", s[i], key)
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(s) {
			return fmt.Errorf("unterminated label value for %q", key)
		}
		if _, dup := out[key]; dup {
			return fmt.Errorf("duplicate label %q", key)
		}
		out[key] = val.String()
		s = s[i+1:]
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return nil
}

func parseLe(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf", "NaN":
		return 0, fmt.Errorf("le=%q is not a valid bucket bound", s)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("le=%q is not a float", s)
	}
	return v, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
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
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
