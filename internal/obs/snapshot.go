package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// FamilySnapshot is a point-in-time copy of one metric family: its
// exposition header plus every collected sample, in collection order.
type FamilySnapshot struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// RegistrySnapshot is a point-in-time copy of a whole registry,
// families sorted by name. Snapshots are plain data: they can cross
// the wire as JSON and render back to exposition text.
type RegistrySnapshot struct {
	Families []FamilySnapshot
}

// Snapshot collects every registered family — including GaugeFunc and
// CollectFunc-backed series, whose callbacks run at snapshot time
// exactly as they do at scrape time — into a plain copy.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	out := RegistrySnapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		f.mu.Lock()
		cols := make([]collector, len(f.cols))
		copy(cols, f.cols)
		f.mu.Unlock()
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		for _, c := range cols {
			fs.Samples = append(fs.Samples, c.collect()...)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}

// Family returns the named family, or nil.
func (s *RegistrySnapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// WriteText renders the snapshot in the exposition format; a scrape
// (Registry.WriteText) is the live registry's snapshot rendered here.
func (s *RegistrySnapshot) WriteText(w io.Writer) {
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type)
		for _, sm := range f.Samples {
			fmt.Fprintf(w, "%s%s%s %s\n", f.Name, sm.Suffix, sm.Labels, formatFloat(sm.Value))
		}
	}
}

// histogramSuffixes are the series suffixes a histogram or summary
// family owns in the exposition.
var histogramSuffixes = []string{"_bucket", "_sum", "_count"}

// ParseText parses a Prometheus text exposition (version 0.0.4) back
// into a snapshot, validating as it goes: every sample line must
// parse, histogram sub-series must belong to a declared histogram or
// summary family, and a series may not appear twice. This is the
// validation the CI scrape check runs against every node's /metrics,
// and the inverse of WriteText — parse(render(registry)) is lossless
// up to sample ordering.
func ParseText(r io.Reader) (RegistrySnapshot, error) {
	var snap RegistrySnapshot
	byName := make(map[string]*FamilySnapshot)
	seen := make(map[string]bool)
	family := func(name string) *FamilySnapshot {
		if f, ok := byName[name]; ok {
			return f
		}
		snap.Families = append(snap.Families, FamilySnapshot{Name: name, Type: "untyped"})
		f := &snap.Families[len(snap.Families)-1]
		byName[name] = f
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parseComment(line)
			if !ok {
				continue // free-form comment
			}
			switch kind {
			case "HELP":
				family(name).Help = rest
			case "TYPE":
				f := family(name)
				if len(f.Samples) > 0 {
					return snap, fmt.Errorf("obs: parse line %d: TYPE for %q after its samples", lineNo, name)
				}
				f.Type = rest
			}
			continue
		}
		series, labels, value, err := parseSample(line)
		if err != nil {
			return snap, fmt.Errorf("obs: parse line %d: %w", lineNo, err)
		}
		name, suffix := series, ""
		for _, sfx := range histogramSuffixes {
			base := strings.TrimSuffix(series, sfx)
			if base == series {
				continue
			}
			if f, ok := byName[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
				name, suffix = base, sfx
				break
			}
		}
		f := family(name)
		// A histogram owns only suffixed sub-series; a summary also
		// legitimately exposes quantile samples on its base name.
		if f.Type == "histogram" && suffix == "" {
			return snap, fmt.Errorf("obs: parse line %d: bare sample %q in %s family", lineNo, series, f.Type)
		}
		key := series + labels
		if seen[key] {
			return snap, fmt.Errorf("obs: parse line %d: duplicate series %s%s", lineNo, series, labels)
		}
		seen[key] = true
		f.Samples = append(f.Samples, Sample{Suffix: suffix, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return snap, fmt.Errorf("obs: parse: %w", err)
	}
	// Parsed maps rebuilt pointers into snap.Families; re-sorting here
	// would invalidate byName, but nothing reads it past this point.
	sort.Slice(snap.Families, func(i, j int) bool { return snap.Families[i].Name < snap.Families[j].Name })
	return snap, nil
}

// parseComment splits "# HELP name rest" / "# TYPE name rest".
func parseComment(line string) (kind, name, rest string, ok bool) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", false
	}
	if fields[1] != "HELP" && fields[1] != "TYPE" {
		return "", "", "", false
	}
	kind, name = fields[1], fields[2]
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kind, name, rest, true
}

// parseSample splits one exposition sample line into the series name,
// the rendered label set (verbatim, "" when absent), and the value.
// An optional trailing timestamp is accepted and discarded.
func parseSample(line string) (series, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 && i < strings.IndexByte(rest+" ", ' ') {
		series = rest[:i]
		end, err := scanLabels(rest[i:])
		if err != nil {
			return "", "", 0, err
		}
		labels = rest[i : i+end]
		rest = strings.TrimSpace(rest[i+end:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", 0, fmt.Errorf("malformed sample %q", line)
		}
		series = fields[0]
		rest = strings.TrimSpace(strings.TrimPrefix(rest, series))
	}
	if series == "" {
		return "", "", 0, fmt.Errorf("malformed sample %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("malformed sample %q", line)
	}
	value, perr := strconv.ParseFloat(fields[0], 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("bad value %q: %v", fields[0], perr)
	}
	if len(fields) == 2 {
		if _, perr := strconv.ParseInt(fields[1], 10, 64); perr != nil {
			return "", "", 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return series, labels, value, nil
}

// scanLabels walks a `{k="v",...}` label set starting at s[0] == '{'
// and returns the index just past the closing brace, honoring escaped
// quotes inside label values.
func scanLabels(s string) (int, error) {
	if len(s) == 0 || s[0] != '{' {
		return 0, fmt.Errorf("malformed label set %q", s)
	}
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip the escaped rune
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("unterminated label set %q", s)
}
