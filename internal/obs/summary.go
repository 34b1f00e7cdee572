package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceSummary is the digest of one NDJSON trace: the composed privacy
// spend from the ledger lines plus the top time sinks from the span
// lines. It is what the CLIs print after a -trace run so a human sees
// "what did this run leak, and where did it spend its time" without
// opening the file.
type TraceSummary struct {
	// Spans counts completed spans; Events counts typed events.
	Spans, Events int
	// Releases counts ledger records; Epsilon/Delta is their canonical
	// basic composition (ComposeBasic).
	Releases       int
	Epsilon, Delta float64
	// ByName aggregates span self-time by span name, descending total.
	ByName []SpanStat
	// ByMechanism aggregates ledger spend by mechanism kind.
	ByMechanism []MechanismStat
}

// SpanStat is the per-name aggregate of span durations.
type SpanStat struct {
	Name  string
	Count int
	// Total is Σ(end−start) in the trace's clock unit.
	Total int64
}

// MechanismStat is the per-kind aggregate of ledger spend. Epsilon is
// the kind's basic composition (ComposeBasic), exact and rounded once as
// the headline is.
type MechanismStat struct {
	Mechanism string
	Count     int
	Epsilon   float64
}

// Summarize reads an NDJSON trace stream and aggregates it. Unknown
// record types are ignored (forward compatibility); malformed lines are
// errors.
func Summarize(r io.Reader) (*TraceSummary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	type anyLine struct {
		Type string `json:"type"`
		// span fields
		Name  string `json:"name"`
		Start int64  `json:"start"`
		End   int64  `json:"end"`
		// ledger fields
		Mechanism string  `json:"mechanism"`
		Epsilon   float64 `json:"epsilon"`
		Delta     float64 `json:"delta"`
		Seq       uint64  `json:"seq"`
	}
	s := &TraceSummary{}
	byName := make(map[string]*SpanStat)
	byMech := make(map[string][]float64) // each kind's ε, in trace order
	var eps, del []float64
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec anyLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		switch rec.Type {
		case "span":
			s.Spans++
			st, ok := byName[rec.Name]
			if !ok {
				st = &SpanStat{Name: rec.Name}
				byName[rec.Name] = st
			}
			st.Count++
			st.Total += rec.End - rec.Start
		case "event":
			s.Events++
		case "ledger":
			s.Releases++
			eps = append(eps, rec.Epsilon)
			del = append(del, rec.Delta)
			kind := rec.Mechanism
			if kind == "" {
				kind = "(unlabeled)"
			}
			byMech[kind] = append(byMech[kind], rec.Epsilon)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s.Epsilon, s.Delta = ComposeBasic(eps, del)
	for _, st := range byName {
		s.ByName = append(s.ByName, *st)
	}
	sort.Slice(s.ByName, func(i, j int) bool {
		if s.ByName[i].Total != s.ByName[j].Total {
			return s.ByName[i].Total > s.ByName[j].Total
		}
		return s.ByName[i].Name < s.ByName[j].Name
	})
	for kind, eps := range byMech {
		e, _ := ComposeBasic(eps, nil)
		s.ByMechanism = append(s.ByMechanism, MechanismStat{Mechanism: kind, Count: len(eps), Epsilon: e})
	}
	sort.Slice(s.ByMechanism, func(i, j int) bool {
		if s.ByMechanism[i].Epsilon != s.ByMechanism[j].Epsilon { //dplint:ignore floateq display ordering on aggregated totals, no guarantee depends on the tie
			return s.ByMechanism[i].Epsilon > s.ByMechanism[j].Epsilon
		}
		return s.ByMechanism[i].Mechanism < s.ByMechanism[j].Mechanism
	})
	return s, nil
}

// Render writes the summary as aligned text: the composed privacy spend
// first (the headline number), then the top time sinks.
func (s *TraceSummary) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "privacy ledger: %d release(s), composed eps=%.6g delta=%.3g\n",
		s.Releases, s.Epsilon, s.Delta); err != nil {
		return err
	}
	for _, m := range s.ByMechanism {
		if _, err := fmt.Fprintf(w, "  %-24s %4d release(s)  eps=%.6g\n", m.Mechanism, m.Count, m.Epsilon); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "trace: %d span(s), %d event(s)\n", s.Spans, s.Events); err != nil {
		return err
	}
	top := s.ByName
	if len(top) > 10 {
		top = top[:10]
	}
	for _, st := range top {
		if _, err := fmt.Fprintf(w, "  %-24s %6d span(s)  total=%d\n", st.Name, st.Count, st.Total); err != nil {
			return err
		}
	}
	return nil
}
