package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceData is the decoded contents of one or more observability NDJSON
// streams: the four record kinds a run can produce, separated by type.
// It is what cmd/dplearn-trace reconstructs waterfalls and ε attribution
// from.
type TraceData struct {
	Spans  []SpanRecord
	Events []EventRecord
	Ledger []LedgerRecord
	Access []AccessRecord
}

// Merge appends other's records onto d, so multiple NDJSON files (a
// trace stream plus a separate access log, say) can be read into one
// joined dataset.
func (d *TraceData) Merge(other TraceData) {
	d.Spans = append(d.Spans, other.Spans...)
	d.Events = append(d.Events, other.Events...)
	d.Ledger = append(d.Ledger, other.Ledger...)
	d.Access = append(d.Access, other.Access...)
}

// ReadTraceNDJSON decodes an observability NDJSON stream, dispatching on
// each line's "type" discriminator. Unknown types are skipped (forward
// compatibility), but lines that are not valid JSON objects are an
// error — these are audit artifacts, so a corrupt line must not be
// dropped silently. "event" lines, which current tracers no longer
// write, are still decoded, so older trace files read as before.
func ReadTraceNDJSON(r io.Reader) (TraceData, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out TraceData
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var disc struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &disc); err != nil {
			return TraceData{}, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		var err error
		switch disc.Type {
		case "span":
			var rec SpanRecord
			if err = json.Unmarshal(sc.Bytes(), &rec); err == nil {
				out.Spans = append(out.Spans, rec)
			}
		case "event":
			var rec EventRecord
			if err = json.Unmarshal(sc.Bytes(), &rec); err == nil {
				out.Events = append(out.Events, rec)
			}
		case "ledger":
			var rec ledgerLine
			if err = json.Unmarshal(sc.Bytes(), &rec); err == nil {
				out.Ledger = append(out.Ledger, rec.LedgerRecord)
			}
		case "access":
			var rec accessLine
			if err = json.Unmarshal(sc.Bytes(), &rec); err == nil {
				out.Access = append(out.Access, rec.AccessRecord)
			}
		}
		if err != nil {
			return TraceData{}, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return TraceData{}, err
	}
	return out, nil
}
