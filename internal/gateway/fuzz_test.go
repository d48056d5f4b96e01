package gateway

import (
	"bytes"
	"testing"
)

// FuzzReportLine throws arbitrary bytes at the collector's wire-format
// parser. The parser fronts an unauthenticated POST /report, so the bar
// is: never panic, never accept a report that violates its own
// documented bounds (non-empty gateway id, bounded id and body length).
func FuzzReportLine(f *testing.F) {
	f.Add([]byte(`{"gatewayId":"gw-1","sentAtUnixMillis":42,"stats":{"relayed":3}}`))
	f.Add([]byte(`{"gatewayId":"","stats":{}}`))
	f.Add([]byte("this is not json"))
	f.Add([]byte("{"))
	f.Add([]byte(``))
	f.Add([]byte(`{"gatewayId":"` + string(bytes.Repeat([]byte("a"), 200)) + `"}`))
	f.Add(bytes.Repeat([]byte(`[`), 4096))
	f.Fuzz(func(t *testing.T, line []byte) {
		rep, err := parseReportLine(line)
		if err != nil {
			return
		}
		if rep.GatewayID == "" {
			t.Errorf("accepted report with empty gateway id from %q", line)
		}
		if len(rep.GatewayID) > maxGatewayID {
			t.Errorf("accepted %d-byte gateway id (bound %d)", len(rep.GatewayID), maxGatewayID)
		}
		if len(line) > maxReportLine {
			t.Errorf("accepted %d-byte line (bound %d)", len(line), maxReportLine)
		}
	})
}
