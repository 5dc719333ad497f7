package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// hotspotsDoc holds the hit-rate table and the two offline evaluation
// commands that regenerate it.
const hotspotsDoc = "../../docs/HOTSPOTS.md"

// hitRateHeader fixes the table's column order: the flat command fills
// the first two rate columns and the drift command the last two.
const hitRateHeader = "| k | area | KDE (flat) | persistence (flat) | KDE (drift) | persistence (drift) |"

// TestHotspotsDocTable reruns the offline evaluations docs/HOTSPOTS.md
// documents, flat and under drift, through cmdHotspots, and requires each
// row of the document's hit-rate table to equal the printed report at the
// 4 decimals the report prints.
func TestHotspotsDocTable(t *testing.T) {
	raw, err := os.ReadFile(hotspotsDoc)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string][]string{} // k -> area and the four hit rates
	var flat, drift string
	header := false
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == hitRateHeader:
			header = true
		case header && strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "|---"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			if len(cells) != 6 {
				t.Fatalf("table row %q has %d cells, want 6", line, len(cells))
			}
			table[cells[0]] = cells[1:]
		case header && !strings.HasPrefix(line, "|"):
			header = false
		case strings.HasPrefix(line, "crashprone hotspots ") && !strings.Contains(line, "-export"):
			if strings.Contains(line, "-drift-shift") {
				drift = line
			} else {
				flat = line
			}
		}
	}
	if len(table) != 4 || flat == "" || drift == "" {
		t.Fatalf("%s: found %d table rows, flat command %q, drift command %q; want 4 rows and both commands",
			hotspotsDoc, len(table), flat, drift)
	}

	checked := 0
	for col, cmd := range []string{flat, drift} {
		var out bytes.Buffer
		if err := cmdHotspots(&out, strings.Fields(cmd)[2:]); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		// Report rows read "k area% kde persistence".
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) != 4 || !strings.HasSuffix(f[1], "%") {
				continue
			}
			doc, ok := table[f[0]]
			if !ok {
				t.Errorf("%s prints k=%s, which the table lacks", cmd, f[0])
				continue
			}
			if doc[0] != f[1] {
				t.Errorf("k=%s: the table says area %s, the command prints %s", f[0], doc[0], f[1])
			}
			for i, rate := range f[2:] {
				if want := doc[1+2*col+i]; want != rate {
					t.Errorf("%s: k=%s column %d: the table says %s, the command prints %s", cmd, f[0], 3+2*col+i, want, rate)
				}
				checked++
			}
		}
	}
	if checked != 16 {
		t.Errorf("compared %d hit rates, want the table's 16", checked)
	}
}
