package core

import (
	"strings"
	"testing"
)

func TestItemAnalysis(t *testing.T) {
	tab := bigResults.ItemAnalysis()
	if len(tab.Rows) != 15 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	byLabel := map[string][]string{}
	for _, r := range tab.Rows {
		byLabel[r[0]] = r
	}
	// Identity and Divide By Zero are the hardest items.
	for _, label := range []string{"Identity", "Divide By Zero"} {
		row := byLabel[label]
		if row == nil {
			t.Fatalf("missing %s", label)
		}
		if !strings.HasPrefix(row[1], "0.1") && !strings.HasPrefix(row[1], "0.2") {
			t.Errorf("%s difficulty %s, expected ~0.16", label, row[1])
		}
		if row[4] != "very hard" {
			t.Errorf("%s graded %q", label, row[4])
		}
	}
	// Easy, well-understood items.
	for _, label := range []string{"Distributivity", "Ordering"} {
		row := byLabel[label]
		d := row[1]
		if !(strings.HasPrefix(d, "0.7") || strings.HasPrefix(d, "0.8") || strings.HasPrefix(d, "0.9")) {
			t.Errorf("%s difficulty %s, expected high", label, d)
		}
	}
	// Discrimination positive almost everywhere (ability-driven model).
	negative := 0
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[2], "-") {
			negative++
		}
	}
	if negative > 2 {
		t.Errorf("%d items discriminate negatively", negative)
	}
}

func TestTrainingIntervention(t *testing.T) {
	iv, err := paperResults.RunTrainingIntervention("One or more courses")
	if err != nil {
		t.Fatal(err)
	}
	// The fitted effect is small: somewhere between +0 and +1.5
	// questions, echoing the paper's "not a large one".
	if iv.Gain < -0.5 || iv.Gain > 1.8 {
		t.Fatalf("course-for-everyone gain %.2f out of the paper's band", iv.Gain)
	}
	ivNone, err := paperResults.RunTrainingIntervention("None")
	if err != nil {
		t.Fatal(err)
	}
	if ivNone.TreatedMean >= iv.TreatedMean {
		t.Fatalf("removing all training (%.2f) should not beat universal courses (%.2f)",
			ivNone.TreatedMean, iv.TreatedMean)
	}
}

func TestInterventionReport(t *testing.T) {
	tab := paperResults.InterventionReport()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "small effect") {
		t.Fatalf("expected small effects:\n%s", s)
	}
	if strings.Contains(s, "large effect") {
		t.Fatalf("training should not have a large effect under the fitted model:\n%s", s)
	}
}
