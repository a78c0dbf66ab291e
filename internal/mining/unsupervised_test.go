package mining

import (
	"strings"
	"testing"

	"openbi/internal/table"
)

// basket builds the classic transactional fixture: bread+butter implies milk.
func basket() *table.Table {
	t := table.New("basket")
	bread := table.NewNominalColumn("bread", "no", "yes")
	butter := table.NewNominalColumn("butter", "no", "yes")
	milk := table.NewNominalColumn("milk", "no", "yes")
	rows := [][3]int{
		{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 0, 0}, {0, 1, 0},
		{1, 1, 1}, {0, 0, 0}, {1, 1, 1}, {0, 1, 1}, {1, 0, 1},
	}
	for _, r := range rows {
		bread.AppendCode(r[0])
		butter.AppendCode(r[1])
		milk.AppendCode(r[2])
	}
	t.MustAddColumn(bread)
	t.MustAddColumn(butter)
	t.MustAddColumn(milk)
	return t
}

func TestAprioriFindsExpectedRule(t *testing.T) {
	tb := basket()
	ap := NewApriori()
	ap.MinSupport = 0.3
	ap.MinConfidence = 0.8
	rules, err := ap.Mine(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules found")
	}
	found := false
	for _, r := range rules {
		s := r.Format(tb)
		if strings.Contains(s, "bread=yes") && strings.Contains(s, "butter=yes") &&
			strings.Contains(s, "=> milk=yes") {
			found = true
			if r.Confidence != 1 {
				t.Fatalf("bread&butter=>milk confidence = %v, want 1 (5/5)", r.Confidence)
			}
			if r.Lift <= 1 {
				t.Fatalf("lift = %v, want > 1", r.Lift)
			}
		}
	}
	if !found {
		for _, r := range rules {
			t.Log(r.Format(tb))
		}
		t.Fatal("expected rule bread=yes & butter=yes => milk=yes")
	}
}

func TestAprioriSupportMonotone(t *testing.T) {
	tb := basket()
	ap := NewApriori()
	ap.MinSupport = 0.2
	ap.MinConfidence = 0.0001
	rules, err := ap.Mine(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Support < 0.2-1e-9 {
			t.Fatalf("rule below min support: %v", r.Format(tb))
		}
		if r.Confidence < r.Support-1e-9 {
			t.Fatalf("confidence < support is impossible: %v", r.Format(tb))
		}
	}
	// Frequent itemset counts decrease (or stay flat) per level.
	for i := 1; i < len(ap.FrequentItemsets); i++ {
		if ap.FrequentItemsets[i] > ap.FrequentItemsets[i-1]*3 {
			t.Fatalf("itemset counts exploded: %v", ap.FrequentItemsets)
		}
	}
}

func TestAprioriRulesSorted(t *testing.T) {
	tb := basket()
	ap := NewApriori()
	ap.MinSupport = 0.2
	ap.MinConfidence = 0.3
	rules, err := ap.Mine(tb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence+1e-12 {
			t.Fatal("rules not sorted by confidence")
		}
	}
}

func TestAprioriValidation(t *testing.T) {
	tb := basket()
	ap := NewApriori()
	ap.MinSupport = 0
	if _, err := ap.Mine(tb); err == nil {
		t.Fatal("MinSupport 0 should error")
	}
	num := table.New("num")
	x := table.NewNumericColumn("x")
	x.AppendFloat(1)
	num.MustAddColumn(x)
	ap2 := NewApriori()
	if _, err := ap2.Mine(num); err == nil {
		t.Fatal("nominal-less table should error")
	}
}

func TestAprioriDeterministic(t *testing.T) {
	tb := basket()
	mine := func() string {
		ap := NewApriori()
		ap.MinSupport = 0.2
		ap.MinConfidence = 0.5
		rules, err := ap.Mine(tb)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rules {
			b.WriteString(r.Format(tb))
			b.WriteByte('\n')
		}
		return b.String()
	}
	if mine() != mine() {
		t.Fatal("Apriori output not deterministic")
	}
}
