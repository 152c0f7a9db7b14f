package experiments

import (
	"fmt"
	"strings"
	"testing"

	"mtracecheck/internal/experiments/report"
)

// renderable asserts a table has content and renders without error.
func renderable(t *testing.T, tbl *report.Table, wantRows int) {
	t.Helper()
	if tbl == nil {
		t.Fatal("nil table")
	}
	if len(tbl.Rows) < wantRows {
		t.Fatalf("%s: %d rows, want at least %d", tbl.Title, len(tbl.Rows), wantRows)
	}
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), tbl.Header[0]) {
		t.Error("rendered output missing header")
	}
}

func TestPlatformsTable(t *testing.T) {
	renderable(t, Platforms(), 3)
}

func TestFig6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	tbl, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, tbl, 8)
	// The paper's trend: distance decreases with k, and test2 (4 threads)
	// is looser than test1 (2 threads) at every k.
	var prev1 int64 = 1 << 62
	for i := 0; i < len(tbl.Rows)-1; i++ {
		var d1, d2 int64
		if _, err := fmtSscan(tbl.Rows[i][1], &d1); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(tbl.Rows[i][2], &d2); err != nil {
			t.Fatal(err)
		}
		if d1 > prev1 {
			t.Errorf("test1 distance rose at k row %d: %d > %d", i, d1, prev1)
		}
		prev1 = d1
		if d2 < d1 {
			t.Errorf("row %d: test2 (%d) tighter than test1 (%d)", i, d2, d1)
		}
	}
}

// TestFig6Reproducible: the limit study is a pure function of the seed —
// the point list the seeded k-medoids search starts from must not take its
// order from a map.
func TestFig6Reproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	a, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Errorf("two runs at one seed differ:\n%v\n%v", a.Rows, b.Rows)
	}
}

func TestFig11Fig12Static(t *testing.T) {
	cfg := Quick()
	f11, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, f11, 21)
	f12, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, f12, 21)
}

func TestFig9And14Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	cfg.Iterations = 48
	f9, f14, err := Fig9And14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, f9, 21)
	renderable(t, f14, 21)
}

func TestTable3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	tbl, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, tbl, 3)
}

func TestLitmusQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	cfg.Iterations = 120
	tbl, err := Litmus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, tbl, 8)
	for _, row := range tbl.Rows {
		if verdict := row[len(row)-1]; verdict != "ok" {
			t.Errorf("clean platform flagged: %v", row)
		}
	}
}

// fmtSscan wraps fmt.Sscan for table cells.
func fmtSscan(s string, v *int64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestNewAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	fr, err := FRAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, fr, 6)
	sat, err := Saturation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, sat, 3)
	at, err := Atomicity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, at, 4)
	ws, err := WSAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, ws, 2)
	pr, err := PruneAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, pr, 8)
	sc, err := ScalingAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, sc, 3)
}

func TestDynPruneQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := DynPrune(Quick())
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, tbl, 2)
}

func TestBiasQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := Bias(Quick())
	if err != nil {
		t.Fatal(err)
	}
	renderable(t, tbl, 6)
}
