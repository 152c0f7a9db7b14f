package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "demo",
		Caption: "a caption",
		Header:  []string{"name", "value", "ratio"},
	}
	t.AddRow("alpha", 42, 0.125)
	t.AddRow("beta-long-name", 7, 12.5)
	return t
}

func TestWriteTextAlignment(t *testing.T) {
	var sb strings.Builder
	if err := sample().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== demo ==", "a caption", "name", "alpha", "beta-long-name", "0.12", "12.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// Header and separator must be equally wide.
	var header, sep string
	for i, l := range lines {
		if strings.HasPrefix(l, "name") {
			header, sep = l, lines[i+1]
			break
		}
	}
	if len(header) == 0 || len(sep) == 0 {
		t.Fatalf("header/separator not found:\n%s", out)
	}
	if !strings.HasPrefix(sep, "----") {
		t.Errorf("separator = %q", sep)
	}
}

func TestWriteMarkdown(t *testing.T) {
	var sb strings.Builder
	if err := sample().WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### demo", "| name | value | ratio |", "| --- | --- | --- |", "| alpha | 42 | 0.12 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(1, 4); got != "25.0%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Percent(1, 0); got != "n/a" {
		t.Errorf("Percent(÷0) = %q", got)
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := &Table{Header: []string{"a"}}
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
}
